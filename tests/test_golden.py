"""Byte-identical report guard.

Pins the sha256 of the CLI reports (``info``, ``multiplier``,
``classify``) on the catalog algebras and on seeded base changes of
them, integral and with rational constants, and of every verify suite's
report at the default caps.  A change to the linear algebra or to the
chain complex must leave every one of these bytes as it was.
"""

import hashlib
from fractions import Fraction

import pytest

from liemult import catalog
from liemult.cli import main
from liemult.liealg import change_of_basis
from liemult.lieconst import render
from liemult.linalg import Matrix
from liemult.randgen import Lcg, random_unimodular
from liemult.verify import SUITES, run_suite


def _cases():
    cases = {e.label: e.algebra for e in catalog.standard_entries(4, 3)}
    rng = Lcg(2024)
    for label, alg in list(cases.items()):
        n = alg.dim
        if not alg.table or n > 9:
            continue
        u = random_unimodular(n, rng, steps=4 * n)
        cases[f"{label}@unimodular"] = change_of_basis(alg, u)
        # scaled rows give structure constants with denominators 2 and 3
        scale = [Fraction(1, 2), Fraction(3)] + [Fraction(1)] * (n - 2)
        p = Matrix.from_rows([[s * x for x in row] for s, row in zip(scale, u.iter_rows())])
        cases[f"{label}@rational"] = change_of_basis(alg, p)
    return cases


CASES = _cases()

CLI_SHA256 = {
    "A(0)": "8660b8bd5ec8171559ee5a888c8bcfa18daac5ab89dd0aa2e35e5eeea11b559e",
    "A(1)": "1a87ba045ca5f7456032ad45c7db56dabd7bb5007527b7b2e2c048cda4daf5f8",
    "A(2)": "46a3b4f9c15f29eb1683ce2d6ed6949d5ba3055bc16d9532d15081368b88913f",
    "A(3)": "6cff2a80c8c6060f09e06a4904f1c9c20366e18fd3cc99f5efcf51e33a9e35c2",
    "A(4)": "d73f8cf3fd7118a7ca6d9fc585689e3b6c2f4bfc5f541b7b6967b5ab5f9dc35a",
    "H(1)": "c2436b7aaddfdfea36a8e534439f7d2f82df6075a51b8ff80af18e007d37c9ca",
    "H(1)@rational": "c2436b7aaddfdfea36a8e534439f7d2f82df6075a51b8ff80af18e007d37c9ca",
    "H(1)@unimodular": "c2436b7aaddfdfea36a8e534439f7d2f82df6075a51b8ff80af18e007d37c9ca",
    "H(2)": "a942215d62aa688f80f18857f9b95c8b144f40d7420b3657cad6feed9e5a6ce8",
    "H(2)@rational": "a942215d62aa688f80f18857f9b95c8b144f40d7420b3657cad6feed9e5a6ce8",
    "H(2)@unimodular": "a942215d62aa688f80f18857f9b95c8b144f40d7420b3657cad6feed9e5a6ce8",
    "H(3)": "958c4d3633eef8dd15753da2a8a38d981263bd16623ad64a63eef420db326251",
    "H(3)@rational": "958c4d3633eef8dd15753da2a8a38d981263bd16623ad64a63eef420db326251",
    "H(3)@unimodular": "958c4d3633eef8dd15753da2a8a38d981263bd16623ad64a63eef420db326251",
    "H(4)": "51cbe3679fd7e3c18c60efaa3871e43a28639a7fa96c8dc51fb929e0cd3e67bd",
    "H(4)@rational": "51cbe3679fd7e3c18c60efaa3871e43a28639a7fa96c8dc51fb929e0cd3e67bd",
    "H(4)@unimodular": "51cbe3679fd7e3c18c60efaa3871e43a28639a7fa96c8dc51fb929e0cd3e67bd",
    "HplusA(1,0)": "c2436b7aaddfdfea36a8e534439f7d2f82df6075a51b8ff80af18e007d37c9ca",
    "HplusA(1,0)@rational": "c2436b7aaddfdfea36a8e534439f7d2f82df6075a51b8ff80af18e007d37c9ca",
    "HplusA(1,0)@unimodular": "c2436b7aaddfdfea36a8e534439f7d2f82df6075a51b8ff80af18e007d37c9ca",
    "HplusA(1,1)": "8c2f267c797defef7b2f0b8e9c2d8d19f626361be9c932b41549b5e80c65f1b0",
    "HplusA(1,1)@rational": "8c2f267c797defef7b2f0b8e9c2d8d19f626361be9c932b41549b5e80c65f1b0",
    "HplusA(1,1)@unimodular": "8c2f267c797defef7b2f0b8e9c2d8d19f626361be9c932b41549b5e80c65f1b0",
    "HplusA(1,2)": "f735ac0acee3c877e7689dd939287f403b26aa725a15b78280cc5c0205d73528",
    "HplusA(1,2)@rational": "f735ac0acee3c877e7689dd939287f403b26aa725a15b78280cc5c0205d73528",
    "HplusA(1,2)@unimodular": "f735ac0acee3c877e7689dd939287f403b26aa725a15b78280cc5c0205d73528",
    "HplusA(1,3)": "a848417ae3bd8ffd4f1c16ef968a1003ed1f086598d30a21274d81521f75652a",
    "HplusA(1,3)@rational": "a848417ae3bd8ffd4f1c16ef968a1003ed1f086598d30a21274d81521f75652a",
    "HplusA(1,3)@unimodular": "a848417ae3bd8ffd4f1c16ef968a1003ed1f086598d30a21274d81521f75652a",
    "HplusA(2,0)": "a942215d62aa688f80f18857f9b95c8b144f40d7420b3657cad6feed9e5a6ce8",
    "HplusA(2,0)@rational": "a942215d62aa688f80f18857f9b95c8b144f40d7420b3657cad6feed9e5a6ce8",
    "HplusA(2,0)@unimodular": "a942215d62aa688f80f18857f9b95c8b144f40d7420b3657cad6feed9e5a6ce8",
    "HplusA(2,1)": "2c245749d8e3ca60b77b170111d3fcf7309fab75fb2cbaac849d0c316e63eaa1",
    "HplusA(2,1)@rational": "2c245749d8e3ca60b77b170111d3fcf7309fab75fb2cbaac849d0c316e63eaa1",
    "HplusA(2,1)@unimodular": "2c245749d8e3ca60b77b170111d3fcf7309fab75fb2cbaac849d0c316e63eaa1",
    "HplusA(2,2)": "210b45440cddd583ab7beb98c57d3a16b26582d935ba22fde25febc32bc6f9ea",
    "HplusA(2,2)@rational": "210b45440cddd583ab7beb98c57d3a16b26582d935ba22fde25febc32bc6f9ea",
    "HplusA(2,2)@unimodular": "210b45440cddd583ab7beb98c57d3a16b26582d935ba22fde25febc32bc6f9ea",
    "HplusA(2,3)": "4ff20023134ec0e7c8ede9a6d789aabba42cc9f5343d52ec5135e2089d9554ac",
    "HplusA(2,3)@rational": "4ff20023134ec0e7c8ede9a6d789aabba42cc9f5343d52ec5135e2089d9554ac",
    "HplusA(2,3)@unimodular": "4ff20023134ec0e7c8ede9a6d789aabba42cc9f5343d52ec5135e2089d9554ac",
    "HplusA(3,0)": "958c4d3633eef8dd15753da2a8a38d981263bd16623ad64a63eef420db326251",
    "HplusA(3,0)@rational": "958c4d3633eef8dd15753da2a8a38d981263bd16623ad64a63eef420db326251",
    "HplusA(3,0)@unimodular": "958c4d3633eef8dd15753da2a8a38d981263bd16623ad64a63eef420db326251",
    "HplusA(3,1)": "3b96211bc3abe556374718ecbb4e96eefd042b0205f875eacbc9c00d9348510a",
    "HplusA(3,1)@rational": "3b96211bc3abe556374718ecbb4e96eefd042b0205f875eacbc9c00d9348510a",
    "HplusA(3,1)@unimodular": "3b96211bc3abe556374718ecbb4e96eefd042b0205f875eacbc9c00d9348510a",
    "HplusA(3,2)": "1d24a76e219ce39d56e2ace4e05a2cf8724e5d5de67815eddae48cf68a72d903",
    "HplusA(3,2)@rational": "1d24a76e219ce39d56e2ace4e05a2cf8724e5d5de67815eddae48cf68a72d903",
    "HplusA(3,2)@unimodular": "1d24a76e219ce39d56e2ace4e05a2cf8724e5d5de67815eddae48cf68a72d903",
    "HplusA(3,3)": "b38431e845b84cc337dd02e145bdc51318cffdf81533326bfb843fbfc5a67587",
    "HplusA(4,0)": "51cbe3679fd7e3c18c60efaa3871e43a28639a7fa96c8dc51fb929e0cd3e67bd",
    "HplusA(4,0)@rational": "51cbe3679fd7e3c18c60efaa3871e43a28639a7fa96c8dc51fb929e0cd3e67bd",
    "HplusA(4,0)@unimodular": "51cbe3679fd7e3c18c60efaa3871e43a28639a7fa96c8dc51fb929e0cd3e67bd",
    "HplusA(4,1)": "ddedc0e53850da7f5b76d76b64a29fd804c61ab54102810105e0c6316f94f663",
    "HplusA(4,2)": "1281fcfde56b25bb18de5ac27d2b87fee4f5ac86b72d37295016e3d9bf89c259",
    "HplusA(4,3)": "bcd663f45ab06b1a71978a5d22edbc16ecd5bac927783350612d7282addc6c1e",
    "L3414": "20d10c78d51d34d48c392894cf0908bb5c41f4aee9047e29bd27e222f2800e7c",
    "L3414@rational": "20d10c78d51d34d48c392894cf0908bb5c41f4aee9047e29bd27e222f2800e7c",
    "L3414@unimodular": "20d10c78d51d34d48c392894cf0908bb5c41f4aee9047e29bd27e222f2800e7c",
    "L4524": "9e418df8a5c8af432f8488a96a0fd87c517cf19aa0fd35322bc5afc9a6ba1ea2",
    "L4524@rational": "9e418df8a5c8af432f8488a96a0fd87c517cf19aa0fd35322bc5afc9a6ba1ea2",
    "L4524@unimodular": "9e418df8a5c8af432f8488a96a0fd87c517cf19aa0fd35322bc5afc9a6ba1ea2",
    "L4524plusA1": "9ec1e709c75e143d8929ec6c51c29fb2138ccd843fc69a00dbf287f7d82c773c",
    "L4524plusA1@rational": "9ec1e709c75e143d8929ec6c51c29fb2138ccd843fc69a00dbf287f7d82c773c",
    "L4524plusA1@unimodular": "9ec1e709c75e143d8929ec6c51c29fb2138ccd843fc69a00dbf287f7d82c773c",
}

SUITE_SHA256 = {
    "bounds": "80367615e06a38b5cbbf09508bcb4e4cdcb41dcdefda2447853d2c6dc870bbd5",
    "classification": "704940c5429231acdd300a9d778d48a988ef29d08ba2072668ade095557883f4",
    "formulas": "37023423b5f88058feefb3242fd7cc2b41d29d18fd287e96f41cb2b7af06f617",
    "kunneth": "d25f653d806a783a5b859e63348613c574b4103132cb85c082b09a50eab200bd",
    "quotient": "96132774c8416e2d68c984c05802dca61a2ea231b22402b621d8378b2bec73b9",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_reports(capsys, tmp_path, alg):
    path = tmp_path / "alg.lie"
    path.write_text(render(alg), encoding="utf-8")
    capsys.readouterr()
    out = []
    for command in ("info", "multiplier", "classify"):
        code = main([command, str(path)])
        out.append(f"{command} exit={code}\n{capsys.readouterr().out}")
    return "".join(out)


@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_reports_are_pinned(capsys, tmp_path, label):
    assert _digest(cli_reports(capsys, tmp_path, CASES[label])) == CLI_SHA256[label]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_reports_are_pinned(suite):
    lines = run_suite(suite, 4, 3, 9, 7).lines()
    assert _digest("\n".join(lines) + "\n") == SUITE_SHA256[suite]


INVALID_FILES = {
    "integral": (
        "dim 6\n[e1,e2] = e3\n[e1,e3] = e4\n[e1,e4] = e5\n[e2,e3] = e5\n"
        "[e3,e4] = e6 - 2 e1\n",
        "error: Jacobi identity fails on (e1,e2,e4): defect -2*e1 + 1*e6\n",
    ),
    "rational": (
        "dim 6\n[e1,e2] = 1/2 e3\n[e1,e3] = 2/3 e4\n[e1,e4] = 3/4 e5\n"
        "[e2,e3] = 3/5 e5\n[e4,e5] = 4/9 e6 + 1/2 e2\n",
        "error: Jacobi identity fails on (e1,e3,e5): defect 1/3*e2 + 8/27*e6\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(INVALID_FILES))
def test_invalid_file_stderr_is_pinned(capsys, tmp_path, kind):
    text, stderr = INVALID_FILES[kind]
    path = tmp_path / "invalid.lie"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", stderr)
