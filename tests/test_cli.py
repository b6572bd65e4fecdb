"""CLI commands, exit codes and report determinism."""

import re
from pathlib import Path

import pytest

from liemult import classifier, cli, verify
from liemult.classifier import Fingerprint
from liemult.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def h2_file(tmp_path):
    path = tmp_path / "h2.lie"
    path.write_text("dim 5\n[e1,e2] = e5\n[e3,e4] = e5\n")
    return str(path)


@pytest.fixture
def l3414_file(tmp_path):
    path = tmp_path / "l3414.lie"
    path.write_text("dim 4\n[e1,e2] = e3\n[e1,e3] = e4\n")
    return str(path)


def test_info(capsys, l3414_file):
    code, out, _ = run(capsys, "info", l3414_file)
    assert code == 0
    assert "n=4" in out
    assert "dimL2=2" in out
    assert "dimZ=1" in out
    assert "nilpotent=yes" in out
    assert "class=3" in out
    assert "lcs=4,2,1,0" in out


def test_multiplier_h2(capsys, h2_file):
    code, out, _ = run(capsys, "multiplier", h2_file)
    assert code == 0
    assert "dimM=5" in out
    assert "t=5" in out
    assert "s=2" in out


def test_classify_l3414(capsys, l3414_file):
    code, out, _ = run(capsys, "classify", l3414_file)
    assert code == 0
    assert "status=Classified" in out
    assert "family=L3414" in out
    assert "s=2" in out


def test_classify_hplusa_params(capsys, tmp_path):
    path = tmp_path / "h1a2.lie"
    path.write_text("dim 5\n[e1,e2] = e3\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert "family=HplusA" in out
    assert "m=1" in out
    assert "k=2" in out
    assert "s=0" in out


def test_classify_out_of_scope_exits_zero(capsys, tmp_path):
    path = tmp_path / "h1h1.lie"
    path.write_text("dim 6\n[e1,e2] = e3\n[e4,e5] = e6\n")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert "status=OutOfScope" in out
    assert "s=3" in out


def test_classify_theorem_violation_exits_one(capsys, monkeypatch, h2_file):
    # no real algebra breaks the pins, so hand classify a fingerprint that does
    fp = Fingerprint(n=5, derived_dim=2, center_dim=1, nilpotency_class=3, dim_m=7, t=3, s=0)
    monkeypatch.setattr(classifier, "fingerprint", lambda L: fp)
    code, out, err = run(capsys, "classify", h2_file)
    assert (code, err) == (1, "")
    assert out == ("status=TheoremViolation\ns=0\nn=5\ndimL2=2\ndimZ=1\nclass=3\n"
                   "dimM=7\nt=3\nnotes=s=0 but pins for H(1)+A(n-3) fail\n")


def test_verify_reports_a_theorem_violation(capsys, monkeypatch):
    case = next(c for c in verify.build_population(2, 1, 7)
                if c.case_id.startswith("cob[") and c.algebra.brackets)
    fp = Fingerprint(n=5, derived_dim=2, center_dim=1, nilpotency_class=3, dim_m=7, t=3, s=0)
    real = classifier.fingerprint
    monkeypatch.setattr(classifier, "fingerprint", lambda L: fp if L is case.algebra else real(L))
    code, out, _ = run(capsys, "verify", "--suite", "classification",
                       "--max-m", "2", "--max-k", "1", "--max-n", "4")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL classify-sweep[{case.case_id}]: s=0 status=TheoremViolation"]
    assert lines[-2].endswith(" failures=1")
    assert lines[-1] == "result=fail"


def test_exit_code_syntax_error(capsys, tmp_path):
    path = tmp_path / "bad.lie"
    path.write_text("dim 3\n[e1,e2] == e3\n")
    code, _, err = run(capsys, "multiplier", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("text, line, column", [
    ("dim " + "9" * 5000 + "\n", 1, 5),
    ("dim 3\n[e1,e2] = " + "7" * 5000 + " e3\n", 2, 11),
    ("dim 3\n[e1,e" + "2" * 5000 + "] = e3\n", 2, 6),
    ("dim 99999999999999999999\n", 1, 5),
], ids=["dim", "coefficient", "index", "dim-above-limit"])
def test_exit_code_oversized_literal(capsys, tmp_path, text, line, column):
    # int() refuses decimal literals beyond the interpreter's digit limit,
    # and parse a dimension above lieconst.MAX_DIM
    path = tmp_path / "long.lie"
    path.write_text(text)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {line}, column {column}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "info", "/nonexistent/thing.lie")
    assert code == 2
    assert err


def test_exit_code_directory_argument(capsys, tmp_path):
    code, out, err = run(capsys, "info", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.lie"
    path.write_bytes("# caf\xe9\ndim 3\n[e1,e2] = e3\n".encode("latin-1"))
    code, out, err = run(capsys, "multiplier", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_invalid_algebra(capsys, tmp_path):
    path = tmp_path / "jacobi.lie"
    path.write_text("dim 3\n[e1,e2] = e3\n[e1,e3] = e1\n")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 3
    assert "Jacobi" in err
    path2 = tmp_path / "anti.lie"
    path2.write_text("dim 3\n[e2,e1] = e3\n")
    code, _, _ = run(capsys, "info", str(path2))
    assert code == 3


def test_exit_code_precondition_failures(capsys, tmp_path):
    abelian = tmp_path / "a4.lie"
    abelian.write_text("dim 4\n")
    code, _, err = run(capsys, "classify", str(abelian))
    assert code == 4
    assert "non-abelian" in err
    cross = tmp_path / "cross.lie"
    cross.write_text("dim 3\n[e1,e2] = e3\n[e1,e3] = -e2\n[e2,e3] = e1\n")
    code, _, _ = run(capsys, "classify", str(cross))
    assert code == 4


def test_catalog_writes_file_and_round_trips(capsys, tmp_path):
    out_file = tmp_path / "h2a1.lie"
    code, _, _ = run(capsys, "catalog", "H", "2", "--plus", "A", "1",
                     "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("dim 6\n")
    code, out, _ = run(capsys, "multiplier", str(out_file))
    assert code == 0
    assert "dimM=9" in out


def test_catalog_stdout(capsys):
    code, out, _ = run(capsys, "catalog", "L3414")
    assert code == 0
    assert out == "dim 4\n[e1,e2] = e3\n[e1,e3] = e4\n"


def test_catalog_bad_params(capsys):
    code, _, err = run(capsys, "catalog", "H", "0")
    assert code == 4
    assert err


@pytest.mark.parametrize("params, message", [
    (("0", "1"), "Heisenberg parameter must be >= 1, got 0"),
    (("1", "-1"), "abelian dimension must be >= 0, got -1"),
    (("0", "-1"), "Heisenberg parameter must be >= 1, got 0"),
])
def test_catalog_hplusa_parameter_errors(capsys, params, message):
    assert run(capsys, "catalog", "HplusA", *params) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["A"], "A takes 1 parameter, got 0"),
    (["HplusA", "1"], "HplusA takes 2 parameters, got 1"),
    (["H", "1", "2"], "H takes 1 parameter, got 2"),
    (["A", "2", "--plus", "H"], "H takes 1 parameter, got 0"),
    (["H", "x"], "catalog parameters must be integers, got ['x']"),
    (["A", "60000", "--plus", "A", "60000"],
     "dimension 120000 above 100000, the largest a file may declare"),
])
def test_catalog_wrong_parameter_count(capsys, argv, message):
    assert run(capsys, "catalog", *argv) == (4, "", f"error: {message}\n")


def test_verify_small_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kunneth")
    assert code == 0
    assert "result=pass" in out
    assert "suite=kunneth cases=45 failures=0" in out


def test_verify_reports_are_deterministic(capsys):
    args = ("verify", "--suite", "formulas", "--max-m", "2", "--max-k", "1",
            "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("flag,value", [("--max-m", "-1"), ("--max-k", "-3"), ("--max-n", "-2")])
def test_verify_rejects_negative_cap(capsys, flag, value):
    # argparse refuses the value and exits 2, as for any other bad flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "formulas", flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be non-negative, got {value}" in captured.err


@pytest.mark.parametrize("value", ["0", "1", "2"])
def test_verify_rejects_max_n_below_three(capsys, value):
    # the classification's s0-series starts at n = 3: a smaller cap would
    # run none of its cases and still report a pass
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "classification", "--max-n", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: argument --max-n: must be at least 3, got {value}" in captured.err


def test_verify_refuses_max_k_above_its_bound(capsys):
    # quotient lists 2^(K+1) central coordinate subsets per H(m)+A(K)
    # entry, so K = 13 would run twice as long as the bound, and K = 30 never ends
    assert cli.build_parser().parse_args(
        ["verify", "--suite", "quotient", "--max-k", str(cli.MAX_K)]).max_k == cli.MAX_K == 12
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "quotient", "--max-k", str(cli.MAX_K + 1)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument --max-k: must be at most 12, got 13" in captured.err


def test_verify_refuses_max_m_above_its_bound(capsys):
    # classification grows about as M^3.3 at the default K, so
    # --max-m 1000 would run for hours
    assert cli.build_parser().parse_args(
        ["verify", "--suite", "classification", "--max-m", str(cli.MAX_M)]).max_m == cli.MAX_M == 32
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "classification", "--max-m", str(cli.MAX_M + 1)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument --max-m: must be at most 32, got 33" in captured.err


def test_verify_cap_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "formulas", "--max-m", "two"])
    assert exc.value.code == 2
    assert "argument --max-m: invalid int value: 'two'" in capsys.readouterr().err


NON_NILPOTENT = {
    "sl2": "dim 3\n[e1,e2] = e3\n[e1,e3] = -2 e1\n[e2,e3] = 2 e2\n",
    "so3": "dim 3\n[e1,e2] = e3\n[e1,e3] = -e2\n[e2,e3] = e1\n",
    "affine2": "dim 2\n[e1,e2] = e2\n",
}


@pytest.mark.parametrize("name", sorted(NON_NILPOTENT))
def test_non_nilpotent_multiplier_and_classify(capsys, tmp_path, name):
    # sl2 and so(3) are simple, so M = 0 by Whitehead's second lemma; on
    # the 2-dim non-abelian algebra d2 is injective, so M = 0 as well
    path = tmp_path / f"{name}.lie"
    path.write_text(NON_NILPOTENT[name])
    n = int(NON_NILPOTENT[name].split()[1])
    code, out, err = run(capsys, "multiplier", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [f"n={n}", "dimM=0"]
    code, out, err = run(capsys, "info", str(path))
    assert code == 0 and "nilpotent=no" in out
    code, out, err = run(capsys, "classify", str(path))
    assert (code, out) == (4, "")
    assert err == "error: classification requires a nilpotent algebra\n"


@pytest.mark.parametrize("suite", ["formulas", "bounds", "kunneth", "quotient", "classification"])
def test_verify_ignored_flags_leave_report_unchanged(capsys, suite):
    from liemult.verify import SUITE_FLAGS

    # the flags a suite reads stay at small caps; the others are left at
    # their defaults, then set one by one to a value that is not the default
    small = {"max_m": "2", "max_k": "1", "max_n": "5", "seed": "7"}
    other = {"max_m": "3", "max_k": "2", "max_n": "6", "seed": "11"}
    used = SUITE_FLAGS[suite]
    args = ["verify", "--suite", suite]
    for flag in used:
        args += ["--" + flag.replace("_", "-"), small[flag]]
    code, expected, _ = run(capsys, *args)
    assert code == 0 and expected.endswith("result=pass\n")
    for flag in sorted(set(small) - set(used)):
        code, out, _ = run(capsys, *args, "--" + flag.replace("_", "-"), other[flag])
        assert (code, out) == (0, expected), flag


def test_readme_flag_table_matches_suite_flags():
    from liemult.verify import SUITE_FLAGS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = {suite: tuple(f.replace("-", "_") for f in re.findall(r"`--([a-z-]+)`", flags))
             for suite, flags in re.findall(r"^\| `(\w+)` +\|(.*)\|$", readme, re.M)}
    assert table == SUITE_FLAGS
