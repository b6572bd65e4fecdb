"""Inputs, expected answers and request lists of the benchmark workloads.

Every workload is a list of requests, each one ``liemult`` command line
run through ``liemult.cli.main``.  The expected answer of a request
comes from closed forms of the catalog families, never from the program
under test; a base-changed input must in addition print exactly the
bytes its original prints, because every printed field is an
isomorphism invariant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import comb
from typing import Optional

from liemult import catalog, verify
from liemult.liealg import LieAlgebra, build, change_of_basis
from liemult.lieconst import render
from liemult.randgen import Lcg, random_unimodular

COMMANDS = ("info", "multiplier", "classify")

# Base changes of the dense ladder use this many shears per dimension.
# randgen's default (2n+2) leaves most brackets zero; see WORKLOADS.json.
DENSE_STEPS_PER_DIM = 12
DENSE_MAX_ATTEMPTS = 200
# Draws are screened modulo this prime before the program transports the
# table, so that rejected draws cost almost nothing (see dense_base_change).
SCREEN_PRIME = 2 ** 61 - 1


@dataclass(frozen=True)
class Facts:
    """Closed-form invariants of a catalog algebra; each printed field follows."""

    n: int
    derived_dim: int
    center_dim: int
    lcs: tuple[int, ...]
    dim_m: int
    family: Optional[str] = None      # catalog family, for s in {0, 1, 2}
    params: tuple[int, ...] = ()


def heisenberg_plus_abelian_dim_m(m: int, k: int) -> int:
    """dim M(H(m) + A(k)): 2 for H(1), 2m^2-m-1 for m >= 2, plus k(k-1)/2 + 2mk."""
    base = 2 if m == 1 else 2 * m * m - m - 1
    return base + k * (k - 1) // 2 + 2 * m * k


def filiform_dim_m(n: int) -> int:
    """dim M of the model filiform algebra of dimension n >= 3: floor((n+1)/2).

    Checked against an independent sympy rank of the complex in the
    benchmark's self-tests.
    """
    return (n + 1) // 2


def facts_heisenberg_plus_abelian(m: int, k: int) -> Facts:
    n = 2 * m + 1 + k
    return Facts(n, 1, 1 + k, (n, 1, 0), heisenberg_plus_abelian_dim_m(m, k),
                 catalog.FAMILY_H_PLUS_A, (m, k))


def facts_abelian(n: int) -> Facts:
    return Facts(n, 0, n, (n, 0), n * (n - 1) // 2)


def facts_filiform(n: int) -> Facts:
    family = catalog.FAMILY_L3414 if n == 4 else None
    return Facts(n, n - 2, 1, (n,) + tuple(range(n - 2, -1, -1)), filiform_dim_m(n),
                 family)


FACTS_L4524 = Facts(5, 2, 2, (5, 2, 0), 6, catalog.FAMILY_L4524)
FACTS_L4524_PLUS_A1 = Facts(6, 2, 3, (6, 2, 0), 9, catalog.FAMILY_L4524_PLUS_A1)


def filiform(n: int) -> LieAlgebra:
    """Model filiform algebra: [e1, ei] = e(i+1) for i = 2..n-1."""
    return build(n, [(1, i, tuple(1 if c == i + 1 else 0 for c in range(1, n + 1)))
                     for i in range(2, n)])


def expected_lines(f: Facts, command: str) -> list[str]:
    """stdout lines the CLI must print for ``command``, without the notes line."""
    lam2 = f.n * (f.n - 1) // 2
    t = lam2 - f.dim_m
    s = (f.n - 1) * (f.n - 2) // 2 + 1 - f.dim_m
    klass = len(f.lcs) - 1
    if command == "info":
        return [f"n={f.n}", f"dimL2={f.derived_dim}", f"dimZ={f.center_dim}",
                "nilpotent=yes", f"class={klass}", f"lcs={','.join(map(str, f.lcs))}"]
    if command == "multiplier":
        return [f"n={f.n}", f"dimM={f.dim_m}", f"t={t}", f"s={s}",
                f"rankd2={f.derived_dim}", f"rankd3={lam2 - f.derived_dim - f.dim_m}"]
    if s in (0, 1, 2):
        lines = ["status=Classified", f"family={f.family}"]
        if f.family == catalog.FAMILY_H_PLUS_A:
            lines += [f"m={f.params[0]}", f"k={f.params[1]}"]
        return lines + [f"s={s}"]
    return ["status=OutOfScope", f"s={s}", f"n={f.n}", f"dimL2={f.derived_dim}",
            f"dimZ={f.center_dim}", f"class={klass}", f"dimM={f.dim_m}", f"t={t}"]


@dataclass
class Input:
    label: str
    algebra: LieAlgebra
    facts: Facts
    commands: tuple[str, ...] = COMMANDS
    original: Optional["Input"] = None   # set on base changes
    path: str = ""


@dataclass
class Request:
    rid: int
    command: str
    argv: list[str]
    input: Optional[Input] = None
    # closed-form lines without the notes line; for verify, the last line
    expected: list[str] = field(default_factory=list)
    reference: Optional[str] = None    # the original's stdout, for base changes


@dataclass
class Workload:
    name: str
    seed: int
    inputs: list[Input]
    requests: list[Request]
    population_caps: tuple[int, int] = ()   # (max_m, max_k) of the verify population


def _sparse_inputs(tiny: bool) -> list[Input]:
    hs, fils, ks, abelian_n = (
        ((2,), (5,), (2,), 6) if tiny else
        ((2, 4, 6, 8, 10, 12), (8, 12, 16, 20), (10, 20, 30), 160)
    )
    out = [Input(f"H({m})", catalog.heisenberg(m).algebra, facts_heisenberg_plus_abelian(m, 0))
           for m in hs]
    out += [Input(f"filiform({n})", filiform(n), facts_filiform(n)) for n in fils]
    out += [Input(f"H(1)+A({k})", catalog.heisenberg_plus_abelian(1, k).algebra,
                  facts_heisenberg_plus_abelian(1, k)) for k in ks]
    # info only: multiplier on a large abelian algebra needs a dense d3 that
    # does not fit in memory at the seed (see WORKLOADS.json)
    out.append(Input(f"A({abelian_n})", catalog.abelian(abelian_n).algebra,
                     facts_abelian(abelian_n), ("info",)))
    return out


def table_nnz(L: LieAlgebra) -> int:
    return sum(1 for _, _, c in L.table for x in c if x)


def dense_modulo_prime(L: LieAlgebra, p: list[list[int]]) -> bool:
    """Whether every structure constant of L on the basis rows of p is nonzero mod SCREEN_PRIME.

    The constants of [f_i, f_j] are [p_i, p_j] P^-1.  A constant that is 0
    is 0 modulo the prime too, so a draw that passes has a fully dense
    table.  A nonzero multiple of the prime only makes a draw fail.
    """
    n, q = L.dim, SCREEN_PRIME
    table = [(i, j, [int(x) % q for x in c]) for i, j, c in L.table]
    # P^-1 mod q by Gauss-Jordan on [P | I]
    rows = [[x % q for x in p[r]] + [int(r == c) for c in range(n)] for r in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, q)
        rows[c] = [x * inv % q for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[c])]
    p_inv = [row[n:] for row in rows]
    for i in range(n):
        for j in range(i + 1, n):
            w = [0] * n
            for a, b, c in table:
                s = p[i][a] * p[j][b] - p[i][b] * p[j][a]
                if s:
                    w = [(x + s * y) % q for x, y in zip(w, c)]
            if not all(sum(w[k] * p_inv[k][t] for k in range(n)) % q for t in range(n)):
                return False
    return True


def dense_base_change(L: LieAlgebra, rng: Lcg) -> LieAlgebra:
    """L on a random unimodular basis in which every structure constant is nonzero.

    About a third of the draws of the larger rungs leave some constant 0.
    Screening them modulo a prime keeps the costly ``change_of_basis`` to
    one call per input, so the set-up's cost does not depend on how many
    draws the seed rejects.
    """
    n = L.dim
    for _ in range(DENSE_MAX_ATTEMPTS):
        p = random_unimodular(n, rng, steps=DENSE_STEPS_PER_DIM * n)
        rows = [[int(x) for x in p.row(r)] for r in range(n)]
        if dense_modulo_prime(L, rows):
            moved = change_of_basis(L, p)
            if table_nnz(moved) != n * comb(n, 2):
                raise RuntimeError("a draw passed the screen but its table is not dense")
            return moved
    raise RuntimeError(f"no fully dense base change of a dim-{n} algebra "
                       f"in {DENSE_MAX_ATTEMPTS} draws")


def _dense_inputs(seed: int, tiny: bool) -> list[Input]:
    originals = [Input(f"H({m})", catalog.heisenberg(m).algebra,
                       facts_heisenberg_plus_abelian(m, 0)) for m in ((2,) if tiny else (2, 3, 4, 5))]
    originals += [Input(f"filiform({n})", filiform(n), facts_filiform(n))
                  for n in ((5,) if tiny else (6, 8, 10))]
    originals += [
        Input("L3414", catalog.l_3_4_1_4().algebra, facts_filiform(4)),
        Input("L4524", catalog.l_4_5_2_4().algebra, FACTS_L4524),
        Input("L4524plusA1", catalog.l4524_plus_a1().algebra, FACTS_L4524_PLUS_A1),
    ]
    rng = Lcg(seed)
    out = []
    for orig in originals:
        # three draws of the cheap rungs, two of the costly ones
        draws = 1 if tiny else (2 if orig.algebra.dim >= 8 else 3)
        for d in range(draws):
            out.append(Input(f"cob[{orig.label},{d}]", dense_base_change(orig.algebra, rng),
                             orig.facts, orig.commands, orig))
    return out


def _write(inp: Input, directory: str, index: int) -> None:
    inp.path = os.path.join(directory, f"in{index:03d}.lie")
    with open(inp.path, "w", encoding="utf-8") as fh:
        fh.write(render(inp.algebra))


def make(name: str, seed: int, directory: str, tiny: bool = False) -> Workload:
    """Generate a workload's inputs from ``seed`` and write them under ``directory``."""
    if name == "verify_sweep":
        caps = ["--max-m", "2", "--max-k", "1", "--max-n", "4"] if tiny else []
        requests = [Request(rid, "verify", ["verify", "--suite", suite, "--seed", str(seed)] + caps,
                            expected=["result=pass"])
                    for rid, suite in enumerate(verify.SUITES)]
        population_caps = (2, 1) if tiny else (verify.DEFAULT_MAX_M, verify.DEFAULT_MAX_K)
        return Workload(name, seed, [], requests, population_caps)
    if name == "sparse_ladder":
        inputs = _sparse_inputs(tiny)
    elif name == "dense_ladder":
        inputs = _dense_inputs(seed, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}")
    written = 0
    for inp in inputs:
        for target in (inp, inp.original):
            if target is not None and not target.path:
                _write(target, directory, written)
                written += 1
    requests = []
    for inp in inputs:
        for command in inp.commands:
            requests.append(Request(len(requests), command, [command, inp.path], inp,
                                    expected_lines(inp.facts, command)))
    return Workload(name, seed, inputs, requests)


def check(req: Request, code: int, out: str) -> bool:
    """The gate: exit code 0 and the answer the closed forms predict."""
    if code != 0:
        return False
    lines = out.splitlines()
    if req.command == "verify":
        return lines[-1:] == req.expected
    if req.command == "classify":
        if not lines or not lines[-1].startswith("notes="):
            return False
        lines = lines[:-1]
    if lines != req.expected:
        return False
    return req.reference is None or out == req.reference
