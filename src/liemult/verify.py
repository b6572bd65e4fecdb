"""Named verification suites behind the ``verify`` CLI command.

Each suite turns a batch of checks into (case id, pass/fail, detail)
triples sorted by case id, so a run with the same flags and seed prints
byte-identical reports.  The randomized population is the catalog
closed under direct sums, seeded unimodular base changes and seeded
central quotients; see :mod:`liemult.randgen` for the generator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from . import catalog
from .classifier import AbelianAlgebra, Status, classify
from .liealg import LieAlgebra, NotNilpotent, direct_sum
from .linalg import Subspace, _span
from .multiplier import (
    check_defect_bounds,
    check_kunneth,
    check_quotient_bound,
    schur_multiplier_dim,
)
from .randgen import Lcg, random_central_quotient, random_central_subspace, random_change_of_basis

DEFAULT_MAX_M = 4
DEFAULT_MAX_K = 3
DEFAULT_MAX_N = 9
DEFAULT_SEED = 7
MIN_POPULATION = 500

_SUM_DIM_CAP = 10  # direct sums in the population stay at or below this
_POOL_DIM_CAP = 5  # summand pool for pairwise sums


class CaseResult(NamedTuple):
    case_id: str
    ok: bool
    detail: str = ""


class SuiteReport(NamedTuple):
    suite: str
    results: tuple[CaseResult, ...]

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            if r.ok:
                out.append(f"ok {r.case_id}" + (f" ({r.detail})" if r.detail else ""))
            else:
                out.append(f"FAIL {r.case_id}: {r.detail}")
        out.append(f"suite={self.suite} cases={len(self.results)} failures={self.failures}")
        out.append(f"result={'pass' if self.passed else 'fail'}")
        return out


class PopulationCase(NamedTuple):
    case_id: str
    algebra: LieAlgebra


@lru_cache(maxsize=8)
def build_population(max_m: int = DEFAULT_MAX_M, max_k: int = DEFAULT_MAX_K,
                     seed: int = DEFAULT_SEED) -> tuple[PopulationCase, ...]:
    """Catalog closure under sums, base changes and central quotients.

    Deterministic for fixed arguments: the LCG stream is consumed in a
    fixed order.  At the default caps the population exceeds 500 cases.
    """
    rng = Lcg(seed)
    base = [(e.label, e.algebra) for e in catalog.standard_entries(max_m, max_k)]
    cases: list[PopulationCase] = [PopulationCase(lbl, alg) for lbl, alg in base]

    pool = [(lbl, alg) for lbl, alg in base if 1 <= alg.dim <= _POOL_DIM_CAP]
    sums: list[tuple[str, LieAlgebra]] = []
    for i, (l1, a1) in enumerate(pool):
        for l2, a2 in pool[i:]:
            if a1.dim + a2.dim <= _SUM_DIM_CAP:
                sums.append((f"sum[{l1}+{l2}]", direct_sum(a1, a2)))
    cases.extend(PopulationCase(lbl, alg) for lbl, alg in sums)

    originals = base + sums
    for lbl, alg in originals:
        if alg.dim == 0:
            continue
        ncob = 3 if alg.dim <= 8 else 1
        for trial in range(ncob):
            cases.append(PopulationCase(
                f"cob[{lbl},{trial}]", random_change_of_basis(alg, rng)
            ))
    for lbl, alg in originals:
        for trial in range(2):
            q = random_central_quotient(alg, rng)
            if q is not None:
                cases.append(PopulationCase(f"quo[{lbl},{trial}]", q))
    return tuple(cases)


def _case(case_id: str, ok: bool, detail: str = "") -> CaseResult:
    return CaseResult(case_id, bool(ok), detail)


def run_formulas(max_m: int = DEFAULT_MAX_M, max_k: int = DEFAULT_MAX_K) -> SuiteReport:
    """Closed-form multiplier dimensions against the homology computation."""
    results = []
    for m in range(1, 6):
        want = 2 if m == 1 else 2 * m * m - m - 1
        got = schur_multiplier_dim(catalog.heisenberg(m).algebra).dim_m
        results.append(_case(f"heisenberg-dimM[H({m})]", got == want,
                             f"dimM={got} expected={want}"))
    for n in range(0, 9):
        rep = schur_multiplier_dim(catalog.abelian(n).algebra)
        want = n * (n - 1) // 2
        results.append(_case(
            f"abelian-baseline[A({n})]",
            rep.dim_m == want and rep.t == 0,
            f"dimM={rep.dim_m} expected={want} t={rep.t}",
        ))
    for e in catalog.standard_entries(max_m, max_k):
        rep = schur_multiplier_dim(e.algebra)
        ok = rep.dim_m == e.expected_dim_m
        detail = f"dimM={rep.dim_m} expected={e.expected_dim_m}"
        if e.expected_s is not None:
            ok = ok and rep.s == e.expected_s
            detail += f" s={rep.s} expected_s={e.expected_s}"
        results.append(_case(f"catalog-pin[{e.label}]", ok, detail))
    for m in range(1, 5):
        for k in range(0, 5):
            got = schur_multiplier_dim(
                catalog.heisenberg_plus_abelian(m, k).algebra).dim_m
            want = (2 if m == 1 else 2 * m * m - m - 1) + k * (k - 1) // 2 + 2 * m * k
            results.append(_case(f"hplusa-closed-form[{m},{k}]", got == want,
                                 f"dimM={got} expected={want}"))
    return _report("formulas", results)


def run_bounds(max_m: int = DEFAULT_MAX_M, max_k: int = DEFAULT_MAX_K,
               seed: int = DEFAULT_SEED) -> SuiteReport:
    """Per population case, from one :func:`check_defect_bounds` record:
    t >= 0, t = 0 iff abelian, s >= 0, the dim-L^2 bound, and the Lemma
    (s = 2 implies dim L^2 <= 2)."""
    population = build_population(max_m, max_k, seed)
    # the 500-case floor is pinned to the default caps; smaller sweeps
    # are legitimate but cannot satisfy it
    required = MIN_POPULATION if (max_m >= DEFAULT_MAX_M and max_k >= DEFAULT_MAX_K) else 0
    results = [_case("population-size", len(population) >= required,
                     f"cases={len(population)} required>={required}")]
    for case in population:
        dbc = check_defect_bounds(case.algebra)
        t_iff = (dbc.t == 0) == dbc.abelian
        lemma = not (dbc.s == 2 and dbc.derived_dim >= 3)
        ok = dbc.holds and lemma and t_iff
        detail = (f"n={dbc.n} dimM={dbc.dim_m} t={dbc.t} s={dbc.s}"
                  f" k={dbc.derived_dim} bound={dbc.derived_bound}")
        if not t_iff:
            detail += " [t=0 abelian equivalence fails]"
        if not lemma:
            detail += " [s=2 with dim L^2 >= 3]"
        results.append(_case(f"bounds[{case.case_id}]", ok, detail))
    return _report("bounds", results)


def run_kunneth() -> SuiteReport:
    """Direct-sum additivity, both sides computed independently."""
    pool = [catalog.abelian(k) for k in range(4)]
    pool += [catalog.heisenberg(m) for m in range(1, 4)]
    pool += [catalog.l_3_4_1_4(), catalog.l_4_5_2_4()]
    results = []
    for i, e1 in enumerate(pool):
        for e2 in pool[i:]:
            chk = check_kunneth(e1.algebra, e2.algebra)
            results.append(_case(
                f"kunneth[{e1.label}|{e2.label}]", chk.holds,
                f"lhs={chk.lhs} rhs={chk.rhs}"
                f"={chk.dim_m_left}+{chk.dim_m_right}+{chk.tensor_dim}",
            ))
    return _report("kunneth", results)


def _coordinate_central_subsets(L: LieAlgebra) -> list[tuple[tuple[int, ...], Subspace]]:
    """All spans of subsets of central standard basis vectors.

    e_i is central exactly when no stored bracket has index i, as the
    stored brackets are the nonzero [e_i, e_j].
    """
    busy = {x for i, j, _ in L.brackets for x in (i, j)}
    coords = [i for i in range(L.dim) if i not in busy]
    subsets: list[tuple[tuple[int, ...], Subspace]] = []
    for mask in range(1 << len(coords)):
        picked = tuple(coords[b] for b in range(len(coords)) if mask >> b & 1)
        subsets.append((picked, _span(L.dim, [{i: 1} for i in picked])))
    return subsets


def run_quotient(max_m: int = DEFAULT_MAX_M, max_k: int = DEFAULT_MAX_K,
                 seed: int = DEFAULT_SEED) -> SuiteReport:
    """Central-quotient inequality over coordinate and random central ideals."""
    rng = Lcg(seed)
    results = []
    for e in catalog.standard_entries(max_m, max_k):
        L = e.algebra
        for picked, k in _coordinate_central_subsets(L):
            label = ",".join(f"e{i + 1}" for i in picked) or "0"
            chk = check_quotient_bound(L, k)
            results.append(_case(
                f"quotient-bound[{e.label}|coord:{label}]", chk.holds,
                f"{chk.lhs}<={chk.rhs}",
            ))
        for trial in range(20):
            k = random_central_subspace(L, rng)
            chk = check_quotient_bound(L, k)
            results.append(_case(
                f"quotient-bound[{e.label}|rand:{trial:02d}]", chk.holds,
                f"dimK={k.dim} {chk.lhs}<={chk.rhs}",
            ))
    return _report("quotient", results)


def _classify_matches(L: LieAlgebra, entry: catalog.CatalogEntry) -> tuple[bool, int, str]:
    """Whether ``classify(L)`` names ``entry``'s family and parameters, with its s."""
    res = classify(L)
    ok = (res.status is Status.CLASSIFIED and res.family == entry.family
          and res.params == entry.params)
    got = res.family if res.status is Status.CLASSIFIED else res.status.value
    return ok, res.s_value, f"got={got}{res.params if res.params else ''} s={res.s_value}"


def run_classification(max_m: int = DEFAULT_MAX_M, max_k: int = DEFAULT_MAX_K,
                       max_n: int = DEFAULT_MAX_N, seed: int = DEFAULT_SEED) -> SuiteReport:
    """The s = 0, 1, 2 characterizations plus stability and sweep checks."""
    results = []

    for n in range(3, max_n + 1):
        e = catalog.heisenberg_plus_abelian(1, n - 3)
        ok, s, detail = _classify_matches(e.algebra, e)
        results.append(_case(f"s0-series[n={n}]", s == 0 and ok,
                             f"s={s} {detail}"))

    l4524 = catalog.l_4_5_2_4()
    dim_m = schur_multiplier_dim(l4524.algebra).dim_m
    ok, s, detail = _classify_matches(l4524.algebra, l4524)
    results.append(_case("s1[L4524]", s == 1 and dim_m == 6 and ok,
                         f"s={s} dimM={dim_m} {detail}"))

    mt_families = [catalog.l_3_4_1_4(), catalog.l4524_plus_a1()]
    mt_families += [catalog.heisenberg_plus_abelian(m, k)
                    for m in range(2, max_m + 1) for k in range(0, max_k + 1)]

    rng = Lcg(seed)
    for e in mt_families:
        ok, s, detail = _classify_matches(e.algebra, e)
        results.append(_case(f"mt[{e.label}]", s == 2 and ok, f"s={s} {detail}"))
        for trial in range(10):
            moved = random_change_of_basis(e.algebra, rng)
            ok, _, detail = _classify_matches(moved, e)
            results.append(_case(f"mt-stability[{e.label},{trial}]", ok, detail))

    for case in build_population(max_m, max_k, seed):
        try:
            res = classify(case.algebra)
        except NotNilpotent:
            results.append(_case(f"classify-sweep[{case.case_id}]", True,
                                 "skipped: not nilpotent"))
            continue
        except AbelianAlgebra:
            results.append(_case(f"classify-sweep[{case.case_id}]", True,
                                 "skipped: abelian"))
            continue
        fp = res.fingerprint
        ok = res.status is not Status.THEOREM_VIOLATION
        if fp.s in (0, 1, 2):
            ok = ok and res.status is Status.CLASSIFIED
        if fp.s == 0:
            ok = ok and res.family == catalog.FAMILY_H_PLUS_A and res.params[0] == 1
        detail = f"s={fp.s} status={res.status.value}"
        if res.family:
            detail += f" family={res.family}{res.params if res.params else ''}"
        results.append(_case(f"classify-sweep[{case.case_id}]", ok, detail))
    return _report("classification", results)


def _report(suite: str, results: list[CaseResult]) -> SuiteReport:
    return SuiteReport(suite, tuple(sorted(results, key=lambda r: r.case_id)))


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "formulas": run_formulas,
    "bounds": run_bounds,
    "kunneth": run_kunneth,
    "quotient": run_quotient,
    "classification": run_classification,
}

# the run_suite arguments each suite reads, its own parameters, read off
# its code object as catalog.entry reads arities; the others are
# accepted by run_suite and not passed on
SUITE_FLAGS: dict[str, tuple[str, ...]] = {
    name: run.__code__.co_varnames[:run.__code__.co_argcount] for name, run in SUITES.items()
}


def run_suite(name: str, max_m: int = DEFAULT_MAX_M, max_k: int = DEFAULT_MAX_K,
              max_n: int = DEFAULT_MAX_N, seed: int = DEFAULT_SEED) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    caps = {"max_m": max_m, "max_k": max_k, "max_n": max_n, "seed": seed}
    return SUITES[name](**{flag: caps[flag] for flag in SUITE_FLAGS[name]})
