"""Acceptance suite: one test per exit criterion, exact integer equality.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion pass lines).  Every randomized sweep is seeded (seed 7)
and every comparison is exact; the three timed criteria use wall-clock
budgets of 1 s, 10 s and 5 s.
"""

import time

import pytest

from liemult import catalog
from liemult.classifier import Status, classify
from liemult.liealg import lower_central_series
from liemult.multiplier import check_defect_bounds, schur_multiplier_dim
from liemult.randgen import Lcg, random_change_of_basis
from liemult.verify import build_population, run_suite

MAX_M, MAX_K, MAX_N, SEED = 4, 3, 9, 7

# bypass the memoized wrapper wherever a criterion times the computation
_schur_uncached = schur_multiplier_dim.__wrapped__


def _announce(number, description):
    print(f"criterion {number:2d} [{description}]: PASS")


@pytest.fixture(scope="module")
def population():
    return build_population(MAX_M, MAX_K, SEED)


def test_criterion_01_heisenberg_multipliers():
    start = time.perf_counter()
    assert _schur_uncached(catalog.heisenberg(1).algebra).dim_m == 2
    for m, expected in ((2, 5), (3, 14), (4, 27), (5, 44)):
        got = _schur_uncached(catalog.heisenberg(m).algebra).dim_m
        assert got == expected == 2 * m * m - m - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(1, "Heisenberg multiplier dimensions")


def test_criterion_02_abelian_baseline():
    for n in range(0, 9):
        rep = schur_multiplier_dim(catalog.abelian(n).algebra)
        assert rep.dim_m == n * (n - 1) // 2
        assert rep.t == 0
    _announce(2, "abelian baseline dim M and t = 0")


def test_criterion_03_kunneth_suite():
    start = time.perf_counter()
    report = run_suite("kunneth", max_m=MAX_M, max_k=MAX_K, max_n=MAX_N, seed=SEED)
    elapsed = time.perf_counter() - start
    assert report.failures == 0, [r for r in report.results if not r.ok][:5]
    assert len(report.results) == 45
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _announce(3, "direct-sum additivity on all catalog pairs")


def test_criterion_04_quotient_bound_suite():
    report = run_suite("quotient", max_m=MAX_M, max_k=MAX_K, max_n=MAX_N, seed=SEED)
    assert report.failures == 0, [r for r in report.results if not r.ok][:5]
    # every catalog algebra contributes its coordinate central subsets
    # plus 20 seeded random central subspaces
    assert sum(1 for r in report.results if "|rand:" in r.case_id) == \
        20 * len(catalog.standard_entries(MAX_M, MAX_K))
    _announce(4, "central-quotient inequality sweep")


def test_criterion_05_s0_characterization(population):
    for n in range(3, MAX_N + 1):
        alg = catalog.heisenberg_plus_abelian(1, n - 3).algebra
        assert schur_multiplier_dim(alg).s == 0
        res = classify(alg)
        assert res.status is Status.CLASSIFIED
        assert res.family == catalog.FAMILY_H_PLUS_A
        assert res.params == (1, n - 3)
    # uniqueness over the generated population: every s = 0 member is
    # the m = 1 family
    for case in population:
        series = lower_central_series(case.algebra)
        if not series.is_nilpotent or series.derived_dim == 0:
            continue
        if schur_multiplier_dim(case.algebra).s == 0:
            res = classify(case.algebra)
            assert res.status is Status.CLASSIFIED, case.case_id
            assert res.family == catalog.FAMILY_H_PLUS_A, case.case_id
            assert res.params[0] == 1, case.case_id
    _announce(5, "s = 0 exactly on H(1)+A(n-3)")


def test_criterion_06_s1_characterization():
    alg = catalog.l_4_5_2_4().algebra
    rep = schur_multiplier_dim(alg)
    assert rep.s == 1
    assert rep.dim_m == 6
    res = classify(alg)
    assert res.status is Status.CLASSIFIED
    assert res.family == catalog.FAMILY_L4524
    _announce(6, "s = 1 exactly on L4524")


def test_criterion_07_s2_classification():
    targets = [
        (catalog.l_3_4_1_4().algebra, catalog.FAMILY_L3414, ()),
        (catalog.l4524_plus_a1().algebra, catalog.FAMILY_L4524_PLUS_A1, ()),
    ]
    for m in range(2, MAX_M + 1):
        for k in range(0, MAX_K + 1):
            targets.append((
                catalog.heisenberg_plus_abelian(m, k).algebra,
                catalog.FAMILY_H_PLUS_A, (m, k),
            ))
    rng = Lcg(SEED)
    for alg, family, params in targets:
        assert schur_multiplier_dim(alg).s == 2
        res = classify(alg)
        assert (res.status, res.family, res.params) == (Status.CLASSIFIED, family, params)
        for _ in range(10):
            moved = random_change_of_basis(alg, rng)
            res = classify(moved)
            assert (res.status, res.family, res.params) == (Status.CLASSIFIED, family, params)
    # the same ground is covered by the named suite
    report = run_suite("classification", max_m=MAX_M, max_k=MAX_K, max_n=MAX_N, seed=SEED)
    assert report.failures == 0, [r for r in report.results if not r.ok][:5]
    _announce(7, "s = 2 families with classify stability")


def test_criterion_08_lemma_gate_population(population):
    assert len(population) >= 500
    checked = 0
    for case in population:
        if not lower_central_series(case.algebra).is_nilpotent:
            continue
        chk = check_defect_bounds(case.algebra)
        assert not (chk.s == 2 and chk.derived_dim >= 3), (case.case_id, chk)
        checked += 1
    assert checked >= 500
    _announce(8, "no s = 2 with dim L^2 >= 3 in >= 500 cases")


def test_criterion_09_defect_bounds(population):
    for case in population:
        series = lower_central_series(case.algebra)
        if not series.is_nilpotent:
            continue
        chk = check_defect_bounds(case.algebra)
        assert chk.t >= 0, case.case_id
        assert (chk.t == 0) == chk.abelian, case.case_id
        if not chk.abelian:
            assert chk.s is not None and chk.s >= 0, case.case_id
        k = chk.derived_dim
        if k in (1, 2, 3):
            bound = (chk.n + k - 2) * (chk.n - k - 1) // 2 + 1
            assert chk.dim_m <= bound, case.case_id
    report = run_suite("bounds", max_m=MAX_M, max_k=MAX_K, max_n=MAX_N, seed=SEED)
    assert report.failures == 0, [r for r in report.results if not r.ok][:5]
    _announce(9, "t >= 0 (= 0 iff abelian), s >= 0, k-instance bounds")


def test_criterion_10_oracle_agreement():
    for e in catalog.standard_entries(MAX_M, MAX_K):
        rep = schur_multiplier_dim(e.algebra)
        assert rep.dim_m == e.expected_dim_m, e.label
        if e.expected_s is not None:
            assert rep.s == e.expected_s, e.label
    for m in range(2, MAX_M + 1):
        for k in range(0, MAX_K + 1):
            e = catalog.heisenberg_plus_abelian(m, k)
            n = e.algebra.dim
            assert schur_multiplier_dim(e.algebra).dim_m == n * (n - 3) // 2
    _announce(10, "closed-form catalog pins equal homology")


def test_criterion_11_performance_dim_12():
    alg = catalog.heisenberg_plus_abelian(4, 3).algebra
    assert alg.dim == 12
    start = time.perf_counter()
    rep = _schur_uncached(alg)
    elapsed = time.perf_counter() - start
    assert rep.dim_m == 12 * 9 // 2
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(11, "dim-12 multiplier under 5 s")
