"""Invariants of the population's closure steps, as generated properties.

Draws go catalog entry -> optional direct sum with a second entry ->
optional central quotient -> seeded unimodular base change, the steps
that build the verification population.  A base change must keep n,
the lower central series, dim Z and dim M, and every central ideal must
satisfy the central-quotient inequality.  Two draws whose dims sum to
at most 10 must satisfy the Kunneth formula, t must vanish exactly on
abelian draws, and every nilpotent draw must meet the defect bounds.
Runs derandomized with bounded examples, so the suite stays
deterministic and fast; skipped without hypothesis.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from liemult.catalog import standard_entries
from liemult.liealg import center, direct_sum, lower_central_series
from liemult.multiplier import (
    check_defect_bounds,
    check_kunneth,
    check_quotient_bound,
    schur_multiplier_dim,
)
from liemult.randgen import (
    Lcg,
    random_central_quotient,
    random_central_subspace,
    random_change_of_basis,
)

CATALOG = standard_entries(4, 3)
SUM_DIM_CAP = 10  # as the population's direct sums
PROFILE = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def closures(draw, max_dim=max(e.algebra.dim for e in CATALOG)):
    """An algebra of the catalog's closure of dim at most ``max_dim``, and a seeded base change of it."""
    alg = draw(st.sampled_from([e.algebra for e in CATALOG if e.algebra.dim <= max_dim]))
    cap = min(SUM_DIM_CAP, max_dim)
    partners = [e.algebra for e in CATALOG if e.algebra.dim + alg.dim <= cap]
    if partners and draw(st.booleans()):
        alg = direct_sum(alg, draw(st.sampled_from(partners)))
    rng = Lcg(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        alg = random_central_quotient(alg, rng) or alg
    return alg, random_change_of_basis(alg, rng)


def _invariants(alg):
    return (alg.dim, lower_central_series(alg).lcs_dims, center(alg).dim,
            schur_multiplier_dim(alg).dim_m)


@PROFILE
@given(closures())
def test_base_change_keeps_the_invariants(case):
    alg, moved = case
    assert _invariants(moved) == _invariants(alg)


@PROFILE
@given(closures(), st.integers(0, 2 ** 32))
def test_central_quotient_inequality_holds(case, seed):
    _, moved = case
    assert check_quotient_bound(moved, random_central_subspace(moved, Lcg(seed))).holds


@st.composite
def summands(draw):
    """Two base-changed closures whose dims sum to at most SUM_DIM_CAP.

    The first is capped by a drawn split of the cap, so that the second
    is not left only the small catalog entries, nearly all abelian.
    """
    _, a = draw(closures(draw(st.integers(0, SUM_DIM_CAP))))
    _, b = draw(closures(SUM_DIM_CAP - a.dim))
    return a, b


@PROFILE
@given(summands())
def test_kunneth_formula_holds(pair):
    assert check_kunneth(*pair).holds


@PROFILE
@given(closures())
def test_t_vanishes_exactly_on_abelian_draws(case):
    for alg in case:
        assert (schur_multiplier_dim(alg).t == 0) == alg.is_abelian


@PROFILE
@given(closures())
def test_defect_bounds_hold_on_nilpotent_draws(case):
    for alg in case:
        assume(lower_central_series(alg).is_nilpotent)
        assert check_defect_bounds(alg).holds
