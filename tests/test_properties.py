"""Invariants of the population's closure steps, as generated properties.

Draws go catalog entry -> optional direct sum with a second entry ->
optional central quotient -> seeded unimodular base change, the steps
that build the verification population.  A base change must keep n,
the lower central series, dim Z and dim M, and every central ideal must
satisfy the central-quotient inequality.  Runs derandomized with bounded
examples, so the suite stays deterministic and fast; skipped without
hypothesis.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from liemult.catalog import standard_entries
from liemult.liealg import center, direct_sum, lower_central_series
from liemult.multiplier import check_quotient_bound, schur_multiplier_dim
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
def closures(draw):
    """An algebra of the catalog's closure and a seeded base change of it."""
    alg = draw(st.sampled_from(CATALOG)).algebra
    partners = [e.algebra for e in CATALOG if e.algebra.dim + alg.dim <= SUM_DIM_CAP]
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
