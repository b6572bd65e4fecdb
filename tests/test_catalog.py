"""Catalog constructors and their closed-form pins."""

import pytest

from liemult.catalog import (
    FAMILIES,
    abelian,
    dimension,
    entry,
    heisenberg,
    heisenberg_plus_abelian,
    l4524_plus_a1,
    l_3_4_1_4,
    l_4_5_2_4,
    standard_entries,
)
from liemult.liealg import center, lower_central_series
from liemult.multiplier import schur_multiplier_dim


def test_abelian_entries():
    assert abelian(0).algebra.dim == 0
    assert abelian(0).expected_dim_m == 0
    assert abelian(1).expected_dim_m == 0
    assert abelian(4).expected_dim_m == 6
    with pytest.raises(ValueError):
        abelian(-1)


def test_heisenberg_entries():
    assert heisenberg(1).expected_dim_m == 2
    assert heisenberg(2).expected_dim_m == 5
    assert heisenberg(3).expected_dim_m == 14
    assert heisenberg(2).algebra.dim == 5
    with pytest.raises(ValueError):
        heisenberg(0)


def test_heisenberg_structure():
    for m in (1, 2, 3):
        alg = heisenberg(m).algebra
        assert lower_central_series(alg).derived_dim == 1
        assert center(alg).dim == 1
        assert lower_central_series(alg).nilpotency_class == 2


def test_l3414_pins():
    e = l_3_4_1_4()
    assert e.algebra.dim == 4
    assert lower_central_series(e.algebra).derived_dim == 2
    assert lower_central_series(e.algebra).nilpotency_class == 3
    rep = schur_multiplier_dim(e.algebra)
    assert rep.dim_m == e.expected_dim_m == 2
    assert rep.s == e.expected_s == 2


def test_l4524_pins():
    e = l_4_5_2_4()
    alg = e.algebra
    assert alg.dim == 5
    assert lower_central_series(alg).derived_dim == 2
    assert center(alg).dim == 2
    assert lower_central_series(alg).nilpotency_class == 2
    rep = schur_multiplier_dim(alg)
    assert rep.dim_m == e.expected_dim_m == 6
    assert rep.s == e.expected_s == 1


def test_hplusa_expected_values():
    e = heisenberg_plus_abelian(2, 0)
    assert (e.algebra.dim, e.expected_dim_m, e.expected_s) == (5, 5, 2)
    e = heisenberg_plus_abelian(2, 1)
    assert (e.algebra.dim, e.expected_dim_m, e.expected_s) == (6, 9, 2)
    e = heisenberg_plus_abelian(1, 2)
    assert (e.algebra.dim, e.expected_dim_m, e.expected_s) == (5, 7, 0)


def test_hplusa_m_zero_k_is_heisenberg():
    for m in (1, 2, 3):
        assert heisenberg_plus_abelian(m, 0).algebra == heisenberg(m).algebra


def test_l4524_plus_a1_pins():
    e = l4524_plus_a1()
    rep = schur_multiplier_dim(e.algebra)
    assert rep.dim_m == e.expected_dim_m == 9
    assert rep.s == e.expected_s == 2
    assert center(e.algebra).dim == 3


def test_all_catalog_algebras_nilpotent():
    for e in standard_entries(3, 3):
        assert lower_central_series(e.algebra).is_nilpotent, e.label


def test_expected_values_match_homology():
    for e in standard_entries(3, 3):
        rep = schur_multiplier_dim(e.algebra)
        assert rep.dim_m == e.expected_dim_m, e.label
        if e.expected_s is not None:
            assert rep.s == e.expected_s, e.label


def test_entry_dispatch():
    assert entry("A", (3,)).label == "A(3)"
    assert entry("H", (2,)).label == "H(2)"
    assert entry("HplusA", (2, 1)).label == "HplusA(2,1)"
    assert entry("L3414").label == "L3414"
    assert entry("L4524").label == "L4524"
    assert entry("L4524plusA1").label == "L4524plusA1"
    with pytest.raises(ValueError):
        entry("nope", ())
    with pytest.raises(ValueError):
        entry("L3414", (1,))
    assert len(FAMILIES) == 6
    # the dimension read off the parameters, which the CLI bounds before building
    entries = standard_entries(3, 3)
    assert {e.family for e in entries} == set(FAMILIES)
    for e in entries:
        assert dimension(e.family, e.params) == e.algebra.dim, e.label
    with pytest.raises(ValueError):
        dimension("nope", ())
    with pytest.raises(ValueError):
        dimension("H", ())


@pytest.mark.parametrize("params, message", [
    ((0, 1), "Heisenberg parameter must be >= 1, got 0"),
    ((1, -1), "abelian dimension must be >= 0, got -1"),
    ((0, -1), "Heisenberg parameter must be >= 1, got 0"),
])
def test_hplusa_parameter_errors(params, message):
    # H(m) and A(k) are built first and check their own parameter
    with pytest.raises(ValueError) as exc:
        entry("HplusA", params)
    assert str(exc.value) == message
