"""Fingerprints, the s-classification and the s=2 derived-dimension gate."""

import pytest

from liemult.catalog import (
    FAMILY_H_PLUS_A,
    FAMILY_L3414,
    FAMILY_L4524,
    FAMILY_L4524_PLUS_A1,
    abelian,
    heisenberg,
    heisenberg_plus_abelian,
    l4524_plus_a1,
    l_3_4_1_4,
    l_4_5_2_4,
    standard_entries,
)
from liemult.classifier import (
    AbelianAlgebra,
    Status,
    classify,
    fingerprint,
    lemma_l1_gate,
)
from liemult.liealg import NotNilpotent, build, direct_sum
from liemult.randgen import Lcg, random_change_of_basis


def test_fingerprint_h2():
    fp = fingerprint(heisenberg(2).algebra)
    assert (fp.n, fp.derived_dim, fp.center_dim) == (5, 1, 1)
    assert fp.nilpotency_class == 2
    assert (fp.dim_m, fp.t, fp.s) == (5, 5, 2)


def test_fingerprint_a3():
    fp = fingerprint(abelian(3).algebra)
    assert (fp.n, fp.derived_dim, fp.center_dim) == (3, 0, 3)
    assert fp.nilpotency_class == 1
    assert (fp.dim_m, fp.t) == (3, 0)


def test_fingerprint_l3414():
    fp = fingerprint(l_3_4_1_4().algebra)
    assert (fp.n, fp.derived_dim, fp.center_dim) == (4, 2, 1)
    assert fp.nilpotency_class == 3
    assert (fp.dim_m, fp.s) == (2, 2)


def test_classify_s0_family():
    for k in range(0, 5):
        res = classify(heisenberg_plus_abelian(1, k).algebra)
        assert res.status is Status.CLASSIFIED
        assert res.family == FAMILY_H_PLUS_A
        assert res.params == (1, k)
        assert res.s_value == 0


def test_classify_s1():
    res = classify(l_4_5_2_4().algebra)
    assert res.status is Status.CLASSIFIED
    assert res.family == FAMILY_L4524
    assert res.s_value == 1


def test_classify_s2_families():
    res = classify(l_3_4_1_4().algebra)
    assert (res.family, res.s_value) == (FAMILY_L3414, 2)
    res = classify(l4524_plus_a1().algebra)
    assert (res.family, res.s_value) == (FAMILY_L4524_PLUS_A1, 2)
    res = classify(heisenberg_plus_abelian(3, 2).algebra)
    assert res.family == FAMILY_H_PLUS_A
    assert res.params == (3, 2)
    assert res.s_value == 2


def test_classify_out_of_scope():
    # two commuting Heisenberg blocks push s above 2
    alg = direct_sum(heisenberg(1).algebra, heisenberg(1).algebra)
    res = classify(alg)
    assert res.status is Status.OUT_OF_SCOPE
    assert res.s_value == 3
    assert res.family is None


def test_classify_gates():
    with pytest.raises(AbelianAlgebra):
        classify(abelian(4).algebra)
    cross = build(3, [(1, 2, [0, 0, 1]), (1, 3, [0, -1, 0]), (2, 3, [1, 0, 0])])
    with pytest.raises(NotNilpotent):
        classify(cross)


def test_classify_invariant_under_basis_change():
    rng = Lcg(31)
    targets = [
        (l_3_4_1_4().algebra, FAMILY_L3414, ()),
        (l_4_5_2_4().algebra, FAMILY_L4524, ()),
        (l4524_plus_a1().algebra, FAMILY_L4524_PLUS_A1, ()),
        (heisenberg_plus_abelian(2, 1).algebra, FAMILY_H_PLUS_A, (2, 1)),
        (heisenberg_plus_abelian(1, 3).algebra, FAMILY_H_PLUS_A, (1, 3)),
    ]
    for alg, family, params in targets:
        for _ in range(4):
            res = classify(random_change_of_basis(alg, rng))
            assert res.status is Status.CLASSIFIED
            assert res.family == family
            assert res.params == params


def test_lemma_l1_gate_on_catalog():
    for e in standard_entries(3, 3):
        gate = lemma_l1_gate(e.algebra)
        assert gate.holds, e.label


def test_lemma_l1_gate_hypothesis_not_triggered():
    # L3414 has s = 2 with dim L^2 = 2 < 3: the gate passes
    gate = lemma_l1_gate(l_3_4_1_4().algebra)
    assert gate.holds
    assert gate.fingerprint.s == 2
    assert gate.fingerprint.derived_dim == 2


def test_lemma_l1_gate_requires_nilpotent():
    cross = build(3, [(1, 2, [0, 0, 1]), (1, 3, [0, -1, 0]), (2, 3, [1, 0, 0])])
    with pytest.raises(NotNilpotent):
        lemma_l1_gate(cross)
