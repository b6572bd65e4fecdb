"""Fingerprints and the s-classification."""

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
)
from liemult import classifier
from liemult.classifier import (
    AbelianAlgebra,
    Fingerprint,
    Status,
    classify,
    fingerprint,
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


def _fingerprint(n, derived_dim, center_dim, nilpotency_class, s):
    """A fingerprint whose dim_m and t agree with its n and s."""
    dim_m = (n - 1) * (n - 2) // 2 + 1 - s
    return Fingerprint(n, derived_dim, center_dim, nilpotency_class, dim_m,
                       n * (n - 1) // 2 - dim_m, s)


# fingerprints no real algebra has: each breaks every pin set of its s;
# the second s = 2 one has derived_dim 1 but m = (n - center_dim) / 2 = 1
VIOLATIONS = [
    (_fingerprint(5, 2, 1, 3, 0), "s=0 but pins for H(1)+A(n-3) fail"),
    (_fingerprint(5, 2, 1, 3, 1), "s=1 but pins for L4524 fail"),
    (_fingerprint(5, 2, 2, 2, 2), "s=2 but no family pin set matches"),
    (_fingerprint(5, 1, 3, 2, 2), "s=2 but no family pin set matches"),
    (_fingerprint(4, 1, 2, 2, -1), "s=-1 < 0 on a non-abelian nilpotent algebra"),
]


@pytest.mark.parametrize("fp, notes", VIOLATIONS)
def test_classify_reports_theorem_violation(monkeypatch, fp, notes):
    monkeypatch.setattr(classifier, "fingerprint", lambda L: fp)
    res = classify(heisenberg(1).algebra)
    assert res.status is Status.THEOREM_VIOLATION
    assert res.family is None
    assert res.params == ()
    assert res.s_value == fp.s
    assert res.notes == notes
    assert res.fingerprint is fp


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
