"""Multiplier dimension via the exterior boundaries, plus the bound checks."""

from fractions import Fraction
from itertools import combinations

import pytest

from liemult.catalog import (
    abelian,
    heisenberg,
    heisenberg_plus_abelian,
    l4524_plus_a1,
    l_3_4_1_4,
    l_4_5_2_4,
)
from liemult.liealg import NotNilpotent, build, center, change_of_basis, lcs_adapted
from liemult.linalg import AmbientMismatch, Matrix, Subspace, rank
from liemult.multiplier import (
    NotCentral,
    ce_d2,
    ce_d3,
    check_defect_bounds,
    check_kunneth,
    check_quotient_bound,
    schur_multiplier_dim,
    tensor_term_dim,
)
from liemult.randgen import Lcg, random_central_subspace, random_change_of_basis, random_unimodular

from fraction_reference import at, basis_rows, from_vectors, vector


def _is_zero(m):
    return all(x == 0 for row in m.iter_rows() for x in row)


def _compose(d2, d3):
    """d2 . d3 entry by entry through the read interface, as a list of rows."""
    return [[sum(at(d2, t, p) * at(d3, p, c) for p in range(d3.rows))
             for c in range(d3.cols)] for t in range(d2.rows)]


def test_d2_abelian_is_zero():
    d2 = ce_d2(abelian(4).algebra)
    assert d2.rows == 4 and d2.cols == 6
    assert _is_zero(d2)


def test_d2_heisenberg_rank_one():
    assert rank(ce_d2(heisenberg(1).algebra)) == 1


def test_d2_l3414_rank_two():
    d2 = ce_d2(l_3_4_1_4().algebra)
    assert rank(d2) == 2


def test_d3_abelian_is_zero():
    d3 = ce_d3(abelian(4).algebra)
    assert d3.rows == 6 and d3.cols == 4
    assert _is_zero(d3)


def test_d3_heisenberg1_is_zero():
    # d3(e1^e2^e3) = e3^e3 = 0
    assert _is_zero(ce_d3(heisenberg(1).algebra))


def test_d3_l3414_image():
    # hand expansion of the four wedge triples: the images are
    # e2^e4 (from e1^e2^e3) and e3^e4 (from e1^e2^e4); the others vanish
    d3 = ce_d3(l_3_4_1_4().algebra)
    assert rank(d3) == 2
    # lex pair order on 4 points: 01,02,03,12,13,23 -> e2^e4 is row 4
    col0 = [at(d3, r, 0) for r in range(6)]
    assert col0 == [0, 0, 0, 0, 1, 0]
    col1 = [at(d3, r, 1) for r in range(6)]
    assert col1 == [0, 0, 0, 0, 0, 1]
    assert all(at(d3, r, c) == 0 for r in range(6) for c in (2, 3))


def test_schur_dim_heisenberg_values():
    assert schur_multiplier_dim(heisenberg(1).algebra).dim_m == 2
    for m, want in ((2, 5), (3, 14), (4, 27), (5, 44)):
        assert schur_multiplier_dim(heisenberg(m).algebra).dim_m == want
        assert schur_multiplier_dim(heisenberg(m).algebra).dim_m == 2 * m * m - m - 1


def test_schur_dim_abelian_baseline():
    for n in range(0, 9):
        rep = schur_multiplier_dim(abelian(n).algebra)
        assert rep.dim_m == n * (n - 1) // 2
        assert rep.t == 0


def test_schur_dim_l4524():
    rep = schur_multiplier_dim(l_4_5_2_4().algebra)
    assert rep.dim_m == 6
    assert rep.s == 1


def test_report_identities():
    for alg in (heisenberg(2).algebra, l_3_4_1_4().algebra,
                l4524_plus_a1().algebra, abelian(5).algebra):
        rep = schur_multiplier_dim(alg)
        n = rep.n
        assert rep.dim_m == n * (n - 1) // 2 - rep.rank_d2 - rep.rank_d3
        assert rep.t == n * (n - 1) // 2 - rep.dim_m
        assert rep.s == (n - 1) * (n - 2) // 2 + 1 - rep.dim_m


def test_kunneth_examples():
    chk = check_kunneth(heisenberg(1).algebra, abelian(2).algebra)
    assert chk.holds
    assert chk.lhs == 7
    assert (chk.dim_m_left, chk.dim_m_right, chk.tensor_dim) == (2, 1, 4)
    chk = check_kunneth(abelian(2).algebra, abelian(3).algebra)
    assert chk.holds and chk.lhs == 10
    assert (chk.dim_m_left, chk.dim_m_right, chk.tensor_dim) == (1, 3, 6)
    chk = check_kunneth(heisenberg(2).algebra, abelian(1).algebra)
    assert chk.holds and chk.lhs == 9
    assert (chk.dim_m_left, chk.dim_m_right, chk.tensor_dim) == (5, 0, 4)


def test_quotient_bound_center_of_heisenberg_is_tight():
    h1 = heisenberg(1).algebra
    chk = check_quotient_bound(h1, center(h1))
    assert chk.holds
    assert chk.lhs == 3 and chk.rhs == 3
    assert (chk.dim_m_total, chk.derived_meet_ideal) == (2, 1)
    assert (chk.dim_m_quotient, chk.dim_m_ideal, chk.tensor_dim) == (1, 0, 2)


def test_quotient_bound_zero_ideal_is_equality():
    alg = l_4_5_2_4().algebra
    chk = check_quotient_bound(alg, Subspace.zero(5))
    assert chk.holds
    assert chk.lhs == chk.rhs == schur_multiplier_dim(alg).dim_m


def test_quotient_bound_abelian_summand():
    alg = heisenberg_plus_abelian(2, 1).algebra
    k = from_vectors(6, [[0, 0, 0, 0, 0, 1]])
    chk = check_quotient_bound(alg, k)
    assert chk.holds
    assert chk.dim_m_total == 9
    assert chk.dim_m_quotient == 5
    assert chk.tensor_dim == 4


def test_quotient_bound_rejects_non_central():
    alg = l_3_4_1_4().algebra
    with pytest.raises(NotCentral):
        check_quotient_bound(alg, from_vectors(4, [[0, 0, 1, 0]]))
    # span(e3, e4) is an ideal whose e4 is central and whose e3 is not
    with pytest.raises(NotCentral):
        check_quotient_bound(alg, from_vectors(4, [[0, 0, 0, 1], [0, 0, 1, 0]]))


def test_quotient_bound_rejects_wrong_ambient():
    alg = heisenberg(1).algebra
    for k in (Subspace.zero(4), Subspace.full(2), from_vectors(4, [[0, 0, 1, 0]])):
        with pytest.raises(AmbientMismatch):
            check_quotient_bound(alg, k)


def test_defect_bounds_examples():
    chk = check_defect_bounds(abelian(5).algebra)
    assert chk.holds and chk.t == 0 and chk.abelian and chk.s is None
    chk = check_defect_bounds(heisenberg_plus_abelian(1, 2).algebra)
    assert chk.holds and chk.s == 0
    chk = check_defect_bounds(l_3_4_1_4().algebra)
    assert chk.holds and chk.s == 2 and chk.derived_dim == 2
    assert chk.derived_bound == 3 and chk.dim_m == 2


def test_defect_bounds_rejects_non_nilpotent():
    cross = build(3, [(1, 2, [0, 0, 1]), (1, 3, [0, -1, 0]), (2, 3, [1, 0, 0])])
    with pytest.raises(NotNilpotent):
        check_defect_bounds(cross)


def test_tensor_term_dim():
    assert tensor_term_dim(abelian(3).algebra, 2) == 6
    assert tensor_term_dim(heisenberg(1).algebra, 1) == 2
    assert tensor_term_dim(heisenberg(3).algebra, 0) == 0
    with pytest.raises(ValueError, match=r"^k_dim must be non-negative$"):
        tensor_term_dim(heisenberg(1).algebra, -1)


def test_complex_is_exact_on_samples():
    rng = Lcg(21)
    algebras = [heisenberg(2).algebra, l_3_4_1_4().algebra,
                l4524_plus_a1().algebra]
    algebras += [random_change_of_basis(a, rng) for a in algebras]
    # the complex is ranked on the adapted tables, which the transport writes
    algebras += [lcs_adapted(a).table for a in algebras]
    for alg in algebras:
        d2, d3 = ce_d2(alg), ce_d3(alg)
        assert d2.cols == d3.rows
        assert all(x == 0 for row in _compose(d2, d3) for x in row)


def test_dim_m_invariant_under_basis_change():
    rng = Lcg(22)
    for alg in (heisenberg(2).algebra, l_3_4_1_4().algebra,
                l_4_5_2_4().algebra, heisenberg_plus_abelian(2, 1).algebra):
        want = schur_multiplier_dim(alg).dim_m
        for _ in range(5):
            moved = random_change_of_basis(alg, rng)
            assert schur_multiplier_dim(moved).dim_m == want


def test_hplusa_closed_form_small_grid():
    for m in range(1, 5):
        for k in range(0, 5):
            got = schur_multiplier_dim(heisenberg_plus_abelian(m, k).algebra).dim_m
            want = (2 if m == 1 else 2 * m * m - m - 1) + k * (k - 1) // 2 + 2 * m * k
            assert got == want


def test_abelian_s_is_negative_for_large_n():
    # the s >= 0 claim is scoped to non-abelian algebras: A(n) with
    # n >= 4 is the expected counterexample outside that scope
    rep = schur_multiplier_dim(abelian(4).algebra)
    assert rep.s < 0


def test_hplusa_m1_never_matches_m2_closed_form():
    # the m >= 2 closed form n(n-3)/2 does not extend to m = 1: the
    # homology value is (n-1)(n-2)/2 + 1, larger by exactly 2 for every n
    for k in range(0, 5):
        n = 3 + k
        got = schur_multiplier_dim(heisenberg_plus_abelian(1, k).algebra).dim_m
        assert got == (n - 1) * (n - 2) // 2 + 1
        assert got == n * (n - 3) // 2 + 2


def test_complex_not_exact_flags_invalid_table():
    from fraction_reference import from_fractions
    from liemult.multiplier import ComplexNotExact

    # bypass validation to plant a Jacobi-violating table; the boundary
    # composition check must catch it
    bad = from_fractions(3, {(0, 1): vector([0, 0, 1]), (0, 2): vector([1, 0, 0])})
    with pytest.raises(ComplexNotExact,
                       match=r"Jacobi defect at \(e1,e2,e3\) on the lcs-adapted basis$"):
        schur_multiplier_dim.__wrapped__(bad)


def test_complex_not_exact_flags_invalid_transported_table():
    from fraction_reference import from_fractions
    from liemult.multiplier import ComplexNotExact

    # change_of_basis does not validate, so the planted defect survives the
    # base change, and the guard runs on a table that lcs_adapted transports
    bad = from_fractions(3, {(0, 1): vector([0, 0, 1]), (0, 2): vector([1, 0, 0])})
    moved = change_of_basis(bad, random_unimodular(3, Lcg(23)))
    assert lcs_adapted(moved).table is not moved
    with pytest.raises(ComplexNotExact):
        schur_multiplier_dim.__wrapped__(moved)


def test_schur_dim_closed_forms_at_scale():
    # one bracket in dimension 45, and no bracket in dimension 300: the
    # boundaries are built from the table, so neither touches the
    # C(n,2) x C(n,3) shape
    assert schur_multiplier_dim(heisenberg_plus_abelian(1, 42).algebra).dim_m == 947
    rep = schur_multiplier_dim(abelian(300).algebra)
    assert (rep.dim_m, rep.rank_d2, rep.rank_d3) == (44850, 0, 0)


def _filiform(n):
    return build(n, [(1, i, [1 if c == i + 1 else 0 for c in range(1, n + 1)])
                     for i in range(2, n)])


def _oracle_cases():
    bases = [("H(2)", heisenberg(2).algebra), ("L3414", l_3_4_1_4().algebra),
             ("L4524", l_4_5_2_4().algebra), ("L4524plusA1", l4524_plus_a1().algebra),
             ("filiform(6)", _filiform(6))]
    cases = []
    for seed, (label, alg) in enumerate(bases, 31):
        n = alg.dim
        u = random_unimodular(n, Lcg(seed), steps=12 * n)
        moved = change_of_basis(alg, u)
        cases += [pytest.param(alg, id=label), pytest.param(moved, id=f"{label}@unimodular")]
        # halving and tripling two basis vectors puts denominators 2 and 3
        # into the structure constants
        scale = [Fraction(1, 2), Fraction(1, 3)] + [1] * (n - 2)
        p = Matrix.from_rows([[s * x for x in row] for s, row in zip(scale, u.iter_rows())])
        rational = change_of_basis(alg, p)
        assert ce_d2(rational).denom > 1
        cases.append(pytest.param(rational, id=f"{label}@rational"))
    return cases


@pytest.mark.parametrize("alg", _oracle_cases())
def test_boundaries_match_sympy_oracle(alg):
    """d2 and d3 entry by entry, and their ranks, against sympy over QQ."""
    sympy = pytest.importorskip("sympy")
    n = alg.dim
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    row_of = {p: r for r, p in enumerate(pairs)}
    table = {(i, j): c for i, j, c in alg.table}

    def br(i, j):
        c = table.get((i, j))
        return [sympy.Rational(x.numerator, x.denominator) for x in c] if c else [0] * n

    d2 = sympy.zeros(n, len(pairs))
    for col, (i, j) in enumerate(pairs):
        for t, x in enumerate(br(i, j)):
            d2[t, col] = x
    d3 = sympy.zeros(len(pairs), len(triples))
    for col, (i, j, k) in enumerate(triples):
        for (a, b), t, sign in (((i, j), k, 1), ((i, k), j, -1), ((j, k), i, 1)):
            for m, x in enumerate(br(a, b)):
                if m != t:
                    # e_m ^ e_t = -(e_t ^ e_m)
                    d3[row_of[(min(m, t), max(m, t))], col] += sign * x * (1 if m < t else -1)

    ours2, ours3 = ce_d2(alg), ce_d3(alg)
    for ours, oracle in ((ours2, d2), (ours3, d3)):
        assert (ours.rows, ours.cols) == oracle.shape
        assert all(at(ours, r, c) == oracle[r, c]
                   for r in range(ours.rows) for c in range(ours.cols))
    assert rank(ours2) == d2.rank()
    assert rank(ours3) == d3.rank()


def _sympy_rank(sympy, n, rows):
    return sympy.Matrix(len(rows), n, [sympy.Rational(x.numerator, x.denominator)
                                       for row in rows for x in row]).rank()


def test_quotient_bound_meet_matches_sympy_rank():
    """dim(L^2 meet K) against sympy: rank L^2 + rank K - rank of both stacked."""
    sympy = pytest.importorskip("sympy")
    rng = Lcg(109)
    seen = set()
    for case in _oracle_cases():
        alg = case.values[0]
        n = alg.dim
        derived = [c for _, _, c in alg.table]
        for _ in range(4):
            k = random_central_subspace(alg, rng)
            rows = list(basis_rows(k))
            want = (_sympy_rank(sympy, n, derived) + _sympy_rank(sympy, n, rows)
                    - _sympy_rank(sympy, n, derived + rows))
            assert check_quotient_bound(alg, k).derived_meet_ideal == want
            seen.add((want, k.dim))
    assert any(m == 0 < d for m, d in seen)  # a nonzero K that misses L^2
    assert any(0 < m < d for m, d in seen)  # a K that meets L^2 in a proper subspace
