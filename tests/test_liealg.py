"""Lie algebra construction, validation and the subalgebra machinery."""

from fractions import Fraction
from itertools import combinations

import pytest

from liemult import liealg
from liemult.catalog import (
    abelian,
    heisenberg,
    heisenberg_plus_abelian,
    l4524_plus_a1,
    l_3_4_1_4,
    l_4_5_2_4,
)
from liemult.liealg import (
    DuplicateBracket,
    IndexOutOfRange,
    JacobiViolation,
    _make,
    build,
    center,
    change_of_basis,
    direct_sum,
    first_jacobi_violation,
    is_ideal,
    lcs_adapted,
    lower_central_series,
    quotient,
)
from liemult.lieconst import parse, render
from liemult.linalg import Matrix, SingularMatrix, Subspace
from liemult.multiplier import ce_d2, ce_d3
from liemult.randgen import (
    Lcg,
    random_central_quotient,
    random_central_subspace,
    random_change_of_basis,
    random_unimodular,
)

from fraction_reference import (
    basis_rows,
    bracket,
    bracket_basis,
    brackets_with_basis,
    change_of_basis_table,
    clear_caches,
    derived_subalgebra,
    from_fractions,
    from_vectors,
    jacobi_defect,
    subspace_sum,
    vector,
)


def e(n, k):
    return [1 if c == k else 0 for c in range(1, n + 1)]


def identity(n):
    return Matrix.from_rows([e(n, k) for k in range(1, n + 1)], cols=n)


def test_build_heisenberg():
    h1 = build(3, [(1, 2, e(3, 3))])
    assert h1.dim == 3
    assert (h1.denom, h1.brackets) == (1, ((0, 1, ((2, 1),)),))
    assert bracket_basis(h1, 0, 1) == vector([0, 0, 1])
    assert h1 == heisenberg(1).algebra


def test_build_abelian():
    a2 = build(2, [])
    assert a2.is_abelian
    assert a2 == abelian(2).algebra


def test_build_accepts_cyclic_bracket_table():
    # [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e1: the single Jacobi triple sums
    # to zero, so this is accepted despite looking suspicious
    alg = build(3, [(1, 2, e(3, 3)), (1, 3, e(3, 2)), (2, 3, e(3, 1))])
    assert not any(jacobi_defect(alg, 0, 1, 2))
    # and it is not nilpotent: the series stalls at the whole algebra
    report = lower_central_series(alg)
    assert not report.is_nilpotent
    assert report.lcs_dims == (3,)


def test_build_rejects_jacobi_violation():
    with pytest.raises(JacobiViolation) as exc:
        build(3, [(1, 2, e(3, 3)), (1, 3, e(3, 1))])
    assert exc.value.triple == (1, 2, 3)
    assert any(exc.value.defect)


def test_build_rejects_bad_indices():
    with pytest.raises(IndexOutOfRange):
        build(3, [(2, 1, e(3, 3))])
    with pytest.raises(IndexOutOfRange):
        build(3, [(1, 4, e(3, 3))])
    with pytest.raises(IndexOutOfRange):
        build(3, [(1, 2, [0, 0])])
    with pytest.raises(IndexOutOfRange, match=r"^dimension must be non-negative, got -1$"):
        build(-1, [])
    for k in (0, 4):
        with pytest.raises(IndexOutOfRange,
                           match=rf"^coefficient of \[e1,e2\] names e{k}, outside 1\.\.3$"):
            build(3, [(1, 2, {k: 1})])


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateBracket):
        build(3, [(1, 2, e(3, 3)), (1, 2, e(3, 3))])


def _error(call, *args):
    """(class, message) of what ``call(*args)`` raises."""
    with pytest.raises(Exception) as exc:
        call(*args)
    return exc.type, str(exc.value)


# what Fraction() refuses: a non-numeric string, a zero denominator, no number at all
BAD_VALUES = ("x", "1/0", None)


@pytest.mark.parametrize("bad", BAD_VALUES)
def test_build_raises_the_first_error_in_input_order(bad):
    # each bracket's indices, then its coefficients in order (a key's range
    # before its value), then the duplicate test, and a vector's length
    # only once every value in it has been read
    refused = _error(Fraction, bad)
    dup = (DuplicateBracket, "bracket [e1,e2] given twice")
    for brackets, want in (
            ([(1, 2, {3: bad, 5: 1})], refused),
            ([(1, 2, {5: 1, 3: bad})], (IndexOutOfRange, "coefficient of [e1,e2] names e5, outside 1..3")),
            ([(1, 2, {5: bad})], (IndexOutOfRange, "coefficient of [e1,e2] names e5, outside 1..3")),
            ([(1, 2, [0, bad])], refused),
            ([(1, 2, [bad, 0, 0, 0])], refused),
            ([(1, 2, [0, 1])], (IndexOutOfRange, "coefficient vector for [e1,e2] has length 2, expected 3")),
            ([(2, 1, [bad])], (IndexOutOfRange, "bracket [e2,e1] violates 1 <= i < j <= 3")),
            ([(1, 2, e(3, 3)), (1, 2, [0, 0, bad])], refused),
            ([(1, 2, e(3, 3)), (1, 2, {3: bad})], refused),
            ([(1, 2, [0, 0, bad]), (1, 2, e(3, 3))], refused),
            ([(1, 2, e(3, 3)), (1, 2, {9: 1})], (IndexOutOfRange, "coefficient of [e1,e2] names e9, outside 1..3")),
            ([(1, 2, e(3, 3)), (1, 2, [0, 0])], (IndexOutOfRange, "coefficient vector for [e1,e2] has length 2, expected 3")),
            ([(1, 2, [0, 0, 0]), (1, 2, {})], dup),
            ([(1, 2, e(3, 3)), (1, 2, [0, 0, "1/2"])], dup),
            ([(1, 3, {2: 1}), (1, 2, e(3, 3)), (1, 3, [Fraction(1, 2), 0, 0])], (
                DuplicateBracket, "bracket [e1,e3] given twice"))):
        assert _error(build, 3, brackets) == want, brackets


def test_build_stores_integer_numerators_over_the_least_common_denominator():
    half, third = Fraction(1, 2), Fraction(-2, 3)
    for brackets, denom, stored in (
            ([(1, 2, [0, 0, half])], 2, ((0, 1, ((2, 1),)),)),
            ([(1, 2, {3: half}), (1, 3, {2: third})], 6, ((0, 1, ((2, 3),)), (0, 2, ((1, -4),)))),
            ([(1, 3, {2: "-2/3"}), (1, 2, [0, 0, 0.5])], 6, ((0, 1, ((2, 3),)), (0, 2, ((1, -4),)))),
            ([(1, 2, [0, 0, Fraction(3, 1)])], 1, ((0, 1, ((2, 3),)),)),
            ([(1, 2, {3: Fraction(6, 2), 1: Fraction(0, 5)})], 1, ((0, 1, ((2, 3),)),)),
            ([(1, 2, [0, 0, 2]), (1, 3, [0, Fraction(4, 3), 0])], 3, ((0, 1, ((2, 6),)), (0, 2, ((1, 4),)))),
            ([(1, 2, {3: 5, 2: 0})], 1, ((0, 1, ((2, 5),)),)),
            ([(1, 3, [0, 0, 0]), (1, 2, [0, 0, True])], 1, ((0, 1, ((2, 1),)),))):
        alg = build(3, brackets)
        assert (alg.denom, alg.brackets) == (denom, stored), brackets
        assert all(type(a) is int for _, _, coeffs in alg.brackets for _, a in coeffs)
        assert type(alg.denom) is int


def test_bracket_bilinear_antisymmetric():
    h1 = heisenberg(1).algebra
    e1, e2 = vector([1, 0, 0]), vector([0, 1, 0])
    assert bracket(h1, e1, e2) == vector([0, 0, 1])
    assert bracket(h1, e2, e1) == vector([0, 0, -1])
    x = vector([2, 3, -1])
    assert bracket(h1, x, x) == vector([0, 0, 0])
    assert bracket(h1, x, e2) == vector([0, 0, 2])


def test_bracket_rejects_length_mismatch():
    from liemult.linalg import AmbientMismatch

    h1 = heisenberg(1).algebra
    with pytest.raises(AmbientMismatch):
        bracket(h1, vector([1, 0]), vector([0, 1, 0]))


def test_derived_subalgebra_examples():
    # dim L^2 is the size of the series walk's first echelon
    assert lower_central_series(abelian(4).algebra).derived_dim == 0
    for m in (1, 2, 3):
        assert lower_central_series(heisenberg(m).algebra).derived_dim == 1
    assert lower_central_series(l_3_4_1_4().algebra).derived_dim == 2
    assert lower_central_series(l4524_plus_a1().algebra).derived_dim == 2


def test_center_examples():
    assert center(abelian(3).algebra) == Subspace.full(3)
    zh1 = center(heisenberg(1).algebra)
    assert zh1 == from_vectors(3, [[0, 0, 1]])
    assert center(l4524_plus_a1().algebra).dim == 3


def test_center_brackets_vanish():
    for alg in (heisenberg(2).algebra, l_3_4_1_4().algebra,
                l_4_5_2_4().algebra, l4524_plus_a1().algebra):
        z = center(alg)
        for row in basis_rows(z):
            for j in range(alg.dim):
                ej = vector(e(alg.dim, j + 1))
                assert not any(bracket(alg, row, ej))


def test_lower_central_series_examples():
    assert lower_central_series(abelian(4).algebra).lcs_dims == (4, 0)
    assert lower_central_series(abelian(4).algebra).nilpotency_class == 1
    h2 = lower_central_series(heisenberg(2).algebra)
    assert h2.lcs_dims == (5, 1, 0)
    assert h2.nilpotency_class == 2
    fil = lower_central_series(l_3_4_1_4().algebra)
    assert fil.lcs_dims == (4, 2, 1, 0)
    assert fil.nilpotency_class == 3


def test_lower_central_series_degenerate():
    assert lower_central_series(abelian(0).algebra).lcs_dims == (0,)
    assert lower_central_series(abelian(0).algebra).nilpotency_class == 0
    assert lower_central_series(abelian(1).algebra).nilpotency_class == 1


def test_is_ideal_examples():
    h1 = heisenberg(1).algebra
    assert is_ideal(h1, derived_subalgebra(h1))
    assert is_ideal(h1, center(h1))
    assert not is_ideal(h1, from_vectors(3, [[1, 0, 0]]))
    for alg in (l_3_4_1_4().algebra, l_4_5_2_4().algebra):
        assert is_ideal(alg, derived_subalgebra(alg))
        assert is_ideal(alg, center(alg))
    # [e1,e2] = e4 stays in span(e1, e4) but [e1,e3] = e5 leaves it
    alg = build(5, [(1, 2, e(5, 4)), (1, 3, e(5, 5))])
    assert not is_ideal(alg, from_vectors(5, [e(5, 1), e(5, 4)]))
    assert is_ideal(alg, from_vectors(5, [e(5, 1), e(5, 4), e(5, 5)]))


def test_quotient_heisenberg_by_center_is_abelian():
    h1 = heisenberg(1).algebra
    q = quotient(h1, center(h1))
    assert q.dim == 2
    assert q.is_abelian


def test_quotient_by_derived_is_abelian():
    for alg in (heisenberg(2).algebra, l_3_4_1_4().algebra, l_4_5_2_4().algebra):
        q = quotient(alg, derived_subalgebra(alg))
        assert q.dim == alg.dim - derived_subalgebra(alg).dim
        assert q.is_abelian


def test_quotient_l3414_by_top_is_heisenberg():
    alg = l_3_4_1_4().algebra
    k = from_vectors(4, [[0, 0, 0, 1]])
    q = quotient(alg, k)
    assert q == heisenberg(1).algebra


def test_quotient_requires_ideal():
    from liemult.liealg import NotAnIdeal

    h1 = heisenberg(1).algebra
    with pytest.raises(NotAnIdeal):
        quotient(h1, from_vectors(3, [[1, 0, 0]]))


def test_wrong_ambient_raises_one_message():
    from liemult.linalg import AmbientMismatch
    from liemult.multiplier import check_quotient_bound

    h1 = heisenberg(1).algebra
    for fn in (quotient, is_ideal, check_quotient_bound):
        with pytest.raises(AmbientMismatch) as exc:
            fn(h1, Subspace.zero(2))
        assert str(exc.value) == "subspace ambient 2 != dim 3"


def test_lower_central_series_computes_no_center():
    from liemult.verify import build_population

    population = build_population(4, 3, 1)
    sample = [c.algebra for c in population[::9]]
    assert len(sample) > 50
    clear_caches()
    for alg in sample:
        lower_central_series(alg)
    assert center.cache_info().misses == 0


def test_direct_sum_examples():
    h1 = heisenberg(1).algebra
    assert direct_sum(h1, abelian(0).algebra) == h1
    s = direct_sum(h1, abelian(1).algebra)
    assert s.dim == 4
    assert lower_central_series(s).derived_dim == 1
    assert direct_sum(abelian(2).algebra, abelian(3).algebra) == abelian(5).algebra


def test_direct_sum_derived_dims_add():
    cases = [
        (heisenberg(1).algebra, heisenberg(2).algebra),
        (l_3_4_1_4().algebra, l_4_5_2_4().algebra),
        (abelian(3).algebra, l_3_4_1_4().algebra),
    ]
    for a, b in cases:
        assert (lower_central_series(direct_sum(a, b)).derived_dim
                == lower_central_series(a).derived_dim + lower_central_series(b).derived_dim)


def test_change_of_basis_identity():
    alg = l_3_4_1_4().algebra
    assert change_of_basis(alg, identity(4)) == alg


def test_change_of_basis_scaling():
    h1 = heisenberg(1).algebra
    p = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    moved = change_of_basis(h1, p)
    assert (moved.denom, moved.brackets) == (2, ((0, 1, ((2, 1),)),))
    assert bracket_basis(moved, 0, 1) == vector([0, 0, "1/2"])


def test_change_of_basis_rejects_singular():
    from liemult.linalg import AmbientMismatch

    with pytest.raises(SingularMatrix):
        change_of_basis(heisenberg(1).algebra,
                        Matrix.from_rows([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(SingularMatrix):
        change_of_basis(heisenberg(1).algebra,
                        Matrix.from_rows([[1, 2, 0], ["1/2", 1, 0], [0, 0, 1]]))
    with pytest.raises(AmbientMismatch):
        change_of_basis(heisenberg(1).algebra, Matrix.from_rows([[1, 0, 0]]))


def test_change_of_basis_preserves_series_report():
    rng = Lcg(12)
    for alg in (heisenberg(2).algebra, l_3_4_1_4().algebra,
                l_4_5_2_4().algebra, heisenberg_plus_abelian(2, 2).algebra):
        base = lower_central_series(alg)
        for _ in range(4):
            moved = random_change_of_basis(alg, rng)
            assert lower_central_series(moved) == base


def test_population_jacobi_defect_is_zero():
    # derived constructions skip re-validation; verify the theorems held
    rng = Lcg(13)
    algebras = [
        heisenberg_plus_abelian(2, 1).algebra,
        direct_sum(l_3_4_1_4().algebra, heisenberg(1).algebra),
    ]
    algebras += [random_change_of_basis(algebras[0], rng) for _ in range(3)]
    q = random_central_quotient(l4524_plus_a1().algebra, rng)
    if q is not None:
        algebras.append(q)
    for alg in algebras:
        assert first_jacobi_violation(alg) is None


_SMALL_CATALOG = [heisenberg(1).algebra, heisenberg(2).algebra,
                  heisenberg_plus_abelian(1, 2).algebra,
                  heisenberg_plus_abelian(2, 1).algebra,
                  l_3_4_1_4().algebra, l_4_5_2_4().algebra, l4524_plus_a1().algebra]


def _draw_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def _random_table(rng):
    """A seeded table of dim 2..7 with constants p/q, q in {1, 2, 3}.

    Every third draw is sparse and random (almost always invalid), the
    others are rational base changes of catalog algebras (valid), half
    of them with one constant perturbed (mostly invalid).
    """
    kind = rng.randint(0, 2)
    if kind == 0:
        n = rng.randint(2, 7)
        mapping = {}
        for i, j in combinations(range(n), 2):
            if rng.randint(0, 2) == 0:
                mapping[(i, j)] = [_draw_rational(rng) if rng.randint(0, 2) == 0 else 0
                                   for _ in range(n)]
        return from_fractions(n, mapping)
    alg = rng.choice(_SMALL_CATALOG)
    n = alg.dim
    u = random_unimodular(n, rng, steps=3 * n)
    scale = [Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))) for _ in range(n)]
    alg = change_of_basis(alg, Matrix.from_rows(
        [[s * x for x in row] for s, row in zip(scale, u.iter_rows())]))
    if kind == 2 and alg.table:
        mapping = {(i, j): list(c) for i, j, c in alg.table}
        c = mapping[rng.choice(sorted(mapping))]
        c[rng.randint(0, n - 1)] += Fraction(rng.randint(1, 2), rng.choice((1, 2, 3)))
        alg = from_fractions(n, mapping)
    return alg


def _brute_force_violation(alg):
    for i, j, k in combinations(range(alg.dim), 3):
        defect = jacobi_defect(alg, i, j, k)
        if any(defect):
            return (i, j, k), defect
    return None


def test_first_jacobi_violation_matches_brute_force_scan():
    rng = Lcg(41)
    invalid = 0
    for _ in range(1200):
        alg = _random_table(rng)
        expected = _brute_force_violation(alg)
        assert first_jacobi_violation(alg) == expected
        invalid += expected is not None
    # both outcomes are exercised in earnest
    assert 300 < invalid < 900


def test_boundary_composition_is_the_jacobi_defect():
    # column (i,j,k) of d2 . d3 is [[e_i,e_j],e_k] - [[e_i,e_k],e_j] +
    # [[e_j,e_k],e_i], the Jacobi defect itself, sign included
    rng = Lcg(41)
    invalid = 0
    for _ in range(300):
        alg = _random_table(rng)
        d2, d3 = ce_d2(alg), ce_d3(alg)
        scale = alg.denom * alg.denom
        first = None
        for col, triple in enumerate(combinations(range(alg.dim), 3)):
            acc = {}
            for r, x in d3.columns.get(col, {}).items():
                for m, y in d2.columns.get(r, {}).items():
                    acc[m] = acc.get(m, 0) + x * y
            defect = tuple(Fraction(acc.get(m, 0), scale) for m in range(alg.dim))
            assert defect == jacobi_defect(alg, *triple)
            if first is None and any(defect):
                first = triple, defect
        assert first_jacobi_violation(alg) == first
        invalid += first is not None
    assert 75 < invalid < 225


def _bracket_data(alg):
    """1-based ``build`` input for a stored table: ints when it is integral, else Fractions."""
    d = alg.denom
    return [(i + 1, j + 1, {m + 1: a if d == 1 else Fraction(a, d) for m, a in coeffs})
            for i, j, coeffs in alg.brackets]


def _planted_tables(rng):
    """Seeded tables as p/q and as their integral numerators, each also moved by an integral base change.

    Scaling every constant by the common denominator scales every
    Jacobi defect by its square, so both forms fail on the same triples.
    """
    for _ in range(150):
        alg = _random_table(rng)
        integral = _make(alg.dim, 1, {(i, j): c for i, j, c in alg.brackets})
        for table in (alg, integral):
            n = table.dim
            yield table
            yield change_of_basis(table, random_unimodular(n, rng, steps=3 * n))


def test_build_names_the_violation_of_the_original_table():
    # build checks the lcs-adapted table; on a defect it must still name
    # the first failing triple and defect of the table it was given
    moved = fractional = 0
    for table in _planted_tables(Lcg(59)):
        expected = first_jacobi_violation(table)
        for load in (lambda: build(table.dim, _bracket_data(table)),
                     lambda: parse(render(table))):
            if expected is None:
                assert load() == table
                continue
            with pytest.raises(JacobiViolation) as exc:
                load()
            (i, j, k), defect = expected
            assert exc.value.triple == (i + 1, j + 1, k + 1)
            assert exc.value.defect == defect
            assert str(exc.value) == str(JacobiViolation((i + 1, j + 1, k + 1), defect))
        if expected is not None:
            moved += lcs_adapted(table).table != table
            fractional += table.denom > 1
    # many planted defects sit on tables that the check transports first
    assert moved > 150 and fractional > 80


def test_valid_dense_base_change_never_scans_its_original_table(monkeypatch):
    rng = Lcg(61)
    cases = []
    for alg in [*_SMALL_CATALOG, *(_filiform(n) for n in (5, 6, 7))]:
        n = alg.dim
        for _ in range(3):
            cases.append(change_of_basis(alg, random_unimodular(n, rng, steps=12 * n)))
    scanned = []
    check = liealg.first_jacobi_violation

    def recorded(L):
        scanned.append(L)
        return check(L)

    monkeypatch.setattr(liealg, "first_jacobi_violation", recorded)
    transported = 0
    for moved in cases:
        del scanned[:]
        assert build(moved.dim, _bracket_data(moved)) == moved
        adapted = lcs_adapted(moved).table
        assert scanned == [adapted]
        transported += adapted != moved
    assert transported == len(cases)


def _sympy_rows(sympy, vecs):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                         for v in vecs])


def _from_sympy(rows):
    return [tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in rows]


def _reference_lcs_dims(sympy, alg):
    """Reference: each term spanned by the Fraction brackets of the last, reduced by sympy."""
    n = alg.dim
    dims = [n]
    cur = [tuple(Fraction(x) for x in e(n, k)) for k in range(1, n + 1)]
    while cur:
        vecs = [v for row in cur for v in brackets_with_basis(alg, row)]
        nxt = []
        if vecs:
            reduced, pivots = _sympy_rows(sympy, vecs).rref()
            nxt = _from_sympy(reduced.row(r) for r in range(len(pivots)))
        if len(nxt) == len(cur):
            break
        dims.append(len(nxt))
        cur = nxt
    return tuple(dims)


def _filiform(n):
    return build(n, [(1, k, e(n, k + 1)) for k in range(2, n)])


_SL2 = build(3, [(1, 2, e(3, 3)), (1, 3, [-2, 0, 0]), (2, 3, [0, 2, 0])])
_SO3 = build(3, [(1, 2, e(3, 3)), (1, 3, [0, -1, 0]), (2, 3, e(3, 1))])


def test_lower_central_series_matches_fraction_reference():
    sympy = pytest.importorskip("sympy")
    rng = Lcg(42)
    algebras = [
        build(3, [(1, 2, e(3, 3)), (1, 3, e(3, 2)), (2, 3, e(3, 1))]),
        build(2, [(1, 2, e(2, 2))]),
        _filiform(7),
        direct_sum(_filiform(5), build(2, [(1, 2, e(2, 2))])),
        # the walk over the generators e4, resp. e4 and e5, reaches 0 at once
        direct_sum(_SL2, abelian(1).algebra),
        direct_sum(_SO3, abelian(2).algebra),
    ]
    for alg in _SMALL_CATALOG + [_filiform(6)]:
        n = alg.dim
        u = random_unimodular(n, rng, steps=6 * n)
        algebras.append(change_of_basis(alg, u))
        scale = [Fraction(1, 2), Fraction(3)] + [Fraction(2, 3)] * (n - 2)
        algebras.append(change_of_basis(alg, Matrix.from_rows(
            [[s * x for x in row] for s, row in zip(scale, u.iter_rows())])))
        for _ in range(3):
            q = random_central_quotient(alg, rng)
            if q is not None:
                algebras.append(q)
    for alg in (_filiform(8), l4524_plus_a1().algebra):
        n = alg.dim
        algebras.append(change_of_basis(alg, random_unimodular(n, rng, steps=12 * n)))
    stalled = 0
    for alg in algebras:
        dims = lower_central_series(alg).lcs_dims
        assert dims == _reference_lcs_dims(sympy, alg)
        stalled += dims[-1] != 0
    assert stalled == 5


def _base_changes(rng):
    """Small catalog algebras with an integral and a rational base change of each."""
    algebras = []
    for alg in _SMALL_CATALOG + [_filiform(6), abelian(3).algebra]:
        n = alg.dim
        u = random_unimodular(n, rng, steps=6 * n)
        scale = [Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))) for _ in range(n)]
        algebras += [alg, change_of_basis(alg, u), change_of_basis(alg, Matrix.from_rows(
            [[x * y for y in row] for x, row in zip(scale, u.iter_rows())]))]
    return algebras


def test_center_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    for alg in _base_changes(Lcg(43)):
        n = alg.dim
        # row (j, t), column m: the coefficient of e_t in [e_m, e_j]
        adjoint = sympy.Matrix(n * n, n, lambda r, m: sympy.Rational(
            bracket_basis(alg, m, r // n)[r % n]))
        nullspace = adjoint.nullspace()
        expected = []
        if nullspace:
            reduced, pivots = sympy.Matrix.hstack(*nullspace).T.rref()
            expected = _from_sympy(reduced.row(r) for r in range(len(pivots)))
        assert list(basis_rows(center(alg))) == expected


def test_is_ideal_matches_bracket_membership():
    sympy = pytest.importorskip("sympy")
    rng = Lcg(44)
    ideals = 0
    for alg in _base_changes(rng):
        n = alg.dim
        for _ in range(4):
            s = from_vectors(n, [[rng.randint(-1, 1) for _ in range(n)]
                                          for _ in range(rng.randint(0, n))])
            if rng.randint(0, 1):
                # every subspace containing [L, L] is an ideal
                s = subspace_sum(s, derived_subalgebra(alg))
            # [L, S] lies in S iff stacking every [s, e_j] under S keeps sympy's rank at dim S
            rows = list(basis_rows(s))
            brackets = [bracket(alg, row, tuple(Fraction(x) for x in e(n, j)))
                        for row in rows for j in range(1, n + 1)]
            expected = _sympy_rows(sympy, rows + brackets).rank() == s.dim
            assert is_ideal(alg, s) == expected
            ideals += expected
    assert 30 < ideals < 90


def _reference_quotient(sympy, alg, k):
    """L/K and its projection as the greedy algorithm computes them, in sympy over QQ.

    e_i joins the complement when it raises the sympy rank of K's basis
    plus the e's chosen so far; the projection is the complement block
    of the inverse of [K; e_chosen], and the table projects each bracket
    of two complement vectors.
    """
    n, r = alg.dim, k.dim
    units = [tuple(Fraction(x) for x in e(n, i)) for i in range(1, n + 1)]
    rows = list(basis_rows(k))
    chosen = []
    for i in range(n):
        cand = rows + [units[c] for c in chosen] + [units[i]]
        if _sympy_rows(sympy, cand).rank() == len(cand):
            chosen.append(i)
    full = _sympy_rows(sympy, rows + [units[c] for c in chosen])
    proj = full.inv()[:, r:]

    def project(v):
        return _from_sympy([_sympy_rows(sympy, [v]) * proj])[0]

    brackets = []
    for a, b in combinations(range(n - r), 2):
        w = project(bracket_basis(alg, chosen[a], chosen[b]))
        if any(w):
            brackets.append((a + 1, b + 1, w))
    return build(n - r, brackets), project


def test_quotient_matches_greedy_sympy_reference():
    sympy = pytest.importorskip("sympy")
    rng = Lcg(45)
    for alg in _base_changes(rng):
        n = alg.dim
        ideals = [center(alg), derived_subalgebra(alg), Subspace.zero(n), Subspace.full(n)]
        ideals += [random_central_subspace(alg, rng) for _ in range(3)]
        for k in ideals:
            expected, project = _reference_quotient(sympy, alg, k)
            q = quotient(alg, k)
            assert q == expected
            for _ in range(3):
                x = vector([rng.randint(-3, 3) for _ in range(n)])
                y = vector([rng.randint(-3, 3) for _ in range(n)])
                assert project(bracket(alg, x, y)) == bracket(q, project(x), project(y))


def _reference_central_subspace(alg, rng, min_dim):
    """Random integer combinations of the center's unit-pivot Fraction rows."""
    n = alg.dim
    z = list(basis_rows(center(alg)))
    if not z or min_dim > len(z):
        return Subspace.zero(n)
    vecs = []
    for _ in range(rng.randint(min_dim, len(z))):
        coeffs = [rng.randint(-2, 2) for _ in range(len(z))]
        vecs.append([sum((w * row[c] for w, row in zip(coeffs, z)), Fraction(0))
                     for c in range(n)])
    return from_vectors(n, vecs)


def test_random_central_subspace_matches_fraction_reference():
    # the verify suites draw from catalog centers, whose pivots are all 1;
    # base changes give centers whose primitive rows have other pivots
    seeds = Lcg(48)
    for alg in _base_changes(Lcg(49)):
        for min_dim in (0, 1):
            seed = seeds.next_u32()
            got = random_central_subspace(alg, Lcg(seed), min_dim)
            assert got == _reference_central_subspace(alg, Lcg(seed), min_dim)


def test_hash_survives_rebuild():
    h1 = heisenberg(1).algebra
    again = build(3, [(1, 2, e(3, 3))])
    assert again == h1 and hash(again) == hash(h1)
    moved = change_of_basis(l_4_5_2_4().algebra, random_unimodular(5, Lcg(46)))
    rebuilt = build(moved.dim, [(i + 1, j + 1, c) for i, j, c in moved.table])
    assert rebuilt is not moved
    assert rebuilt == moved and hash(rebuilt) == hash(moved)
    assert center(rebuilt) is center(moved)


def test_change_of_basis_matches_fraction_reference():
    # the CLI reports are invariant under base change, so only a direct
    # comparison of the tables sees a wrongly transported bracket
    from liemult.catalog import standard_entries

    rng = Lcg(47)
    draws = 0
    for entry in standard_entries(4, 3):
        alg = entry.algebra
        n = alg.dim
        if n < 2:
            continue
        for trial in range(8):
            p = random_unimodular(n, rng, steps=3 * n)
            if trial >= 4:
                # scaled rows put denominators into P and into the constants
                scale = [Fraction(rng.randint(1, 4) * rng.choice((-1, 1)), rng.randint(1, 3))
                         for _ in range(n)]
                p = Matrix.from_rows([[s * x for x in row] for s, row in zip(scale, p.iter_rows())])
            assert change_of_basis(alg, p).table == change_of_basis_table(alg, p)
            draws += 1
        # a repeated row, scaled, makes P singular
        rows = [list(row) for row in random_unimodular(n, rng).iter_rows()]
        f = Fraction(rng.randint(1, 3), 2)
        rows[-1] = [f * x for x in rows[0]]
        with pytest.raises(SingularMatrix):
            change_of_basis(alg, Matrix.from_rows(rows))
    assert draws == 208


def test_structure_of_abelian_4000_stays_linear_in_memory():
    # an abelian table has no brackets: the center is the whole space and
    # the series is (n, 0), held as n unit rows, not an n x n matrix
    import tracemalloc

    n = 4000
    alg = abelian(n).algebra
    for fn in (center.__wrapped__, liealg._series.__wrapped__):
        tracemalloc.start()
        try:
            fn(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # n^2 references alone would take 8 n^2 bytes = 128 MB
        assert peak < 8 * 2 ** 20
    assert center(alg) == Subspace.full(n)
    assert lower_central_series(alg).lcs_dims == (n, 0)
