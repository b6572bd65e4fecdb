"""Exact linear algebra: examples worked by hand, seeded properties, and the kernel on recorded requests."""

from fractions import Fraction

import pytest

from liemult import liealg, linalg, multiplier
from liemult.catalog import heisenberg, l4524_plus_a1, l_3_4_1_4, l_4_5_2_4
from liemult.liealg import build, center, change_of_basis, lcs_adapted, lower_central_series, quotient
from liemult.linalg import (
    AmbientMismatch,
    Matrix,
    SingularMatrix,
    SparseMatrix,
    Subspace,
    _echelon,
    _inverse,
    _kernel,
    _span,
    rank as sparse_rank,
)
from liemult.multiplier import schur_multiplier_dim
from liemult.randgen import Lcg, random_unimodular
from liemult.verify import build_population

from fraction_reference import (
    basis_rows,
    cancel_with_content,
    clear_caches,
    contains,
    dense_rank as rank,
    from_vectors,
    integer_rows,
    row_space,
    unit_vector,
    vec_mat,
    vector,
)


def M(rows, cols=None):
    return Matrix.from_rows(rows, cols=cols)


def identity(n):
    return M([[int(r == c) for c in range(n)] for r in range(n)])


def zero(rows, cols):
    return M([[0] * cols for _ in range(rows)], cols=cols)


def kernel(m):
    """The kernel { v : m v = 0 } on the routine that computes the center."""
    return _kernel(m.cols, integer_rows(m.iter_rows(), m.cols))


# basis_rows(row_space(m)) is the reduced row echelon form (rref) of m
# with the zero rows dropped: unit pivots in increasing columns, zeros
# above each; the stored rows are those rows scaled to primitive integers
def test_row_space_identity():
    reduced = row_space(identity(3))
    assert list(basis_rows(reduced)) == list(identity(3).iter_rows())
    assert reduced.rows == (((0, 1),), ((1, 1),), ((2, 1),))
    assert reduced.dim == 3


def test_row_space_zero():
    reduced = row_space(zero(2, 4))
    assert list(basis_rows(reduced)) == []
    assert reduced == Subspace.zero(4)


def test_row_space_dependent_rows():
    reduced = row_space(M([[1, 2], [2, 4]]))
    assert list(basis_rows(reduced)) == [vector([1, 2])]


def test_row_space_clears_above_and_normalizes():
    reduced = from_vectors(3, [[0, 2, 4], [3, 3, 3]])
    assert list(basis_rows(reduced)) == [vector([1, 0, -1]), vector([0, 1, 2])]
    assert reduced.rows == (((0, 1), (2, -1)), ((1, 1), (2, 2)))
    # rows are primitive integers with a positive pivot
    halves = from_vectors(2, [["-1/2", "1/3"]])
    assert halves.rows == (((0, 3), (1, -2)),)
    assert list(basis_rows(halves)) == [vector([1, "-2/3"])]


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank(zero(3, 5)) == 0
    assert rank(M([[1, 2], [2, 4], [3, 6]])) == 1


def test_rank_rational_entries():
    assert rank(M([["1/2", "1/3"], ["1/4", "1/6"]])) == 1
    assert rank(M([["1/2", "1/3"], ["1/4", "1/5"]])) == 2


def test_kernel_zero_matrix_is_full_space():
    assert kernel(zero(2, 3)) == Subspace.full(3)


def test_kernel_identity_is_zero_space():
    assert kernel(identity(3)) == Subspace.zero(3)


def test_kernel_single_relation():
    ker = kernel(M([[1, 1, 0]]))
    assert ker.dim == 2
    assert contains(ker, vector([1, -1, 0]))
    assert contains(ker, vector([0, 0, 1]))
    assert not contains(ker, vector([1, 0, 0]))


def test_kernel_vectors_annihilate():
    m = M([[1, 2, 3, 4], [0, 1, 1, 0], [1, 3, 4, 4]])
    ker = kernel(m)
    assert ker.dim == 4 - rank(m)
    for row in basis_rows(ker):
        assert not any(sum(x * y for x, y in zip(r, row)) for r in m.iter_rows())


def test_row_space_examples():
    assert row_space(identity(3)) == Subspace.full(3)
    assert row_space(zero(2, 3)) == Subspace.zero(3)
    assert row_space(M([[1, 0], [1, 1]])) == Subspace.full(2)


def test_contains_examples():
    s = from_vectors(3, [[0, 1, 0]])
    assert contains(s, vector([0, 0, 0]))
    assert not contains(s, vector([1, 0, 0]))
    t = from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    assert contains(t, vector([1, 1, 0]))
    assert contains(t, vector([2, 2, 5]))
    assert not contains(t, vector([1, 2, 0]))


def test_ambient_mismatch_errors():
    a = Subspace.full(2)
    with pytest.raises(AmbientMismatch):
        contains(a, vector([1, 0, 0]))
    with pytest.raises(AmbientMismatch):
        from_vectors(3, [[1, 0]])


def _fraction_inverse(rows):
    """R/d of ``_inverse`` as dense Fraction rows."""
    d, inv = _inverse(rows)
    return [tuple(Fraction(row.get(c, 0), d) for c in range(len(rows))) for row in inv]


def test_inverse_round_trip():
    rows = [[1, 2], [3, 5]]
    assert _inverse(rows) == (1, [{0: -5, 1: 2}, {0: 3, 1: -1}])
    inv = _fraction_inverse([[2, 0], [1, 4]])
    assert inv == [vector(["1/2", 0]), vector(["-1/8", "1/4"])]
    products = [vec_mat(row, inv) for row in M([[2, 0], [1, 4]]).iter_rows()]
    assert products == list(identity(2).iter_rows())
    assert _inverse([]) == (1, [])
    with pytest.raises(SingularMatrix):
        _inverse([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        _inverse([[0, 0], [0, 0]])


def _random_matrix(rng, rows, cols):
    # small rationals with denominators 1..3 exercise the clearing path
    entries = []
    for _ in range(rows * cols):
        num = rng.randint(-3, 3)
        den = rng.randint(1, 3)
        entries.append(Fraction(num, den))
    return Matrix(rows, cols, tuple(entries))


def _to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


def _from_sympy(rows):
    return [tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in rows]


def test_row_space_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    rng = Lcg(106)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(0, 7), rng.randint(1, 7))
        reduced, pivots = _to_sympy(sympy, m).rref()
        expected = _from_sympy(reduced.row(r) for r in range(len(pivots)))
        assert list(basis_rows(row_space(m))) == expected


def test_kernel_basis_spans_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = Lcg(107)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(0, 7), rng.randint(1, 7))
        ker = kernel(m)
        nullspace = _from_sympy(v.T for v in _to_sympy(sympy, m).nullspace())
        assert ker.dim == len(nullspace)
        assert all(contains(ker, v) for v in nullspace)


def test_inverse_matches_sympy_inv():
    sympy = pytest.importorskip("sympy")
    rng = Lcg(108)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        # the inverse of an integer matrix Q; change_of_basis writes P as Q/q
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        oracle = sympy.Matrix(rows)
        if oracle.det() == 0:
            singular += 1
            with pytest.raises(SingularMatrix):
                _inverse(rows)
            continue
        inv = oracle.inv()
        assert _fraction_inverse(rows) == _from_sympy(inv.row(r) for r in range(n))
    assert 0 < singular < 60


def test_contains_matches_sympy_rank():
    sympy = pytest.importorskip("sympy")
    rng = Lcg(110)
    members = outsiders = 0
    for trial in range(60):
        n = rng.randint(1, 6)
        rows = 0 if trial % 10 == 0 else rng.randint(0, n)
        s = row_space(_random_matrix(rng, rows, n))
        # a combination of the basis rows lies in S; shifting one entry usually leaves it
        coeffs = _random_matrix(rng, 1, s.dim).row(0)
        member = vec_mat(coeffs, list(basis_rows(s))) if s.dim else vector([0] * n)
        shifted = member[:-1] + (member[-1] + Fraction(1, rng.randint(1, 3)),)
        for v in (vector([0] * n), _random_matrix(rng, 1, n).row(0), member, shifted):
            stacked = M([*basis_rows(s), v], cols=n)
            expected = _to_sympy(sympy, stacked).rank() == s.dim
            assert contains(s, v) == expected
            members += expected
            outsiders += not expected
    assert members > 60 and outsiders > 60


def test_rank_nullity_property():
    rng = Lcg(101)
    for _ in range(40):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        assert cols == rank(m) + kernel(m).dim


def test_rank_agrees_with_rref_pivot_count():
    # rank uses fraction-free elimination; sympy's rref is the independent route
    sympy = pytest.importorskip("sympy")
    rng = Lcg(105)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(0, 7), rng.randint(1, 7))
        assert rank(m) == len(_to_sympy(sympy, m).rref()[1]) == row_space(m).dim


def test_row_space_idempotent_property():
    rng = Lcg(102)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced = row_space(m)
        again = row_space(M(list(basis_rows(reduced)), cols=m.cols))
        assert again == reduced
        assert list(basis_rows(again)) == list(basis_rows(reduced))


def test_modular_law_property():
    rng = Lcg(103)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = from_vectors(
            n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))])
        b = from_vectors(
            n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))])
        # dim(A ∩ B) by echelon size, as check_quotient_bound takes it,
        # against A ∩ B formed as the annihilator of A's and B's annihilators
        spanned = len(_echelon([*a.rows, *b.rows]))
        meet = _kernel(n, [*_kernel(n, a.rows).rows, *_kernel(n, b.rows).rows])
        assert a.dim + b.dim - spanned == meet.dim
        assert all(contains(a, v) and contains(b, v) for v in basis_rows(meet))


def test_row_equivalent_matrices_same_subspace():
    rng = Lcg(104)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        m = Matrix.from_rows(rows, cols=n)
        # random row operations preserve the row space
        shuffled = [list(r) for r in rows]
        for _ in range(6):
            i = rng.randint(0, len(shuffled) - 1)
            j = rng.randint(0, len(shuffled) - 1)
            lam = rng.choice((-2, -1, 1, 2, 3))
            if i != j:
                shuffled[i] = [x + lam * y for x, y in zip(shuffled[i], shuffled[j])]
            else:
                shuffled[i] = [lam * x for x in shuffled[i]]
        m2 = Matrix.from_rows(shuffled, cols=n)
        assert row_space(m) == row_space(m2)
        assert rank(m) == rank(m2)


def test_subspace_equality_is_canonical():
    a = from_vectors(3, [[2, 0, 0], [0, 0, 5]])
    b = from_vectors(3, [[1, 0, "1/2"], [0, 0, 1]])
    assert a == b
    assert a.rows == b.rows


def test_unit_vector():
    assert unit_vector(3, 1) == vector([0, 1, 0])


def _sparse_vectors(rng, count, width, dim):
    """``count`` sparse integer vectors of length ``width`` in a random subspace of dimension <= ``dim``."""
    gens = [{c: rng.randint(-3, 3) for c in range(width) if rng.randint(0, 2) == 0}
            for _ in range(dim)]
    out = []
    for _ in range(count):
        acc = {}
        for g in gens:
            f = rng.randint(-2, 2)
            for c, x in g.items():
                acc[c] = acc.get(c, 0) + f * x
        out.append({c: x for c, x in acc.items() if x})
    return out


def test_echelon_stopped_at_its_dimension_is_the_same_echelon():
    # stored vectors never change, so once the echelon holds as many
    # vectors as the span's dimension the rest would all reduce to zero
    rng = Lcg(111)
    stopped = 0
    for _ in range(80):
        width = rng.randint(1, 8)
        vs = _sparse_vectors(rng, rng.randint(0, 10), width, rng.randint(0, width))
        full = _echelon(vs)
        assert _echelon(vs, limit=len(full)) == full
        seed = _echelon(_sparse_vectors(rng, 2, width, 2))
        both = _echelon(vs, dict(seed))
        assert _echelon(vs, dict(seed), limit=len(both)) == both
        stopped += len(full) < len([v for v in vs if v])
    assert stopped > 20


def test_echelon_seeded_past_its_limit_takes_no_vector():
    seed = _echelon([{0: 1}, {1: 2, 2: 1}])
    for limit in (0, 1, 2):
        assert _echelon([{2: 5}, {0: 1, 2: 3}], dict(seed), limit=limit) == seed


def _sparse_matrix(rng, rows, cols, dim, zero_cols=0):
    """A ``rows`` x ``cols`` SparseMatrix whose columns span at most ``dim`` dimensions."""
    columns = dict(enumerate(_sparse_vectors(rng, cols, rows, dim)))
    for c in range(cols, cols + zero_cols):
        columns[c] = {r: 0 for r in range(rows)}
    return SparseMatrix(rows, cols + zero_cols, rng.randint(1, 3), columns)


def test_rank_stopped_at_the_row_count_matches_sympy():
    # the rank stops at the number of rows holding an entry: a full row
    # rank hits that bound, and the other kinds must not be cut short
    sympy = pytest.importorskip("sympy")
    rng = Lcg(112)
    kinds = {"full": 0, "deficient": 0, "empty": 0, "zero columns": 0}
    for trial in range(120):
        kind = list(kinds)[trial % 4]
        rows = rng.randint(1, 6)
        if kind == "full":
            cols = rows + rng.randint(1, 4)
            m = SparseMatrix(rows, cols, 1, {c: {r: rng.randint(-3, 3) for r in range(rows)
                                                 if rng.randint(0, 3)} for c in range(cols)})
        elif kind == "deficient":
            m = _sparse_matrix(rng, rows, rng.randint(1, 8), rng.randint(0, rows - 1))
        elif kind == "empty":
            m = SparseMatrix(rows, rng.randint(0, 5), 1, {})
        else:
            m = _sparse_matrix(rng, rows, rng.randint(0, 6), rng.randint(0, rows), zero_cols=2)
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                 for row in m.iter_rows()]).rank() if m.cols else 0
        assert sparse_rank(m) == expected, (kind, trial)
        if kind == "full" and expected == rows:
            kinds[kind] += 1
        elif kind != "full":
            kinds[kind] += expected < rows
    assert all(count > 10 for count in kinds.values()), kinds


# The kernel divides out each vector's content once, when it stores it;
# fraction_reference.cancel_with_content divides it out after every
# cancellation, as the kernel once did.  A skipped division only scales
# the working vector by a positive factor, so each echelon must keep the
# same pivots and stored vectors, and every subspace, inverse and
# quotient made from one must be unchanged.


def _filiform(n):
    return build(n, [(1, i, {i + 1: 1}) for i in range(2, n)])


def _dense_ladder(seed):
    """12n-step base changes of the dense ladder's algebras: three draws of dim < 8, two of the rest."""
    rng = Lcg(seed)
    originals = ([heisenberg(m).algebra for m in (2, 3, 4, 5)] + [_filiform(n) for n in (6, 8, 10)]
                 + [l_3_4_1_4().algebra, l_4_5_2_4().algebra, l4524_plus_a1().algebra])
    return [change_of_basis(alg, random_unimodular(alg.dim, rng, steps=12 * alg.dim))
            for alg in originals for _ in range(2 if alg.dim >= 8 else 3)]


def _seeded_sets(rng, count):
    """(vectors, seed echelon, limit) triples of sparse vectors in random subspaces."""
    sets = []
    for _ in range(count):
        width = rng.randint(1, 9)
        vs = _sparse_vectors(rng, rng.randint(0, 12), width, rng.randint(0, width))
        seed = _echelon(_sparse_vectors(rng, rng.randint(0, 3), width, 2)) if rng.randint(0, 1) else None
        limit = rng.randint(0, width) if rng.randint(0, 1) else None
        sets.append((vs, seed, limit))
    return sets


def _requests(L):
    """What the cold ``multiplier``, ``info`` and ``classify`` requests and a central quotient compute."""
    clear_caches()
    z = center(L)
    return schur_multiplier_dim(L), z, lower_central_series(L), lcs_adapted(L), quotient(L, z)


def _recorded(monkeypatch, algebras):
    """The requests' answers on each algebra, and the arguments of every ``_echelon`` call they make."""
    calls = []

    def record(vectors, echelon=None, limit=None):
        vectors = [dict(v) for v in vectors]
        calls.append((vectors, None if echelon is None else dict(echelon), limit))
        return _echelon(vectors, echelon, limit)

    with monkeypatch.context() as m:
        for mod in (linalg, liealg, multiplier):
            m.setattr(mod, "_echelon", record)
        answers = [_requests(L) for L in algebras]
    return answers, calls


def _echelons(calls):
    # items, not the dict: the pivots must be stored in the same order too
    return [list(_echelon(vs, None if seed is None else dict(seed), limit).items())
            for vs, seed, limit in calls]


def _subspaces(calls):
    out = []
    for vs, seed, _ in calls:
        n = 1 + max((c for v in [*vs, *(seed or {}).values()] for c in v), default=0)
        out.append((_span(n, vs), _kernel(n, vs)))
    return out


_CASES = [("population", lambda: [c.algebra for c in build_population(4, 3, 7)], 141),
          ("dense ladder, seed 1", lambda: _dense_ladder(1), 142),
          ("dense ladder, seed 2", lambda: _dense_ladder(2), 143)]


@pytest.mark.parametrize("algebras, seed", [pytest.param(make, seed, id=name) for name, make, seed in _CASES])
def test_echelons_match_per_step_content(monkeypatch, algebras, seed):
    answers, calls = _recorded(monkeypatch, algebras())
    calls += _seeded_sets(Lcg(seed), 200)
    echelons, subspaces = _echelons(calls), _subspaces(calls)
    assert sum(limit is not None for _, _, limit in calls) > 50
    assert sum(s is not None for _, s, _ in calls) > 50
    with monkeypatch.context() as m:
        m.setattr(linalg, "_cancel", cancel_with_content)
        assert _echelons(calls) == echelons
        assert _subspaces(calls) == subspaces
        assert [_requests(L) for L in algebras()] == answers


def test_inverse_matches_per_step_content(monkeypatch):
    # unimodular matrices (d = 1) and rational rescalings of them (d > 1)
    rng = Lcg(144)
    matrices = []
    for n in range(1, 9):
        for _ in range(6):
            u = random_unimodular(n, rng, steps=12 * n)
            rows = [[int(x) for x in row] for row in u.iter_rows()]
            matrices.append(rows)
            factors = [rng.randint(1, 4) for _ in rows]
            matrices.append([[f * x for x in row] for f, row in zip(factors, rows)])
    inverses = [_inverse(rows) for rows in matrices]
    assert any(d > 1 for d, _ in inverses)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_cancel", cancel_with_content)
        assert [_inverse(rows) for rows in matrices] == inverses
