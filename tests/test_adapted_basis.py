"""The basis adapted to the lower central series, against sympy and dense Fraction references.

``schur_multiplier_dim`` ranks the complex on ``lcs_adapted(L)``; these
tests check that the adapted table has the same ranks of d2 and d3 as
the original (sympy over QQ, on boundaries built here from the dense
table), that the basis is adapted, and that catalog tables skip the
transport.  ``center`` takes its kernel on the adapted table too; it is
checked against ``table_center``, the kernel on the original table.
The series walk brackets only the newest layer S_j with the generators
C of L/L^2: the tests count the vectors it passes to the echelon
kernel, and check that its certificate, the sum of the layers having
L^2's size, accepts every nilpotent algebra without the walk over every
e_t and rejects the non-nilpotent ones whose layers reach 0.  Every
vector any caller passes to the echelon kernel is checked for explicit
zero entries.  The adapted table, which brackets the last nonzero term
only with the earlier vectors of L^2, is checked against the general
transport, on Jacobi-violating tables too.  A class-2 algebra whose L^2
is a line off the unit vectors takes a Darboux basis as generators: the
pairs and the radical are checked on seeded alternating forms, base
changes of H(m)⊕A(k) get one bracket per pair, and catalog tables never
reach the reduction.  A series whose L^2 is a line is decided from ω
alone, with no bracket formed, and equals what the walk returns.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from liemult import liealg, linalg, multiplier, verify
from liemult.catalog import abelian, heisenberg, heisenberg_plus_abelian, l_4_5_2_4, standard_entries
from liemult.liealg import (
    build,
    center,
    change_of_basis,
    direct_sum,
    lcs_adapted,
    lower_central_series,
)
from liemult.linalg import Matrix
from liemult.multiplier import schur_multiplier_dim
from liemult.randgen import Lcg, random_change_of_basis, random_unimodular
from liemult.verify import build_population, run_suite

from fraction_reference import (
    bracket,
    brackets_with_basis,
    change_of_basis_table,
    clear_caches,
    lower_central_terms,
    reduced_rows,
    stacked_adjoint,
    table_center,
)


def _filiform(n):
    return build(n, [(1, i, {i + 1: 1}) for i in range(2, n)])


NON_NILPOTENT = {
    "sl2": build(3, [(1, 2, {3: 1}), (1, 3, {1: -2}), (2, 3, {2: 2})]),
    "so3": build(3, [(1, 2, {3: 1}), (1, 3, {2: -1}), (2, 3, {1: 1})]),
    "affine2": build(2, [(1, 2, {2: 1})]),
}


def _originals():
    cases = [(e.label, e.algebra) for e in standard_entries(4, 3)]
    cases += [(f"filiform({n})", _filiform(n)) for n in range(6, 11)]
    return cases + sorted(NON_NILPOTENT.items())


def _moved():
    """An integral and a rational base change of every original of positive dimension."""
    cases = []
    for seed, (label, alg) in enumerate(_originals(), 700):
        n = alg.dim
        if n == 0:
            continue
        rng = Lcg(seed)
        u = random_unimodular(n, rng)
        scale = [Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))) for _ in range(n)]
        p = Matrix.from_rows([[s * x for x in row] for s, row in zip(scale, u.iter_rows())])
        cases += [pytest.param(change_of_basis(alg, u), id=f"{label}@unimodular"),
                  pytest.param(change_of_basis(alg, p), id=f"{label}@rational")]
    return cases


def _qq(sympy, rows, width):
    from sympy.polys.matrices import DomainMatrix

    entries = {r: {c: sympy.QQ(x.numerator, x.denominator) for c, x in enumerate(row) if x}
               for r, row in enumerate(rows)}
    return DomainMatrix({r: v for r, v in entries.items() if v}, (len(rows), width), sympy.QQ)


def _qq_rank(sympy, rows, width):
    return _qq(sympy, rows, width).rank()


def _boundary_ranks(sympy, alg):
    """Ranks of d2 and d3 from the dense table, by sympy over QQ, as dense rows."""
    n = alg.dim
    pairs = list(combinations(range(n), 2))
    row_of = {p: r for r, p in enumerate(pairs)}
    table = {(i, j): c for i, j, c in alg.table}
    d2 = [table.get(p, (Fraction(0),) * n) for p in pairs]  # rows of d2 transposed
    d3 = []
    for i, j, k in combinations(range(n), 3):
        col = [Fraction(0)] * len(pairs)
        for (a, b), t, sign in (((i, j), k, 1), ((i, k), j, -1), ((j, k), i, 1)):
            for m, x in enumerate(table.get((a, b), ())):
                if x and m != t:
                    col[row_of[(min(m, t), max(m, t))]] += sign * x * (1 if m < t else -1)
        d3.append(col)
    return _qq_rank(sympy, d2, n), _qq_rank(sympy, d3, len(pairs))


def _dense(n, v):
    v = dict(v)
    return tuple(Fraction(v.get(c, 0)) for c in range(n))


def _reference_terms(sympy, alg):
    """Bases of L^1, L^2, ... down to 0 or the stable term, as sympy's reduced Fraction rows."""
    n = alg.dim
    terms = [[_dense(n, [(k, 1)]) for k in range(n)]]
    while True:
        reduced, pivots = _qq(sympy, [w for v in terms[-1] for w in brackets_with_basis(alg, v)],
                              n).rref()
        if len(pivots) == len(terms[-1]):
            return terms
        terms.append([tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row)
                      for row in reduced.to_Matrix().tolist()[:len(pivots)]])


def _weights(alg):
    """The weight of each vector of ``lcs_adapted(alg).basis``, read off ``lcs_dims``.

    The last dim L^k vectors span L^k, so the a-th vector has weight
    #{k : a >= n - dim L^k}: the largest k with it in L^k.
    """
    n = alg.dim
    dims = lower_central_series(alg).lcs_dims
    return [sum(a >= n - d for d in dims) for a in range(n)]


@pytest.mark.parametrize("alg", _moved())
def test_adapted_table_matches_sympy_ranks_and_flag(alg):
    sympy = pytest.importorskip("sympy")
    n = alg.dim
    weights = _weights(alg)
    basis, adapted = lcs_adapted(alg)
    rows = [_dense(n, v) for v in basis]
    assert _qq_rank(sympy, rows, n) == n

    if adapted is not alg:
        # the integer transport is the Fraction base change onto the basis rows
        assert adapted.table == change_of_basis_table(alg, Matrix.from_rows(rows))
    assert _boundary_ranks(sympy, adapted) == _boundary_ranks(sympy, alg)

    # the last dim L^k rows span exactly L^k
    terms = _reference_terms(sympy, alg)
    for k, term in enumerate(terms, 1):
        dim = len(term)
        tail = rows[n - dim:]
        assert dim == sum(w >= k for w in weights)
        assert _qq_rank(sympy, tail + term, n) == dim

    # every [f_a, f_b] lies in the term of weight w(a) + w(b); the
    # reference ends with the zero term, or with the term where a
    # non-nilpotent series stabilises
    for a, b in combinations(range(n), 2):
        term = terms[min(weights[a] + weights[b], len(terms)) - 1]
        w = bracket(alg, rows[a], rows[b])
        assert _qq_rank(sympy, term + [w], n) == len(term)


def test_perfect_algebra_series_stops_at_once():
    for alg in (NON_NILPOTENT["sl2"], NON_NILPOTENT["so3"]):
        rep = lower_central_series(alg)
        assert (rep.lcs_dims, rep.nilpotency_class, rep.derived_dim) == ((3,), None, 3)
        assert lcs_adapted(alg).basis == (((0, 1),), ((1, 1),), ((2, 1),))
    rep = lower_central_series(NON_NILPOTENT["affine2"])
    assert (rep.lcs_dims, rep.nilpotency_class, rep.derived_dim) == ((2, 1), None, 1)


def _non_nilpotent_originals():
    """sl2, so(3), the 2-dim non-abelian algebra, sl2 + H(1), sl2 + A(1) and so(3) + A(2).

    Their series stabilise above zero, so the walk's first step, the
    echelon of the stored brackets, decides where it stops: at once for
    the perfect sl2 and so(3), one term later for the others.  On
    sl2 + A(1) and so(3) + A(2) the generators are the abelian summand,
    whose brackets vanish, so their layers reach 0 at once and only the
    size of their sum sends ``_series`` on to the walk over every e_t.
    """
    sl2, so3 = NON_NILPOTENT["sl2"], NON_NILPOTENT["so3"]
    return {**NON_NILPOTENT,
            "sl2+H(1)": direct_sum(sl2, heisenberg(1).algebra),
            "sl2+A(1)": direct_sum(sl2, abelian(1).algebra),
            "so3+A(2)": direct_sum(so3, abelian(2).algebra)}


def _non_nilpotent_cases():
    """Each non-nilpotent original with seeded, dense and rational base changes of it."""
    originals = _non_nilpotent_originals()
    cases = []
    for seed, (label, alg) in enumerate(sorted(originals.items()), 900):
        n = alg.dim
        rng = Lcg(seed)
        cases.append(pytest.param(alg, id=label))
        cases += [pytest.param(random_change_of_basis(alg, rng), id=f"{label}@seeded{t}")
                  for t in range(3)]
        u = random_unimodular(n, rng, steps=12 * n)
        scale = [Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))) for _ in range(n)]
        p = Matrix.from_rows([[s * x for x in row] for s, row in zip(scale, u.iter_rows())])
        cases += [pytest.param(change_of_basis(alg, u), id=f"{label}@dense"),
                  pytest.param(change_of_basis(alg, p), id=f"{label}@rational")]
    return cases


@pytest.mark.parametrize("alg", _non_nilpotent_cases())
def test_non_nilpotent_series_and_flag_match_fraction_reference(alg):
    n = alg.dim
    terms = lower_central_terms(alg)
    rep = lower_central_series(alg)
    assert rep.lcs_dims == tuple(len(t) for t in terms)
    assert rep.nilpotency_class is None

    weights = _weights(alg)
    rows = [_dense(n, v) for v in lcs_adapted(alg).basis]
    assert len(reduced_rows(rows)) == n
    for a, b in combinations(range(n), 2):
        term = terms[min(weights[a] + weights[b], len(terms)) - 1]
        assert len(reduced_rows([*term, bracket(alg, rows[a], rows[b])])) == len(term)


def _strictly_upper(k):
    """The strictly upper triangular k x k matrices, on the E_ij with i < j in lex order."""
    units = [(i, j) for i in range(k) for j in range(i + 1, k)]
    index = {u: c for c, u in enumerate(units, 1)}
    return build(len(units), [(index[a], index[b], {index[(a[0], b[1])]: 1})
                              for a, b in combinations(units, 2) if a[1] == b[0]])


def _layer_walk(monkeypatch, alg):
    """How a cold ``_series(alg)`` went: (the ``skip`` of each bracket it formed, the size of each echelon it extended).

    The layer walk skips L^2's pivots in every bracket and extends an
    echelon only once a layer is 0; the walk over every e_t skips none.
    """
    skips, extended = [], []
    brackets, echelon = liealg._integer_brackets, liealg._echelon

    def recorded_brackets(ad, v, skip=()):
        skips.append(skip)
        return brackets(ad, v, skip)

    def recorded_echelon(vectors, base=None, limit=None):
        out = echelon(vectors, base, limit)
        if base is not None:
            extended.append(len(out))
        return out

    monkeypatch.setattr(liealg, "_integer_brackets", recorded_brackets)
    monkeypatch.setattr(liealg, "_echelon", recorded_echelon)
    liealg._series.cache_clear()
    liealg._series(alg)
    monkeypatch.setattr(liealg, "_integer_brackets", brackets)
    monkeypatch.setattr(liealg, "_echelon", echelon)
    return skips, extended


def _between_generators(alg):
    """Whether every stored bracket has both indices off the pivots of L^2."""
    derived = liealg._series(alg)[0][0]
    return all(i not in derived and j not in derived for i, j, _ in alg.brackets)


def test_layer_sum_decides_the_layer_walks_that_reach_zero(monkeypatch):
    # the generators of sl2 + A(1) and so(3) + A(2) span the abelian
    # summand, so S_2 = [C, C] = 0 falls short of L^2, and only the walk
    # over every e_t finds the series
    originals = _non_nilpotent_originals()
    for label, dims in (("sl2+A(1)", (4, 3)), ("so3+A(2)", (5, 3))):
        alg = originals[label]
        skips, extended = _layer_walk(monkeypatch, alg)
        rep = lower_central_series(alg)
        assert (rep.lcs_dims, rep.nilpotency_class) == (dims, None)
        assert extended and extended[-1] < rep.derived_dim
        assert () in skips

    # H(2) + A(1) brackets only generators, so S_2 is L^2 and its size is
    # not tested again; the strictly upper 4 x 4 and 5 x 5 matrices
    # bracket vectors of L^2 too ([E_02, E_23] = E_03), so S_2 + T_3 is
    # echeloned once more, and [L^2, L^2] != 0 in the 5 x 5 ones
    upper = _strictly_upper(5)
    for alg, dims, short in (
            (direct_sum(heisenberg(2).algebra, abelian(1).algebra), (6, 1, 0), True),
            (_strictly_upper(4), (6, 3, 1, 0), False),
            (upper, (10, 6, 3, 1, 0), False),
            (change_of_basis(upper, random_unimodular(10, Lcg(4), steps=120)), (10, 6, 3, 1, 0),
             False)):
        skips, extended = _layer_walk(monkeypatch, alg)
        rep = lower_central_series(alg)
        assert rep.lcs_dims == tuple(len(t) for t in lower_central_terms(alg)) == dims
        assert () not in skips
        # one extension per layer past S_2, and one for the sum with S_2
        assert len(extended) == rep.nilpotency_class - (2 if short else 1)
        assert _between_generators(alg) is short


def test_layer_walk_accepts_every_nilpotent_algebra(monkeypatch):
    # a wrong rejection would leave every output as it is and only walk
    # again over every e_t, so the brackets it forms are checked
    cases = [c.algebra for c in build_population(4, 3, 7)] + _moved_filiforms()
    for alg in cases:
        skips, _ = _layer_walk(monkeypatch, alg)
        assert lower_central_series(alg).is_nilpotent
        assert () not in skips


def _echelon_inputs(monkeypatch, alg):
    """The vectors a cold ``_series(alg)`` passes to ``liealg._echelon``, one list per call."""
    seen = []
    echelon = liealg._echelon

    def recorded(vectors, base=None, limit=None):
        vectors = list(vectors)
        seen.append(vectors)
        return echelon(vectors, base, limit)

    monkeypatch.setattr(liealg, "_echelon", recorded)
    liealg._series.cache_clear()
    liealg._series(alg)
    monkeypatch.setattr(liealg, "_echelon", echelon)
    return seen


def _moved_filiforms():
    return [change_of_basis(_filiform(n), random_unimodular(n, Lcg(3), steps=12 * n))
            for n in (8, 10)]


def test_series_walk_brackets_only_with_the_generators(monkeypatch):
    # the layers of a filiform algebra are lines: C(n,2) stored brackets
    # for L^2, the C(|C|,2) between generators for S_2, |C| brackets per
    # vector of every layer but the last nonzero one, and one vector per
    # layer to extend the terms from the zero term up; the walk over
    # every e_t passes 188 and 360 vectors here
    for alg, bound in zip(_moved_filiforms(), (45, 68)):
        n = alg.dim
        rep = lower_central_series(alg)
        c, d = n - rep.derived_dim, rep.derived_dim
        assert bound == n * (n - 1) // 2 + c * (c - 1) // 2 + c * (d - 1) + d
        assert sum(map(len, _echelon_inputs(monkeypatch, alg))) <= bound


def test_series_passes_no_explicit_zero_to_the_echelon(monkeypatch):
    # the bracket sums cancel entries, and the kernel would keep a zero
    cases = [(f"filiform({alg.dim})@lcg3", alg) for alg in _moved_filiforms()]
    cases += [(c.case_id, c.algebra) for c in build_population(4, 3, 7)]
    cases += [(case.id, case.values[0]) for case in _non_nilpotent_cases()]
    for label, alg in cases:
        for vectors in _echelon_inputs(monkeypatch, alg):
            for v in vectors:
                assert all(x for _, x in (v.items() if isinstance(v, dict) else v)), label


def test_no_caller_passes_an_explicit_zero_to_the_echelon(monkeypatch, tmp_path, capsys):
    # every module that binds the kernel is patched; the linalg binding is
    # the one _span, _kernel, _inverse and rank call
    from liemult.cli import main
    from liemult.lieconst import render

    echelon = linalg._echelon
    seen, zeros = [], []

    def checked(vectors, base=None, limit=None):
        vectors = list(vectors)
        seen.append(len(vectors))
        zeros.extend(v for v in vectors
                     if not all(x for _, x in (v.items() if isinstance(v, dict) else v)))
        return echelon(vectors, base, limit)

    for module in (linalg, liealg, multiplier):
        monkeypatch.setattr(module, "_echelon", checked)
    clear_caches()
    for suite in verify.SUITES:
        assert run_suite(suite, max_m=2, max_k=1, max_n=4).passed, suite
    cases = [(case.id, case.values[0]) for case in _dense_base_changes() + _non_nilpotent_cases()]
    for label, alg in cases:
        path = tmp_path / "case.lie"
        path.write_text(render(alg))
        for command in ("info", "multiplier", "classify"):
            clear_caches()
            main([command, str(path)])
            capsys.readouterr()
        assert zeros == [], label
    assert len(seen) > 1000


def _catalog_tables():
    entries = [e.algebra for e in standard_entries(4, 3)]
    tables = entries + [direct_sum(a, b) for a, b in combinations(entries, 2)]
    # the sparse benchmark ladder: H(m), model filiform and H(1) + A(k)
    tables += [heisenberg(m).algebra for m in range(2, 13)]
    tables += [_filiform(n) for n in range(8, 21)]
    tables += [heisenberg_plus_abelian(1, k).algebra for k in (10, 20, 30)]
    return tables


def _count_block_inverses(monkeypatch):
    """Patch ``liealg._inverse`` and ``_transport``: the list gets the size of each matrix inverted.

    ``lcs_adapted`` inverts only the k x k block of L^2's pivots, k =
    dim L^2, and never calls the general transport.
    """
    calls = []
    inverse = liealg._inverse

    def counted(rows):
        calls.append(len(rows))
        return inverse(rows)

    def transport(*args):
        raise AssertionError("lcs_adapted called _transport")

    monkeypatch.setattr(liealg, "_inverse", counted)
    monkeypatch.setattr(liealg, "_transport", transport)
    return calls


def test_catalog_tables_skip_the_transport(monkeypatch):
    # nor do they reach the Darboux reduction: H(m) and H(m)⊕A(k) in the
    # catalog have L^2 = span(e_n), a unit vector, so lcs_adapted keeps the e_c
    def forbidden(*args):
        raise AssertionError("reached the Darboux reduction")

    moved = change_of_basis(_filiform(6), random_unimodular(6, Lcg(5)))
    h2 = change_of_basis(heisenberg(2).algebra, random_unimodular(5, Lcg(1300), steps=60))
    calls = _count_block_inverses(monkeypatch)
    monkeypatch.setattr(liealg, "_darboux", forbidden)
    clear_caches()
    for alg in _catalog_tables():
        assert lcs_adapted(alg).table == alg
        schur_multiplier_dim.__wrapped__(alg)
    assert calls == []
    with pytest.raises(AssertionError, match="Darboux"):
        lcs_adapted(h2)

    # a base change that mixes the flag is transported, once, through the
    # inverse of the 4 x 4 block of L^2 = span(e3..e6)'s pivots
    schur_multiplier_dim.__wrapped__(moved)
    assert calls == [lower_central_series(moved).derived_dim] == [4]


def test_classify_request_transports_a_dense_table_once(monkeypatch, tmp_path, capsys):
    # parse validates on the adapted table and the multiplier ranks on it:
    # one cold request shares a single transport between the two
    from liemult.cli import main
    from liemult.lieconst import render

    moved = change_of_basis(_filiform(7), random_unimodular(7, Lcg(9), steps=84))
    assert lcs_adapted(moved).table is not moved
    path = tmp_path / "moved.lie"
    path.write_text(render(moved))
    calls = _count_block_inverses(monkeypatch)
    clear_caches()
    assert main(["classify", str(path)]) == 0
    assert "status=" in capsys.readouterr().out
    assert calls == [lower_central_series(moved).derived_dim] == [5]


def _parent_formula(alg):
    """``lcs_adapted`` as the general transport onto the rows of its basis, by their n x n inverse."""
    n = alg.dim
    basis = lcs_adapted(alg).basis
    if all(len(v) == 1 for v in basis):
        return alg
    rows = [[dict(v).get(c, 0) for c in range(n)] for v in basis]
    return liealg._transport(alg, rows, linalg._inverse(rows))


def _planted_defect():
    from fraction_reference import from_fractions, vector

    bad = from_fractions(3, {(0, 1): vector([0, 0, 1]), (0, 2): vector([1, 0, 0])})
    return change_of_basis(bad, random_unimodular(3, Lcg(23)))


def _h_plus_a_dim_m(m, k):
    """dim M(H(m)⊕A(k)) by the Künneth formula: 2 for H(1), 2m²−m−1 for m ≥ 2, plus k(k−1)/2 + 2mk."""
    return (2 if m == 1 else 2 * m * m - m - 1) + k * (k - 1) // 2 + 2 * m * k


def _line_off_the_unit_vectors(alg):
    """Whether the series of alg is L, L^2 = span(z), 0 with z not a multiple of a unit vector."""
    terms = liealg._series(alg)[0]
    return len(terms) == 2 and not terms[1] and len(terms[0]) == 1 and len(*terms[0].values()) > 1


def _darboux_inputs():
    """(label, m, k, base change of H(m)⊕A(k)) whose L^2 is a line off the unit vectors.

    The 12n-step base changes of H(2..5) and of three H(m)⊕A(k), which
    all get there, and every base change of an H(m)⊕A(k) in
    ``build_population(4, 3, 7)`` that does.
    """
    cases = []
    dense = [(1300 + m - 2, m, 0) for m in range(2, 6)] + [(1310, 1, 4), (1311, 2, 2), (1312, 3, 1)]
    for seed, m, k in dense:
        n = 2 * m + 1 + k
        base = heisenberg(m) if k == 0 else heisenberg_plus_abelian(m, k)
        cases.append((f"{base.label}@dense", m, k,
                      change_of_basis(base.algebra, random_unimodular(n, Lcg(seed), steps=12 * n))))
    for c in build_population(4, 3, 7):
        hit = re.fullmatch(r"cob\[HplusA\((\d),(\d)\),\d\]", c.case_id)
        if hit and _line_off_the_unit_vectors(c.algebra):
            cases.append((c.case_id, int(hit[1]), int(hit[2]), c.algebra))
    return cases


def _reference_inputs():
    # the population holds the base changes of H(m)⊕A(k) that _darboux_inputs picks
    cases = [(c.case_id, c.algebra) for c in build_population(4, 3, 7)]
    cases += [(label, alg) for label, _, _, alg in _darboux_inputs() if label.endswith("@dense")]
    bases = [(f"filiform({n})", _filiform(n)) for n in range(6, 11)]
    bases += [("L4524", l_4_5_2_4().algebra)]
    for seed, (label, alg) in enumerate(bases, 1304):
        n = alg.dim
        cases.append((f"{label}@dense",
                      change_of_basis(alg, random_unimodular(n, Lcg(seed), steps=12 * n))))
    cases += [(case.id, case.values[0]) for case in _moved() + _non_nilpotent_cases()]
    cases += [(f"upper@{k}", alg) for k, alg in enumerate(_upper_tables(300))]
    return cases + [("planted-defect", _planted_defect())]


def _upper_tables(count):
    """Seeded tables of dim 3..7 with [e_i, e_j] in span(e_(j+1), ...), on a random basis.

    Every such table is nilpotent, Jacobi or not, and about a third of
    them violate it: there a [f_a, f_b] may leave L^(w_a + w_b), so a
    transport that drops brackets by weight changes their tables.
    """
    rng = Lcg(1700)
    tables = []
    for _ in range(count):
        n = rng.randint(3, 7)
        mapping = {}
        for i, j in combinations(range(n), 2):
            if rng.randint(0, 1):
                mapping[(i, j)] = [(m, rng.randint(-2, 2)) for m in range(j + 1, n)
                                   if rng.randint(0, 1)]
        tables.append(random_change_of_basis(liealg._make(n, 1, mapping), rng))
    return tables


def test_adapted_table_equals_the_general_transport():
    # the block construction is exact: the same canonical table as the
    # transport by the n x n inverse, on nilpotent, non-nilpotent and
    # Jacobi-violating tables alike
    moved = violating = 0
    for label, alg in _reference_inputs():
        lcs_adapted.cache_clear()
        expected = _parent_formula(alg)
        assert lcs_adapted(alg).table == expected, label
        moved += expected is not alg
        violating += liealg.first_jacobi_violation(alg) is not None
    assert moved > 400
    assert 60 < violating < 150


def test_heisenberg_base_changes_get_one_bracket_per_darboux_pair():
    # the generators are a Darboux basis x_1, y_1, ..., x_m, y_m and the
    # radical: the table keeps [x_i, y_i] into z, the last basis vector
    cases = _darboux_inputs()
    assert len(cases) == 7 + 27
    for label, m, k, alg in cases:
        n = alg.dim
        lcs_adapted.cache_clear()
        adapted = lcs_adapted(alg).table
        assert [(i, j, [t for t, _ in coeffs]) for i, j, coeffs in adapted.brackets] == [
            (2 * i, 2 * i + 1, [n - 1]) for i in range(m)], label
        assert adapted == _parent_formula(alg), label
        clear_caches()
        assert schur_multiplier_dim(alg).dim_m == _h_plus_a_dim_m(m, k), label
        assert center(alg).dim == 1 + k, label


def _form_algebra(g, form):
    """The algebra on e_0..e_g with [e_a, e_b] = form[a][b] e_g: class 2, or abelian for the 0 form."""
    return liealg._make(g + 1, 1, {(a, b): [(g, form[a][b])] for a, b in combinations(range(g), 2)})


def _random_forms(count):
    """Seeded alternating integer forms on g <= 9 generators, a sum of r wedges u∧v of rank <= 2r."""
    rng = Lcg(2800)
    forms = []
    for _ in range(count):
        g = rng.randint(1, 9)
        form = [[0] * g for _ in range(g)]
        for _ in range(rng.randint(0, g // 2 + 1)):
            u = [rng.randint(-2, 2) for _ in range(g)]
            v = [rng.randint(-2, 2) for _ in range(g)]
            for a in range(g):
                for b in range(g):
                    form[a][b] += u[a] * v[b] - u[b] * v[a]
        forms.append((g, form))
    return forms


def test_darboux_reduction_on_random_alternating_forms():
    ranks = set()
    for g, form in _random_forms(300):
        def omega(u, v):
            return sum(x * form[a][b] * y for a, x in u for b, y in v)

        rows, weights = liealg._darboux(_form_algebra(g, form), g)
        m = len(weights)
        rank = len(reduced_rows(form))
        ranks.add(rank)
        assert 2 * m == rank and all(weights)
        for a, b in combinations(range(g), 2):
            want = weights[a // 2] if b == a + 1 and a % 2 == 0 and b < 2 * m else 0
            assert omega(rows[a], rows[b]) == want
        # the radical is orthogonal to every e_c, not only to the other rows
        for r in rows[2 * m:]:
            assert all(omega(r, [(c, 1)]) == 0 for c in range(g))
        assert len(reduced_rows([_dense(g, v) for v in rows])) == g
        assert all(gcd(*(x for _, x in v)) == 1 for v in rows)
    assert ranks == {0, 2, 4, 6, 8}


def test_last_term_of_a_heisenberg_base_change_needs_no_bracket(monkeypatch):
    # L^2 of H(5) is a line, the last nonzero term: the walk found its
    # [u, e_c] zero, and the generators are a Darboux basis, so the
    # table is written from the form ω without forming a bracket
    alg = change_of_basis(heisenberg(5).algebra, random_unimodular(11, Lcg(1), steps=132))
    liealg._series(alg)

    def forbidden(*args):
        raise AssertionError("lcs_adapted formed a bracket")

    monkeypatch.setattr(liealg, "_integer_brackets", forbidden)
    monkeypatch.setattr(liealg, "_adjoint", forbidden)
    lcs_adapted.cache_clear()
    adapted = lcs_adapted(alg).table
    assert adapted != alg
    monkeypatch.undo()
    assert adapted == _parent_formula(alg)


def _walk_alone(monkeypatch, alg):
    """``_series(alg)`` by the layer walk and the walk over every e_t, as without the line case.

    With no ω read, the line case finds no bracket between generators
    and falls through to the walk, which is otherwise unchanged.
    """
    with monkeypatch.context() as patch:
        patch.setattr(liealg, "_omega", lambda brackets: iter(()))
        liealg._series.cache_clear()
        out = liealg._series(alg)
    liealg._series.cache_clear()
    return out


def _line_cases():
    """(label, algebra, whether the line case decides it): L^2 is a line in each."""
    cases = [(c.case_id, c.algebra, True) for c in build_population(4, 3, 7)
             if lower_central_series(c.algebra).derived_dim == 1]
    cases += [(label, alg, True) for label, _, _, alg in _darboux_inputs()]
    cases += [(e.label, e.algebra, True) for e in standard_entries(4, 3)
              if e.label.startswith(("H(", "HplusA("))]
    # not nilpotent: [z, e_t] is a nonzero multiple of z for some t off p,
    # or no stored bracket lies between two generators
    lines = {"[e1,e2]=e3,[e1,e3]=e3": build(3, [(1, 2, {3: 1}), (1, 3, {3: 1})]),
             "[e1,e2]=e2": build(2, [(1, 2, {2: 1})]),
             "[e1,e2]=e1 in dim 3": build(3, [(1, 2, {1: 1})])}
    for seed, (label, alg) in enumerate(lines.items(), 1400):
        n = alg.dim
        cases.append((label, alg, False))
        cases.append((f"{label}@dense", change_of_basis(alg, random_unimodular(n, Lcg(seed), steps=12 * n)),
                      False))
    return cases


def test_line_case_of_the_series_equals_the_walk(monkeypatch):
    # the line case returns (L^2, 0) from one pass over ω; the walk, and
    # the dense Fraction reference, give the same echelons and flag
    decided = 0
    cases = _line_cases()
    for label, alg, nilpotent in cases:
        seen = []
        adjoint = liealg._adjoint
        with monkeypatch.context() as patch:
            patch.setattr(liealg, "_adjoint", lambda n, brackets: seen.append(n) or adjoint(n, brackets))
            liealg._series.cache_clear()
            got = liealg._series(alg)
        walked = _walk_alone(monkeypatch, alg)
        assert got == walked and repr(got) == repr(walked), label
        reference = lower_central_terms(alg)
        assert tuple(len(t) for t in reference) == (alg.dim, *map(len, got[0])), label
        for echelon, term in zip(got[0], reference[1:]):
            assert reduced_rows([_dense(alg.dim, v.items()) for v in echelon.values()]) == term, label
        assert got[1] is nilpotent, label
        assert (seen == []) is nilpotent, label
        decided += nilpotent
    assert decided == len(cases) - 6 > 290


def test_series_of_a_heisenberg_base_change_forms_no_bracket(monkeypatch):
    # L^2 = span(z) and ω(z, e_t) = 0 off z's pivot: [z, C] = 0 without
    # the adjoint or a single bracket of z
    alg = change_of_basis(heisenberg(5).algebra, random_unimodular(11, Lcg(1), steps=132))

    def forbidden(*args):
        raise AssertionError("_series formed a bracket")

    clear_caches()
    monkeypatch.setattr(liealg, "_integer_brackets", forbidden)
    monkeypatch.setattr(liealg, "_adjoint", forbidden)
    terms, nilpotent = liealg._series(alg)
    assert (tuple(map(len, terms)), nilpotent) == ((1, 0), True)


def test_center_of_an_equal_copy_reads_its_own_basis():
    # [e2,e3] = e1: the adapted basis is e2, e3, e1, a permutation, so the table
    # is not transported; a second, equal object then gets the first one
    # back from lcs_adapted's cache, and its center must stay span(e1)
    lcs_adapted.cache_clear()
    first = build(3, [(2, 3, {1: 1})])
    second = build(3, [(2, 3, {1: 1})])
    assert first == second and first is not second
    assert lcs_adapted(second).table is first
    assert lcs_adapted(second).basis == (((1, 1),), ((2, 1),), ((0, 1),))
    center.cache_clear()
    assert center(second).rows == (((0, 1),),)


def test_request_reduces_a_heisenberg_base_change_once(monkeypatch):
    # build validates on the adapted table, and center and the multiplier
    # read the basis and the table that the same cached call returned
    moved = change_of_basis(heisenberg(3).algebra, random_unimodular(7, Lcg(1301), steps=84))
    assert _line_off_the_unit_vectors(moved)
    data = [(i + 1, j + 1, {m + 1: Fraction(a, moved.denom) for m, a in coeffs})
            for i, j, coeffs in moved.brackets]
    calls = []
    darboux = liealg._darboux
    monkeypatch.setattr(liealg, "_darboux", lambda L, p: calls.append(p) or darboux(L, p))
    clear_caches()
    alg = build(7, data)
    assert alg == moved
    assert center(alg).dim == 1
    assert schur_multiplier_dim(alg).dim_m == _h_plus_a_dim_m(3, 0)
    assert len(calls) == 1


def test_table_is_the_algebra_exactly_on_a_basis_of_unit_multiples():
    # center maps its kernel back through the basis unless every basis
    # vector is a multiple of one e_c, which is when the table is L itself
    kept = 0
    for c in build_population(4, 3, 7):
        clear_caches()
        basis, table = lcs_adapted(c.algebra)
        assert (table is c.algebra) == all(len(v) == 1 for v in basis), c.case_id
        kept += table is c.algebra
    assert 0 < kept < 570


def _dense_base_changes():
    cases = []
    for seed, (label, alg) in enumerate([("H(3)", heisenberg(3).algebra),
                                         ("filiform(8)", _filiform(8)),
                                         ("L4524", l_4_5_2_4().algebra)], 1100):
        rng = Lcg(seed)
        n = alg.dim
        cases += [pytest.param(change_of_basis(alg, random_unimodular(n, rng, steps=12 * n)),
                               id=f"{label}@dense{t}") for t in range(3)]
    return cases


def _center_cases():
    population = [pytest.param(c.algebra, id=c.case_id) for c in build_population(4, 3, 7)]
    return population + _non_nilpotent_cases() + _dense_base_changes()


@pytest.mark.parametrize("alg", _center_cases())
def test_center_matches_the_kernel_on_the_original_table(alg):
    center.cache_clear()
    assert center(alg) == table_center(alg)


@pytest.mark.parametrize("alg", _dense_base_changes())
def test_center_takes_the_kernel_on_the_adapted_table(monkeypatch, alg):
    adapted = lcs_adapted(alg).table
    assert adapted != alg
    seen = []
    kernel = liealg._kernel

    def recorded(n, vectors):
        vectors = list(vectors)
        seen.append(vectors)
        return kernel(n, vectors)

    monkeypatch.setattr(liealg, "_kernel", recorded)
    center.cache_clear()
    assert center(alg) == table_center(alg)
    assert seen == [stacked_adjoint(adapted)]
    assert stacked_adjoint(adapted) != stacked_adjoint(alg)
