"""Dense Fraction references for the tests.

The package computes on sparse integer brackets; these routines compute
the same things the direct way, on ``LieAlgebra.table`` (the dense
Fraction view) and dense Fraction vectors, so they share no code with
what they check; ``lower_central_terms`` reduces each term of the lower
central series by Gauss-Jordan over Fractions (``reduced_rows``).  The dense-input adapters at the end (``integer_rows``,
``from_vectors``, ``row_space``, ``dense_rank``, ``contains``) are the
other way round: they clear the denominators of dense Fraction vectors
and hand them to the package's echelon kernel, so tests can state
subspaces and matrices densely; ``basis_rows`` and ``at`` read a
``Subspace`` and a ``SparseMatrix`` back as Fractions.  The package
answers subspace questions with echelon sizes and never forms L^2 or a
sum of subspaces; ``derived_subalgebra`` and ``subspace_sum`` span them
on the same kernel, for tests that need those subspaces as values.
``table_center`` takes the center on L's own table, as the kernel, on
the same echelon kernel, of its stacked adjoint (``stacked_adjoint``);
the package takes it on the adapted table and maps it back.
``vector`` writes a dense Fraction vector from ints, strings or
Fractions.  ``render_text`` writes lieconst text with a Fraction per
coefficient, the bytes ``lieconst.render`` must give from its integers.
``clear_caches`` empties the package's functools caches, so that a test
can count what one cold request computes.  ``cancel_with_content``
is the elimination step that divides out the content after every
cancellation, the reference for the kernel, which divides it out once
per stored vector.
"""

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from liemult.liealg import _make
from liemult.linalg import AmbientMismatch, SingularMatrix, Subspace, _echelon, _kernel, _span, rat

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vector(xs):
    """A dense Fraction vector from ints, strings or Fractions."""
    return tuple(rat(x) for x in xs)


def from_fractions(n, mapping):
    """An unvalidated algebra from {(i, j): dense coefficient vector}, 0-based."""
    coeffs = {key: [(m, Fraction(x)) for m, x in enumerate(c) if x]
              for key, c in mapping.items()}
    denom = lcm(*(x.denominator for c in coeffs.values() for _, x in c))
    return _make(n, denom, {key: [(m, x.numerator * (denom // x.denominator)) for m, x in c]
                            for key, c in coeffs.items()})


@lru_cache(maxsize=256)
def _by_pair(L):
    return {(i, j): c for i, j, c in L.table}


def bracket_basis(L, i, j):
    """[e_i, e_j] for any 0-based i, j, with the sign handled."""
    if i < j and (i, j) in _by_pair(L):
        return _by_pair(L)[(i, j)]
    if j < i and (j, i) in _by_pair(L):
        return tuple(-x for x in _by_pair(L)[(j, i)])
    return (_ZERO,) * L.dim


def bracket_vec_basis(L, v, t):
    """[v, e_t] for a coefficient vector v."""
    acc = [_ZERO] * L.dim
    for m, vm in enumerate(v):
        if vm:
            for idx, cv in enumerate(bracket_basis(L, m, t)):
                if cv:
                    acc[idx] += vm * cv
    return tuple(acc)


def bracket(L, x, y):
    """Bilinear, antisymmetric extension of the structure constants."""
    if len(x) != L.dim or len(y) != L.dim:
        raise AmbientMismatch(f"bracket arguments must have length {L.dim}")
    acc = [_ZERO] * L.dim
    for (i, j), c in _by_pair(L).items():
        w = x[i] * y[j] - x[j] * y[i]
        if w:
            for idx, cv in enumerate(c):
                if cv:
                    acc[idx] += w * cv
    return tuple(acc)


def jacobi_defect(L, i, j, k):
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j], 0-based."""
    a = bracket_vec_basis(L, bracket_basis(L, i, j), k)
    b = bracket_vec_basis(L, bracket_basis(L, j, k), i)
    c = bracket_vec_basis(L, bracket_basis(L, k, i), j)
    return tuple(x + y + z for x, y, z in zip(a, b, c))


def brackets_with_basis(L, v):
    """The nonzero [v, e_j], j = 0..n-1, formed in Fractions from the table."""
    n = L.dim
    acc = {}
    for a, b, c in L.table:
        # [e_a, e_b] = c feeds [v, e_b] with v_a and [v, e_a] with -v_b
        for j, f in ((b, v[a]), (a, -v[b])):
            if f:
                out = acc.setdefault(j, [_ZERO] * n)
                for idx, cv in enumerate(c):
                    out[idx] += f * cv
    return [tuple(out) for _, out in sorted(acc.items()) if any(out)]


def vec_mat(v, rows):
    """Row vector times the matrix with the given rows."""
    out = [_ZERO] * (len(rows[0]) if rows else 0)
    for x, row in zip(v, rows):
        if x:
            for c, y in enumerate(row):
                out[c] += x * y
    return tuple(out)


def inverse(rows):
    """Inverse of a square matrix by Gauss-Jordan over Fractions, as a list of rows."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [tuple(row[n:]) for row in aug]


def reduced_rows(vectors):
    """The nonzero rows of the reduced row echelon form of dense vectors, by Gauss-Jordan over Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    out = []
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        piv = [x / piv[c] for x in piv]
        rows = [[a - r[c] * b for a, b in zip(r, piv)] if r[c] else r for r in rows]
        out = [[a - r[c] * b for a, b in zip(r, piv)] if r[c] else r for r in out]
        out.append(piv)
    return [tuple(r) for r in out]


def lower_central_terms(L):
    """Reduced bases of L^1, L^2, ... down to the zero term, or to the term where the series stabilises.

    Each term is spanned by the [v, e_j] for v in the basis of the last,
    formed from the dense table.
    """
    terms = [reduced_rows(unit_vector(L.dim, i) for i in range(L.dim))]
    while terms[-1]:
        nxt = reduced_rows(w for v in terms[-1] for w in brackets_with_basis(L, v))
        if len(nxt) == len(terms[-1]):
            break
        terms.append(nxt)
    return terms


def change_of_basis_table(L, p):
    """The table of L on the basis f_i = sum_j P[i][j] e_j: [p_i, p_j] P^-1 for every pair."""
    rows = list(p.iter_rows())
    inv = inverse(rows)
    out = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            w = bracket(L, rows[i], rows[j])
            if any(w):
                out.append((i, j, vec_mat(w, inv)))
    return tuple(out)


def _render_coeff(c, k, first):
    mag = -c if c < 0 else c
    body = f"e{k}" if mag == 1 else f"{mag} e{k}"
    if first:
        return f"-{body}" if c < 0 else body
    return f" - {body}" if c < 0 else f" + {body}"


def render_text(L):
    """Canonical lieconst v1 text of L, each coefficient formatted as ``Fraction(a, L.denom)``."""
    lines = [f"dim {L.dim}"]
    for i, j, coeffs in L.brackets:
        terms = ""
        first = True
        for m, a in coeffs:
            terms += _render_coeff(Fraction(a, L.denom), m + 1, first)
            first = False
        lines.append(f"[e{i + 1},e{j + 1}] = {terms}")
    return "\n".join(lines) + "\n"


def unit_vector(n, i):
    return tuple(_ONE if c == i else _ZERO for c in range(n))


def integer_rows(vectors, n):
    """Nonzero length-n vectors as sparse integer vectors, each with its denominators cleared."""
    for row in vectors:
        if len(row) != n:
            raise AmbientMismatch(f"vector length {len(row)} != ambient {n}")
        nz = {c: y for c, x in enumerate(row) if (y := rat(x))}
        if nz:
            scale = lcm(*(x.denominator for x in nz.values()))
            yield {c: x.numerator * (scale // x.denominator) for c, x in nz.items()}


def from_vectors(n, vecs):
    """Canonical subspace of Q^n spanned by dense vectors."""
    return _span(n, integer_rows(vecs, n))


def row_space(m):
    """Canonical subspace spanned by the rows of a dense ``Matrix``."""
    return from_vectors(m.cols, m.iter_rows())


def dense_rank(m):
    """Exact rank of a dense ``Matrix`` on the package's echelon kernel."""
    return len(_echelon(integer_rows(m.iter_rows(), m.cols)))


def basis_rows(s):
    """The reduced rows of a ``Subspace`` as dense Fraction vectors with unit pivots."""
    for row in s.rows:
        out = [_ZERO] * s.ambient_dim
        piv = row[0][1]
        for c, x in row:
            out[c] = Fraction(x, piv)
        yield tuple(out)


def at(m, r, c):
    """Entry (r, c) of a ``SparseMatrix`` as a Fraction."""
    return Fraction(m.columns.get(c, {}).get(r, 0), m.denom)


def contains(a, v):
    """Exact membership: v lies in A iff the echelon of A's rows plus v keeps size dim A."""
    return len(_echelon([*a.rows, *integer_rows([v], a.ambient_dim)])) == a.dim


def derived_subalgebra(L):
    """Canonical span of the stored brackets [e_i, e_j], i < j: the subspace L^2."""
    return _span(L.dim, (coeffs for _, _, coeffs in L.brackets))


def subspace_sum(a, b):
    """Canonical A + B, spanned by both sets of reduced rows."""
    return _span(a.ambient_dim, a.rows + b.rows)


def stacked_adjoint(L):
    """Rows (j, t) of the stacked adjoint: at index m, the integer coefficient of e_t in [e_m, e_j]."""
    rows = {}
    for i, j, coeffs in L.brackets:
        for t, x in coeffs:
            rows.setdefault((j, t), {})[i] = x
            rows.setdefault((i, t), {})[j] = -x
    return list(rows.values())


def table_center(L):
    """{ x : [x, e_j] = 0 for all j }, the kernel of the stacked adjoint of L's own table."""
    if L.is_abelian:
        return Subspace.full(L.dim)
    return _kernel(L.dim, stacked_adjoint(L))


def clear_caches():
    """Empty every functools cache on the liemult modules, as at the start of a process."""
    for name, mod in list(sys.modules.items()):
        if name == "liemult" or name.startswith("liemult."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def cancel_with_content(v, piv, p):
    """``a*v - b*piv`` with ``a/b = piv[p]/v[p]`` in lowest terms, its content divided out when a != 1.

    ``linalg._cancel`` as it was before the content moved to the stored
    vector; a test patches it in to get the echelons that per-step
    division gives.
    """
    a, b = piv[p], v[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        v = {c: a * x for c, x in v.items()}
    for c, x in piv.items():
        y = v.get(c, 0) - b * x
        if y:
            v[c] = y
        else:
            v.pop(c, None)
    if a != 1 and v:
        g = gcd(*v.values())
        if g != 1:
            v = {c: x // g for c, x in v.items()}
    return v
