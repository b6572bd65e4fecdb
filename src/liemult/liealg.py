"""Lie algebras presented by exact structure-constant tables.

Only brackets [e_i, e_j] with i < j are stored, so antisymmetry is
structural.  The Jacobi identity is verified exactly whenever an algebra
is built from outside input; algebras derived from valid ones (direct
sums, quotients by ideals, base changes) are valid by construction and
skip the re-check.

The table's denominators are cleared in one place, ``_integer_table``;
the Jacobi check, the center, the lower central series, the ideal test
and the boundary maps of :mod:`liemult.multiplier` all work on that
integer table.  The Jacobi check sums each stored bracket's contribution
into its sorted triple, so its cost grows with the nonzero structure
constants.  The center is the kernel of the stacked adjoint, built as
sparse integer rows; each term of the lower central series, and the
test [L, S] ⊆ S, is echeloned by the exact fraction-free kernel that
also computes ``linalg.rank``.  A quotient L/K comes from one reduced
echelon of K's integer rows on that kernel, pivoting on each vector's
largest index; only the stored brackets are projected.  Derived
subalgebra and base changes use the subspace machinery in
:mod:`liemult.linalg`, which runs on the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import (
    AmbientMismatch,
    Matrix,
    Subspace,
    Vector,
    _back_substitute,
    _echelon,
    _integer_rows,
    _kernel,
    vec_mat,
    vector,
)

_ZERO = Fraction(0)


class IndexOutOfRange(ValueError):
    """Bracket indices outside 1 <= i < j <= dim, or a wrong-length vector."""


class DuplicateBracket(ValueError):
    """The same bracket [e_i, e_j] was given twice."""


class NotAnIdeal(ValueError):
    """Quotient requested by a subspace that is not an ideal."""


class NotNilpotent(ValueError):
    """Operation requires a nilpotent algebra."""


class JacobiViolation(ValueError):
    """Structure constants fail the Jacobi identity.

    Carries the first failing triple (1-based, matching e-numbering) and
    the nonzero defect vector.
    """

    def __init__(self, triple: tuple[int, int, int], defect: Vector):
        i, j, k = triple
        terms = " + ".join(
            f"{c}*e{t + 1}" for t, c in enumerate(defect) if c
        )
        super().__init__(
            f"Jacobi identity fails on (e{i},e{j},e{k}): defect {terms}"
        )
        self.triple = triple
        self.defect = defect


@lru_cache(maxsize=64)
def _zeros(n: int) -> Vector:
    return (_ZERO,) * n


BracketTable = tuple[tuple[int, int, Vector], ...]


@dataclass(frozen=True, repr=False)
class LieAlgebra:
    """Lie algebra on basis e_1..e_n given by rational structure constants.

    ``table`` holds (i, j, coefficient vector) triples with 0-based
    i < j and nonzero vectors only, sorted by (i, j); ``labels`` is an
    optional list of basis names and affects neither equality nor the
    hash, which is computed once per instance.
    """

    dim: int
    table: BracketTable
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    @cached_property
    def _by_pair(self) -> dict[tuple[int, int], Vector]:
        return {(i, j): c for i, j, c in self.table}

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.table))

    def __hash__(self) -> int:
        # hashed once per instance: every lru_cache lookup keyed by an algebra calls this
        return self._hash

    @property
    def is_abelian(self) -> bool:
        return not self.table

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for any 0-based i, j, with the sign handled."""
        if i == j:
            return _zeros(self.dim)
        if i < j:
            c = self._by_pair.get((i, j))
            return c if c is not None else _zeros(self.dim)
        c = self._by_pair.get((j, i))
        return tuple(-x for x in c) if c is not None else _zeros(self.dim)

    def _bracket_vec_basis(self, v: Sequence[Fraction], t: int) -> Vector:
        """[v, e_t] for a coefficient vector v."""
        acc: Optional[list[Fraction]] = None
        by = self._by_pair
        for m, vm in enumerate(v):
            if not vm or m == t:
                continue
            if m < t:
                c = by.get((m, t))
                f = vm
            else:
                c = by.get((t, m))
                f = -vm
            if c is None:
                continue
            if acc is None:
                acc = [_ZERO] * self.dim
            for idx, cv in enumerate(c):
                if cv:
                    acc[idx] += f * cv
        return tuple(acc) if acc is not None else _zeros(self.dim)

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        """Bilinear, antisymmetric extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise AmbientMismatch(
                f"bracket arguments must have length {self.dim}"
            )
        acc = [_ZERO] * self.dim
        for i, j, c in self.table:
            w = x[i] * y[j] - x[j] * y[i]
            if w:
                for idx, cv in enumerate(c):
                    if cv:
                        acc[idx] += w * cv
        return tuple(acc)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, nonzero_brackets={len(self.table)})"


def _canonical_table(dim: int, mapping: Mapping[tuple[int, int], Sequence[Fraction]]) -> BracketTable:
    items = []
    for (i, j), coeffs in mapping.items():
        coeffs = tuple(coeffs)
        if any(coeffs):
            items.append((i, j, coeffs))
    items.sort(key=lambda e: (e[0], e[1]))
    return tuple(items)


def _make(
    dim: int,
    mapping: Mapping[tuple[int, int], Sequence[Fraction]],
    labels: Optional[Sequence[str]] = None,
    validate: bool = True,
) -> LieAlgebra:
    alg = LieAlgebra(dim, _canonical_table(dim, mapping),
                     tuple(labels) if labels is not None else None)
    if validate:
        bad = first_jacobi_violation(alg)
        if bad is not None:
            (i, j, k), defect = bad
            raise JacobiViolation((i + 1, j + 1, k + 1), defect)
    return alg


def build(
    dim: int,
    brackets: Iterable[tuple[int, int, Sequence]],
    labels: Optional[Sequence[str]] = None,
) -> LieAlgebra:
    """Validated Lie algebra from 1-based bracket data.

    ``brackets`` lists (i, j, coefficient vector) with 1 <= i < j <= dim,
    matching the e1..en naming used in lieconst files; unlisted brackets
    are zero.  Raises IndexOutOfRange, DuplicateBracket or
    JacobiViolation.
    """
    if dim < 0:
        raise IndexOutOfRange(f"dimension must be non-negative, got {dim}")
    mapping: dict[tuple[int, int], Vector] = {}
    for i, j, coeffs in brackets:
        if not (1 <= i < j <= dim):
            raise IndexOutOfRange(
                f"bracket [e{i},e{j}] violates 1 <= i < j <= {dim}"
            )
        coeffs = vector(coeffs)
        if len(coeffs) != dim:
            raise IndexOutOfRange(
                f"coefficient vector for [e{i},e{j}] has length "
                f"{len(coeffs)}, expected {dim}"
            )
        key = (i - 1, j - 1)
        if key in mapping:
            raise DuplicateBracket(f"bracket [e{i},e{j}] given twice")
        mapping[key] = coeffs
    if labels is not None and len(tuple(labels)) != dim:
        raise IndexOutOfRange("labels length must equal dim")
    return _make(dim, mapping, labels, validate=True)


def jacobi_defect(L: LieAlgebra, i: int, j: int, k: int) -> Vector:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j], 0-based."""
    a = L._bracket_vec_basis(L.bracket_basis(i, j), k)
    b = L._bracket_vec_basis(L.bracket_basis(j, k), i)
    c = L._bracket_vec_basis(L.bracket_basis(k, i), j)
    return tuple(x + y + z for x, y, z in zip(a, b, c))


def _integer_table(L: LieAlgebra) -> tuple[int, list]:
    """The table as integer numerators over its least common denominator.

    Returns ``(denom, brackets)``; each bracket is ``(i, j, [(m, a), ...])``
    with ``a / denom`` the nonzero coefficient of e_m in [e_i, e_j].
    """
    denom = lcm(*(x.denominator for _, _, c in L.table for x in c if x))
    return denom, [(i, j, [(m, x.numerator * (denom // x.denominator))
                           for m, x in enumerate(c) if x])
                   for i, j, c in L.table]


def _adjoint(n: int, table: list) -> list[dict[int, list[tuple[int, int]]]]:
    """``ad[m][t]`` lists the integer coefficients of [e_m, e_t], for nonzero brackets only."""
    ad: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n)]
    for a, b, coeffs in table:
        ad[a][b] = coeffs
        ad[b][a] = [(r, -y) for r, y in coeffs]
    return ad


def first_jacobi_violation(
    L: LieAlgebra,
) -> Optional[tuple[tuple[int, int, int], Vector]]:
    """First (lexicographic) triple with nonzero Jacobi defect, or None.

    Each stored bracket [e_a,e_b] meets every third index t once: it adds
    [[e_a,e_b],e_t] to the defect of the sorted triple {a, b, t}, with
    sign -1 exactly when t sits between a and b.  The sums are kept in
    integers over denom^2, and only the nonzero [e_m, e_t] are visited,
    so the cost grows with the nonzero structure constants.
    """
    n = L.dim
    denom, table = _integer_table(L)
    ad = _adjoint(n, table)
    sums: dict[tuple[int, int, int], dict[int, int]] = {}
    for a, b, coeffs in table:
        for m, x in coeffs:
            # [[e_a,e_b], e_t] = sum over m of x_m [e_m, e_t]
            for t, image in ad[m].items():
                if t < a:
                    key, f = (t, a, b), x
                elif a < t < b:
                    key, f = (a, t, b), -x
                elif t > b:
                    key, f = (a, b, t), x
                else:
                    continue
                acc = sums.get(key)
                if acc is None:
                    acc = sums[key] = {}
                for r, y in image:
                    acc[r] = acc.get(r, 0) + f * y
    for key in sorted(sums):
        acc = sums[key]
        if any(acc.values()):
            scale = denom * denom
            return key, tuple(Fraction(acc.get(r, 0), scale) for r in range(n))
    return None


@lru_cache(maxsize=None)
def derived_subalgebra(L: LieAlgebra) -> Subspace:
    """Canonical span of all brackets [e_i, e_j], i < j."""
    return Subspace.from_vectors(L.dim, [c for _, _, c in L.table])


@lru_cache(maxsize=None)
def center(L: LieAlgebra) -> Subspace:
    """{ x : [x, e_j] = 0 for all j }, as the kernel of the stacked adjoint.

    Row (j, t) of the stacked adjoint holds, at index m, the integer
    coefficient of e_t in [e_m, e_j]; only nonzero brackets give entries.
    """
    n = L.dim
    if L.is_abelian:
        return Subspace.full(n)
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i, j, coeffs in _integer_table(L)[1]:
        for t, x in coeffs:
            rows.setdefault((j, t), {})[i] = x
            rows.setdefault((i, t), {})[j] = -x
    return _kernel(n, rows.values())


@dataclass(frozen=True)
class SeriesReport:
    """Lower-central-series fingerprint of one algebra."""

    lcs_dims: tuple[int, ...]
    nilpotency_class: Optional[int]  # None when the series stalls above zero
    derived_dim: int
    center_dim: int

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class is not None


def _integer_brackets(ad: list, v: dict[int, int]) -> list[dict[int, int]]:
    """The nonzero [v, e_t] for a sparse integer vector v, as sparse integer vectors."""
    out: dict[int, dict[int, int]] = {}
    for m, x in v.items():
        for t, image in ad[m].items():
            acc = out.get(t)
            if acc is None:
                acc = out[t] = {}
            for r, y in image:
                acc[r] = acc.get(r, 0) + x * y
    return [nz for nz in ({r: y for r, y in acc.items() if y}
                          for acc in out.values()) if nz]


@lru_cache(maxsize=None)
def lower_central_series(L: LieAlgebra) -> SeriesReport:
    """Dims of L >= [L,L] >= [L,[L,L]] >= ... until zero or stabilization.

    Each term is spanned by the [v, e_t] for v in a spanning set of the
    previous one, formed in integers from the table and reduced by the
    echelon kernel; only dimensions are reported, so the echelon is not
    reduced further.
    """
    n = L.dim
    ad = _adjoint(n, _integer_table(L)[1])
    dims = [n]
    cur: list[dict[int, int]] = [{i: 1} for i in range(n)]
    derived_dim = 0
    while cur:
        nxt = list(_echelon(w for v in cur for w in _integer_brackets(ad, v)).values())
        if len(dims) == 1:
            derived_dim = len(nxt)
        if len(nxt) == len(cur):
            return SeriesReport(tuple(dims), None, derived_dim, center(L).dim)
        dims.append(len(nxt))
        cur = nxt
    return SeriesReport(tuple(dims), len(dims) - 1, derived_dim, center(L).dim)


def is_ideal(L: LieAlgebra, s: Subspace) -> bool:
    """True iff [L, S] is contained in S, i.e. adding the [v, e_t] keeps the echelon's size."""
    if s.ambient_dim != L.dim:
        raise AmbientMismatch(f"subspace ambient {s.ambient_dim} != dim {L.dim}")
    rows = list(_integer_rows(s.basis))
    ad = _adjoint(L.dim, _integer_table(L)[1])
    return len(_echelon(rows + [w for v in rows for w in _integer_brackets(ad, v)])) == s.dim


def quotient(L: LieAlgebra, k: Subspace) -> LieAlgebra:
    """Quotient algebra L/K on the standard basis vectors that complete K.

    K's integer rows are echeloned with each vector pivoting on its
    largest index (indices mirrored c -> n-1-c around the kernel) and
    fully reduced.  e_i lies in K + span(e_0..e_{i-1}) exactly when i is
    such a pivot, so the other indices, in increasing order, are the
    complement that extends K's basis greedily in index order; the e_i
    on them are the basis of L/K, so the output is reproducible.  Each
    reduced vector v is zero at every other pivot, so modulo K the e_p
    of its pivot p is -v/v[p] with entry p dropped, a combination of
    complement vectors.  Substituting these into the stored brackets
    between complement vectors gives the quotient's table directly.
    """
    if k.ambient_dim != L.dim:
        raise AmbientMismatch(f"subspace ambient {k.ambient_dim} != dim {L.dim}")
    if not is_ideal(L, k):
        raise NotAnIdeal("quotient by a subspace that is not an ideal")
    top = L.dim - 1
    reduced = _back_substitute(_echelon(
        {top - c: x for c, x in v.items()} for v in _integer_rows(k.basis)))
    complement = [c for c in range(L.dim) if top - c not in reduced]
    pos = {c: a for a, c in enumerate(complement)}
    # image[m]: the quotient coordinates of e_m modulo K
    image = {c: ((a, 1),) for c, a in pos.items()}
    for p, v in reduced.items():
        image[top - p] = tuple((pos[top - c], Fraction(-x, v[p]))
                               for c, x in v.items() if c != p)
    mapping: dict[tuple[int, int], list[Fraction]] = {}
    for i, j, c in L.table:
        if i in pos and j in pos:
            acc = [_ZERO] * len(pos)
            for m, x in enumerate(c):
                if x:
                    for a, y in image[m]:
                        acc[a] += x * y
            mapping[(pos[i], pos[j])] = acc
    return _make(len(pos), mapping, validate=False)


def direct_sum(l1: LieAlgebra, l2: LieAlgebra) -> LieAlgebra:
    """Block sum: components commute, constants are copied per block."""
    d1, d2 = l1.dim, l2.dim
    mapping: dict[tuple[int, int], Vector] = {}
    pad2 = _zeros(d2)
    pad1 = _zeros(d1)
    for i, j, c in l1.table:
        mapping[(i, j)] = c + pad2
    for i, j, c in l2.table:
        mapping[(i + d1, j + d1)] = pad1 + c
    labels = None
    if l1.labels is not None and l2.labels is not None:
        labels = l1.labels + l2.labels
    return _make(d1 + d2, mapping, labels, validate=False)


def change_of_basis(L: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Same algebra on the basis f_i = sum_j P[i][j] e_j.

    P must be invertible (SingularMatrix otherwise).  All isomorphism
    invariants are preserved.
    """
    if p.rows != L.dim or p.cols != L.dim:
        raise AmbientMismatch(
            f"basis-change matrix must be {L.dim}x{L.dim}, got {p.rows}x{p.cols}"
        )
    inv = p.inverse()
    mapping: dict[tuple[int, int], Vector] = {}
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            w = L.bracket(p.row(i), p.row(j))
            if any(w):
                mapping[(i, j)] = vec_mat(w, inv)
    return _make(n, mapping, validate=False)
