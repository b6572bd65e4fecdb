"""Lie algebras presented by exact structure-constant tables.

Each algebra is stored once, as ``(dim, denom, brackets)``: only the
nonzero brackets [e_i, e_j] with i < j are kept, each as sparse integer
numerators over the one common denominator ``denom``, the least common
denominator of all structure constants.  That form is canonical, so
equality and the hash read it directly, and antisymmetry is structural.
``table`` derives the dense Fraction vectors on demand for readers that
want them; nothing here computes with it.  Every constructor (``build``,
``direct_sum``, ``quotient``, ``change_of_basis``) ends in ``_make``,
which reduces numerators and denominator by their common gcd and sorts
the brackets; ``build`` takes int coefficients as they are and makes a
Fraction of no other.  ``first_jacobi_violation`` is the one Jacobi
test: ``build``, the one constructor fed outside input, runs it on
``lcs_adapted(L)``, as the identity holds on every basis or on none, and
scans the original table only to name the first failing triple of an
invalid one.  Algebras derived from valid ones (sums, quotients by
ideals, base changes) are valid by construction, and the multiplier
re-checks only ``lcs_adapted(L)``.  ``center`` takes its kernel there
too, so a request shares the one transport, which ``lcs_adapted`` keeps
in its own 32-entry cache.

The Jacobi check, the center, the lower central series, the ideal test
and the boundary maps of :mod:`liemult.multiplier` all read the stored
integer brackets.  The Jacobi check sums each stored bracket's
contribution into its sorted triple, so its cost grows with the nonzero
structure constants.  The center is the kernel of the stacked adjoint
of the adapted table, built as sparse integer rows and mapped back
through ``lcs_basis``; each term of the lower central series, and
the test [L, S] ⊆ S, is echeloned by the exact fraction-free kernel of
:mod:`liemult.linalg` that also computes ``linalg.rank``; L^2 is the
echelon of the stored bracket vectors themselves.  Past L^2 the walk
brackets only with C, the e_c off L^2's pivots, as a nilpotent
algebra is generated by any complement of L^2; the terms it finds are
the series exactly when L^2 = [C, C] + [L^2, C], one echelon size, and
an algebra that fails that test is not nilpotent and is walked again
with every e_t.  The series is walked once per algebra, by the cached
``_series``, whose echelons give both the dimensions, dim L^2 among
them, that the uncached ``lower_central_series`` reports, and
``lcs_basis``, a basis adapted to the flag L ⊃ L^2 ⊃ ... on which
[L^i, L^j] ⊆ L^(i+j); ``lcs_adapted`` writes L on it, and :mod:`liemult.multiplier` ranks the
complex there.  A quotient L/K comes from one reduced echelon of K's
integer rows on that kernel, pivoting on each vector's largest index;
only the stored brackets are projected.  A base change transports only
the stored brackets, in integers, and multiplies them by the inverse
read from the reduced echelon of [Q | I], or, for the seeded base
changes of :mod:`liemult.randgen`, built exactly by their generator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Container, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .linalg import (
    AmbientMismatch,
    Matrix,
    Scalar,
    SparseRow,
    Subspace,
    Vector,
    _back_substitute,
    _combine,
    _echelon,
    _inverse,
    _kernel,
    _span,
    rat,
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


# ((m, numerator), ...) in increasing m, zero numerators left out
Coefficients = tuple[tuple[int, int], ...]
Brackets = tuple[tuple[int, int, Coefficients], ...]


class LieAlgebra:
    """Lie algebra on basis e_1..e_n given by rational structure constants.

    ``brackets`` holds (i, j, ((m, a), ...)) with 0-based i < j, sorted
    by (i, j), nonzero brackets only: a / denom is the coefficient of
    e_m in [e_i, e_j].  ``denom`` is the least common denominator of the
    constants (1 when there are none), which fixes the numerators.
    Immutable; equal only to another LieAlgebra with the same three
    fields.  The hash is computed once per instance.
    """

    __slots__ = ("dim", "denom", "brackets", "_hash")

    def __init__(self, dim: int, denom: int, brackets: Brackets) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "brackets", brackets)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.denom, self.brackets) == (other.dim, other.denom, other.brackets)

    def __hash__(self) -> int:
        # hashed once per instance: every lru_cache lookup keyed by an algebra calls this
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.dim, self.denom, self.brackets)))
        return self._hash

    def __reduce__(self):
        return LieAlgebra, (self.dim, self.denom, self.brackets)

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    @property
    def table(self) -> tuple[tuple[int, int, Vector], ...]:
        """(i, j, dense Fraction vector of [e_i, e_j]) per stored bracket, derived on each call."""
        zero = [_ZERO] * self.dim
        out = []
        for i, j, coeffs in self.brackets:
            row = list(zero)
            for m, a in coeffs:
                row[m] = Fraction(a, self.denom)
            out.append((i, j, tuple(row)))
        return tuple(out)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, nonzero_brackets={len(self.brackets)})"


def _make(
    dim: int,
    denom: int,
    mapping: Mapping[tuple[int, int], Iterable[tuple[int, int]]],
) -> LieAlgebra:
    """The canonical algebra whose [e_i, e_j] has coefficients a / denom at the given (m, a)."""
    items = []
    for (i, j), coeffs in sorted(mapping.items()):
        nz = tuple(sorted((m, a) for m, a in coeffs if a))
        if nz:
            items.append((i, j, nz))
    g = gcd(denom, *(a for _, _, coeffs in items for _, a in coeffs))
    if g != 1:
        items = [(i, j, tuple((m, a // g) for m, a in coeffs)) for i, j, coeffs in items]
    return LieAlgebra(dim, denom // g, tuple(items))


def build(
    dim: int,
    brackets: Iterable[tuple[int, int, Union[Sequence[Scalar], Mapping[int, Scalar]]]],
) -> LieAlgebra:
    """Validated Lie algebra from 1-based bracket data.

    ``brackets`` lists (i, j, coefficients) with 1 <= i < j <= dim,
    matching the e1..en naming used in lieconst files; the coefficients
    of [e_i, e_j] are a vector of length dim, or a mapping from basis
    index k (1-based, e_k) to coefficient.  Unlisted brackets are zero.
    Raises IndexOutOfRange, DuplicateBracket or JacobiViolation.
    """
    if dim < 0:
        raise IndexOutOfRange(f"dimension must be non-negative, got {dim}")
    mapping: dict[tuple[int, int], dict[int, Union[int, Fraction]]] = {}
    for i, j, coeffs in brackets:
        if not (1 <= i < j <= dim):
            raise IndexOutOfRange(
                f"bracket [e{i},e{j}] violates 1 <= i < j <= {dim}"
            )
        if isinstance(coeffs, Mapping):
            sparse = {}
            for k, x in coeffs.items():
                if not (1 <= k <= dim):
                    raise IndexOutOfRange(
                        f"coefficient of [e{i},e{j}] names e{k}, outside 1..{dim}"
                    )
                sparse[k - 1] = x if isinstance(x, int) else rat(x)
        else:
            coeffs = [x if isinstance(x, int) else rat(x) for x in coeffs]
            if len(coeffs) != dim:
                raise IndexOutOfRange(
                    f"coefficient vector for [e{i},e{j}] has length "
                    f"{len(coeffs)}, expected {dim}"
                )
            sparse = {m: x for m, x in enumerate(coeffs) if x}
        key = (i - 1, j - 1)
        if key in mapping:
            raise DuplicateBracket(f"bracket [e{i},e{j}] given twice")
        mapping[key] = sparse
    denom = lcm(*(x.denominator for c in mapping.values() for x in c.values()))
    alg = _make(dim, denom, {
        key: [(m, x.numerator * (denom // x.denominator)) for m, x in c.items()]
        for key, c in mapping.items()
    })
    # the Jacobi identity holds on every basis or on none, and the adapted
    # table, which the multiplier ranks on too, has far fewer constants
    if first_jacobi_violation(lcs_adapted(alg)) is None:
        return alg
    bad = first_jacobi_violation(alg)
    if bad is None:
        raise RuntimeError("Jacobi defect on the adapted table only: the transport is wrong")
    (i, j, k), defect = bad
    raise JacobiViolation((i + 1, j + 1, k + 1), defect)


def _adjoint(n: int, brackets: Brackets) -> list[dict[int, Coefficients]]:
    """``ad[m][t]`` lists the integer coefficients of [e_m, e_t], for nonzero brackets only."""
    ad: list[dict[int, Coefficients]] = [{} for _ in range(n)]
    for a, b, coeffs in brackets:
        ad[a][b] = coeffs
        ad[b][a] = tuple((r, -y) for r, y in coeffs)
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
    ad = _adjoint(n, L.brackets)
    sums: dict[tuple[int, int, int], dict[int, int]] = {}
    for a, b, coeffs in L.brackets:
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
            scale = L.denom * L.denom
            return key, tuple(Fraction(acc.get(r, 0), scale) for r in range(n))
    return None


@lru_cache(maxsize=None)
def center(L: LieAlgebra) -> Subspace:
    """{ x : [x, e_j] = 0 for all j }, as the kernel of the stacked adjoint of ``lcs_adapted(L)``.

    Row (j, t) of the stacked adjoint holds, at index m, the integer
    coefficient of e_t in [e_m, e_j]; only nonzero brackets give entries,
    and the adapted table has far fewer.  A kernel row z there is the
    element sum_a z_a f_a of L, f_a the a-th vector of ``lcs_basis(L)``.
    An adapted table equal to L has L's own kernel.  The test is ``==``,
    not ``is``: a cache hit of ``lcs_adapted`` may return an equal copy
    of an untransported L, whose ``lcs_basis`` can still permute the e_c.
    """
    n = L.dim
    if L.is_abelian:
        return Subspace.full(n)
    adapted = lcs_adapted(L)
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i, j, coeffs in adapted.brackets:
        for t, x in coeffs:
            rows.setdefault((j, t), {})[i] = x
            rows.setdefault((i, t), {})[j] = -x
    kernel = _kernel(n, rows.values())
    if adapted == L:
        return kernel
    basis = lcs_basis(L)
    return _span(n, (_combine(z, basis) for z in kernel.rows))


class SeriesReport(NamedTuple):
    """Lower-central-series fingerprint of one algebra."""

    lcs_dims: tuple[int, ...]
    nilpotency_class: Optional[int]  # None when the series stalls above zero
    derived_dim: int

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class is not None


def _integer_brackets(ad: list, v: Iterable[tuple[int, int]],
                      skip: Container[int] = ()) -> dict[int, dict[int, int]]:
    """{t: [v, e_t]} for the t not in ``skip``, with v given as (m, x) pairs.

    Only the nonzero brackets are kept, each with its nonzero
    coefficients only; a skipped t costs one membership test.
    """
    out: dict[int, dict[int, int]] = {}
    for m, x in v:
        for t, image in ad[m].items():
            if t in skip:
                continue
            acc = out.get(t)
            if acc is None:
                acc = out[t] = {}
            for r, y in image:
                acc[r] = acc.get(r, 0) + x * y
    return {t: nz for t, acc in out.items() if (nz := {r: y for r, y in acc.items() if y})}


@lru_cache(maxsize=None)
def _series(L: LieAlgebra) -> tuple[tuple[dict[int, dict[int, int]], ...], bool]:
    """Echelons of the distinct terms L^2, L^3, ..., and whether the series reached 0.

    L^2 is the echelon of the stored bracket vectors, each bracket once.
    The walk first brackets only with C, the e_c whose index c is not a
    pivot of L^2: T_2 = L^2 and T_(k+1) is the echelon of the [v, e_t]
    for v in T_k's echelon and t in C, formed in integers from the
    stored brackets.  These terms only shrink, T_(k+1) ⊆ T_k, with or
    without the Jacobi identity, since T_3 = [T_2, C] ⊆ L^2.  Once they
    reach 0, ``_generated`` tests L^2 = [C, C] + T_3, which decides
    whether the T_k are the lower central series:

    - Substituting T_k = [T_(k-1), C] into L^2 = [C, C] + T_3 until the
      zero term puts L^2 inside the subalgebra generated by C, so C
      generates L.  This step needs no Jacobi identity.
    - In an algebra generated by C, L^(k+1) = [L^k, C], as left-normed
      brackets of length >= k span L^k; so T_k = L^k for every k.
    - Conversely, a nilpotent L passes: C generates it, so T_3 = L^3,
      and [L^2, L^2] ⊆ L^3.

    If the generator walk stalls above zero or the test fails, L is not
    nilpotent, and the same loop walks again from L^2 with every e_t.
    A walk stops at the zero term, which is then the last echelon, or
    when a term's echelon has the size of the previous one: the series
    has stabilised above zero, and that repeated term is left out.
    """
    ad = _adjoint(L.dim, L.brackets)
    derived = _echelon(coeffs for _, _, coeffs in L.brackets)
    # the generator walk skips the e_t on L^2's pivots, the second walk none
    for skip in (derived, ()):
        terms: list[dict[int, dict[int, int]]] = []
        size, nxt = L.dim, derived
        while size and len(nxt) < size:
            terms.append(nxt)
            size = len(nxt)
            nxt = _echelon(w for v in nxt.values()
                           for w in _integer_brackets(ad, v.items(), skip).values())
        if not size and (skip is not derived or _generated(L, derived, terms)):
            return tuple(terms), True
    return tuple(terms), False


def _generated(L: LieAlgebra, derived: dict[int, dict[int, int]],
               terms: Sequence[dict[int, dict[int, int]]]) -> bool:
    """Whether L^2 = [C, C] + T_3, for C the e_c off ``derived``'s pivots.

    ``terms`` are the echelons of T_2 = L^2, T_3, ... of a generator walk
    that reached 0.  When every stored bracket has both indices in C,
    the brackets, which span L^2, lie in [C, C]; that covers L^2 = 0.
    """
    cc = [coeffs for i, j, coeffs in L.brackets if i not in derived and j not in derived]
    return len(cc) == len(L.brackets) or len(_echelon([*terms[1].values(), *cc])) == len(derived)


def lower_central_series(L: LieAlgebra) -> SeriesReport:
    """Dims of L >= [L,L] >= [L,[L,L]] >= ... until zero or stabilization.

    Not cached: the dims are the sizes of the echelons of ``_series``;
    a perfect algebra (L^2 = L) stabilises at once and has derived dim n.
    """
    terms, nilpotent = _series(L)
    return SeriesReport(
        (L.dim, *(len(t) for t in terms)),
        len(terms) if nilpotent else None,
        len(terms[0]) if terms else L.dim,
    )


def lcs_basis(L: LieAlgebra) -> tuple[SparseRow, ...]:
    """A basis of L adapted to its lower central series.

    A pivot set only grows from a term to the next larger one, so the
    echelon vectors of L^k whose pivot is not a pivot of L^(k+1) complete
    L^(k+1) to L^k; for L^1 = L they are the unit vectors e_c.  The
    basis lists these complements from L/L^2 down to the last nonzero
    term, whose whole echelon comes last.  So the last dim L^k vectors
    span L^k, with the dims of ``lower_central_series(L).lcs_dims``, and
    a vector of weight k, one of L^k outside L^(k+1), brackets with one
    of weight j into L^(k+j) (or into the last term, where a
    non-nilpotent series stabilises).
    """
    terms, _ = _series(L)
    derived = terms[0] if terms else {}
    basis: list[SparseRow] = [((c, 1),) for c in range(L.dim) if c not in derived]
    for term, below in zip(terms, [*terms[1:], {}]):
        basis += [tuple(sorted(v.items())) for p, v in sorted(term.items()) if p not in below]
    return tuple(basis)


@lru_cache(maxsize=32)
def lcs_adapted(L: LieAlgebra) -> LieAlgebra:
    """L written on ``lcs_basis``, or L when each basis vector is a multiple of one e_c.

    On the adapted basis [L^i, L^j] lies in L^(i+j), so most structure
    constants are zero.  A basis of multiples of the e_c only reorders
    and rescales e_1..e_n, which keeps the zero pattern of the structure
    constants, so it is not transported; every catalog table and direct
    sum is in that case.  ``build``, ``center`` and
    ``schur_multiplier_dim`` all ask for it, so the last 32 results are
    cached, and a hit may return an equal copy of L in place of L itself.
    """
    basis = lcs_basis(L)
    if all(len(v) == 1 for v in basis):
        return L
    rows = [[0] * L.dim for _ in basis]
    for row, v in zip(rows, basis):
        for c, x in v:
            row[c] = x
    return _transport(L, rows, _inverse(rows))


def is_ideal(L: LieAlgebra, s: Subspace) -> bool:
    """True iff [L, S] is contained in S, i.e. adding the [v, e_t] keeps the echelon's size."""
    if s.ambient_dim != L.dim:
        raise AmbientMismatch(f"subspace ambient {s.ambient_dim} != dim {L.dim}")
    ad = _adjoint(L.dim, L.brackets)
    brackets = (w for v in s.rows for w in _integer_brackets(ad, v).values())
    return len(_echelon([*s.rows, *brackets])) == s.dim


def quotient(L: LieAlgebra, k: Subspace) -> LieAlgebra:
    """Quotient algebra L/K on the standard basis vectors that complete K.

    K's rows are echeloned with each vector pivoting on its largest
    index (indices mirrored c -> n-1-c around the kernel) and fully
    reduced.  e_i lies in K + span(e_0..e_{i-1}) exactly when i is such
    a pivot, so the other indices, in increasing order, are the
    complement that extends K's basis greedily in index order; the e_i
    on them are the basis of L/K, so the output is reproducible.  Each
    reduced vector v is zero at every other pivot, so modulo K the e_p
    of its pivot p is -v/v[p] with entry p dropped, a combination of
    complement vectors.  Substituting these into the stored brackets
    between complement vectors gives the quotient's brackets directly,
    in integers over denom times the lcm d of the pivot entries.
    """
    if not is_ideal(L, k):
        raise NotAnIdeal("quotient by a subspace that is not an ideal")
    top = L.dim - 1
    reduced = _back_substitute(_echelon({top - c: x for c, x in v} for v in k.rows))
    complement = [c for c in range(L.dim) if top - c not in reduced]
    pos = {c: a for a, c in enumerate(complement)}
    d = lcm(*(v[p] for p, v in reduced.items()))
    # image[m]: d times the quotient coordinates of e_m modulo K
    image = {c: ((a, d),) for c, a in pos.items()}
    for p, v in reduced.items():
        f = d // v[p]
        image[top - p] = tuple((pos[top - c], -x * f) for c, x in v.items() if c != p)
    mapping = {(pos[i], pos[j]): _combine(coeffs, image).items()
               for i, j, coeffs in L.brackets if i in pos and j in pos}
    return _make(len(pos), L.denom * d, mapping)


def direct_sum(l1: LieAlgebra, l2: LieAlgebra) -> LieAlgebra:
    """Block sum: components commute, constants are copied per block."""
    d1 = l1.dim
    denom = lcm(l1.denom, l2.denom)
    f1, f2 = denom // l1.denom, denom // l2.denom
    mapping = {(i, j): [(m, f1 * a) for m, a in coeffs] for i, j, coeffs in l1.brackets}
    mapping.update(((i + d1, j + d1), [(m + d1, f2 * a) for m, a in coeffs])
                   for i, j, coeffs in l2.brackets)
    return _make(d1 + l2.dim, denom, mapping)


def change_of_basis(L: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Same algebra on the basis f_i = sum_j P[i][j] e_j.

    P must be invertible (SingularMatrix otherwise).  All isomorphism
    invariants are preserved.  With P = Q/q for an integer matrix Q,
    [f_i, f_j] is [g_i, g_j] / q^2 on the integer basis g_i = q f_i, so
    the constants on the f's are those on the g's over q.
    """
    n = L.dim
    if p.rows != n or p.cols != n:
        raise AmbientMismatch(
            f"basis-change matrix must be {n}x{n}, got {p.rows}x{p.cols}"
        )
    q = lcm(*(x.denominator for x in p.entries))
    rows = [[x.numerator * (q // x.denominator) for x in row] for row in p.iter_rows()]
    return _transport(L, rows, _inverse(rows), q)


def _transport(L: LieAlgebra, rows: Sequence[Sequence[int]],
               inverse: tuple[int, Sequence[Mapping[int, int]]], q: int = 1) -> LieAlgebra:
    """L on the basis g_i = sum_j Q[i][j] e_j of an invertible integer Q, constants over q.

    [g_i, g_j] = sum over the stored (a, b) of
    (Q_ia Q_jb - Q_ib Q_ja) [e_a, e_b], and the coordinates on the g's
    are that times Q^-1 = R/d, which the caller gives as ``inverse`` =
    (d, R), R in sparse rows.  So ``_combine`` first multiplies each
    stored bracket by R, and every constant ends up over q * d * denom.
    """
    n = L.dim
    d = inverse[0]
    r_rows = [row.items() for row in inverse[1]]
    images = [(a, b, _combine(coeffs, r_rows)) for a, b, coeffs in L.brackets]
    mapping: dict[tuple[int, int], Iterable[tuple[int, int]]] = {}
    for i in range(n):
        qi = rows[i]
        for j in range(i + 1, n):
            qj = rows[j]
            acc: dict[int, int] = {}
            for a, b, image in images:
                s = qi[a] * qj[b] - qi[b] * qj[a]
                if s:
                    for t, y in image.items():
                        acc[t] = acc.get(t, 0) + s * y
            if acc:
                mapping[(i, j)] = acc.items()
    return _make(n, q * d * L.denom, mapping)
