"""Lie algebras presented by exact structure-constant tables.

Each algebra is stored once, as ``(dim, denom, brackets)``: only the
nonzero brackets [e_i, e_j] with i < j are kept, each as sparse integer
numerators over the one common denominator ``denom``, the least common
denominator of all structure constants.  That form is canonical, so
equality and the hash read it directly, and antisymmetry is structural.
``table`` derives the dense Fraction vectors on demand for readers that
want them, with ``linalg._dense``, which also writes the defect of a
``JacobiViolation``; nothing here computes with them.  The derived
constructors (``direct_sum``, ``quotient``, ``change_of_basis``) end in
``_make``, which reduces numerators and denominator by their common gcd
and sorts the brackets.  ``build`` writes the stored form in the one pass
that validates its input: it keeps an int as it is, makes a Fraction of
no other, and rescales numerators only when some denominator is above
1, where their gcd with the lcm of the denominators is 1 already.
``first_jacobi_violation`` is the one
Jacobi test.  ``lcs_adapted(L)`` is the one cached record of an
algebra's structure: its adapted basis, L written on it, the lower
central series, and the verdict of the Jacobi test on that table, each
computed once when the record is made, and the last 32 records kept.
``build``, the one constructor fed outside input, reads that verdict,
as the identity holds on every basis or on none, and scans the original
table only to name the first failing triple of an invalid one.
Algebras derived from valid ones (sums, quotients by ideals, base
changes) are valid by construction, and the multiplier reads the same
verdict before it ranks the adapted table.  ``center`` takes its kernel
there too and maps it back through the adapted basis, and
``lower_central_series`` reads the series off the record.

The Jacobi check, the center, the lower central series, the ideal test
and the boundary maps of :mod:`liemult.multiplier` all read the stored
integer brackets.  The Jacobi check sums each stored bracket's
contribution into its sorted triple, so its cost grows with the nonzero
structure constants.  The center is the kernel of the stacked adjoint
of the adapted table, built as sparse integer rows and mapped back
through the adapted basis; each term of the lower central series, and
the test [L, S] ⊆ S, is echeloned by the exact fraction-free kernel of
:mod:`liemult.linalg` that also computes ``linalg.rank``; L^2 is the
echelon of the stored bracket vectors themselves, which
``_derived_echelon`` builds without eliminating the brackets it shows to
lie in the span already.  They would reduce to 0 and store nothing, so
the echelon is the same dict.  When every bracket is an integer multiple
of the first one's primitive vector, that vector is the echelon.
Otherwise, once a bracket has reduced to 0 after more than one
cancellation, each later v is tested against the reduced rows R_p of
the echelon, zero at each other's pivots: the only combination of them
that agrees with v at every pivot p is sum v[p]/R_p[p] · R_p, so v lies
in the span iff it also agrees at every index off the pivots, an
integer test after scaling by the lcm of the R_p[p].  Past L^2 the walk
brackets only the newest layer with C, the e_c off L^2's pivots, as a
nilpotent algebra is generated by any complement of L^2: S_2 = [C, C]
and S_(j+1) = [S_j, C], so each layer vector meets C once, and the terms
L^k = S_k + L^(k+1) are built from the zero term up.  They are the
series exactly when the layers reach 0 and add up to L^2, one echelon
size; an algebra that fails that test is not nilpotent and is walked
again with every e_t.  When L^2 is a line span(z), every stored bracket
is ω(e_a, e_b)/z_p · z for the integer form ω read at z's pivot p, so
[z, e_t] = ω(z, e_t)/z_p · z by bilinearity: one pass over the stored
brackets decides whether [z, C] = 0, and when it is, with some bracket
between generators, the series is L, L^2, 0, with no bracket formed.
The series is walked once per record, by
``_series``, whose echelons give both the dimensions, dim L^2 among
them, that ``lower_central_series`` reports, and the basis of
``lcs_adapted``, adapted to the flag L ⊃ L^2 ⊃ ... so that
[L^i, L^j] ⊆ L^(i+j); ``_adapted_table`` writes L on it,
and :mod:`liemult.multiplier` ranks the complex there.  Its generators
are the unit vectors e_c off L^2's pivots, except for a class-2 L whose
L^2 is a line span(z) off the unit vectors, as a base change of
H(m)⊕A(k) is: there ``_darboux`` puts the
integer form ω(e_a, e_b), the entry of [e_a, e_b] at z's pivot, on a
Darboux basis, and the adapted table keeps one bracket per pair.  A
quotient L/K comes from one reduced echelon of K's
integer rows on that kernel, pivoting on each vector's largest index;
only the stored brackets are projected.  A base change transports only
the stored brackets, in integers, and multiplies them by the inverse
read from the reduced echelon of [Q | I], or, for the seeded base
changes of :mod:`liemult.randgen`, built exactly by their generator.
``_adapted_table`` needs no such transport: L^2 holds every bracket, so it
inverts only the k x k block of L^2's pivots in its basis, k = dim L^2.
Nor does it bracket the last nonzero term with the generators e_c: the
walk's last layer, or last term, formed those brackets and found them 0,
so the skip rests on computed brackets and not on the Jacobi identity,
and the adapted table of a Jacobi-violating input stays exact.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Optional, Union

from .linalg import (
    AmbientMismatch,
    Matrix,
    Scalar,
    SparseRow,
    Subspace,
    Vector,
    _back_substitute,
    _cancel,
    _combine,
    _dense,
    _echelon,
    _inverse,
    _kernel,
    _span,
    rat,
)


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
        return tuple((i, j, _dense(self.dim, coeffs, self.denom)) for i, j, coeffs in self.brackets)

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
    Raises IndexOutOfRange, DuplicateBracket or JacobiViolation, and what
    ``rat`` raises on a value it refuses, each at the first fault in
    input order: a bracket's indices, then its coefficients (a key's
    range before its value), then the duplicate test; a vector's length
    is checked once all its values are read.

    The stored form is written in the same pass: an int is kept as it
    is, any other value goes through ``rat``, and a Fraction with
    denominator 1 becomes its int numerator; the rest are rescaled to
    the lcm of their denominators at the end, only when it is above 1.
    For each prime of that lcm, the value whose reduced denominator
    holds the prime's highest power gets a numerator prime to it, so
    numerators and denom share no factor and ``_make``'s gcd step has
    nothing to divide.
    """
    if dim < 0:
        raise IndexOutOfRange(f"dimension must be non-negative, got {dim}")
    seen = set()
    items = []
    denom = 1
    for i, j, coeffs in brackets:
        if not (1 <= i < j <= dim):
            raise IndexOutOfRange(
                f"bracket [e{i},e{j}] violates 1 <= i < j <= {dim}"
            )
        # a mapping names its indices, which are checked; a vector's length is
        # its last index, checked once every value in it is read
        named = isinstance(coeffs, Mapping)
        nz = []
        k = 0
        for k, x in (coeffs.items() if named else enumerate(coeffs, 1)):
            if named and not (1 <= k <= dim):
                raise IndexOutOfRange(
                    f"coefficient of [e{i},e{j}] names e{k}, outside 1..{dim}"
                )
            if type(x) is not int:
                x = rat(x)
                if x.denominator == 1:
                    x = x.numerator
                else:
                    denom = lcm(denom, x.denominator)
            if x:
                nz.append((k - 1, x))
        if named:
            nz.sort()
        elif k != dim:
            raise IndexOutOfRange(
                f"coefficient vector for [e{i},e{j}] has length {k}, expected {dim}"
            )
        key = (i - 1, j - 1)
        if key in seen:
            raise DuplicateBracket(f"bracket [e{i},e{j}] given twice")
        seen.add(key)
        if nz:
            items.append((*key, nz))
    items.sort()
    if denom == 1:
        stored = tuple((i, j, tuple(nz)) for i, j, nz in items)
    else:
        stored = tuple((i, j, tuple((m, x.numerator * (denom // x.denominator)) for m, x in nz))
                       for i, j, nz in items)
    alg = LieAlgebra(dim, denom, stored)
    # the Jacobi identity holds on every basis or on none, and the adapted
    # table, which the multiplier ranks on too, has far fewer constants
    if lcs_adapted(alg).violation is None:
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
            return key, _dense(n, acc.items(), L.denom * L.denom)
    return None


@lru_cache(maxsize=1024)
def center(L: LieAlgebra) -> Subspace:
    """{ x : [x, e_j] = 0 for all j }, as the kernel of the stacked adjoint of ``lcs_adapted(L)``.

    Row (j, t) of the stacked adjoint holds, at index m, the integer
    coefficient of e_t in [e_m, e_j]; only nonzero brackets give entries,
    and the adapted table has far fewer.  A kernel row z there is the
    element sum_a z_a f_a of L, f_a the a-th adapted basis vector, unless
    each f_a is a multiple of one e_c: then the table is L, and so is
    the kernel.
    """
    n = L.dim
    if L.is_abelian:
        return Subspace.full(n)
    rec = lcs_adapted(L)
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i, j, coeffs in rec.table.brackets:
        for t, x in coeffs:
            rows.setdefault((j, t), {})[i] = x
            rows.setdefault((i, t), {})[j] = -x
    kernel = _kernel(n, rows.values())
    if all(len(v) == 1 for v in rec.basis):
        return kernel
    return _span(n, (_combine(z, rec.basis) for z in kernel.rows))


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


def _omega(brackets: Brackets) -> Iterator[tuple[int, int, int]]:
    """(a, b, ω(e_a, e_b)) per stored bracket of an L whose L^2 is a line span(z).

    ω(e_a, e_b) is the numerator of [e_a, e_b] at z's pivot p, so that
    [e_a, e_b] = ω(e_a, e_b)/z_p · z.  A stored bracket is a nonzero
    multiple of z, so its support is z's and its first entry sits at p.
    """
    return ((a, b, coeffs[0][1]) for a, b, coeffs in brackets)


def _derived_echelon(brackets: Brackets) -> dict[int, dict[int, int]]:
    """``_echelon`` of the stored bracket vectors, without eliminating those shown to lie in its span.

    The same dict, pivots, vectors and order: a bracket in the span of
    the echelon so far reduces to 0 there and stores nothing, so only
    the brackets that are stored need eliminating.  Two exact tests find
    the others:

    - When every bracket is an integer multiple t·u of u, the first
      bracket with its content divided out, L^2 is the line span(u) and
      the echelon is u, as ``_echelon`` stores it: its sort by size
      keeps the first of equal sizes first.  A rational multiple of the
      primitive u is an integer vector only for an integer t, so one
      division by u's first entry finds t.
    - Otherwise the brackets are eliminated in ``_echelon``'s order, and
      once one has needed more than one cancellation to reduce to 0,
      each later v is tested against the echelon's reduced rows R_p,
      each zero at the other pivots: v lies in their span iff
      v = sum over p of v[p]/R_p[p] · R_p, as that is the only
      combination that agrees with v at every pivot, so iff
      d·v[c] = sum over p of v[p]·(d/R_p[p])·R_p[c] at every index c
      off the pivots, d the lcm of the R_p[p].  A v that passes is
      skipped; one that fails is eliminated and stored, and the rows
      are reduced again before the next test.  A bracket that reduced
      to 0 in one cancellation is a multiple of one stored vector;
      starting the tests after such a bracket made the echelons of the
      small population tables slower, not faster.
    """
    if not brackets:
        return {}
    first = brackets[0][2]
    g = gcd(*(x for _, x in first))
    line = [(m, x // g) for m, x in first]
    p, f = line[0]
    for _, _, coeffs in brackets:
        if coeffs != first:
            # a multiple of the primitive line with integer entries is an integer multiple
            t = coeffs[0][1] // f
            if coeffs[0][0] != p or len(coeffs) != len(line) or not all(
                    m == k and x == t * y for (m, x), (k, y) in zip(coeffs, line)):
                break
    else:
        return {p: dict(line)}
    echelon: dict[int, dict[int, int]] = {}
    testing = False
    rows: Optional[dict[int, list[tuple[int, int]]]] = None
    for coeffs in sorted((coeffs for _, _, coeffs in brackets), key=len):
        if testing:
            if rows is None:
                reduced = _back_substitute(echelon)
                d = lcm(*(v[p] for p, v in reduced.items()))
                rows = {p: [(c, x * (d // v[p])) for c, x in v.items() if c not in reduced]
                        for p, v in reduced.items()}
            # d·v minus sum over p of v[p]·(d/R_p[p])·R_p, off the pivots
            acc = {m: d * x for m, x in coeffs if m not in rows}
            for m, x in coeffs:
                row = rows.get(m)
                if row is not None:
                    for c, y in row:
                        acc[c] = acc.get(c, 0) - x * y
            if not any(acc.values()):
                continue
            rows = None
        v = dict(coeffs)
        cancelled = 0
        while v:
            p = min(v)
            piv = echelon.get(p)
            if piv is None:
                g = gcd(*v.values())
                echelon[p] = {c: x // g for c, x in v.items()} if g != 1 else v
                break
            v = _cancel(v, piv, p)
            cancelled += 1
        else:
            testing = cancelled > 1
    return echelon


def _series(L: LieAlgebra) -> tuple[tuple[dict[int, dict[int, int]], ...], bool]:
    """Echelons of the distinct terms L^2, L^3, ..., and whether the series reached 0.

    L^2 is the echelon of the stored bracket vectors, each bracket once,
    from ``_derived_echelon``: it skips a bracket whose exact membership
    test against the reduced rows R_p of the echelon so far passes, that
    is, when v = sum over p of v[p]/R_p[p] · R_p also off the pivots, or
    when every bracket is a multiple of the first; a skipped bracket
    would reduce to 0 and store nothing, so the echelon is the one
    ``_echelon`` returns.  It is 0 only for an abelian L, whose series
    is L, 0.  Otherwise the
    walk brackets only with C, the e_c whose index c is not a pivot of
    L^2, one layer at a time: S_2 = [C, C] is the echelon of the stored
    brackets between generators (L^2 itself when every stored bracket is
    one), and S_(j+1) is the echelon of the [v, e_t] for v in S_j's
    echelon and t in C, formed in integers from the stored brackets.  The
    layers stop at a zero layer, or after dim L^2 + 1 of them.  When one
    is 0, the terms are built from the zero term up, T_k = S_k + T_(k+1),
    each echelon extending a copy of the one below, and the sum of the
    layers decides whether the T_k are the lower central series:

    - Every layer lies in L^2, so S_2 + T_3 = L^2, one echelon size,
      exactly when L = C + L^2 lies in the span of C and the layers,
      that is, when C generates L.  This step needs no Jacobi identity.
    - In an algebra generated by C, L^k is spanned by the left-normed
      brackets of length >= k, so T_k = L^k for every k, and L^2 stands
      for T_2.
    - Conversely, a nilpotent L passes: any complement C of L^2
      generates it, and its class is at most dim L^2 + 1, so its layers
      reach 0 within the bound.

    L^2 a line span(z), z pivoting at p, is decided before any bracket
    is formed.  Each stored bracket lies in L^2, so it is
    ω(e_a, e_b)/z_p · z with ω(e_a, e_b) its numerator at p (``_omega``),
    and by bilinearity alone [z, e_t] = ω(z, e_t)/z_p · z, where
    ω(z, e_t) = sum over m of z_m ω(e_m, e_t).  So when some stored
    bracket lies between two generators (S_2 = L^2) and ω(z, e_t) = 0
    for every t != p (S_3 = [z, C] = 0), the walk would return L^2, 0
    and nilpotent, and one pass over the stored brackets returns that,
    with no adjoint.  Any other line, with no bracket between generators
    or some ω(z, e_t) != 0 off p, goes on to the walk.

    If no layer is 0 or the sizes differ, L is not nilpotent, and the
    series is walked from L^2 with every e_t: T_(k+1) is the echelon of
    the [v, e_t] for v in T_k's echelon.  That walk stops at the zero
    term, which is then the last echelon, or when a term's echelon has
    the size of the previous one: the series has stabilised above zero,
    and that repeated term is left out.
    """
    derived = _derived_echelon(L.brackets)
    if not derived:
        return ((derived,) if L.dim else ()), True
    if len(derived) == 1:
        # [z, e_t] = ω(z, e_t)/z_p · z by bilinearity: S_3 = 0 iff ω(z, e_t) = 0 off p
        (p, z), = derived.items()
        between = False
        wz: dict[int, int] = {}
        for a, b, w in _omega(L.brackets):
            if a != p and b != p:
                between = True
            if a in z:
                wz[b] = wz.get(b, 0) + z[a] * w
            if b in z:
                wz[a] = wz.get(a, 0) - z[b] * w
        if between and not any(y for t, y in wz.items() if t != p):
            return (derived, {}), True
    ad = _adjoint(L.dim, L.brackets)
    cc = [coeffs for i, j, coeffs in L.brackets if i not in derived and j not in derived]
    layers = [derived if len(cc) == len(L.brackets) else _echelon(cc, limit=len(derived))]
    while layers[-1] and len(layers) <= len(derived):
        layers.append(_echelon(w for v in layers[-1].values()
                               for w in _integer_brackets(ad, v.items(), derived).values()))
    if not layers[-1]:
        terms = [layers[-1]]
        for layer in reversed(layers[1:-1]):
            terms.append(_echelon(layer.values(), dict(terms[-1])))
        if layers[0] is derived or (
                len(_echelon(layers[0].values(), dict(terms[-1]))) == len(derived)):
            return (derived, *reversed(terms)), True
    terms = []
    size, nxt = L.dim, derived
    while size and len(nxt) < size:
        terms.append(nxt)
        size = len(nxt)
        nxt = _echelon(w for v in nxt.values() for w in _integer_brackets(ad, v.items()).values())
    return tuple(terms), not size


def lower_central_series(L: LieAlgebra) -> SeriesReport:
    """Dims of L >= [L,L] >= [L,[L,L]] >= ... until zero or stabilization.

    Read off ``lcs_adapted(L).series``, the sizes of the echelons of
    ``_series``; a perfect algebra (L^2 = L) stabilises at once and has
    derived dim n.
    """
    return lcs_adapted(L).series


def _darboux(L: LieAlgebra, p: int) -> tuple[tuple[SparseRow, ...], tuple[int, ...]]:
    """A Darboux basis x_1, y_1, ..., x_m, y_m, r_1, ... of the e_c, c != p, and the w_i.

    L is of class 2 with L^2 = span(z), z pivoting at p, so each stored
    bracket is a multiple of z and ω(e_a, e_b), the numerator at p of
    [e_a, e_b], fixes it.  The e_c are taken in index order: the first
    pending x with some pending y (the first such) of ω(x, y) = w != 0
    makes a pair, and every later pending r becomes w·r + ω(y, r)·x -
    ω(x, r)·y, its content divided out, which is ω-orthogonal to x and y
    and keeps the span; a pending x with no such y is in the radical.
    So ω(x_i, y_i) = w_i, ω is 0 on every other pair of basis vectors,
    and the rows are primitive integer vectors.

    ω is read from its Gram matrix on the pending vectors, not from
    covectors.  With a = ω(y, r), b = ω(x, r), r' = (f·r + a·x - b·y)/g
    for f = w when r moves and r' = r (f = g = 1, a = b = 0) otherwise,
    expanding ω(r', s') and using ω(x, y) = w gives
    ω(r', s') = (f_r f_s ω(r, s) + w (a_r b_s - a_s b_r)) / (g_r g_s),
    an exact integer division, since g_r g_s ω(r', s') is the numerator.
    """
    form: dict[int, dict[int, int]] = {c: {} for c in range(L.dim) if c != p}
    for a, b, x in _omega(L.brackets):
        if a != p and b != p:
            form[a][b], form[b][a] = x, -x
    # form[r][s] = ω(r, s) on the pending vectors, each named by the e_c it started as
    rows = {c: {c: 1} for c in form}
    pending = list(form)
    basis: list[dict[int, int]] = []
    radical: list[dict[int, int]] = []
    weights = []
    while pending:
        x = pending.pop(0)
        wx = form[x]
        y = next((y for y in pending if wx.get(y)), None)
        if y is None:
            radical.append(rows[x])
            continue
        pending.remove(y)
        w, wy = wx[y], form[y]
        # r becomes (w·r + a·x - b·y)/g for a = ω(y, r), b = ω(x, r): moved[r] = (w, a, b, g)
        moved = {}
        for r in pending:
            a, b = wy.get(r, 0), wx.get(r, 0)
            if a or b:
                v = _combine([(0, w), (1, a), (2, -b)],
                             (rows[r].items(), rows[x].items(), rows[y].items()))
                g = gcd(*v.values())
                rows[r] = {c: u // g for c, u in v.items()}
                moved[r] = (w, a, b, g)
        # ω(r', s') = (f_r f_s ω(r, s) + w (a_r b_s - a_s b_r)) / (g_r g_s), f = g = 1 unmoved
        for i, r in enumerate(pending):
            fr, ar, br, gr = moved.get(r, (1, 0, 0, 1))
            wr = form[r]
            for s in pending[i + 1:]:
                if r in moved or s in moved:
                    fs, as_, bs, gs = moved.get(s, (1, 0, 0, 1))
                    o = (fr * fs * wr.get(s, 0) + w * (ar * bs - as_ * br)) // (gr * gs)
                    wr[s], form[s][r] = o, -o
        basis += [rows[x], rows[y]]
        weights.append(w)
    return tuple(tuple(sorted(v.items())) for v in basis + radical), tuple(weights)


class Adapted(NamedTuple):
    """The record of L: an lcs-adapted basis, L written on it, the series and the table's Jacobi verdict."""

    basis: tuple[SparseRow, ...]
    table: LieAlgebra
    series: SeriesReport
    violation: Optional[tuple[tuple[int, int, int], Vector]]  # first_jacobi_violation(table)


@lru_cache(maxsize=32)
def lcs_adapted(L: LieAlgebra) -> Adapted:
    """The one record of L's structure, each part computed once, when it is made.

    ``_series`` walks the series; its echelons give the dims that
    ``lower_central_series`` reports and the basis on which
    ``_adapted_table`` writes L; and ``first_jacobi_violation`` checks
    that table, whose verdict ``build`` reads for outside input and
    ``schur_multiplier_dim`` before it ranks the complex there.
    ``build``, ``center``, ``lower_central_series`` and
    ``schur_multiplier_dim`` all ask for it, so the last 32 records are
    cached.
    """
    terms, nilpotent = _series(L)
    basis, table = _adapted_table(L, terms, nilpotent)
    series = SeriesReport((L.dim, *(len(t) for t in terms)),
                          len(terms) if nilpotent else None,
                          len(terms[0]) if terms else L.dim)
    return Adapted(basis, table, series, first_jacobi_violation(table))


def _adapted_table(L: LieAlgebra, terms: Sequence[dict[int, dict[int, int]]],
                   nilpotent: bool) -> tuple[tuple[SparseRow, ...], LieAlgebra]:
    """A basis of L adapted to its lower central series, and L's table on it, from ``_series(L)``.

    A pivot set only grows from a term to the next larger one, so the
    echelon vectors of L^k whose pivot is not a pivot of L^(k+1) complete
    L^(k+1) to L^k; for L^1 = L they are the unit vectors e_c.  The
    basis lists these complements from L/L^2 down to the last nonzero
    term, whose whole echelon comes last.  So the last dim L^k vectors
    span L^k, with the dims of ``lower_central_series(L).lcs_dims``, and
    a vector of weight k, one of L^k outside L^(k+1), brackets with one
    of weight j into L^(k+j) (or into the last term, where a
    non-nilpotent series stabilises): most structure constants of the
    table are zero.

    A basis of multiples of the e_c only reorders and rescales
    e_1..e_n, which keeps the zero pattern of the structure constants,
    so L is not transported: the table is L, or an equal copy of it on a
    cache hit of ``lcs_adapted``.  Every catalog table and direct sum is
    in that case.

    One case takes other generators: for L of class 2 with L^2 = span(z)
    and z not a multiple of a unit vector, as a base change of H(m)⊕A(k)
    is, the basis is ``_darboux``'s x_1, y_1, ..., x_m, y_m and radical
    in place of the e_c, c off z's pivot p, then z.  Any generators
    complete L^2, and the table is the m brackets [x_i, y_i] =
    w_i / (denom z_p) z: every stored bracket is the multiple
    ω(e_a, e_b) / z_p of z and the walk found each [z, e_c] to be 0, so
    every other pair is 0 by bilinearity, with no Jacobi identity.

    Otherwise the basis is g unit vectors e_c, then k vectors u spanning L^2.  A
    vector of L^2, as each stored bracket is, has as coordinates its entries
    at L^2's pivots times the inverse of the u's k x k block there: a pair
    of e_c is such an image, and a pair with a u a sum of ``_integer_brackets``.
    When the walk reached 0, the last u span the last nonzero term, and
    ``_series`` already found their brackets with the e_c to be 0: its last
    layer, or its last term on the walk over every e_t, is the zero term.
    So these u are bracketed only with the earlier u; some u always needs
    a bracket here, since a class-2 L with dim L^2 = 1 took one of the
    two paths above.  No pair is dropped for its weights: [f_a, f_b] lies in L^(w_a + w_b)
    only by the Jacobi identity, which ``lcs_adapted`` checks on this
    table.
    """
    n = L.dim
    if len(terms) == 2 and not terms[1] and len(terms[0]) == 1:
        (p, z), = terms[0].items()
        if len(z) > 1:
            rows, weights = _darboux(L, p)
            # the sign of z_p goes into the numerators: the denominator stays positive
            sign = 1 if z[p] > 0 else -1
            table = _make(n, abs(z[p]) * L.denom,
                          {(2 * i, 2 * i + 1): ((n - 1, sign * w),) for i, w in enumerate(weights)})
            return (*rows, tuple(sorted(z.items()))), table
    derived = terms[0] if terms else {}
    basis: list[SparseRow] = [((c, 1),) for c in range(n) if c not in derived]
    for term, below in zip(terms, [*terms[1:], {}]):
        basis += [tuple(sorted(v.items())) for p, v in sorted(term.items()) if p not in below]
    if all(len(v) == 1 for v in basis):
        return tuple(basis), L
    g = n - len(terms[0])
    # basis[last:] spans the last nonzero term, whose [u, e_c] the walk found 0
    last = n - len(terms[-2]) if nilpotent else n
    todo = [(b, range(0 if b < last else g, b)) for b in range(g, n)]
    todo = [(b, earlier) for b, earlier in todo if earlier]
    gens = {v[0][0]: a for a, v in enumerate(basis[:g])}
    pivots = [v[0][0] for v in basis[g:]]
    d, r = _inverse([[dict(v).get(p, 0) for p in pivots] for v in basis[g:]])
    coords = {p: [(g + b, y) for b, y in row.items()] for p, row in zip(pivots, r)}
    images = [(a, b, _combine([(m, x) for m, x in coeffs if m in coords], coords).items())
              for a, b, coeffs in L.brackets]
    mapping = {(gens[a], gens[b]): image for a, b, image in images if a in gens and b in gens}
    ad = _adjoint(n, images)
    for b, earlier in todo:
        # out[t] is [e_t, u]; so [f_a, u] = sum over t of f_a[t] out[t]
        u = [(m, -x) for m, x in basis[b]]
        out = {t: w.items() for t, w in _integer_brackets(ad, u).items()}
        for a in earlier:
            mapping[(a, b)] = _combine([(t, x) for t, x in basis[a] if t in out], out).items()
    return tuple(basis), _make(n, d * L.denom, mapping)


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
    the constants on the f's are those on the g's over q: with
    Q^-1 = R/d, ``_transport`` gets the one denominator q * d.
    """
    n = L.dim
    if p.rows != n or p.cols != n:
        raise AmbientMismatch(
            f"basis-change matrix must be {n}x{n}, got {p.rows}x{p.cols}"
        )
    q = lcm(*(x.denominator for x in p.entries))
    rows = [[x.numerator * (q // x.denominator) for x in row] for row in p.iter_rows()]
    d, r_rows = _inverse(rows)
    return _transport(L, rows, (q * d, r_rows))


def _transport(L: LieAlgebra, rows: Sequence[Sequence[int]],
               inverse: tuple[int, Sequence[Mapping[int, int]]]) -> LieAlgebra:
    """L on the basis g_i = sum_j Q[i][j] e_j of an invertible integer Q.

    [g_i, g_j] = sum over the stored (a, b) of
    (Q_ia Q_jb - Q_ib Q_ja) [e_a, e_b], and the coordinates on the g's
    are that times Q^-1.  The caller gives ``inverse`` = (d, R), R in
    sparse rows, with R/d = Q^-1, or with d = q * d' for R/d' = Q^-1,
    which writes L on the basis g_i / q instead.  So ``_combine`` first
    multiplies each stored bracket by R, and every constant ends up
    over d * denom.
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
    return _make(n, d * L.denom, mapping)
