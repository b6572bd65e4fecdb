"""Exact linear algebra over the rationals.

Ranks, inverses, spans and kernels.  Every elimination runs on one
kernel, ``_echelon``, a fraction-free echelon of sparse integer vectors,
and ``_span`` back-substitutes its output to the canonical reduced rows.
Every other subspace question is an echelon size: v lies in A exactly
when A's rows plus v still echelon to dim A vectors, B lies in A when
A's rows plus B's do, and dim(A ∩ B) = dim A + dim B - dim(A + B), the
last term being the size of the echelon of both sets of rows.  Rank
decisions are exact by construction; no floating point enters anywhere.
The one sparse product is ``_combine``, a sparse integer vector times
sparse rows: base changes, quotients, the center's map-back and the
random central subspaces all form their combinations with it.

A sparse integer vector is a ``{index: numerator}`` dict, or a sequence
of ``(index, numerator)`` pairs, with zero entries left out.  A
``Subspace`` stores its canonical reduced rows in that form: each row is
a primitive integer vector (content 1) whose first entry, the pivot, is
positive; pivots strictly increase from row to row and every row is
zero at the other rows' pivots.  Scaling the reduced row echelon form's
rows to primitive integers is unique, so two ``Subspace`` values compare
equal exactly when they describe the same subspace.  ``Matrix`` is the
dense rational input of a base change, and ``SparseMatrix`` holds the
boundary maps of :mod:`liemult.multiplier`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Scalar = Union[int, str, Fraction]
Vector = tuple[Fraction, ...]
SparseRow = tuple[tuple[int, int], ...]
IntVector = Union[dict[int, int], SparseRow]

_ZERO = Fraction(0)


class AmbientMismatch(ValueError):
    """Arguments live in different ambient spaces (or have wrong length)."""


class SingularMatrix(ValueError):
    """Inversion requested for a non-invertible matrix."""


def rat(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Dense matrix of rationals, row-major, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Fraction, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} != {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __reduce__(self):
        return Matrix, (self.rows, self.cols, self.entries)

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("cols required for a matrix with no rows")
            return cls(0, cols, ())
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ValueError(f"declared cols {cols} != row length {width}")
        entries = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            entries.extend(rat(x) for x in r)
        return cls(len(rows), width, tuple(entries))

    def row(self, r: int) -> Vector:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def iter_rows(self) -> Iterable[Vector]:
        for r in range(self.rows):
            yield self.row(r)


class SparseMatrix:
    """Exact matrix held as sparse integer columns over one common denominator.

    ``columns`` maps a column index to ``{row index: numerator}``; entry
    (r, c) is ``columns[c][r] / denom``.  Zero numerators and empty
    columns are dropped on construction, so storage and every pass over
    the matrix grow with its nonzero entries, not with ``rows x cols``.
    """

    __slots__ = ("rows", "cols", "denom", "columns")

    def __init__(self, rows: int, cols: int, denom: int,
                 columns: dict[int, dict[int, int]]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if denom < 1:
            raise ValueError(f"common denominator must be positive, got {denom}")
        self.rows = rows
        self.cols = cols
        self.denom = denom
        self.columns: dict[int, dict[int, int]] = {}
        for c, col in columns.items():
            nz = {r: x for r, x in col.items() if x}
            if nz:
                self.columns[c] = nz

    def iter_rows(self) -> Iterator[Vector]:
        """Dense rows of Fractions, as ``Matrix.iter_rows`` yields them."""
        by_row: dict[int, dict[int, int]] = {}
        for c, col in self.columns.items():
            for r, x in col.items():
                by_row.setdefault(r, {})[c] = x
        zero_row = (_ZERO,) * self.cols
        for r in range(self.rows):
            entries = by_row.get(r)
            if not entries:
                yield zero_row
                continue
            row = list(zero_row)
            for c, x in entries.items():
                row[c] = Fraction(x, self.denom)
            yield tuple(row)

    def __repr__(self) -> str:
        nnz = sum(len(col) for col in self.columns.values())
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={nnz}, denom={self.denom})"


def _echelon(vectors: Iterable[IntVector]) -> dict[int, dict[int, int]]:
    """Row echelon form of sparse integer vectors by fraction-free elimination.

    Returns the echelon keyed by pivot index; its size is the exact rank
    and its vectors span what the input spans (they are not reduced).

    Vectors are taken fewest nonzeros first, the Markowitz choice that
    keeps fill-in low.  Each is reduced against the echelon built so
    far: its smallest index is the pivot, a stored vector with the same
    pivot is cancelled by integer cross-multiplication, and the content
    (gcd of the entries) is divided out so the integers stay small.
    """
    echelon: dict[int, dict[int, int]] = {}
    for v in sorted(vectors, key=len):
        v = dict(v)
        while v:
            p = min(v)
            piv = echelon.get(p)
            if piv is None:
                g = gcd(*v.values())
                if g != 1:
                    v = {c: x // g for c, x in v.items()}
                echelon[p] = v
                break
            v = _cancel(v, piv, p)
    return echelon


def _combine(v: Iterable[tuple[int, int]],
             rows: Sequence[Iterable[tuple[int, int]]]) -> dict[int, int]:
    """The sum of x * rows[m] over the (m, x) of the sparse integer vector v, zero entries left out.

    Each row is an iterable of ``(index, numerator)`` pairs: a
    ``SparseRow``, or a dict's ``.items()``; ``rows`` may be any
    container indexed by m, a dict among them.  Zeros are dropped
    because ``_echelon`` would take an explicit zero as an entry.
    """
    acc: dict[int, int] = {}
    for m, x in v:
        for c, y in rows[m]:
            acc[c] = acc.get(c, 0) + x * y
    return {c: y for c, y in acc.items() if y}


def _cancel(v: dict[int, int], piv: dict[int, int], p: int) -> dict[int, int]:
    """``a*v - b*piv`` with ``a/b = piv[p]/v[p]`` in lowest terms, so entry p cancels.

    ``v`` is updated in place when ``a`` is 1; otherwise the scaled copy
    has its content divided out.
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


def _back_substitute(echelon: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The echelon with every entry at another vector's pivot cancelled.

    Vectors are taken from the largest pivot down; those already done
    are zero at every other pivot, so cancelling one of them from a
    vector changes it only at that pivot and at non-pivot indices.
    """
    reduced: dict[int, dict[int, int]] = {}
    for p in sorted(echelon, reverse=True):
        v = dict(echelon[p])
        for q in [c for c in v if c in reduced]:
            v = _cancel(v, reduced[q], q)
        reduced[p] = v
    return reduced


def _span(n: int, vectors: Iterable[IntVector]) -> "Subspace":
    """Canonical subspace of Q^n spanned by sparse integer vectors.

    The reduced echelon vectors are scaled to primitive integers with a
    positive pivot, which makes the rows canonical.
    """
    rows = []
    for p, v in sorted(_back_substitute(_echelon(vectors)).items()):
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        rows.append(tuple(sorted((c, x // g) for c, x in v.items())))
    return Subspace(n, tuple(rows))


def _kernel(n: int, vectors: Iterable[IntVector]) -> "Subspace":
    """Canonical subspace of the x in Q^n orthogonal to every given vector."""
    reduced = _back_substitute(_echelon(vectors))
    # x_f = d on a free index f forces x_p = -d * v[f] / v[p] for the
    # reduced vector v of each pivot p; d keeps every entry integral
    d = lcm(*(v[p] for p, v in reduced.items()))
    free = {f: {f: d} for f in range(n) if f not in reduced}
    for p, v in reduced.items():
        for c, x in v.items():
            if c != p:
                free[c][p] = -x * (d // v[p])
    return _span(n, free.values())


def _inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[dict[int, int]]]:
    """``(d, R)`` with R/d the inverse of a square integer matrix, R as sparse rows.

    Row p of the inverse is the right half of the reduced vector of
    [Q | I] pivoting at p, divided by its pivot entry; the pivots are
    0..n-1 exactly when Q is invertible, and SingularMatrix is raised
    otherwise.  R/d is in lowest terms: d = 1 for a unimodular Q.
    """
    n = len(rows)
    echelon = _echelon({**{c: x for c, x in enumerate(row) if x}, n + r: 1}
                       for r, row in enumerate(rows))
    if sorted(echelon) != list(range(n)):
        raise SingularMatrix("matrix is singular")
    reduced = _back_substitute(echelon)
    d = lcm(*(v[p] for p, v in reduced.items()))
    inv = [{c - n: x * (d // v[p]) for c, x in v.items() if c >= n}
           for p, v in sorted(reduced.items())]
    g = gcd(d, *(x for row in inv for x in row.values()))
    return d // g, [{c: x // g for c, x in row.items()} for row in inv]


def rank(m: SparseMatrix) -> int:
    """Exact rank of a sparse matrix, by one fraction-free elimination of its columns."""
    return len(_echelon(m.columns.values()))


class Subspace(NamedTuple):
    """Subspace of Q^n held by its canonical reduced rows as sparse primitive integer vectors."""

    ambient_dim: int
    rows: tuple[SparseRow, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, tuple(((i, 1),) for i in range(n)))

