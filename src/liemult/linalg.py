"""Exact linear algebra over the rationals.

Ranks, kernels, inverses and the subspace lattice (span, sum,
intersection, membership).  Scalars are ``fractions.Fraction``; every
elimination runs on one kernel, ``_echelon``, a fraction-free echelon
of sparse integer vectors, and ``_subspace`` back-substitutes its
output to the canonical reduced rows.  Membership is an echelon size
too: v lies in A exactly when A's rows plus v still echelon to dim A
vectors.  Rank decisions are exact by construction; no floating point
enters anywhere.

Subspaces are kept canonical: the basis is the reduced row echelon form
of any spanning set, with unit pivots in strictly increasing columns,
zeros above each pivot and no zero rows.  Two ``Subspace`` values
therefore compare equal exactly when they describe the same subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, str, Fraction]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class AmbientMismatch(ValueError):
    """Arguments live in different ambient spaces (or have wrong length)."""


class SingularMatrix(ValueError):
    """Inversion requested for a non-invertible matrix."""


def rat(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(xs: Iterable[Scalar]) -> Vector:
    return tuple(rat(x) for x in xs)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(_ONE if c == i else _ZERO for c in range(n))


@dataclass(frozen=True)
class Matrix:
    """Dense matrix of rationals, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

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

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(
            _ONE if r == c else _ZERO for r in range(n) for c in range(n)
        ))

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> Vector:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def iter_rows(self) -> Iterable[Vector]:
        for r in range(self.rows):
            yield self.row(r)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrix(f"{self.rows}x{self.cols} matrix is not square")
        n = self.rows
        aug = Matrix.from_rows(
            [list(self.row(r)) + list(unit_vector(n, r)) for r in range(n)],
            cols=2 * n,
        )
        echelon = _echelon(_integer_rows(aug))
        if sorted(echelon) != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix.from_rows(
            [row[n:] for row in _subspace(2 * n, echelon).basis_rows()], cols=n
        )

    def __repr__(self) -> str:
        if self.rows * self.cols <= 64:
            body = ", ".join(
                "[" + ", ".join(str(x) for x in self.row(r)) + "]"
                for r in range(self.rows)
            )
            return f"Matrix({self.rows}x{self.cols}: {body})"
        return f"Matrix({self.rows}x{self.cols})"


def vec_mat(v: Sequence[Fraction], m: Matrix) -> Vector:
    """Row vector times matrix."""
    if len(v) != m.rows:
        raise AmbientMismatch(f"vector length {len(v)} != rows {m.rows}")
    out = [_ZERO] * m.cols
    for r, x in enumerate(v):
        if x:
            base = r * m.cols
            for c in range(m.cols):
                y = m.entries[base + c]
                if y:
                    out[c] += x * y
    return tuple(out)


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

    def at(self, r: int, c: int) -> Fraction:
        col = self.columns.get(c)
        return Fraction(col.get(r, 0) if col else 0, self.denom)

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


def _integer_rows(m: Matrix) -> Iterator[dict[int, int]]:
    """Nonzero rows of a dense matrix as sparse integer vectors (row denominators cleared)."""
    for row in m.iter_rows():
        nz = {c: x for c, x in enumerate(row) if x}
        if nz:
            scale = lcm(*(x.denominator for x in nz.values()))
            yield {c: x.numerator * (scale // x.denominator) for c, x in nz.items()}


def _echelon(vectors: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
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


def _subspace(n: int, echelon: dict[int, dict[int, int]]) -> "Subspace":
    """Canonical subspace of Q^n spanned by an echelon of sparse integer vectors."""
    entries = []
    reduced = _back_substitute(echelon)
    for p in sorted(reduced):
        v = reduced[p]
        row = [_ZERO] * n
        for c, x in v.items():
            row[c] = Fraction(x, v[p])
        entries.extend(row)
    return Subspace(n, Matrix(len(reduced), n, tuple(entries)))


def _kernel(n: int, vectors: Iterable[dict[int, int]]) -> "Subspace":
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
    return _subspace(n, _echelon(free.values()))


def rank(m: Union[Matrix, SparseMatrix]) -> int:
    """Exact rank of a dense or sparse matrix, by one fraction-free sparse elimination."""
    if isinstance(m, SparseMatrix):
        return len(_echelon(m.columns.values()))
    return len(_echelon(_integer_rows(m)))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n held by its canonical reduced-row-echelon basis."""

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise AmbientMismatch(
                f"basis width {self.basis.cols} != ambient dim {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, Matrix(0, n, ()))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, Matrix.identity(n))

    @classmethod
    def from_vectors(cls, n: int, vecs: Sequence[Sequence[Scalar]]) -> "Subspace":
        return row_space(Matrix.from_rows(vecs, cols=n) if vecs else Matrix(0, n, ()))

    def basis_rows(self) -> Iterable[Vector]:
        return self.basis.iter_rows()

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={self.basis!r})"


def row_space(m: Matrix) -> Subspace:
    """Canonical subspace spanned by the rows of ``m``."""
    return _subspace(m.cols, _echelon(_integer_rows(m)))


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the right kernel { v : m v = 0 }."""
    return _kernel(m.cols, _integer_rows(m))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient dims {a.ambient_dim} != {b.ambient_dim}")
    rows = list(a.basis_rows()) + list(b.basis_rows())
    return Subspace.from_vectors(a.ambient_dim, rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B by Zassenhaus: echelon the rows (a|a) and (b|0) in Q^2n.

    The echelon vectors pivoting in the right half are (0|w), and their
    w span A ∩ B.
    """
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient dims {a.ambient_dim} != {b.ambient_dim}")
    n = a.ambient_dim
    rows = [{**v, **{c + n: x for c, x in v.items()}} for v in _integer_rows(a.basis)]
    rows.extend(_integer_rows(b.basis))
    echelon = _echelon(rows)
    return _subspace(n, {p - n: {c - n: x for c, x in v.items()}
                         for p, v in echelon.items() if p >= n})


def contains(a: Subspace, v: Sequence[Fraction]) -> bool:
    """Exact membership: v lies in A iff the echelon of A's rows plus v keeps size dim A."""
    n = a.ambient_dim
    if len(v) != n:
        raise AmbientMismatch(f"vector length {len(v)} != ambient {n}")
    rows = Matrix(a.dim + 1, n, a.basis.entries + vector(v))
    return len(_echelon(_integer_rows(rows))) == a.dim
