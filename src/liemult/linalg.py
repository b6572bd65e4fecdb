"""Exact linear algebra over the rationals.

Canonical reduced row echelon forms, ranks, kernels, and the subspace
lattice (span, sum, intersection, membership), all over
``fractions.Fraction``.  Rank decisions are exact by construction; no
floating point enters anywhere.

Subspaces are kept canonical: the basis is the reduced row echelon form
of any spanning set, with strictly increasing pivot columns and no zero
rows.  Two ``Subspace`` values therefore compare equal exactly when they
describe the same subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

Rational = Fraction  # the scalar field for everything in this package

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

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise AmbientMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for r in range(self.rows):
            row = self.row(r)
            for c in range(other.cols):
                acc = _ZERO
                for k, x in enumerate(row):
                    if x:
                        y = other.entries[k * other.cols + c]
                        if y:
                            acc += x * y
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise AmbientMismatch(f"vector length {len(v)} != cols {self.cols}")
        out = []
        for r in range(self.rows):
            acc = _ZERO
            base = r * self.cols
            for c, x in enumerate(v):
                if x:
                    y = self.entries[base + c]
                    if y:
                        acc += x * y
            out.append(acc)
        return tuple(out)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrix(f"{self.rows}x{self.cols} matrix is not square")
        n = self.rows
        aug = Matrix.from_rows(
            [list(self.row(r)) + list(unit_vector(n, r)) for r in range(n)],
            cols=2 * n if n else 0,
        )
        if n == 0:
            return self
        reduced, pivots = rref(aug)
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix.from_rows(
            [reduced.row(r)[n:] for r in range(n)], cols=n
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


class RrefResult(NamedTuple):
    matrix: Matrix
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form with its pivot columns.

    Leftmost-pivot, unit-leading-entry convention; the result has the
    same shape as the input (zero rows sink to the bottom).
    """
    rows = [list(m.row(r)) for r in range(m.rows)]
    pivots: list[int] = []
    rk = 0
    for c in range(m.cols):
        if rk == len(rows):
            break
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), -1)
        if piv < 0:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        prow = rows[rk]
        pv = prow[c]
        if pv != 1:
            inv = _ONE / pv
            rows[rk] = prow = [x * inv for x in prow]
        for i in range(len(rows)):
            if i != rk:
                a = rows[i][c]
                if a:
                    ri = rows[i]
                    # columns before c of prow are zero, skip them
                    ri[c:] = [x - a * y for x, y in zip(ri[c:], prow[c:])]
        pivots.append(c)
        rk += 1
    flat = tuple(x for row in rows for x in row)
    return RrefResult(Matrix(m.rows, m.cols, flat), tuple(pivots))


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
            a, b = piv[p], v[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            # v <- a*v - b*piv cancels v[p]
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
    return echelon


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

    def contains(self, v: Sequence[Fraction]) -> bool:
        return contains(self, v)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, basis={self.basis!r})"


def row_space(m: Matrix) -> Subspace:
    """Canonical subspace spanned by the rows of ``m``."""
    reduced, pivots = rref(m)
    rows = [reduced.row(r) for r in range(len(pivots))]
    return Subspace(m.cols, Matrix.from_rows(rows, cols=m.cols))


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of the right kernel { v : m v = 0 }."""
    reduced, pivots = rref(m)
    n = m.cols
    pivot_set = set(pivots)
    vecs = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [_ZERO] * n
        v[f] = _ONE
        for r, p in enumerate(pivots):
            coef = reduced.at(r, f)
            if coef:
                v[p] = -coef
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient dims {a.ambient_dim} != {b.ambient_dim}")
    rows = list(a.basis_rows()) + list(b.basis_rows())
    return Subspace.from_vectors(a.ambient_dim, rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient dims {a.ambient_dim} != {b.ambient_dim}")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    # columns = basis vectors of a then b; kernel rows give the vanishing
    # combinations, whose a-part sweeps out the intersection
    cols = a.dim + b.dim
    grid = []
    for coord in range(n):
        row = [a.basis.at(i, coord) for i in range(a.dim)]
        row += [b.basis.at(i, coord) for i in range(b.dim)]
        grid.append(row)
    ker = kernel_basis(Matrix.from_rows(grid, cols=cols))
    vecs = []
    for w in ker.basis_rows():
        v = [_ZERO] * n
        for i in range(a.dim):
            if w[i]:
                arow = a.basis.row(i)
                for c in range(n):
                    if arow[c]:
                        v[c] += w[i] * arow[c]
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


def contains(a: Subspace, v: Sequence[Fraction]) -> bool:
    """Exact membership test of a vector in a subspace."""
    if len(v) != a.ambient_dim:
        raise AmbientMismatch(f"vector length {len(v)} != ambient {a.ambient_dim}")
    residual = list(v)
    for row in a.basis_rows():
        p = next((c for c, x in enumerate(row) if x), None)
        if p is None:
            continue
        coef = residual[p]
        if coef:
            for c in range(p, len(residual)):
                if row[c]:
                    residual[c] -= coef * row[c]
    return not any(residual)
