"""Schur multiplier dimension and the bound checks built on it.

The multiplier dimension is computed as the second homology of the
exterior chain complex Lambda^3 L -> Lambda^2 L -> L with trivial
coefficients: dim M = C(n,2) - rank(d2) - rank(d3).  Both exterior bases
are lexicographically ordered tuples, so the boundary matrices are
bit-reproducible.  The boundaries are sparse integer matrices over the
algebra's stored common denominator, generated from its stored integer
brackets, so building and ranking them costs what their nonzero entries
cost rather than the C(n,2) x C(n,3) shape.  Both ranks are isomorphism
invariants, so the complex is built on the algebra rewritten on a basis
adapted to its lower central series (``liealg.lcs_adapted``), where
[L^i, L^j] ⊆ L^(i+j) leaves most structure constants zero and d3 far
sparser than on a dense table.  Column (i,j,k) of d2 . d3 is, up to
sign, the Jacobi defect of (e_i, e_j, e_k), so ``first_jacobi_violation``
guards the complex on the adapted table it is built on.

Also provided as executable checks with witnesses: additivity of the
multiplier over direct sums (with the abelianization tensor term), the
central-quotient inequality, and the defect bounds t >= 0 / s >= 0 plus
the derived-dimension-parameterized bound.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple, Optional

from .liealg import (
    LieAlgebra,
    NotNilpotent,
    center,
    direct_sum,
    first_jacobi_violation,
    lcs_adapted,
    lower_central_series,
    quotient,
)
from .linalg import AmbientMismatch, SparseMatrix, Subspace, _echelon, rank


class ComplexNotExact(RuntimeError):
    """d2 . d3 != 0 on the table the complex is built on: an internal bug, not bad input."""


class NotCentral(ValueError):
    """The given ideal is not contained in the center."""


def _pair_offsets(n: int) -> list[int]:
    """pair[i] + j is the lex index of the pair (i, j), i < j, among the C(n,2)."""
    return [comb(n, 2) - comb(n - i, 2) - i - 1 for i in range(n)]


def _triple_offsets(n: int) -> tuple[list[int], list[int]]:
    """(first, second) with first[i] + second[j] + k the lex index of (i, j, k), i < j < k."""
    first = [comb(n, 3) - comb(n - i, 3) + comb(n - i - 1, 2) for i in range(n)]
    second = [-comb(n - j, 2) - j - 1 for j in range(n)]
    return first, second


def ce_d2(L: LieAlgebra) -> SparseMatrix:
    """Boundary Lambda^2 -> Lambda^1: column (i,j) is [e_i, e_j]."""
    n = L.dim
    pair = _pair_offsets(n)
    return SparseMatrix(n, comb(n, 2), L.denom,
                        {pair[i] + j: dict(coeffs) for i, j, coeffs in L.brackets})


def ce_d3(L: LieAlgebra) -> SparseMatrix:
    """Boundary Lambda^3 -> Lambda^2.

    Column (i,j,k) is [e_i,e_j]^e_k - [e_i,e_k]^e_j + [e_j,e_k]^e_i on
    the lex-ordered wedge bases.  Only triples that contain a stored
    bracket's pair can be nonzero, so the columns are generated from the
    stored brackets: each bracket [e_a,e_b] meets every third index t once.
    """
    n = L.dim
    pair = _pair_offsets(n)
    first, second = _triple_offsets(n)
    columns: dict[int, dict[int, int]] = {}
    for a, b, coeffs in L.brackets:
        for t in range(n):
            # the sorted triple {a, b, t}; the term [e_a,e_b]^e_t has sign
            # -1 exactly when t sits in the middle
            if t < a:
                col, sign = first[t] + second[a] + b, 1
            elif a < t < b:
                col, sign = first[a] + second[t] + b, -1
            elif t > b:
                col, sign = first[a] + second[b] + t, 1
            else:
                continue
            entries = columns.setdefault(col, {})
            for m, x in coeffs:
                # e_m ^ e_t on the lex basis
                if m < t:
                    r = pair[m] + t
                    entries[r] = entries.get(r, 0) + sign * x
                elif m > t:
                    r = pair[t] + m
                    entries[r] = entries.get(r, 0) - sign * x
    return SparseMatrix(comb(n, 2), comb(n, 3), L.denom, columns)


class MultiplierReport(NamedTuple):
    """Multiplier dimension with the defect invariants t and s.

    t = n(n-1)/2 - dim M measures the gap to the abelian maximum;
    s = (n-1)(n-2)/2 + 1 - dim M is the sharper non-abelian defect.
    """

    n: int
    dim_m: int
    t: int
    s: int
    rank_d2: int
    rank_d3: int


@lru_cache(maxsize=None)
def schur_multiplier_dim(L: LieAlgebra) -> MultiplierReport:
    """dim M(L) = C(n,2) - rank(d2) - rank(d3) on ``lcs_adapted(L)``, with t and s filled in."""
    n = L.dim
    adapted = lcs_adapted(L)
    bad = first_jacobi_violation(adapted)
    if bad is not None:
        raise ComplexNotExact(f"d2 . d3 is nonzero: Jacobi defect at {bad[0]} of the adapted table")
    d2 = ce_d2(adapted)
    d3 = ce_d3(adapted)
    r2 = rank(d2)
    r3 = rank(d3)
    lam2 = n * (n - 1) // 2
    dim_m = lam2 - r2 - r3
    return MultiplierReport(
        n=n,
        dim_m=dim_m,
        t=lam2 - dim_m,
        s=(n - 1) * (n - 2) // 2 + 1 - dim_m,
        rank_d2=r2,
        rank_d3=r3,
    )


def tensor_term_dim(h: LieAlgebra, k_dim: int) -> int:
    """dim of (H / H^2) tensored with an abelian ideal of dimension k_dim."""
    if k_dim < 0:
        raise ValueError("k_dim must be non-negative")
    return (h.dim - lower_central_series(h).derived_dim) * k_dim


class KunnethCheck(NamedTuple):
    """Both sides of the direct-sum multiplier formula, computed independently."""

    holds: bool
    lhs: int  # dim M(L1 + L2) by homology on the sum
    rhs: int  # dim M(L1) + dim M(L2) + abelianization tensor term
    dim_m_left: int
    dim_m_right: int
    tensor_dim: int


def check_kunneth(l1: LieAlgebra, l2: LieAlgebra) -> KunnethCheck:
    lhs = schur_multiplier_dim(direct_sum(l1, l2)).dim_m
    m1 = schur_multiplier_dim(l1).dim_m
    m2 = schur_multiplier_dim(l2).dim_m
    ten = tensor_term_dim(l1, l2.dim - lower_central_series(l2).derived_dim)
    rhs = m1 + m2 + ten
    return KunnethCheck(lhs == rhs, lhs, rhs, m1, m2, ten)


class QuotientBoundCheck(NamedTuple):
    """Terms of dim M(L) + dim(L^2 meet K) <= dim M(L/K) + dim M(K) + tensor."""

    holds: bool
    dim_m_total: int
    derived_meet_ideal: int
    dim_m_quotient: int
    dim_m_ideal: int
    tensor_dim: int

    @property
    def lhs(self) -> int:
        return self.dim_m_total + self.derived_meet_ideal

    @property
    def rhs(self) -> int:
        return self.dim_m_quotient + self.dim_m_ideal + self.tensor_dim


def check_quotient_bound(L: LieAlgebra, k: Subspace) -> QuotientBoundCheck:
    """Evaluate the central-quotient inequality for a central ideal K.

    K must lie inside the center (NotCentral otherwise); its own
    multiplier is the abelian closed form dim(K)(dim(K)-1)/2.  Both
    subspace questions are echelon sizes: K lies in Z exactly when Z's
    rows plus K's still echelon to dim Z vectors, and
    dim(L^2 meet K) = dim L^2 + dim K - dim(L^2 + K), where L^2 + K is
    spanned by the stored brackets and K's rows.
    """
    if k.ambient_dim != L.dim:
        raise AmbientMismatch(f"subspace ambient {k.ambient_dim} != dim {L.dim}")
    z = center(L)
    if len(_echelon([*z.rows, *k.rows])) != z.dim:
        raise NotCentral("K is not contained in the center")
    h = quotient(L, k)
    m_total = schur_multiplier_dim(L).dim_m
    dk = k.dim
    spanned = len(_echelon([*(coeffs for _, _, coeffs in L.brackets), *k.rows]))
    meet = lower_central_series(L).derived_dim + dk - spanned
    m_quot = schur_multiplier_dim(h).dim_m
    m_ideal = dk * (dk - 1) // 2
    ten = tensor_term_dim(h, dk)
    return QuotientBoundCheck(
        holds=m_total + meet <= m_quot + m_ideal + ten,
        dim_m_total=m_total,
        derived_meet_ideal=meet,
        dim_m_quotient=m_quot,
        dim_m_ideal=m_ideal,
        tensor_dim=ten,
    )


class DefectBoundsCheck(NamedTuple):
    """t >= 0, s >= 0 (non-abelian only) and the derived-dim bound."""

    holds: bool
    n: int
    dim_m: int
    t: int
    abelian: bool
    s: Optional[int]          # None when abelian (claim out of scope there)
    derived_dim: int
    derived_bound: Optional[int]  # (n+k-2)(n-k-1)/2 + 1 for k = dim L^2 >= 1


def check_defect_bounds(L: LieAlgebra) -> DefectBoundsCheck:
    """Verify the defect bounds for a nilpotent algebra (NotNilpotent otherwise)."""
    series = lower_central_series(L)
    if not series.is_nilpotent:
        raise NotNilpotent("defect bounds apply to nilpotent algebras")
    rep = schur_multiplier_dim(L)
    k = series.derived_dim
    abelian = k == 0
    derived_bound = None if abelian else (rep.n + k - 2) * (rep.n - k - 1) // 2 + 1
    return DefectBoundsCheck(
        holds=rep.t >= 0 and (abelian or (rep.s >= 0 and rep.dim_m <= derived_bound)),
        n=rep.n,
        dim_m=rep.dim_m,
        t=rep.t,
        abelian=abelian,
        s=None if abelian else rep.s,
        derived_dim=k,
        derived_bound=derived_bound,
    )
