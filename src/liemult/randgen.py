"""Deterministic randomization for the verification sweeps.

A fixed 64-bit linear congruential generator keeps every seeded sweep
reproducible byte-for-byte, independent of the host platform or of
Python's own RNG:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
    output = top 32 bits of state'
    randint(lo, hi) = lo + output mod (hi - lo + 1)

Random algebras are never drawn by sampling raw structure constants
(independent random tables essentially never satisfy Jacobi); instead
valid algebras are transported by random unimodular base changes and
random central quotients, which stay inside the nilpotent class.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .liealg import LieAlgebra, _transport, center, quotient
from .linalg import Matrix, Subspace, _combine, _span

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """The documented linear congruential stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u32(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u32() % (hi - lo + 1)

    def choice(self, seq: Sequence):
        return seq[self.randint(0, len(seq) - 1)]


def _unimodular(n: int, rng: Lcg, steps: Optional[int] = None, inverse: bool = True
                ) -> tuple[list[list[int]], Optional[list[dict[int, int]]]]:
    """Rows of an integer Q built from shears, swaps and negations, and the sparse rows of Q^-1.

    Every step keeps |det| = 1 and is mirrored on Q^-1 by the inverse column
    operation: "row i += lam row j" by "column j -= lam column i", a swap or
    negation of rows by the same on columns.  So Q^-1 is exact, with no elimination.
    With ``inverse`` false the mirror is skipped and None stands for Q^-1;
    the draws of ``rng``, and so Q, are the same either way.
    """
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    cols = [list(row) for row in rows] if inverse else None  # the columns of Q^-1
    if n >= 2:
        if steps is None:
            steps = 2 * n + 2
        for _ in range(steps):
            op = rng.randint(0, 3)
            if op <= 1:  # shear twice as often as the other ops
                i = rng.randint(0, n - 1)
                j0 = rng.randint(0, n - 2)
                j = j0 + (1 if j0 >= i else 0)
                lam = rng.choice((-2, -1, 1, 2))
                rows[i] = [a + lam * b for a, b in zip(rows[i], rows[j])]
                if inverse:
                    cols[j] = [a - lam * b for a, b in zip(cols[j], cols[i])]
            elif op == 2:
                i = rng.randint(0, n - 1)
                j = rng.randint(0, n - 1)
                rows[i], rows[j] = rows[j], rows[i]
                if inverse:
                    cols[i], cols[j] = cols[j], cols[i]
            else:
                i = rng.randint(0, n - 1)
                rows[i] = [-a for a in rows[i]]
                if inverse:
                    cols[i] = [-a for a in cols[i]]
    if not inverse:
        return rows, None
    return rows, [{c: x for c, x in enumerate(r) if x} for r in zip(*cols)]


def random_unimodular(n: int, rng: Lcg, steps: Optional[int] = None) -> Matrix:
    """The unimodular Q of ``_unimodular`` as a ``Matrix``, from the same draws of ``rng``.

    Only the rows are built: a ``Matrix`` caller that wants Q^-1 eliminates for it.
    """
    return Matrix.from_rows(_unimodular(n, rng, steps, inverse=False)[0], cols=n)


def random_change_of_basis(L: LieAlgebra, rng: Lcg) -> LieAlgebra:
    """The same algebra written on a random unimodular basis, in integers throughout."""
    rows, inv = _unimodular(L.dim, rng)
    return _transport(L, rows, (1, inv))


def random_central_subspace(L: LieAlgebra, rng: Lcg,
                            min_dim: int = 0) -> Subspace:
    """Span of random integer combinations of central basis vectors.

    The target dimension is drawn from [min_dim, dim Z]; the span may
    come out smaller when combinations collide, which is fine for the
    sweeps.  Always contained in the center, hence always an ideal.
    """
    z = center(L)
    if z.dim == 0 or min_dim > z.dim:
        return Subspace.zero(L.dim)
    d = rng.randint(min_dim, z.dim)
    # the reduced rows with unit pivots are z.rows divided by their
    # pivots; scaling all of them by the lcm of the pivots keeps the span
    pivots = lcm(*(row[0][1] for row in z.rows))
    scale = [pivots // row[0][1] for row in z.rows]
    # each combination draws its z.dim weights in [-2, 2] in row order
    vecs = [_combine(enumerate([rng.randint(-2, 2) * f for f in scale]), z.rows)
            for _ in range(d)]
    return _span(L.dim, vecs)


def random_central_quotient(L: LieAlgebra, rng: Lcg) -> Optional[LieAlgebra]:
    """Quotient by a random nonzero central subspace; None when Z(L) = 0."""
    k = random_central_subspace(L, rng, min_dim=1)
    if k.dim == 0:
        return None
    return quotient(L, k)
