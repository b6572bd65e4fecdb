"""Named constructors for the classification families.

Families and their stable identifiers (shared with the CLI and the
classifier): abelian ``A(k)``, Heisenberg ``H(m)`` of dimension 2m+1,
the 4-dimensional filiform algebra ``L3414``, the 5-dimensional class-2
algebra ``L4524``, sums ``HplusA(m,k)`` and ``L4524plusA1``.

Each entry carries the closed-form multiplier dimension (and the s
defect where the family has one) so the homology computation can be
cross-checked against an independent formula.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .liealg import LieAlgebra, build, direct_sum

FAMILY_ABELIAN = "A"
FAMILY_HEISENBERG = "H"
FAMILY_L3414 = "L3414"
FAMILY_L4524 = "L4524"
FAMILY_H_PLUS_A = "HplusA"
FAMILY_L4524_PLUS_A1 = "L4524plusA1"


class CatalogEntry(NamedTuple):
    family: str
    params: tuple[int, ...]
    algebra: LieAlgebra
    expected_dim_m: Optional[int]
    expected_s: Optional[int]

    @property
    def label(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({','.join(str(p) for p in self.params)})"


def abelian(k: int) -> CatalogEntry:
    """A(k): dimension k, every bracket zero; dim M = k(k-1)/2."""
    if k < 0:
        raise ValueError(f"abelian dimension must be >= 0, got {k}")
    alg = build(k, [])
    return CatalogEntry(FAMILY_ABELIAN, (k,), alg, k * (k - 1) // 2, None)


def heisenberg(m: int) -> CatalogEntry:
    """H(m): dimension 2m+1, [e_{2i-1}, e_{2i}] = e_{2m+1} for i = 1..m.

    dim M = 2 for m = 1, otherwise 2m^2 - m - 1; the center and derived
    subalgebra both equal the span of the last basis vector.
    """
    if m < 1:
        raise ValueError(f"Heisenberg parameter must be >= 1, got {m}")
    n = 2 * m + 1
    alg = build(n, [(2 * i - 1, 2 * i, {n: 1}) for i in range(1, m + 1)])
    expected_dim_m = 2 if m == 1 else 2 * m * m - m - 1
    expected_s = 0 if m == 1 else 2
    return CatalogEntry(FAMILY_HEISENBERG, (m,), alg, expected_dim_m, expected_s)


def l_3_4_1_4() -> CatalogEntry:
    """The unique 4-dimensional nilpotent algebra with dim L^2 = 2.

    [e1,e2] = e3, [e1,e3] = e4: filiform of class 3; dim M = 2, s = 2.
    """
    alg = build(4, [(1, 2, {3: 1}), (1, 3, {4: 1})])
    return CatalogEntry(FAMILY_L3414, (), alg, 2, 2)


def l_4_5_2_4() -> CatalogEntry:
    """The 5-dimensional class-2 algebra [e1,e2] = e4, [e1,e3] = e5.

    Pinned by dim = 5, dim L^2 = 2, dim Z = 2, class 2, dim M = 6, s = 1.
    """
    alg = build(5, [(1, 2, {4: 1}), (1, 3, {5: 1})])
    return CatalogEntry(FAMILY_L4524, (), alg, 6, 1)


def heisenberg_plus_abelian(m: int, k: int) -> CatalogEntry:
    """H(m) + A(k); n = 2m+1+k.

    For m >= 2, dim M = n(n-3)/2 and s = 2; for m = 1 the sum has
    dim M = (n-1)(n-2)/2 + 1 and s = 0.
    """
    alg = direct_sum(heisenberg(m).algebra, abelian(k).algebra)
    n = 2 * m + 1 + k
    if m >= 2:
        expected_dim_m = n * (n - 3) // 2
        expected_s = 2
    else:
        expected_dim_m = (n - 1) * (n - 2) // 2 + 1
        expected_s = 0
    return CatalogEntry(FAMILY_H_PLUS_A, (m, k), alg, expected_dim_m, expected_s)


def l4524_plus_a1() -> CatalogEntry:
    """L4524 + A(1): dimension 6, dim M = 9, s = 2, dim Z = 3."""
    alg = direct_sum(l_4_5_2_4().algebra, abelian(1).algebra)
    return CatalogEntry(FAMILY_L4524_PLUS_A1, (), alg, 9, 2)


# family identifier -> constructor, whose parameters are the family's
_CONSTRUCTORS: dict[str, Callable[..., CatalogEntry]] = {
    FAMILY_ABELIAN: abelian,
    FAMILY_HEISENBERG: heisenberg,
    FAMILY_L3414: l_3_4_1_4,
    FAMILY_L4524: l_4_5_2_4,
    FAMILY_H_PLUS_A: heisenberg_plus_abelian,
    FAMILY_L4524_PLUS_A1: l4524_plus_a1,
}

FAMILIES = tuple(_CONSTRUCTORS)

# family identifier -> the dimension of its algebra, from the same parameters
_DIMENSIONS: dict[str, Callable[..., int]] = {
    FAMILY_ABELIAN: lambda k: k,
    FAMILY_HEISENBERG: lambda m: 2 * m + 1,
    FAMILY_L3414: lambda: 4,
    FAMILY_L4524: lambda: 5,
    FAMILY_H_PLUS_A: lambda m, k: 2 * m + 1 + k,
    FAMILY_L4524_PLUS_A1: lambda: 6,
}


def _constructor(family: str, params: tuple[int, ...]) -> Callable[..., CatalogEntry]:
    """The family's constructor, once the family is known and takes len(params) parameters."""
    make = _CONSTRUCTORS.get(family)
    if make is None:
        raise ValueError(f"unknown catalog family {family!r}")
    arity = make.__code__.co_argcount
    if len(params) != arity:
        noun = "parameter" if arity == 1 else "parameters"
        raise ValueError(f"{family} takes {arity} {noun}, got {len(params)}")
    return make


def dimension(family: str, params: tuple[int, ...] = ()) -> int:
    """The dimension of ``entry(family, params)``, read off the parameters without building it.

    Parameters the constructor refuses may give a negative number.
    """
    _constructor(family, params)
    return _DIMENSIONS[family](*params)


def entry(family: str, params: tuple[int, ...] = ()) -> CatalogEntry:
    """Dispatch a family identifier plus parameters to its constructor."""
    return _constructor(family, params)(*params)


def standard_entries(max_m: int, max_k: int) -> list[CatalogEntry]:
    """The sweep list used by the verification suites."""
    entries = [abelian(k) for k in range(0, max(max_k, 4) + 1)]
    entries += [heisenberg(m) for m in range(1, max_m + 1)]
    entries += [
        heisenberg_plus_abelian(m, k)
        for m in range(1, max_m + 1)
        for k in range(0, max_k + 1)
    ]
    entries += [l_3_4_1_4(), l_4_5_2_4(), l4524_plus_a1()]
    return entries
