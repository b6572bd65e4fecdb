"""Fingerprints and the multiplier-defect classification.

For a nilpotent non-abelian algebra the defect s picks the catalog
family: s = 0 forces H(1)+A(n-3); s = 1 forces L4524; s = 2 forces one
of L3414, L4524plusA1 or H(m)+A(n-2m-1) with m >= 2.  Membership is
decided by invariant pins (dimension counts), which suffice because the
candidate families have pairwise disjoint fingerprints.

A failed pin set for s in {0, 1, 2} is reported as a first-class
TheoremViolation result rather than an exception: the verification
sweeps exist to hunt for exactly that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .catalog import (
    FAMILY_H_PLUS_A,
    FAMILY_L3414,
    FAMILY_L4524,
    FAMILY_L4524_PLUS_A1,
)
from .liealg import LieAlgebra, NotNilpotent, center, lower_central_series
from .multiplier import schur_multiplier_dim


class AbelianAlgebra(ValueError):
    """Classification by s is scoped to non-abelian algebras."""


class Status(enum.Enum):
    CLASSIFIED = "Classified"
    OUT_OF_SCOPE = "OutOfScope"
    THEOREM_VIOLATION = "TheoremViolation"


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism invariants used to match an algebra to a family."""

    n: int
    derived_dim: int
    center_dim: int
    nilpotency_class: Optional[int]
    dim_m: int
    t: int
    s: int


@dataclass(frozen=True)
class ClassificationResult:
    status: Status
    family: Optional[str]
    params: tuple[int, ...]
    s_value: int
    notes: str
    fingerprint: Fingerprint


def fingerprint(L: LieAlgebra) -> Fingerprint:
    """All invariants the classification hypotheses mention, in one value."""
    series = lower_central_series(L)
    rep = schur_multiplier_dim(L)
    return Fingerprint(
        n=L.dim,
        derived_dim=series.derived_dim,
        center_dim=center(L).dim,
        nilpotency_class=series.nilpotency_class,
        dim_m=rep.dim_m,
        t=rep.t,
        s=rep.s,
    )


def classify(L: LieAlgebra) -> ClassificationResult:
    """Name the catalog family of a nilpotent non-abelian algebra by s.

    Raises NotNilpotent / AbelianAlgebra at the gate.  s >= 3 yields
    OutOfScope; a pin failure for s in {0, 1, 2} (or s < 0) yields
    TheoremViolation with the full fingerprint attached.
    """
    series = lower_central_series(L)
    if not series.is_nilpotent:
        raise NotNilpotent("classification requires a nilpotent algebra")
    if series.derived_dim == 0:
        raise AbelianAlgebra("classification requires a non-abelian algebra")
    fp = fingerprint(L)
    s = fp.s

    if s == 0:
        if fp.derived_dim == 1 and fp.n - fp.center_dim == 2:
            return ClassificationResult(
                Status.CLASSIFIED, FAMILY_H_PLUS_A, (1, fp.n - 3), s,
                "pins: derived_dim=1, (n-center_dim)/2=1", fp,
            )
        return _violation(fp, "s=0 but pins for H(1)+A(n-3) fail")

    if s == 1:
        if (fp.n == 5 and fp.derived_dim == 2 and fp.center_dim == 2
                and fp.nilpotency_class == 2):
            return ClassificationResult(
                Status.CLASSIFIED, FAMILY_L4524, (), s,
                "pins: n=5, derived_dim=2, center_dim=2, class=2", fp,
            )
        return _violation(fp, "s=1 but pins for L4524 fail")

    if s == 2:
        if fp.n == 4 and fp.derived_dim == 2 and fp.nilpotency_class == 3:
            return ClassificationResult(
                Status.CLASSIFIED, FAMILY_L3414, (), s,
                "pins: n=4, derived_dim=2, class=3", fp,
            )
        if (fp.n == 6 and fp.derived_dim == 2 and fp.center_dim == 3
                and fp.nilpotency_class == 2):
            return ClassificationResult(
                Status.CLASSIFIED, FAMILY_L4524_PLUS_A1, (), s,
                "pins: n=6, derived_dim=2, center_dim=3, class=2", fp,
            )
        if fp.derived_dim == 1 and (fp.n - fp.center_dim) % 2 == 0:
            m = (fp.n - fp.center_dim) // 2
            if m >= 2 and fp.dim_m == fp.n * (fp.n - 3) // 2:
                return ClassificationResult(
                    Status.CLASSIFIED, FAMILY_H_PLUS_A, (m, fp.n - 2 * m - 1),
                    s,
                    f"pins: derived_dim=1, m={m}>=2, dim_m=n(n-3)/2", fp,
                )
        return _violation(fp, "s=2 but no family pin set matches")

    if s >= 3:
        return ClassificationResult(
            Status.OUT_OF_SCOPE, None, (), s,
            f"s={s} is outside the classified range 0..2", fp,
        )

    return _violation(fp, f"s={s} < 0 on a non-abelian nilpotent algebra")


def _violation(fp: Fingerprint, why: str) -> ClassificationResult:
    return ClassificationResult(
        Status.THEOREM_VIOLATION, None, (), fp.s, why, fp
    )

