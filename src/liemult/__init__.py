"""Exact-arithmetic invariants of finite-dimensional Lie algebras.

Structure-constant tables over the rationals with exact computation of
the derived dimension, center, lower central series, Schur multiplier
dimension (second homology of the exterior chain complex), the defect
invariants t and s, and classification of nilpotent algebras with
s in {0, 1, 2} into their catalog families.

The top level exports the three entry points of the README; everything
else is imported from its module (``liemult.catalog``, ``liemult.liealg``,
``liemult.verify``, ...).
"""

from .classifier import classify
from .liealg import build
from .multiplier import schur_multiplier_dim

__version__ = "0.1.0"

__all__ = ["build", "classify", "schur_multiplier_dim"]
