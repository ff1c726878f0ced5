"""Exact calculator for bounded double complexes over Q(i).

Decides the ddc and ddc+3 conditions through all of their equivalent
characterizations, computes the full zoo of cohomological functors
(de Rham, Dolbeault, Bott-Chern, Aeppli, the d^c complexes, purity
obstruction groups), zigzag decompositions, Hodge filtrations and
spectral pages, synthesizes geometric model complexes, and evaluates a
rational-homotopy obstruction criterion on finite cdga presentations.
"""

from .errors import (
    AmbientMismatch,
    CharacterizationMismatch,
    Inconsistent,
    InfiniteDimensional,
    InputError,
    InternalError,
    InvalidInput,
    InvalidShape,
    NoPoincareDuality,
    NotABicomplex,
    NotStabilized,
    ShapeMismatch,
    UnknownPreset,
    ZZError,
)
from .linalg import Matrix, Scalar, Subspace

__version__ = "0.1.0"
