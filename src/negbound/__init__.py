"""Exact Neron-Severi lattice models of blown-up surfaces, Zariski
decomposition relative to finite candidate curve sets, and exact lower
bounds on self-intersections of integral curves."""

from .bounds import (
    BoundInputs,
    BoundReport,
    blowup_bound,
    evaluate_curve,
    family_bound,
    family_bound_terms,
    inputs_for_curve,
    inputs_for_degree,
    surface_bound,
)
from .enumeration import (
    CurveClassQuery,
    enumerate_classes,
    minus_one_candidates,
    minus_one_classes,
    verify_bounds,
)
from .lattice import (
    DivisorClass,
    IntersectionForm,
    LatticeError,
    SurfaceModel,
    blow_up,
    custom_surface,
    format_class,
    hirzebruch,
    intersect,
    is_negative_definite,
    projective_plane,
    ruled_surface,
)
from .riemann_roch import arithmetic_genus, curve_genus
from .zariski import (
    CandidateCurveSet,
    DecompositionError,
    InvariantError,
    ZariskiDecomposition,
    validate_decomposition,
    zariski_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "BoundReport",
    "CandidateCurveSet",
    "CurveClassQuery",
    "DecompositionError",
    "DivisorClass",
    "IntersectionForm",
    "InvariantError",
    "LatticeError",
    "SurfaceModel",
    "ZariskiDecomposition",
    "arithmetic_genus",
    "blow_up",
    "blowup_bound",
    "curve_genus",
    "custom_surface",
    "enumerate_classes",
    "evaluate_curve",
    "family_bound",
    "family_bound_terms",
    "format_class",
    "hirzebruch",
    "inputs_for_curve",
    "inputs_for_degree",
    "intersect",
    "is_negative_definite",
    "minus_one_candidates",
    "minus_one_classes",
    "projective_plane",
    "ruled_surface",
    "surface_bound",
    "validate_decomposition",
    "verify_bounds",
    "zariski_decompose",
]
