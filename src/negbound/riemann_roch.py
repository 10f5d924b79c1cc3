"""Adjunction: the arithmetic genus of a class, and the one rule that says
which classes are curve classes.

Cohomology dimensions h^0, h^1, h^2 of arbitrary divisors are never
computed here: they require geometric data the lattice model does not
carry.  Only quantities polynomial in lattice data, such as p_a by
adjunction, are available.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, LatticeError, SurfaceModel, format_class


def curve_genus(surface: SurfaceModel, curve: DivisorClass) -> int:
    """p_a of a curve class; a class with a non-integer coordinate, or whose
    adjunction genus is not a non-negative integer, is not a curve class
    and is rejected."""
    pa = arithmetic_genus(surface, curve)
    if any(c.denominator != 1 for c in curve.coords):
        reason = "a non-integer coordinate"
    elif pa.denominator != 1 or pa < 0:
        reason = f"arithmetic genus {pa}"
    else:
        return int(pa)
    raise LatticeError(f"{format_class(surface.lattice, curve)} has {reason}; not a curve class")


def arithmetic_genus(surface: SurfaceModel, curve: DivisorClass) -> Fraction:
    """p_a(C) = C.(C + K)/2 + 1 by adjunction.

    Returns an exact rational; honest curve classes give a non-negative
    integer, and callers treat anything else as "not a curve class".
    """
    c2 = surface.dot(curve, curve)
    kc = surface.dot(surface.canonical, curve)
    return (c2 + kc) / 2 + 1
