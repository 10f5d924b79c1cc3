"""Adjunction, Euler characteristics of divisors, and the chi-level
self-intersection identity.

Cohomology dimensions h^0, h^1, h^2 of arbitrary divisors are never
computed here: they require geometric data the lattice model does not
carry.  Only the Euler characteristic chi(D), a polynomial in lattice
data, is available, and the identity below is stated and verified at
that level.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, LatticeError, SurfaceModel, format_class
from .values import value


@value
class GenusData:
    """The genus pair of a genuine curve: arithmetic genus pa, and geometric
    genus pg of the normalization, with 0 <= pg <= pa.

    pa comes out of adjunction; pg is always user-supplied, since the
    lattice model cannot see it.
    """

    pa: int
    pg: int

    def __post_init__(self) -> None:
        if not 0 <= self.pg <= self.pa:
            raise ValueError(
                f"genus pair needs 0 <= pg <= pa, got pg = {self.pg}, pa = {self.pa}"
            )


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


def genus_data(surface: SurfaceModel, curve: DivisorClass, pg: int = 0) -> GenusData:
    """Genus pair for a curve class (see ``curve_genus``)."""
    return GenusData(pa=curve_genus(surface, curve), pg=int(pg))


def arithmetic_genus(surface: SurfaceModel, curve: DivisorClass) -> Fraction:
    """p_a(C) = C.(C + K)/2 + 1 by adjunction.

    Returns an exact rational; honest curve classes give a non-negative
    integer, and callers treat anything else as "not a curve class".
    """
    c2 = surface.dot(curve, curve)
    kc = surface.dot(surface.canonical, curve)
    return (c2 + kc) / 2 + 1


def chi_of_divisor(surface: SurfaceModel, divisor: DivisorClass) -> Fraction:
    """chi(O_X(D)) = chi(O_X) + D.(D - K)/2 by Riemann-Roch on a surface."""
    return surface.chi + surface.dot(divisor, divisor - surface.canonical) / 2


def self_intersection_from_chi(
    surface: SurfaceModel, curve: DivisorClass, m: int
) -> Fraction:
    """Reconstruct C^2 from chi(m*K + C), for any integer m != 1.

    This is the chi-level form of the identity expressing C^2 through the
    Riemann-Roch data of the twisted class m*K + C:

        C^2 = chi(O_X)/(m-1) + (m/2)*K^2 + 2*p_a + p_a/(m-1)
              - 2 - 1/(m-1) - chi(m*K + C)/(m-1)

    It holds exactly for every class C and every integer m != 1, which the
    test suite checks against the direct pairing.
    """
    m = int(m)
    if m == 1:
        raise ValueError("m = 1 is excluded: the identity divides by m - 1")
    t = Fraction(1, m - 1)
    pa = arithmetic_genus(surface, curve)
    twisted = m * surface.canonical + curve
    return (
        surface.chi * t
        + Fraction(m, 2) * surface.k2
        + 2 * pa
        + pa * t
        - 2
        - t
        - chi_of_divisor(surface, twisted) * t
    )
