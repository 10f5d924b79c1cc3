"""Second routes that tests compare the library against, kept out of the
shipped package because no CLI task runs them: the exhaustive-subset Zariski
oracle, the Riemann-Roch polynomial and chi-level C^2 identity, the pivot
multiple m_C of the blow-up bound, and real negative classes on Hirzebruch
and ruled blow-ups.  Import them as ``from oracles import ...``."""

from __future__ import annotations

from fractions import Fraction

from negbound.lattice import DivisorClass, Factor, LatticeError, SurfaceModel, _border
from negbound.riemann_roch import arithmetic_genus
from negbound.zariski import (
    CandidateCurveSet,
    DecompositionError,
    InvariantError,
    ZariskiDecomposition,
    _check_inputs,
    _gram,
    _solve,
)


def zariski_brute_force(
    surface: SurfaceModel,
    divisor: DivisorClass,
    candidates: CandidateCurveSet,
) -> ZariskiDecomposition:
    """Independent oracle: exhaust all candidate subsets.

    Every subset with a negative-definite Gram matrix is tried as a support:
    solve the orthogonality system, keep the subsets whose coefficients are
    all positive and whose remainder is non-negative against every candidate
    (and of non-negative square).  Exactly one decomposition may survive;
    it must agree with the iterative algorithm.

    The subset walk prunes hard: a principal submatrix of a negative-definite
    matrix is negative definite, so supersets of a failed subset are skipped,
    and for a one-element extension of a good subset only the last pivot
    of the extended Gram matrix needs checking.
    """
    if len(candidates) > 20:
        raise DecompositionError(
            f"brute-force oracle is limited to 20 candidates, got {len(candidates)}"
        )
    _check_inputs(surface, divisor, candidates)

    order = candidates.curves
    full_gram = _gram(surface, order)
    rhs_all = [surface.dot(divisor, c) for c in order]
    found: list[ZariskiDecomposition] = []

    def consider(idx: list[int], factor: Factor) -> None:
        chosen = [order[i] for i in idx]
        coeffs = _solve(factor, [rhs_all[i] for i in idx])
        if any(a <= 0 for a in coeffs):
            return
        nef = divisor
        for a, c in zip(coeffs, chosen):
            nef = nef - a * c
        if any(surface.dot(nef, c) < 0 for c in order):
            return
        if surface.dot(nef, nef) < 0:
            return
        found.append(
            ZariskiDecomposition(
                nef_part=nef, support=tuple(chosen), coefficients=tuple(coeffs)
            )
        )

    def extend(idx: list[int], factor: Factor, start: int) -> None:
        for j in range(start, len(order)):
            # bordered step: idx is already negative definite, so its pivots
            # are negative and only the last one is new
            ext = _border(factor, [full_gram[i][j] for i in idx], full_gram[j][j])
            if ext[-1][1] >= 0:
                continue
            consider(idx + [j], ext)
            extend(idx + [j], ext, j + 1)

    consider([], ())
    extend([], (), 0)

    if not found:
        raise DecompositionError(
            "no candidate subset yields a valid decomposition; divisor is "
            "not pseudoeffective relative to the candidate model"
        )
    first = found[0]
    for other in found[1:]:
        same = (
            other.nef_part.coords == first.nef_part.coords
            and {e.coords for e in other.support} == {e.coords for e in first.support}
        )
        if not same:
            raise InvariantError(
                "candidate model admits more than one decomposition; "
                "the candidate set violates the uniqueness assumptions"
            )
    return first


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


def pivot_multiple(degree: int, a0: int) -> int:
    """Smallest positive integer m with degree - a0*m <= -1, i.e. the least
    multiple of the canonical class making m*K + C negative against H.

    Equals max(1, ceil((degree + 1)/a0)) and always sits in the bracket
    (degree + 1)/a0 <= m <= (degree + a0)/a0.
    """
    degree = int(degree)
    a0 = int(a0)
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if a0 < 1:
        raise ValueError(f"a0 must be a positive integer, got {a0}")
    return max(1, -(-(degree + 1) // a0))


def spot_check_classes(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    """Negative classes worth checking on hirzebruch/ruled blow-up models:
    the exceptional classes, the fiber differences f - E_i, and the negative
    section C0 when C0^2 < 0."""
    if surface.kind not in ("hirzebruch", "ruled"):
        raise LatticeError(
            f"spot-check classes are defined for hirzebruch/ruled models, "
            f"got kind {surface.kind!r}"
        )
    classes: list[DivisorClass] = []
    section = surface.lattice.basis_class(0)
    if surface.dot(section, section) < 0:
        classes.append(section)
    fiber = surface.lattice.basis_class(1)
    for e in surface.exceptional_classes():
        classes.append(e)
        classes.append(fiber - e)
    return tuple(classes)
