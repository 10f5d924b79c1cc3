"""Brute-force enumeration of negative curve classes on blow-ups of the
plane, and batch verification of the blow-up bounds against them.

Enumeration is restricted to blow-ups of the projective plane at n <= 8
points, where the general-position classification of negative curves is
classical and finite.  Hirzebruch and ruled blow-up models get spot-check
classes only (exceptional classes, fiber differences f - E_i, and the
negative section).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence

from .bounds import BoundReport, evaluate_curve
from .lattice import DivisorClass, LatticeError, SurfaceModel
from .riemann_roch import curve_genus
from .values import value
from .zariski import CandidateCurveSet


@value
class CurveClassQuery:
    """Search targets: classes C with C^2 = self_int and K.C = canonical_degree,
    of degree at most max_degree (if None, ``degree_cutoff``) against the line.
    A curve has arithmetic genus (C^2 + K.C)/2 + 1 >= 0, so C^2 + K.C < -2 is
    rejected: no curve has such a class."""

    surface: SurfaceModel
    self_int: int = -1
    canonical_degree: int = -1
    max_degree: int | None = None

    def __post_init__(self) -> None:
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.self_int + self.canonical_degree < -2:
            raise ValueError(
                f"C^2 + K.C = {self.self_int + self.canonical_degree} < -2 gives arithmetic "
                f"genus below 0; no curve has such a class"
            )


@value
class VerificationRun:
    """Bound reports for a batch of curve classes; ``failures`` lists the
    indices whose witnessed C^2 fell below the computed bound."""

    surface: SurfaceModel
    curves: tuple[DivisorClass, ...]
    reports: tuple[BoundReport, ...]
    failures: tuple[int, ...]


def degree_cutoff(n: int, self_int: int, canonical_degree: int) -> int:
    """Largest degree d a class dH - sum(m_i E_i) with C^2 = s and K.C = k
    can have on a blow-up of the plane at n <= 8 points (below 0: none).

    Such a class has sum(m_i) = 3d + k and sum(m_i^2) = d^2 - s, so
    Cauchy-Schwarz over the n multiplicities forces
    (3d + k)^2 <= n(d^2 - s), i.e. (9 - n)d^2 + 6kd + k^2 + ns <= 0, whose
    larger root is (-3k + sqrt(D))/(9 - n) with D = 9k^2 - (9-n)(k^2 + ns).
    Flooring with isqrt(D) in place of sqrt(D) is exact.
    """
    disc = 9 * canonical_degree**2 - (9 - n) * (canonical_degree**2 + n * self_int)
    return -1 if disc < 0 else (-3 * canonical_degree + isqrt(disc)) // (9 - n)


def _check_plane_blowup(surface: SurfaceModel) -> int:
    if surface.kind != "projective_plane":
        raise LatticeError(
            f"enumeration supports blow-ups of the plane only, got kind "
            f"{surface.kind!r}"
        )
    n = surface.n_blowups
    if n > 8:
        raise LatticeError(
            f"enumeration needs n <= 8 (finitely many negative classes), got n = {n}"
        )
    return n


def _multiplicity_vectors(slots: int, total: int, sq_total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `slots` non-negative integers with the given sum and sum
    of squares, in lexicographic order.  Prunes with sum^2 <= slots * sqsum
    (Cauchy-Schwarz) and sqsum <= sum^2 (non-negativity)."""
    if slots == 0:
        if total == 0 and sq_total == 0:
            yield ()
        return
    if total < 0 or sq_total < 0:
        return
    if total * total > slots * sq_total or sq_total > total * total:
        return
    hi = min(total, isqrt(sq_total))
    for v in range(0, hi + 1):
        for rest in _multiplicity_vectors(slots - 1, total - v, sq_total - v * v):
            yield (v,) + rest


def enumerate_classes(query: CurveClassQuery) -> tuple[DivisorClass, ...]:
    """All classes C = dH - sum(m_i E_i), 0 <= d <= max_degree, m_i >= 0,
    with C^2 = self_int and K.C = canonical_degree, plus the pure exceptional
    classes E_i when they match the targets.  Deterministic: sorted by
    coordinate vector, duplicate-free.  The degree loop stops at
    ``degree_cutoff``, past which no query has classes."""
    surface = query.surface
    n = _check_plane_blowup(surface)
    found: list[tuple[Fraction, ...]] = []
    if query.self_int == -1 and query.canonical_degree == -1:
        for e in surface.exceptional_classes():
            found.append(e.coords)

    cutoff = degree_cutoff(n, query.self_int, query.canonical_degree)
    top = cutoff if query.max_degree is None else min(cutoff, query.max_degree)
    for d in range(0, top + 1):
        total = 3 * d + query.canonical_degree  # sum of multiplicities
        sq_total = d * d - query.self_int  # sum of squared multiplicities
        if total < 0 or sq_total < 0:
            continue
        for mults in _multiplicity_vectors(n, total, sq_total):
            if d == 0 and all(m == 0 for m in mults):
                continue  # the zero class is not a curve class
            coords = (Fraction(d),) + tuple(Fraction(-m) for m in mults)
            found.append(coords)

    found.sort()
    return tuple(DivisorClass(c) for c in found)


def minus_one_classes(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    return enumerate_classes(CurveClassQuery(surface))


def minus_one_candidates(surface: SurfaceModel) -> CandidateCurveSet:
    """The enumerated (-1)-classes as a candidate set for Zariski
    decomposition.  On a general-position del Pezzo model (n <= 8) these are
    all the irreducible negative curves, so the set is complete."""
    return CandidateCurveSet(curves=minus_one_classes(surface), complete=True)


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


def verify_bounds(surface: SurfaceModel, curves: Sequence[DivisorClass]) -> VerificationRun:
    """Evaluate the chi-appropriate blow-up bound on every class and record
    which classes (if any) fall below it.  Violations are data, not errors.

    Every class must have non-negative integer arithmetic genus; anything
    else is not a curve class and is rejected.
    """
    curves = tuple(curves)
    for curve in curves:
        curve_genus(surface, curve)
    reports = tuple(evaluate_curve(surface, curve) for curve in curves)
    failures = tuple(i for i, report in enumerate(reports) if not report.satisfied)
    return VerificationRun(
        surface=surface, curves=curves, reports=reports, failures=failures
    )
