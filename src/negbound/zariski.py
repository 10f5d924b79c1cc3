"""Zariski decomposition D = P + N relative to a finite candidate set of
irreducible negative curves.

The decomposition produced here is correct relative to the supplied
candidate set: P is only guaranteed non-negative against the listed
curves.  When the set is complete (it contains every irreducible curve of
negative self-intersection on the surface, e.g. the enumerated (-1)-classes
on a general-position del Pezzo model), the output is the true Zariski
decomposition.

A candidate set checks the rank and genus of its curves once per surface,
remembered by field equality, not on every call.

The exact elimination is the bordered LDL^T factor of ``lattice``:
``zariski_decompose`` grows one factor of the support Gram as curves join,
the subset oracle carries one down its walk, and ``validate_decomposition``
re-checks the final support through ``is_negative_definite``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .lattice import (
    DivisorClass,
    Factor,
    LatticeError,
    SurfaceModel,
    _border,
    format_class,
    is_negative_definite,
)
from .riemann_roch import curve_genus
from .values import value


class DecompositionError(ValueError):
    """The divisor is not decomposable relative to the candidate model."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


@value
class CandidateCurveSet:
    """A finite set of irreducible-curve classes, possibly of negative square.

    ``complete`` asserts (it cannot be checked here) that the set contains
    every irreducible curve of negative self-intersection on the surface.
    It remembers the surfaces (compared by fields) on which its curves
    passed the rank and genus checks.
    """

    curves: tuple[DivisorClass, ...]
    complete: bool = False

    def __post_init__(self) -> None:
        curves = tuple(self.curves)
        object.__setattr__(self, "curves", curves)
        seen = set()
        for c in curves:
            if c.coords in seen:
                raise LatticeError(f"duplicate candidate class ({', '.join(map(str, c.coords))})")
            seen.add(c.coords)
        # not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "_checked_on", set())

    def __len__(self) -> int:
        return len(self.curves)


@value
class ZariskiDecomposition:
    """The pair (P, N): nef part P, negative part N = sum a_i E_i with all
    a_i > 0 and negative-definite support Gram matrix, P orthogonal to the
    support."""

    nef_part: DivisorClass
    support: tuple[DivisorClass, ...]
    coefficients: tuple[Fraction, ...]

    def negative_part(self) -> DivisorClass:
        total = DivisorClass((Fraction(0),) * self.nef_part.rank)
        for a, e in zip(self.coefficients, self.support):
            total = total + a * e
        return total


def _solve(factor: Factor, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve M x = rhs exactly: border by rhs (D^-1 L^-1 rhs), then apply L^-T."""
    x = list(_border(factor, rhs, 0)[-1][0])
    for j in reversed(range(len(x))):
        for i, l in enumerate(factor[j][0]):
            x[i] -= l * x[j]
    return x


def _gram(surface: SurfaceModel, curves: Sequence[DivisorClass]) -> list[list[Fraction]]:
    return [[surface.dot(a, b) for b in curves] for a in curves]


def _check_inputs(
    surface: SurfaceModel, divisor: DivisorClass, candidates: CandidateCurveSet
) -> None:
    """Input checks shared by both decomposition routes."""
    if divisor.rank != surface.rank:
        raise LatticeError(
            f"divisor rank {divisor.rank} does not match surface rank {surface.rank}"
        )
    if surface not in candidates._checked_on:
        for c in candidates.curves:
            if c.rank != surface.rank:
                raise LatticeError(
                    f"candidate rank {c.rank} does not match surface rank {surface.rank}"
                )
            curve_genus(surface, c)
        candidates._checked_on.add(surface)
    if surface.dot(divisor, surface.polarization) < 0:
        raise DecompositionError(
            "divisor has negative degree against the polarization; "
            "not pseudoeffective at the lattice level"
        )


def validate_decomposition(
    surface: SurfaceModel,
    divisor: DivisorClass,
    candidates: CandidateCurveSet,
    dec: ZariskiDecomposition,
) -> None:
    """Check every defining property of a Zariski decomposition, exactly.

    Raises InvariantError on the first violation: the coordinate identity
    D = P + sum a_i E_i, positivity of the coefficients, negative
    definiteness of the support Gram matrix, orthogonality P.E_i = 0,
    non-negativity of P against every candidate, and P.P >= 0.
    """
    recombined = dec.nef_part + dec.negative_part()
    if recombined.coords != divisor.coords:
        raise InvariantError("P + N does not recombine to D")
    if any(a <= 0 for a in dec.coefficients):
        raise InvariantError("negative part has a non-positive coefficient")
    if not is_negative_definite(_gram(surface, dec.support)):
        raise InvariantError("support Gram matrix is not negative definite")
    for e in dec.support:
        if surface.dot(dec.nef_part, e) != 0:
            raise InvariantError("nef part is not orthogonal to the support")
    for c in candidates.curves:
        if surface.dot(dec.nef_part, c) < 0:
            raise InvariantError("nef part is negative against a candidate curve")
    if surface.dot(dec.nef_part, dec.nef_part) < 0:
        raise InvariantError("nef part has negative self-intersection")


def zariski_decompose(
    surface: SurfaceModel,
    divisor: DivisorClass,
    candidates: CandidateCurveSet,
) -> ZariskiDecomposition:
    """Iterative decomposition by support enlargement.

    Start with empty support S.  While the remainder P = D - sum a_i E_i is
    negative against some candidate outside S, add the first such candidate
    (in stored order), border the LDL^T factor of the Gram over S by its row,
    and re-solve (Gram over S) a = (D.E_i) on the factor.  The support only
    grows, so at most |candidates| rounds occur; the fixpoint is the unique
    decomposition, so the scan order does not matter.

    Rejects with DecompositionError when the input is not pseudoeffective
    relative to the candidate model: D.H < 0 up front, a support whose Gram
    matrix is not negative definite, a non-positive coefficient at the
    fixpoint, or a remainder of negative square.
    """
    _check_inputs(surface, divisor, candidates)

    order = candidates.curves
    support_idx: list[int] = []
    rhs: list[Fraction] = []
    factor: Factor = ()
    coeffs: list[Fraction] = []
    for _ in range(len(order) + 1):
        nef = divisor
        for a, i in zip(coeffs, support_idx):
            nef = nef - a * order[i]
        violator = None
        for i, curve in enumerate(order):
            if i not in support_idx and surface.dot(nef, curve) < 0:
                violator = i
                break
        if violator is None:
            break
        column = [surface.dot(order[i], curve) for i in support_idx]
        factor = _border(factor, column, surface.dot(curve, curve))
        support_idx.append(violator)
        if factor[-1][1] >= 0:
            names = ", ".join(format_class(surface.lattice, order[i]) for i in support_idx)
            raise DecompositionError(
                f"support {{{names}}} has a Gram matrix that is not negative "
                f"definite; divisor is not pseudoeffective relative to the "
                f"candidate model"
            )
        rhs.append(surface.dot(divisor, curve))
        coeffs = _solve(factor, rhs)
    else:  # pragma: no cover - the support strictly grows each round
        raise InvariantError("support enlargement failed to terminate")

    if any(a <= 0 for a in coeffs):
        raise DecompositionError(
            "orthogonality system produced a non-positive coefficient; "
            "divisor is not pseudoeffective relative to the candidate model"
        )
    if surface.dot(nef, nef) < 0:
        raise DecompositionError(
            "remainder has negative self-intersection; the candidate set "
            "does not account for all negativity of this divisor"
        )
    dec = ZariskiDecomposition(
        nef_part=nef,
        support=tuple(order[i] for i in support_idx),
        coefficients=tuple(coeffs),
    )
    validate_decomposition(surface, divisor, candidates, dec)
    return dec


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
