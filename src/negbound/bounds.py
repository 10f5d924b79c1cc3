"""Exact lower bounds for self-intersections of integral curves.

Two families of evaluators live here.

* Blow-up bounds: for a curve C on the blow-up at n points of a surface X
  with -K_X effective and a very ample L of degree a0 = -K_X.L > 0, split
  on chi(O_X) >= 1 versus chi(O_X) < 1 and on K_X^2 <= n versus K_X^2 > n.
  Each case takes the minimum of two of three candidate terms built from
  the pivot multiple m_C (see ``pivot_multiple``): a term using its upper
  bracket estimate, one using its lower bracket estimate, and one from the
  unit-pivot case handled through the degree-shifted curve C + a0*H.

* Single-surface and family bounds: the anticanonical bound
  min(-2, chi + K^2 - h0(-K) - 3), the three general-surface cases keyed on
  effectivity of -K and on sections of the bi-adjoint class 2(K + C), and
  the fibered-family bound combining all four quantities.

Everything returns exact rationals.  Whether -K_X is actually effective and
L actually very ample cannot be seen by the lattice model; reports carry
those hypotheses as explicitly caller-asserted.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, SurfaceModel
from .values import value

RULE_BLOWUP_CHI_GE1 = "blowup_chi_ge1"
RULE_BLOWUP_CHI_LT1 = "blowup_chi_lt1"
RULE_ANTICANONICAL = "anticanonical"
RULE_SURFACE = "surface"
RULE_FAMILY = "family"

CASE_K2_LE_N = "k2_le_n"
CASE_K2_GT_N = "k2_gt_n"
CASE_NOT_APPLICABLE = "not_applicable"

# Cases of the general-surface bound, keyed on h0(-K) and h0(2(K+C)).
SURFACE_CASE_ANTIK_EFFECTIVE = "antik_effective"
SURFACE_CASE_BIADJOINT_TRIVIAL = "biadjoint_trivial"
SURFACE_CASE_BIADJOINT_NONTRIVIAL = "biadjoint_nontrivial"

CALLER_HYPOTHESES = ("anticanonical_effective", "polarization_very_ample")


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


@value
class BoundInputs:
    """Numerical inputs for the bound evaluators.

    ``degree`` is C.H, ``k2_base`` is K^2 of the un-blown-up base surface,
    ``n`` the number of blown-up points.
    """

    degree: int
    a0: int
    h2: int
    k2_base: int
    n: int
    chi: int

    def __post_init__(self) -> None:
        if self.a0 < 1:
            raise ValueError(f"a0 must be a positive integer, got {self.a0}")
        if self.h2 < 1:
            raise ValueError(f"H^2 must be a positive integer, got {self.h2}")
        if self.degree < 0:
            raise ValueError(f"degree C.H must be non-negative, got {self.degree}")
        if self.n < 0:
            raise ValueError(f"blow-up count must be non-negative, got {self.n}")


@value
class BoundReport:
    """Outcome of one bound evaluation.

    ``bound`` is the minimum of the populated terms.  ``term_pivot_upper``
    uses the upper bracket estimate of the pivot multiple (populated when
    K^2 <= n), ``term_pivot_lower`` the lower estimate (when K^2 > n), and
    ``term_unit_pivot`` comes from the unit-pivot case via the shifted
    curve; it is populated in both cases.
    """

    rule: str
    case: str
    bound: Fraction
    term_pivot_upper: Fraction | None = None
    term_pivot_lower: Fraction | None = None
    term_unit_pivot: Fraction | None = None
    witnessed_c2: int | None = None
    satisfied: bool | None = None
    hypotheses: tuple[str, ...] = ()


def _require_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {value}")
    return int(value)


def inputs_for_degree(surface: SurfaceModel, degree: int) -> BoundInputs:
    """Assemble BoundInputs from a surface model and a curve degree C.H."""
    return BoundInputs(
        degree=int(degree),
        a0=_require_int(surface.a0, "a0 = -K.H"),
        h2=_require_int(surface.h2, "H^2"),
        k2_base=_require_int(surface.k2_base, "base K^2"),
        n=surface.n_blowups,
        chi=surface.chi,
    )


def inputs_for_curve(surface: SurfaceModel, curve: DivisorClass) -> BoundInputs:
    degree = _require_int(surface.dot(curve, surface.polarization), "degree C.H")
    return inputs_for_degree(surface, degree)


def blowup_bound(inputs: BoundInputs) -> BoundReport:
    """Blow-up bound, with the chi(O_X) >= 1 and chi(O_X) < 1 rules in one.

    With k2 = K^2 - n and c = min(chi - 1, 0) the two cases are
        K^2 <= n:  bound = min(upper, unit)
        K^2 >  n:  bound = min(unit, lower)
    where
        upper = c + (degree + a0)/(2*a0) * k2 - 3
        lower = c + (degree + 1)/(2*a0) * k2 - 3
        unit  = (H^2 + 1)/2 * k2 - a0^2 - 3 + (a0*degree + c)/H^2

    The unit-pivot constant is -3 in both rules, as the general derivation
    gives; a worked ruled-surface specialization of the chi < 1 rule states
    -4 instead, and report emitters flag that difference.
    """
    c = min(inputs.chi - 1, 0)
    k2_top = Fraction(inputs.k2_base - inputs.n)
    upper = c + Fraction(inputs.degree + inputs.a0, 2 * inputs.a0) * k2_top - 3
    lower = c + Fraction(inputs.degree + 1, 2 * inputs.a0) * k2_top - 3
    unit = (
        Fraction(inputs.h2 + 1, 2) * k2_top
        - inputs.a0**2
        - 3
        + Fraction(inputs.a0 * inputs.degree + c, inputs.h2)
    )
    le_n = inputs.k2_base <= inputs.n
    return BoundReport(
        rule=RULE_BLOWUP_CHI_GE1 if inputs.chi >= 1 else RULE_BLOWUP_CHI_LT1,
        case=CASE_K2_LE_N if le_n else CASE_K2_GT_N,
        bound=min(upper, unit) if le_n else min(unit, lower),
        term_pivot_upper=upper if le_n else None,
        term_pivot_lower=None if le_n else lower,
        term_unit_pivot=unit,
        hypotheses=CALLER_HYPOTHESES,
    )


def blowup_bound_chi_ge1(inputs: BoundInputs) -> BoundReport:
    """``blowup_bound`` restricted to base surfaces with chi(O_X) >= 1."""
    if inputs.chi < 1:
        raise ValueError(
            f"chi(O_X) = {inputs.chi} < 1: use blowup_bound_chi_lt1 instead"
        )
    return blowup_bound(inputs)


def blowup_bound_chi_lt1(inputs: BoundInputs) -> BoundReport:
    """``blowup_bound`` restricted to base surfaces with chi(O_X) < 1."""
    if inputs.chi >= 1:
        raise ValueError(
            f"chi(O_X) = {inputs.chi} >= 1: use blowup_bound_chi_ge1 instead"
        )
    return blowup_bound(inputs)


def evaluate_curve(surface: SurfaceModel, curve: DivisorClass) -> BoundReport:
    """Evaluate the blow-up bound for a concrete curve class and record the
    witnessed self-intersection and whether the bound is satisfied."""
    report = blowup_bound(inputs_for_curve(surface, curve))
    witnessed = _require_int(surface.dot(curve, curve), "C^2")
    return BoundReport(
        report.rule, report.case, report.bound,
        report.term_pivot_upper, report.term_pivot_lower, report.term_unit_pivot,
        witnessed_c2=witnessed, satisfied=witnessed >= report.bound, hypotheses=report.hypotheses,
    )


def anticanonical_bound(chi: int, k2: int, h0_antik: int) -> Fraction:
    """min(-2, chi + K^2 - h0(-K) - 3), valid when h0(-K) > 0."""
    if h0_antik < 1:
        raise ValueError(
            f"the anticanonical bound requires h0(-K) >= 1, got {h0_antik}"
        )
    return Fraction(min(-2, chi + k2 - h0_antik - 3))


def surface_bound(case: str, chi: int, k2: int, c2: int, pg: int = 0) -> Fraction:
    """The general-surface bound, by case.

    * ``antik_effective``: h0(-K) != 0, C not among the finitely many
      exceptional components: C^2 >= -2.
    * ``biadjoint_trivial``: h0(-K) = 0 and h0(2(K+C)) = 0:
      C^2 >= K^2 + chi - 3.
    * ``biadjoint_nontrivial``: h0(-K) = 0 and h0(2(K+C)) != 0:
      C^2 >= K^2 - 3*c2 + 2 - 2*pg.
    """
    if case == SURFACE_CASE_ANTIK_EFFECTIVE:
        return Fraction(-2)
    if case == SURFACE_CASE_BIADJOINT_TRIVIAL:
        return Fraction(k2 + chi - 3)
    if case == SURFACE_CASE_BIADJOINT_NONTRIVIAL:
        if pg < 0:
            raise ValueError(f"geometric genus must be non-negative, got {pg}")
        return Fraction(k2 - 3 * c2 + 2 - 2 * pg)
    raise ValueError(
        f"unknown case {case!r}; expected one of "
        f"{SURFACE_CASE_ANTIK_EFFECTIVE!r}, {SURFACE_CASE_BIADJOINT_TRIVIAL!r}, "
        f"{SURFACE_CASE_BIADJOINT_NONTRIVIAL!r}"
    )


def family_bound_terms(
    chi: int, k2: int, c2: int, l: int, pg: int
) -> tuple[tuple[str, Fraction], ...]:
    """The four quantities whose minimum bounds vertical curves in a fibered
    family of surfaces: chi, K^2, c2 are the (fiber-independent) invariants
    of a smooth fiber, l >= 1 an upper bound for h0(-K) over all smooth
    fibers, pg the geometric genus of the curve."""
    if l < 1:
        raise ValueError(f"the fiber h0(-K) upper bound l must be >= 1, got {l}")
    if pg < 0:
        raise ValueError(f"geometric genus must be non-negative, got {pg}")
    return (
        ("minus_two", Fraction(-2)),
        ("anticanonical", Fraction(chi + k2 - 3 - l)),
        ("chi", Fraction(k2 + chi - 3)),
        ("genus", Fraction(k2 - 3 * c2 + 2 - 2 * pg)),
    )


def family_bound(chi: int, k2: int, c2: int, l: int, pg: int) -> Fraction:
    """min of the four fibered-family terms; always <= -2."""
    return min(value for _, value in family_bound_terms(chi, k2, c2, l, pg))
