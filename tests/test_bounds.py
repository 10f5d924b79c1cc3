"""The bound evaluators: pivot multiple, blow-up bounds, single-surface and
family bounds, with spot values recomputed by hand."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from negbound import (
    BoundInputs,
    blowup_bound,
    family_bound,
    family_bound_terms,
    surface_bound,
)
from negbound.bounds import (
    CASE_K2_GT_N,
    CASE_K2_LE_N,
    RULE_BLOWUP_CHI_GE1,
    RULE_BLOWUP_CHI_LT1,
    SURFACE_CASE_ANTIK_EFFECTIVE,
    SURFACE_CASE_BIADJOINT_NONTRIVIAL,
    SURFACE_CASE_BIADJOINT_TRIVIAL,
)
from oracles import pivot_multiple


def p2_inputs(degree: int, n: int) -> BoundInputs:
    return BoundInputs(degree=degree, a0=3, h2=1, k2_base=9, n=n, chi=1)


def test_pivot_multiple_spot_values():
    assert pivot_multiple(0, 3) == 1
    assert pivot_multiple(3, 3) == 2
    assert pivot_multiple(2, 3) == 1


def test_pivot_multiple_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pivot_multiple(-1, 3)
    with pytest.raises(ValueError):
        pivot_multiple(2, 0)


@given(st.integers(0, 500), st.integers(1, 50))
def test_pivot_multiple_bracket_and_minimality(degree, a0):
    m = pivot_multiple(degree, a0)
    assert degree - a0 * m <= -1
    assert Fraction(degree + 1, a0) <= m <= max(1, Fraction(degree + a0, a0))
    for smaller in range(1, m):
        assert degree - a0 * smaller > -1


@given(st.integers(1, 50), st.integers(1, 100), st.integers(0, 200))
def test_pivot_multiple_shift_law(a0, h2, degree):
    if pivot_multiple(degree, a0) == 1:
        assert pivot_multiple(degree + a0 * h2, a0) == h2 + 1


def test_plane_bound_many_points():
    report = blowup_bound(p2_inputs(degree=1, n=10))
    assert report.rule == RULE_BLOWUP_CHI_GE1
    assert report.case == CASE_K2_LE_N
    assert report.term_pivot_upper == Fraction(-11, 3)
    assert report.term_unit_pivot == Fraction(-10)
    assert report.bound == Fraction(-10)
    assert report.term_pivot_lower is None


def test_plane_bound_one_point_exceptional():
    report = blowup_bound(p2_inputs(degree=0, n=1))
    assert report.rule == RULE_BLOWUP_CHI_GE1
    assert report.case == CASE_K2_GT_N
    assert report.term_pivot_lower == Fraction(-5, 3)
    assert report.term_unit_pivot == Fraction(-4)
    assert report.bound == Fraction(-4)
    # a (-1)-class satisfies it
    assert -1 >= report.bound


def test_plane_bound_boundary_nine_points():
    report = blowup_bound(p2_inputs(degree=1, n=9))
    assert report.rule == RULE_BLOWUP_CHI_GE1
    assert report.case == CASE_K2_LE_N
    assert report.term_pivot_upper == Fraction(-3)
    assert report.term_unit_pivot == Fraction(-9)
    assert report.bound == Fraction(-9)


def test_elliptic_ruled_bound():
    inputs = BoundInputs(degree=0, a0=7, h2=7, k2_base=0, n=1, chi=0)
    report = blowup_bound(inputs)
    assert report.rule == RULE_BLOWUP_CHI_LT1
    assert report.case == CASE_K2_LE_N
    assert report.term_pivot_upper == Fraction(-9, 2)
    assert report.term_unit_pivot == Fraction(-393, 7)
    assert report.bound == Fraction(-393, 7)


def test_case_tie_goes_to_k2_le_n():
    inputs = BoundInputs(degree=0, a0=7, h2=7, k2_base=0, n=0, chi=0)
    report = blowup_bound(inputs)
    assert (report.rule, report.case) == (RULE_BLOWUP_CHI_LT1, CASE_K2_LE_N)


def test_genus_two_ruled_bound():
    # base: ruled surface with genus 2, twist degree -4
    inputs = BoundInputs(degree=5, a0=12, h2=14, k2_base=-8, n=2, chi=-1)
    report = blowup_bound(inputs)
    assert report.rule == RULE_BLOWUP_CHI_LT1
    assert report.case == CASE_K2_LE_N
    # hand substitution: -1 + (17/24)(-10) - 4 and (15/2)(-10) - 144 - 3 + 58/14
    assert report.term_pivot_upper == Fraction(-145, 12)
    assert report.term_unit_pivot == Fraction(-1525, 7)
    assert report.bound == min(Fraction(-145, 12), Fraction(-1525, 7))


def test_dispatcher_picks_by_chi():
    assert blowup_bound(p2_inputs(0, 1)).rule == "blowup_chi_ge1"
    low = BoundInputs(degree=0, a0=7, h2=7, k2_base=0, n=1, chi=0)
    assert blowup_bound(low).rule == "blowup_chi_lt1"


def closed_form_terms(i: BoundInputs) -> tuple[str, Fraction, Fraction, Fraction]:
    """The two blow-up rules as separate closed forms: (rule, upper, lower,
    unit), with chi >= 1 offsets -3 / a0*d/H^2 and chi < 1 offsets
    chi - 4 / (a0*d + chi - 1)/H^2."""
    k2 = i.k2_base - i.n
    base_unit = Fraction(i.h2 + 1, 2) * k2 - i.a0**2 - 3
    if i.chi >= 1:
        return (
            RULE_BLOWUP_CHI_GE1,
            Fraction(i.degree + i.a0, 2 * i.a0) * k2 - 3,
            Fraction(i.degree + 1, 2 * i.a0) * k2 - 3,
            base_unit + Fraction(i.a0 * i.degree, i.h2),
        )
    return (
        RULE_BLOWUP_CHI_LT1,
        i.chi + Fraction(i.degree + i.a0, 2 * i.a0) * k2 - 4,
        i.chi + Fraction(i.degree + 1, 2 * i.a0) * k2 - 4,
        base_unit + Fraction(i.a0 * i.degree + i.chi - 1, i.h2),
    )


@settings(max_examples=400)
@given(
    degree=st.integers(0, 60),
    a0=st.integers(1, 20),
    h2=st.integers(1, 30),
    k2_base=st.integers(-40, 10),
    n=st.integers(0, 30),
    chi=st.integers(-6, 4),
)
@example(degree=1, a0=3, h2=1, k2_base=9, n=10, chi=1)  # chi >= 1, K^2 <= n
@example(degree=1, a0=3, h2=1, k2_base=9, n=8, chi=1)  # chi >= 1, K^2 > n
@example(degree=0, a0=7, h2=7, k2_base=0, n=1, chi=0)  # chi < 1, K^2 <= n
@example(degree=5, a0=2, h2=3, k2_base=6, n=2, chi=-1)  # chi < 1, K^2 > n
def test_blowup_bound_matches_separate_closed_forms(degree, a0, h2, k2_base, n, chi):
    inputs = BoundInputs(degree=degree, a0=a0, h2=h2, k2_base=k2_base, n=n, chi=chi)
    rule, upper, lower, unit = closed_form_terms(inputs)
    report = blowup_bound(inputs)
    assert report.rule == rule
    assert report.term_unit_pivot == unit
    if k2_base <= n:
        assert report.case == CASE_K2_LE_N
        assert (report.term_pivot_upper, report.term_pivot_lower) == (upper, None)
        assert report.bound == min(upper, unit)
    else:
        assert report.case == CASE_K2_GT_N
        assert (report.term_pivot_upper, report.term_pivot_lower) == (None, lower)
        assert report.bound == min(lower, unit)


def test_bounds_monotone_nonincreasing_in_n():
    for chi, k2_base, a0, h2 in [(1, 9, 3, 1), (0, 0, 7, 7), (-1, -8, 12, 14)]:
        for degree in (0, 1, 5, 12):
            previous = None
            for n in range(0, 25):
                inputs = BoundInputs(degree=degree, a0=a0, h2=h2, k2_base=k2_base, n=n, chi=chi)
                bound = blowup_bound(inputs).bound
                if previous is not None:
                    assert bound <= previous
                previous = bound


def test_report_bound_is_min_of_populated_terms():
    for degree in (0, 2, 7):
        for n in (0, 3, 9, 15):
            report = blowup_bound(p2_inputs(degree, n))
            populated = [
                t
                for t in (
                    report.term_pivot_upper,
                    report.term_pivot_lower,
                    report.term_unit_pivot,
                )
                if t is not None
            ]
            assert len(populated) == 2
            assert report.bound == min(populated)


def test_surface_bound_cases():
    assert surface_bound(SURFACE_CASE_ANTIK_EFFECTIVE, 1, 9, 3) == -2
    assert surface_bound(SURFACE_CASE_BIADJOINT_TRIVIAL, 1, 9, 3) == 7
    assert surface_bound(SURFACE_CASE_BIADJOINT_NONTRIVIAL, 1, 8, 4, pg=0) == -2


def test_surface_bound_rejects_unknown_case():
    with pytest.raises(ValueError, match="unknown case"):
        surface_bound("case3", 1, 9, 3)


def test_family_bound_plane_fiber():
    assert family_bound(1, 9, 3, 10, 0) == -3


def test_family_bound_quadric_fiber():
    # h0(-K) on the quadric = number of bidegree-(2,2) monomials = 9
    assert family_bound(1, 8, 4, 9, 1) == -4


def test_family_bound_large_genus_term_dominates():
    terms = dict(family_bound_terms(1, 8, 4, 5, 100))
    assert terms["genus"] == 8 - 12 + 2 - 200
    assert family_bound(1, 8, 4, 5, 100) == terms["genus"]


def test_family_bound_never_above_minus_two():
    for chi in (-2, 0, 1, 2):
        for k2 in (-8, 0, 8, 9):
            c2 = 12 * chi - k2
            for l in (1, 5, 30):
                for pg in (0, 2, 10):
                    assert family_bound(chi, k2, c2, l, pg) <= -2


def test_family_bound_rejects_bad_l():
    with pytest.raises(ValueError, match="l"):
        family_bound(1, 9, 3, 0, 0)


def test_family_bound_rejects_negative_pg():
    with pytest.raises(ValueError, match="geometric genus"):
        family_bound(1, 9, 3, 1, -1)


def test_inputs_validation():
    with pytest.raises(ValueError, match="a0"):
        BoundInputs(degree=0, a0=0, h2=1, k2_base=9, n=0, chi=1)
    with pytest.raises(ValueError, match="H"):
        BoundInputs(degree=0, a0=3, h2=0, k2_base=9, n=0, chi=1)
    with pytest.raises(ValueError, match="degree"):
        BoundInputs(degree=-1, a0=3, h2=1, k2_base=9, n=0, chi=1)

