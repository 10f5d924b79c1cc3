"""Negative-class enumeration on plane blow-ups and batch bound verification."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from negbound import (
    CurveClassQuery,
    DivisorClass,
    LatticeError,
    arithmetic_genus,
    blow_up,
    enumerate_classes,
    hirzebruch,
    minus_one_classes,
    projective_plane,
    ruled_surface,
    verify_bounds,
)
from negbound.enumeration import degree_cutoff
from oracles import spot_check_classes

# classical counts of (-1)-classes on general-position plane blow-ups
EXPECTED_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


def bl(n: int):
    return blow_up(projective_plane(), n)


def slow_minus_one_classes(n: int, max_degree: int = 10) -> set[tuple]:
    """Independent oracle: plain nested search over all multiplicity boxes up
    to a deliberately larger degree cutoff."""
    surface = bl(n)
    out: set[tuple] = set()
    for e in surface.exceptional_classes():
        out.add(tuple(e.coords))
    for d in range(0, max_degree + 1):
        box = range(0, isqrt(d * d + 1) + 1)
        for mults in product(box, repeat=n):
            if d == 0 and all(m == 0 for m in mults):
                continue
            if d * d - sum(m * m for m in mults) != -1:
                continue
            if -3 * d + sum(mults) != -1:
                continue
            out.add((Fraction(d),) + tuple(Fraction(-m) for m in mults))
    return out


def test_cutoff_derivation():
    # (3d-1)^2 <= n(d^2+1) worked out per n
    assert [degree_cutoff(n, -1, -1) for n in range(1, 9)] == [0, 1, 1, 1, 2, 2, 3, 7]
    # the closed form is the largest degree passing the inequality
    for n in range(1, 9):
        passing = [d for d in range(0, 1001) if (3 * d - 1) ** 2 <= n * (d * d + 1)]
        assert degree_cutoff(n, -1, -1) == max(passing)


@pytest.mark.parametrize("n", range(0, 9))
def test_every_query_stops_at_the_degree_cutoff(n):
    """Past the Cauchy-Schwarz cutoff no degree passes (3d + k)^2 <= n(d^2 - s),
    so a huge max_degree returns the same classes as one just past it."""
    surface = bl(n) if n else projective_plane()
    for s, k in product(range(-2, 3), repeat=2):
        cutoff = degree_cutoff(n, s, k)
        passing = [d for d in range(-500, 501) if (3 * d + k) ** 2 <= n * (d * d - s)]
        assert not passing or max(passing) == cutoff
        if s + k < -2 or (s + k) % 2:
            continue  # arithmetic genus below 0 or odd C^2 + K.C: the query is refused

        def classes(max_degree):
            return enumerate_classes(CurveClassQuery(surface, s, k, max_degree))

        assert classes(10**6) == classes(max(1, cutoff + 5))


def test_minus_one_query_stops_at_cutoff():
    """The (-1) query stops at the cutoff, so a huge max_degree returns the
    same classes as the standard query."""
    surface = bl(8)
    query = CurveClassQuery(surface=surface, self_int=-1, canonical_degree=-1, max_degree=10**6)
    assert enumerate_classes(query) == minus_one_classes(surface)


def test_single_point_gives_one_class():
    classes = minus_one_classes(bl(1))
    assert [tuple(c.coords) for c in classes] == [(0, 1)]


def test_three_points_give_six_classes():
    classes = minus_one_classes(bl(3))
    labels = {tuple(c.coords) for c in classes}
    assert labels == {
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, -1, -1, 0),
        (1, -1, 0, -1),
        (1, 0, -1, -1),
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_match_classical_values(n):
    assert len(minus_one_classes(bl(n))) == EXPECTED_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 5))
def test_agreement_with_larger_cutoff_oracle(n):
    fast = {tuple(c.coords) for c in minus_one_classes(bl(n))}
    assert fast == slow_minus_one_classes(n, max_degree=10)


@pytest.mark.parametrize("n", range(1, 9))
def test_classes_are_rational_minus_one_curves(n):
    surface = bl(n)
    for c in minus_one_classes(surface):
        assert surface.dot(c, c) == -1
        assert surface.dot(surface.canonical, c) == -1
        assert arithmetic_genus(surface, c) == 0
        # the polarization is nef on the enumerated candidates
        assert surface.dot(c, surface.polarization) >= 0


def test_enumeration_is_sorted_and_duplicate_free():
    for n in (3, 6, 8):
        classes = minus_one_classes(bl(n))
        keys = [tuple(c.coords) for c in classes]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumeration_rejects_other_kinds():
    with pytest.raises(LatticeError, match="plane"):
        enumerate_classes(
            CurveClassQuery(
                surface=blow_up(hirzebruch(1), 1),
                self_int=-1,
                canonical_degree=-1,
                max_degree=3,
            )
        )


def test_enumeration_rejects_many_points():
    with pytest.raises(LatticeError, match="n <= 8"):
        enumerate_classes(
            CurveClassQuery(
                surface=bl(9), self_int=-1, canonical_degree=-1, max_degree=3
            )
        )


def test_query_without_curves_is_rejected():
    """C^2 + K.C < -2 means arithmetic genus below 0: no curve has such a
    class, so the query is refused before any enumeration."""
    for s, k in ((-6, 0), (-4, 1), (-50, 0), (-1, -2)):
        with pytest.raises(ValueError, match="arithmetic genus below 0"):
            CurveClassQuery(surface=bl(6), self_int=s, canonical_degree=k)
    # the boundary C^2 + K.C = -2 is genus 0, the (-1)- and (-2)-curves
    for s, k in ((-1, -1), (-2, 0), (-3, 1)):
        query = CurveClassQuery(surface=bl(6), self_int=s, canonical_degree=k)
        for c in enumerate_classes(query):
            assert arithmetic_genus(query.surface, c) == 0


def test_odd_query_is_rejected():
    """Every integral class has an even C^2 + K.C (Wu parity), so a query
    with an odd sum is refused before any enumeration."""
    for s, k in ((-1, 0), (0, -1), (-2, 1), (1, 2), (-3, 2)):
        with pytest.raises(ValueError, match="is odd"):
            CurveClassQuery(surface=bl(6), self_int=s, canonical_degree=k)


def test_minus_two_query():
    # (-2)-classes with K.C = 0: differences E_i - E_j are not of the
    # searched shape, but dH - sum m_i E_i solutions exist for d >= 1,
    # e.g. H - E1 - E2 - E3.
    surface = bl(3)
    classes = enumerate_classes(
        CurveClassQuery(surface=surface, self_int=-2, canonical_degree=0, max_degree=3)
    )
    assert (Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1)) in {
        tuple(c.coords) for c in classes
    }
    for c in classes:
        assert surface.dot(c, c) == -2
        assert surface.dot(surface.canonical, c) == 0


def test_verify_bounds_del_pezzo_has_no_failures():
    for n in range(1, 9):
        surface = bl(n)
        classes = minus_one_classes(surface)
        reports = verify_bounds(surface, classes)
        assert all(r.satisfied for r in reports)
        assert len(reports) == len(classes)


def test_verify_bounds_exceptional_example():
    surface = bl(1)
    reports = verify_bounds(surface, [DivisorClass((0, 1))])
    assert reports[0].bound == Fraction(-4)
    assert reports[0].satisfied is True


def test_verify_bounds_empty_run():
    assert verify_bounds(bl(2), []) == ()


def test_verify_bounds_rejects_non_curve_classes():
    with pytest.raises(ValueError, match="genus"):
        verify_bounds(bl(1), [DivisorClass((0, -3))])


# Exact minimum slack C^2 - bound over the enumerated classes, frozen from
# a direct computation: the slack dips to 2/3 (n = 7, the degree-3 classes)
# and 5/6 (n = 8, the degree-6 classes), so every class clears its bound
# with positive but not uniformly large room.
EXPECTED_MIN_SLACK = {
    1: Fraction(3),
    2: Fraction(1),
    3: Fraction(2),
    4: Fraction(3),
    5: Fraction(1),
    6: Fraction(2),
    7: Fraction(2, 3),
    8: Fraction(5, 6),
}


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_minimum_slack(n):
    surface = bl(n)
    reports = verify_bounds(surface, minus_one_classes(surface))
    slack = min(Fraction(r.witnessed_c2) - r.bound for r in reports)
    assert slack == EXPECTED_MIN_SLACK[n]
    assert slack > 0


def test_spot_check_classes_on_ruled_models():
    for base in (hirzebruch(2), ruled_surface(1, -2)):
        surface = blow_up(base, 2)
        classes = spot_check_classes(surface)
        assert classes, "expected at least the exceptional classes"
        for c in classes:
            assert surface.dot(c, c) < 0
            pa = arithmetic_genus(surface, c)
            assert pa.denominator == 1 and pa >= 0
            # the polarization stays non-negative on them
            assert surface.dot(c, surface.polarization) >= 0
        reports = verify_bounds(surface, classes)
        assert all(r.satisfied for r in reports)


def test_spot_check_requires_ruled_kind():
    with pytest.raises(LatticeError, match="hirzebruch/ruled"):
        spot_check_classes(projective_plane())
