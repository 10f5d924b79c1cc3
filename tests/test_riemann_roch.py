"""Adjunction, chi of divisors, and the chi-level self-intersection identity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negbound import (
    CandidateCurveSet,
    DivisorClass,
    LatticeError,
    arithmetic_genus,
    blow_up,
    curve_genus,
    intersect,
    projective_plane,
    verify_bounds,
    zariski_decompose,
)
from conftest import random_integral_class, random_model
from oracles import chi_of_divisor, self_intersection_from_chi


def test_genus_of_a_line(p2):
    assert arithmetic_genus(p2, DivisorClass((1,))) == 0


def test_genus_of_a_cubic(p2):
    # plane-curve genus (d-1)(d-2)/2 at d = 3
    assert arithmetic_genus(p2, DivisorClass((3,))) == 1


def test_genus_of_line_through_two_points(p2):
    x2 = blow_up(p2, 2)
    line = DivisorClass((1, -1, -1))
    assert arithmetic_genus(x2, line) == 0


def test_chi_of_zero_and_canonical(p2):
    x3 = blow_up(p2, 3)
    zero = DivisorClass((0,) * 4)
    assert chi_of_divisor(x3, zero) == x3.chi
    assert chi_of_divisor(x3, x3.canonical) == x3.chi


def test_chi_of_anticanonical_on_plane(p2):
    # matches the count of degree-3 monomials in three variables
    assert chi_of_divisor(p2, DivisorClass((3,))) == 10


def test_identity_examples(p2):
    assert self_intersection_from_chi(p2, DivisorClass((1,)), 2) == 1
    x1 = blow_up(p2, 1)
    assert self_intersection_from_chi(x1, DivisorClass((0, 1)), 0) == -1
    x3 = blow_up(p2, 3)
    line = DivisorClass((1, -1, -1, 0))
    assert self_intersection_from_chi(x3, line, -3) == -1


def test_identity_rejects_m_equal_one(p2):
    with pytest.raises(ValueError, match="m = 1"):
        self_intersection_from_chi(p2, DivisorClass((1,)), 1)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(-10, 10).filter(lambda m: m != 1),
    st.data(),
)
def test_identity_reconstructs_self_intersection(n, m, data):
    surface = blow_up(projective_plane(), n) if n else projective_plane()
    coords = data.draw(
        st.tuples(*[st.integers(-6, 6) for _ in range(surface.rank)])
    )
    curve = DivisorClass(tuple(Fraction(c) for c in coords))
    expected = intersect(surface.lattice, curve, curve)
    assert self_intersection_from_chi(surface, curve, m) == expected


def test_adjunction_round_trip_on_random_models():
    rng = random.Random(13)
    for _ in range(150):
        s = random_model(rng)
        c = random_integral_class(rng, s.rank)
        pa = arithmetic_genus(s, c)
        kc = s.dot(s.canonical, c)
        assert s.dot(c, c) == 2 * pa - 2 - kc


def test_chi_has_serre_symmetry():
    rng = random.Random(14)
    for _ in range(150):
        s = random_model(rng)
        d = random_integral_class(rng, s.rank)
        assert chi_of_divisor(s, d) == chi_of_divisor(s, s.canonical - d)


def test_curve_genus_is_the_one_genus_rule(p2):
    """Every route that needs a curve class rejects a non-curve class with
    the same error, naming the class."""
    x2 = blow_up(p2, 2)
    assert curve_genus(x2, DivisorClass((1, -1, -1))) == 0
    assert curve_genus(p2, DivisorClass((4,))) == 3
    rejected = [
        # p_a = (-9 + 3)/2 + 1 = -2
        (DivisorClass((0, -3, 0)), r"^-3E1 has arithmetic genus -2; not a curve class$"),
        # (H+E1)/2 has p_a = 0, so only its coordinates give it away
        (
            DivisorClass((Fraction(1, 2), Fraction(1, 2), 0)),
            r"^1/2H\+1/2E1 has a non-integer coordinate; not a curve class$",
        ),
    ]
    for bad, message in rejected:
        routes = [
            lambda: curve_genus(x2, bad),
            lambda: verify_bounds(x2, [bad]),
            lambda: zariski_decompose(x2, DivisorClass((1, 0, 0)), CandidateCurveSet(curves=(bad,))),
        ]
        for route in routes:
            with pytest.raises(LatticeError, match=message):
                route()
