"""Zariski decomposition: the iterative algorithm against the subset oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negbound import (
    CandidateCurveSet,
    DecompositionError,
    DivisorClass,
    LatticeError,
    blow_up,
    hirzebruch,
    is_negative_definite,
    minus_one_candidates,
    projective_plane,
    validate_decomposition,
    zariski_decompose,
)
from negbound.lattice import _SMALL, _border
from negbound.zariski import ZariskiDecomposition, _remainder, _solve
from conftest import det, sylvester_negative_definite
from oracles import zariski_brute_force


def test_negative_definite_singleton():
    assert is_negative_definite([[-1]])


def test_negative_definite_orthogonal_pair():
    assert is_negative_definite([[-1, 0], [0, -1]])


def test_semidefinite_is_rejected():
    # determinant 0: only semidefinite
    assert not is_negative_definite([[-1, 1], [1, -1]])


def test_negative_definite_rejects_asymmetric():
    with pytest.raises(LatticeError, match="symmetric"):
        is_negative_definite([[-1, 2], [0, -1]])


def test_negative_definite_empty_matrix():
    assert is_negative_definite([])


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric integer matrices up to 6x6; a diagonal shift makes a good
    share of them negative definite, and small entries make singular
    leading blocks common."""
    n = draw(st.integers(0, 6))
    shift = draw(st.integers(0, 12))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
        m[i][i] -= shift
    return m


@st.composite
def symmetric_rational_matrices(draw):
    """A matrix of ``symmetric_int_matrices`` with each entry and its mirror
    divided by the same denominator in 1..6."""
    m = draw(symmetric_int_matrices())
    for i in range(len(m)):
        for j in range(i, len(m)):
            m[i][j] = m[j][i] = Fraction(m[i][j], draw(st.integers(1, 6)))
    return m


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric_int_matrices(), symmetric_rational_matrices()))
def test_negative_definite_agrees_with_sylvester_minors(gram):
    assert is_negative_definite(gram) == sylvester_negative_definite(gram)


@settings(max_examples=300, deadline=None)
@given(
    symmetric_int_matrices(),
    st.lists(st.integers(-9, 9), min_size=6, max_size=6),
    st.lists(st.fractions(-9, 9, max_denominator=12), min_size=6, max_size=6),
)
def test_bareiss_factor_stores_leading_minors_and_solves(m, integer_rhs, rational_rhs):
    """Folding ``_border`` over the rows stores the leading minors, up to the
    first that is zero, and ``_solve`` on the factor of the longest leading
    block whose leading minors are all nonzero inverts that block exactly,
    for integer and for rational right-hand sides."""
    k = 0
    while k < len(m) and det([row[: k + 1] for row in m[: k + 1]]) != 0:
        k += 1
    factor = ()
    for i, row in enumerate(m[: k + 1]):
        factor = _border(factor, row[:i], row[i])
    assert [minor for _, minor in factor] == [
        det([row[:i] for row in m[:i]]) for i in range(1, len(factor) + 1)
    ]
    factor, block = factor[:k], [row[:k] for row in m[:k]]
    for rhs in (integer_rhs[:k], rational_rhs[:k]):
        x = _solve(factor, rhs)
        assert [sum(a * xi for a, xi in zip(row, x)) for row in block] == rhs


def test_positive_entry_fails():
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[-2, 3], [3, -2]])


@pytest.fixture
def bl1():
    return blow_up(projective_plane(), 1)


@pytest.fixture
def bl2():
    return blow_up(projective_plane(), 2)


def test_nef_divisor_is_its_own_nef_part(bl1):
    cands = minus_one_candidates(bl1)
    dec = zariski_decompose(bl1, DivisorClass((1, 0)), cands)
    assert dec.nef_part.coords == (1, 0)
    assert dec.support == ()


def test_exceptional_class_is_pure_negative_part(bl1):
    dec = zariski_decompose(bl1, DivisorClass((0, 1)), minus_one_candidates(bl1))
    assert dec.nef_part.coords == (0, 0)
    assert dec.coefficients == (Fraction(1),)


def test_h_plus_exceptional(bl1):
    dec = zariski_decompose(bl1, DivisorClass((1, 1)), minus_one_candidates(bl1))
    assert dec.nef_part.coords == (1, 0)
    assert [(e.coords, a) for e, a in zip(dec.support, dec.coefficients)] == [
        ((0, 1), Fraction(1))
    ]


def test_diagonal_system(bl2):
    dec = zariski_decompose(bl2, DivisorClass((0, 2, 1)), minus_one_candidates(bl2))
    assert dec.nef_part.coords == (0, 0, 0)
    coeff = {e.coords: a for e, a in zip(dec.support, dec.coefficients)}
    assert coeff == {(0, 1, 0): Fraction(2), (0, 0, 1): Fraction(1)}


def test_single_curve_system(bl2):
    dec = zariski_decompose(bl2, DivisorClass((1, 3, 0)), minus_one_candidates(bl2))
    assert dec.nef_part.coords == (1, 0, 0)
    coeff = {e.coords: a for e, a in zip(dec.support, dec.coefficients)}
    assert coeff == {(0, 1, 0): Fraction(3)}


def assert_matches_oracle(surface, divisor, candidates) -> ZariskiDecomposition:
    """``zariski_decompose`` agrees with the subset oracle; returns its result."""
    fast = zariski_decompose(surface, divisor, candidates)
    slow = zariski_brute_force(surface, divisor, candidates)
    assert fast.nef_part.coords == slow.nef_part.coords
    assert dict(zip((e.coords for e in fast.support), fast.coefficients)) == dict(
        zip((e.coords for e in slow.support), slow.coefficients)
    )
    return fast


def test_brute_force_matches_on_worked_examples(bl1, bl2):
    for surface, coords in [
        (bl1, (1, 0)),
        (bl1, (0, 1)),
        (bl1, (1, 1)),
        (bl2, (0, 2, 1)),
        (bl2, (1, 3, 0)),
    ]:
        assert_matches_oracle(surface, DivisorClass(coords), minus_one_candidates(surface))


def test_negative_degree_rejected(bl1):
    with pytest.raises(DecompositionError, match="negative degree"):
        zariski_decompose(bl1, DivisorClass((-1, 0)), minus_one_candidates(bl1))


def test_unaccounted_negativity_rejected(bl2):
    # candidates that miss E2 cannot explain a divisor with E2-negativity
    only_e1 = CandidateCurveSet(curves=(DivisorClass((0, 1, 0)),))
    with pytest.raises(DecompositionError):
        zariski_decompose(bl2, DivisorClass((0, 0, 1)), only_e1)


def test_idempotence_and_square_growth():
    rng = random.Random(99)
    surface = blow_up(projective_plane(), 3)
    cands = minus_one_candidates(surface)
    h = surface.lattice.basis_class(0)
    for _ in range(40):
        d = Fraction(rng.randrange(0, 4)) * h
        for curve in cands.curves:
            if rng.random() < 0.4:
                d = d + rng.randrange(0, 3) * curve
        dec = zariski_decompose(surface, d, cands)
        # dropping the negative part cannot decrease the square
        assert surface.dot(dec.nef_part, dec.nef_part) >= surface.dot(d, d)
        again = zariski_decompose(surface, dec.nef_part, cands)
        assert again.support == ()
        assert again.nef_part.coords == dec.nef_part.coords


def test_agreement_on_random_effective_combinations():
    rng = random.Random(4242)
    for n in (1, 2, 3):
        surface = blow_up(projective_plane(), n)
        cands = minus_one_candidates(surface)
        h = surface.lattice.basis_class(0)
        for _ in range(25):
            d = rng.randrange(0, 5) * h
            for curve in cands.curves:
                if rng.random() < 0.5:
                    d = d + rng.randrange(0, 4) * curve
            validate_decomposition(surface, d, cands, assert_matches_oracle(surface, d, cands))


def test_monotone_support_under_candidate_superset(bl2):
    # a complete-for-this-divisor small set, then the full set
    e1 = DivisorClass((0, 1, 0))
    small = CandidateCurveSet(curves=(e1,))
    d = DivisorClass((1, 3, 0))
    dec_small = zariski_decompose(bl2, d, small)
    dec_full = zariski_decompose(bl2, d, minus_one_candidates(bl2))
    small_support = {e.coords for e in dec_small.support}
    full_support = {e.coords for e in dec_full.support}
    assert small_support <= full_support
    assert dec_small.nef_part.coords == dec_full.nef_part.coords


def test_candidate_checks_run_once_per_surface(bl2, monkeypatch):
    import negbound.zariski as zariski_mod

    calls = []
    genus = zariski_mod.curve_genus
    monkeypatch.setattr(zariski_mod, "curve_genus", lambda s, c: calls.append(c) or genus(s, c))
    # H, E1 and 2H have genus 0 on Bl_2 P^2; 2C0 has genus -2 on Bl_1 F_1
    cands = CandidateCurveSet(
        curves=(DivisorClass((1, 0, 0)), DivisorClass((0, 1, 0)), DivisorClass((2, 0, 0)))
    )
    d = DivisorClass((1, 0, 0))
    zariski_decompose(bl2, d, cands)
    zariski_decompose(blow_up(projective_plane(), 2), d, cands)  # equal, not the same object
    zariski_brute_force(bl2, d, cands)
    assert len(calls) == len(cands)
    with pytest.raises(LatticeError, match="candidate rank 3 does not match surface rank 4"):
        zariski_decompose(blow_up(projective_plane(), 3), DivisorClass((1, 0, 0, 0)), cands)
    with pytest.raises(LatticeError, match="^2C0 has arithmetic genus -2; not a curve class"):
        zariski_decompose(blow_up(hirzebruch(1), 1), DivisorClass((1, 1, 0)), cands)


def test_one_candidate_set_on_two_surfaces_keeps_one_covector_set_each(bl2):
    """E2, E1 - E2 and H on Bl_2 P^2 are E1, f - E1 and C0 on Bl_1 F_1, with
    other Gram matrices and other decompositions; a candidate set used on
    both, in turns, must pair each with its own covectors."""
    bl1_f1 = blow_up(hirzebruch(1), 1)
    cands = CandidateCurveSet(
        curves=(DivisorClass((0, 0, 1)), DivisorClass((0, 1, -1)), DivisorClass((1, 0, 0)))
    )
    divisors = [(1, 2, 1), (3, 1, 2), (2, 1, 3), (1, 3, 3), ("1/2", "3/2", "1/3")]
    for coords in divisors * 2:
        for surface in (bl2, bl1_f1):
            assert_matches_oracle(surface, DivisorClass(coords), cands)
    assert cands._prepared.keys() == {bl2, bl1_f1}


def test_support_that_is_not_negative_definite_is_rejected(bl2):
    # H-E1-E2 joins first; with E1 the support Gram [[-1, 1], [1, -1]] is
    # singular, so the bordered pivot is 0
    cands = CandidateCurveSet(
        curves=(DivisorClass((0, 1, 0)), DivisorClass((1, -1, -1)), DivisorClass((0, 0, 1)))
    )
    d = DivisorClass((0, -3, -3))
    with pytest.raises(
        DecompositionError,
        match=r"^support \{H-E1-E2, E1\} has a Gram matrix that is not negative definite",
    ):
        zariski_decompose(bl2, d, cands)
    with pytest.raises(DecompositionError, match="^no candidate subset yields"):
        zariski_brute_force(bl2, d, cands)


def chain_candidates(n: int) -> CandidateCurveSet:
    """On the plane blown up at n infinitely near points: the (-2)-chain
    E_i - E_{i+1}, then E_n and the line H - E_1 - E_2."""
    unit = [tuple(int(j == i) for j in range(n + 1)) for i in range(n + 1)]
    chain = [tuple(a - b for a, b in zip(unit[i], unit[i + 1])) for i in range(1, n)]
    line = tuple(a - b - c for a, b, c in zip(unit[0], unit[1], unit[2]))
    return CandidateCurveSet(curves=tuple(map(DivisorClass, chain + [unit[n], line])))


def test_integral_coefficients_are_the_shared_fractions():
    n = 12
    surface = blow_up(projective_plane(), n)
    cands = chain_candidates(n)
    rng = random.Random(12)
    divisors = [DivisorClass((0, 1) + (0,) * (n - 1))]  # E1, the whole chain once
    divisors += [
        DivisorClass((rng.randint(0, 3),) + tuple(rng.randint(0, 5) for _ in range(n)))
        for _ in range(20)
    ]
    coefficients = [a for d in divisors for a in zariski_decompose(surface, d, cands).coefficients]
    small = [a for a in coefficients if a.denominator == 1 and -64 <= a <= 64]
    assert len(small) > len(divisors)
    assert all(a is _SMALL[a.numerator] for a in small)


def test_rational_divisor_matches_oracle():
    n = 6
    surface = blow_up(projective_plane(), n)
    cands = chain_candidates(n)
    for coords in [
        ("1/2", "3/2", "1/3", "0", "5/4", "2/7", "1/6"),
        ("2/3", "1", "1", "1", "1", "1", "1/5"),
        ("0", "7/3", "0", "0", "0", "0", "11/2"),
    ]:
        assert_matches_oracle(surface, DivisorClass(coords), cands)


class_lists = st.integers(1, 10).flatmap(
    lambda rank: st.lists(
        st.lists(st.integers(-5, 5), min_size=rank, max_size=rank).map(DivisorClass),
        min_size=1,
        max_size=8,
    )
)


@settings(max_examples=200, deadline=None)
@given(class_lists, st.data())
def test_remainder_and_negative_part_match_repeated_subtraction(classes, data):
    divisor, *curves = classes
    ratios = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    coeffs = data.draw(st.lists(ratios, min_size=len(curves), max_size=len(curves)))
    remainder, negative = divisor, DivisorClass((0,) * divisor.rank)
    for a, e in zip(coeffs, curves):
        remainder = remainder - a * e
        negative = negative + a * e
    assert _remainder(divisor, coeffs, curves) == remainder
    dec = ZariskiDecomposition(nef_part=remainder, support=tuple(curves), coefficients=tuple(coeffs))
    assert dec.negative_part() == negative
    assert remainder + negative == divisor
