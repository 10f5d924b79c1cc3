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
from negbound.lattice import _border
from negbound.zariski import _solve
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


@settings(max_examples=300, deadline=None)
@given(symmetric_int_matrices())
def test_negative_definite_agrees_with_sylvester_minors(gram):
    assert is_negative_definite(gram) == sylvester_negative_definite(gram)


@settings(max_examples=300, deadline=None)
@given(symmetric_int_matrices(), st.lists(st.integers(-9, 9), min_size=6, max_size=6))
def test_bordered_factor_agrees_with_pivots_and_solves(m, rhs):
    """Folding ``_border`` over the rows gives, on the longest leading block
    whose leading minors are all nonzero, pivots that are the ratios of
    consecutive leading minors, and ``_solve`` on that factor inverts the
    block exactly."""
    k = 0
    while k < len(m) and det([row[: k + 1] for row in m[: k + 1]]) != 0:
        k += 1
    block = [row[:k] for row in m[:k]]
    minors = [det([row[:i] for row in block[:i]]) for i in range(k + 1)]
    factor = ()
    for i, row in enumerate(block):
        factor = _border(factor, row[:i], row[i])
    assert [p for _, p in factor] == [b / a for a, b in zip(minors, minors[1:])]
    x = _solve(factor, rhs[:k])
    assert [sum(a * xi for a, xi in zip(row, x)) for row in block] == rhs[:k]


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


def test_brute_force_matches_on_worked_examples(bl1, bl2):
    for surface, coords in [
        (bl1, (1, 0)),
        (bl1, (0, 1)),
        (bl1, (1, 1)),
        (bl2, (0, 2, 1)),
        (bl2, (1, 3, 0)),
    ]:
        cands = minus_one_candidates(surface)
        d = DivisorClass(coords)
        fast = zariski_decompose(surface, d, cands)
        slow = zariski_brute_force(surface, d, cands)
        assert fast.nef_part.coords == slow.nef_part.coords
        assert dict(zip((e.coords for e in fast.support), fast.coefficients)) == dict(
            zip((e.coords for e in slow.support), slow.coefficients)
        )


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
            fast = zariski_decompose(surface, d, cands)
            slow = zariski_brute_force(surface, d, cands)
            assert fast.nef_part.coords == slow.nef_part.coords
            assert dict(
                zip((e.coords for e in fast.support), fast.coefficients)
            ) == dict(zip((e.coords for e in slow.support), slow.coefficients))
            validate_decomposition(surface, d, cands, fast)


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
