"""Lattice construction, the pairing, blow-ups, and model invariants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negbound import (
    DivisorClass,
    IntersectionForm,
    LatticeError,
    blow_up,
    custom_surface,
    format_class,
    hirzebruch,
    intersect,
    projective_plane,
    ruled_surface,
)
from negbound.lattice import _SMALL
from conftest import random_model


def test_projective_plane_invariants(p2):
    assert p2.k2 == 9
    assert p2.a0 == 3
    assert p2.chi == 1 and p2.c2 == 3
    assert 12 * p2.chi - p2.k2 - p2.c2 == 0


def test_pairing_on_two_point_blowup(p2):
    x2 = blow_up(p2, 2)
    h = x2.lattice.basis_class(0)
    e1 = x2.lattice.basis_class(1)
    e2 = x2.lattice.basis_class(2)
    assert intersect(x2.lattice, h, h) == 1
    assert intersect(x2.lattice, e1, e2) == 0
    line = h - e1 - e2
    assert intersect(x2.lattice, line, line) == -1


def test_small_integer_coordinates_share_one_fraction():
    a = DivisorClass((3, Fraction(-6, 2), 0, Fraction(1, 2), 10**6))
    b = DivisorClass((Fraction(3), -3, Fraction(0), Fraction(1, 2), 10**6))
    assert a == b and all(type(c) is Fraction for c in a.coords)
    assert [x is y for x, y in zip(a.coords, b.coords)] == [True, True, True, False, False]
    # integral Fractions and "p/q" strings find the shared object by value
    c = DivisorClass((Fraction(-64), Fraction(128, 2), "6/2", "-0/5", "65"))
    assert [x is _SMALL.get(x.numerator) for x in c.coords] == [True, True, True, True, False]
    assert c.coords[2] is a.coords[0] and c.coords[3] is a.coords[2]
    # a non-integral Fraction is kept as given
    half = Fraction(1, 2)
    assert DivisorClass((half,)).coords[0] is half


def test_intersect_rejects_rank_mismatch(p2):
    x1 = blow_up(p2, 1)
    short = DivisorClass((Fraction(1),))
    with pytest.raises(LatticeError, match="rank"):
        intersect(x1.lattice, short, short)


@pytest.mark.parametrize("e,expected_h2", [(0, 2), (1, 3), (2, 4), (5, 7)])
def test_hirzebruch_invariants(e, expected_h2):
    s = hirzebruch(e)
    assert s.k2 == 8
    assert s.a0 == e + 4
    # the form [[-e,1],[1,0]] forces (C0+(e+1)f)^2 = e+2
    assert s.h2 == expected_h2
    assert 12 * s.chi == s.k2 + s.c2


def test_hirzebruch_rejects_negative_parameter():
    with pytest.raises(LatticeError):
        hirzebruch(-1)


def test_ruled_surface_invariants():
    s = ruled_surface(1, -1)
    assert s.a0 == 7
    assert s.h2 == 7
    assert s.chi == 0 and s.c2 == 0
    s2 = ruled_surface(2, -4)
    assert s2.k2 == -8
    assert s2.chi == -1


@pytest.mark.parametrize("genus,twist", [(0, -5), (1, 0), (2, -3), (1, 5)])
def test_ruled_surface_rejects_bad_parameters(genus, twist):
    with pytest.raises(LatticeError):
        ruled_surface(genus, twist)


def test_blow_up_six_points(p2):
    x6 = blow_up(p2, 6)
    assert x6.k2 == 3
    assert x6.chi == 1
    assert x6.c2 == 9
    assert x6.n_blowups == 6
    assert x6.lattice.basis_labels == ("H", "E1", "E2", "E3", "E4", "E5", "E6")
    # canonical gains +E_i per point
    assert x6.canonical.coords == (Fraction(-3),) + (Fraction(1),) * 6


def test_blow_up_hirzebruch_c2():
    s = blow_up(hirzebruch(2), 1)
    assert s.c2 == 5
    assert s.k2 == 7
    assert s.h2 == 4  # polarization pulls back unchanged


def test_blow_up_composes(p2):
    assert blow_up(blow_up(p2, 2), 3) == blow_up(p2, 5)


def test_blow_up_rejects_nonpositive_count(p2):
    with pytest.raises(LatticeError):
        blow_up(p2, 0)


def test_noether_identity_under_random_blowup_chains():
    rng = random.Random(20240901)
    for _ in range(200):
        s = random_model(rng)
        assert 12 * s.chi == s.k2 + s.c2
        assert s.a0 > 0
        assert s.h2 > 0


@given(st.integers(0, 6), st.data())
def test_pairing_is_bilinear_and_symmetric(n, data):
    surface = blow_up(projective_plane(), n) if n else projective_plane()
    rank = surface.rank
    coords = st.tuples(*[st.fractions(max_denominator=7) for _ in range(rank)])
    a = DivisorClass(data.draw(coords))
    b = DivisorClass(data.draw(coords))
    c = DivisorClass(data.draw(coords))
    form = surface.lattice
    assert intersect(form, a, b) == intersect(form, b, a)
    assert intersect(form, a + b, c) == intersect(form, a, c) + intersect(form, b, c)
    assert intersect(form, 3 * a, c) == 3 * intersect(form, a, c)


@st.composite
def sparse_symmetric_grams(draw):
    r = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    upper = {(i, j): draw(entry) for i in range(r) for j in range(i, r)}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(r)) for i in range(r))


@settings(max_examples=200, deadline=None)
@given(sparse_symmetric_grams(), st.data())
def test_sparse_pairing_equals_dense_sum(gram, data):
    r = len(gram)
    form = IntersectionForm(tuple(f"e{i}" for i in range(r)), gram)
    coord = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=7))
    a = DivisorClass(data.draw(st.tuples(*[coord] * r)))
    b = DivisorClass(data.draw(st.tuples(*[coord] * r)))
    got = intersect(form, a, b)
    assert type(got) is Fraction
    assert got == sum(a.coords[i] * gram[i][j] * b.coords[j] for i in range(r) for j in range(r))
    # the sparse rows are not a field
    assert form == IntersectionForm(form.basis_labels, gram)
    assert hash(form) == hash(IntersectionForm(form.basis_labels, gram))
    assert "_sparse" not in repr(form)


def builtin_models():
    rng = random.Random(7)
    return [
        projective_plane(),
        blow_up(projective_plane(), 8),
        hirzebruch(0),
        hirzebruch(3),
        blow_up(hirzebruch(1), 2),
        ruled_surface(1, -1),
        blow_up(ruled_surface(2, -5), 3),
    ] + [random_model(rng) for _ in range(20)]


def test_cached_invariants_equal_fresh_pairings():
    for s in builtin_models():
        k, h = s.canonical, s.polarization
        invariants = (s.k2, s.a0, s.h2)
        assert invariants == (s.dot(k, k), -s.dot(k, h), s.dot(h, h))
        assert all(type(v) is Fraction for v in invariants)
        # kept, not recomputed
        assert all(new is old for new, old in zip((s.k2, s.a0, s.h2), invariants))


def test_signature_is_hyperbolic_for_builtin_models():
    for s in builtin_models():
        # every built-in model passes custom_surface's lattice checks
        lat = s.lattice
        custom = custom_surface(
            lat.basis_labels, lat.gram, s.canonical.coords, s.polarization.coords,
            s.chi, s.c2, s.n_blowups,
        )
        assert custom.k2 == s.k2


# Even blocks of known inertia; with K = 0 they satisfy Wu parity, and
# chi = 1, c2 = 12 satisfy Noether.  Block: (Gram, inertia, a class of
# positive square if it has one).
BLOCKS = {
    "U": (((0, 1), (1, 0)), (1, 1, 0), (1, 1)),  # hyperbolic plane
    "+2": (((2,),), (1, 0, 0), (1,)),
    "-2": (((-2,),), (0, 1, 0), None),
    "0": (((0,),), (0, 0, 1), None),
}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(BLOCKS)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)), max_size=8),
)
def test_custom_surface_accepts_exactly_hodge_index_signature(blocks, moves):
    """U^T G U for unimodular U keeps the inertia of the block sum G, so
    ``custom_surface`` must accept it exactly when that is (1, r-1, 0)."""
    r = sum(len(BLOCKS[b][0]) for b in blocks)
    g = [[0] * r for _ in range(r)]
    inertia = [0, 0, 0]
    start = 0
    h = None
    for b in blocks:
        block, signs, positive = BLOCKS[b]
        for i, row in enumerate(block):
            g[start + i][start:start + len(row)] = row
        inertia = [a + x for a, x in zip(inertia, signs)]
        if h is None and positive:
            h = [0] * start + list(positive) + [0] * (r - start - len(positive))
        start += len(block)
    h = h or [1] + [0] * (r - 1)  # no positive class: H^2 <= 0
    # U = product of elementary column moves e_j += c e_i; H in the new
    # basis is U^-1 h, built by the inverse row moves
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for i, j, c in moves:
        i, j = i % r, j % r
        if i == j:
            continue
        for row in u:
            row[j] += c * row[i]
        h[i] -= c * h[j]
    gu = [[sum(g[a][b] * u[b][j] for b in range(r)) for j in range(r)] for a in range(r)]
    gram = [[sum(u[a][i] * gu[a][j] for a in range(r)) for j in range(r)] for i in range(r)]
    labels = [f"e{i}" for i in range(r)]
    hodge = inertia == [1, r - 1, 0]
    try:
        custom_surface(labels, gram, [0] * r, h, chi=1, c2=12)
    except LatticeError as exc:
        assert not hodge, exc
        assert "Hodge index" in str(exc)
    else:
        assert hodge


def test_intersection_form_rejects_asymmetric_gram():
    with pytest.raises(LatticeError, match="symmetric"):
        IntersectionForm(("a", "b"), ((0, 1), (2, 0)))


def test_custom_surface_enforces_noether():
    with pytest.raises(LatticeError, match="Noether"):
        custom_surface(("H",), ((1,),), (-3,), (1,), chi=2, c2=3)


@pytest.mark.parametrize(
    "labels,gram,canonical,polarization,c2,n_blowups,message",
    [
        # Noether holds (K^2 = 10 - 0 = 10, 12 = 10 + 2) but the form is definite
        (
            ("H", "E1"), ((1, 0), (0, 1)), (-3, 1), (1, 0), 2, 0,
            r"signature \(1, 1, 0\).*complement of the polarization H is not negative definite",
        ),
        # Noether holds (K^2 = 4, 12 = 4 + 8) but H^2 + K.H = -1
        (("H",), ((1,),), (-2,), (1,), 8, 0, r"^H\^2 \+ K\.H = -1, but adjunction needs it even$"),
        # the blown-up plane polarized by E1
        (("H", "E1"), ((1, 0), (0, -1)), (-3, 1), (0, 1), 4, 1, r"^polarization E1 has H\^2 = -1;"),
        # the blown-up plane with H declared exceptional too: base K^2 = 10
        (
            ("H", "E1"), ((1, 0), (0, -1)), (-3, 1), (1, 0), 4, 2,
            r"^exceptional class H has E\^2 = 1 and K\.E = -3;",
        ),
        # the blown-up plane in the basis H, -E1: its K.E1 is 1
        (
            ("H", "E1"), ((1, 0), (0, -1)), (-3, -1), (1, 0), 4, 1,
            r"^exceptional class E1 has E\^2 = -1 and K\.E = 1;",
        ),
        # Bl_2 P^2 in the basis H, E1, L = H-E1-E2: E1 and L are (-1)-classes
        # that meet, so they are not the exceptional classes of two blow-ups
        (
            ("H", "E1", "L"), ((1, 0, 1), (0, -1, 1), (1, 1, -1)), (-2, 0, -1), (1, 0, 0), 5, 2,
            r"^exceptional classes E1 and L meet with E\.E' = 1;",
        ),
    ],
    ids=[
        "definite-gram",
        "odd-adjunction",
        "negative-square-polarization",
        "non-exceptional-class",
        "anti-exceptional-class",
        "meeting-exceptional-classes",
    ],
)
def test_custom_surface_rejects_lattices_no_surface_has(
    labels, gram, canonical, polarization, c2, n_blowups, message
):
    with pytest.raises(LatticeError, match=message):
        custom_surface(labels, gram, canonical, polarization, chi=1, c2=c2, n_blowups=n_blowups)
    # the blown-up plane, the lattice the probes perturb, is accepted
    custom_surface(("H", "E1"), ((1, 0), (0, -1)), (-3, 1), (1, 0), chi=1, c2=4, n_blowups=1)


def test_format_class(p2):
    x3 = blow_up(p2, 3)
    h = x3.lattice.basis_class(0)
    e1 = x3.lattice.basis_class(1)
    e3 = x3.lattice.basis_class(3)
    assert format_class(x3.lattice, 2 * h - e1 - e3) == "2H-E1-E3"
    assert format_class(x3.lattice, DivisorClass((0, 0, 0, 0))) == "0"
    assert format_class(x3.lattice, -1 * h) == "-H"
