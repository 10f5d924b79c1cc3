"""The frozen value classes: construction, equality, hashing, immutability,
repr and validation, for every class built with ``negbound.values.value``."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import negbound
from negbound import (
    BoundInputs,
    BoundReport,
    CandidateCurveSet,
    CurveClassQuery,
    DivisorClass,
    IntersectionForm,
    LatticeError,
    SurfaceModel,
    ZariskiDecomposition,
    blow_up,
    projective_plane,
    zariski_decompose,
)


def samples() -> dict[str, tuple[type, tuple, dict]]:
    """Per class: (class, positional arguments for its fields without a
    default, the same arguments by keyword).  Built afresh on every call,
    so two calls give equal but distinct field values."""
    p2 = projective_plane()
    x1 = blow_up(p2, 1)
    e1 = DivisorClass((0, 1))
    args = {
        DivisorClass: ((Fraction(1), Fraction(-1, 2)),),
        IntersectionForm: (("H", "E1"), ((1, 0), (0, -1))),
        SurfaceModel: (p2.lattice, DivisorClass((-3,)), DivisorClass((1,)), 1, 3),
        CandidateCurveSet: ((e1,),),
        ZariskiDecomposition: (DivisorClass((1, 0)), (e1,), (Fraction(2),)),
        CurveClassQuery: (x1,),
        BoundInputs: (2, 3, 1, 9, 1, 1),
        BoundReport: ("blowup_chi_ge1", "k2_gt_n", Fraction(-4)),
    }
    return {
        cls.__name__: (cls, values, dict(zip(cls.__annotations__, values)))
        for cls, values in args.items()
    }


NAMES = sorted(samples())

# Defaults of the fields each sample leaves out.
DEFAULTS = {
    "SurfaceModel": {"n_blowups": 0, "kind": "custom", "params": ()},
    "CandidateCurveSet": {"complete": False},
    "CurveClassQuery": {"self_int": -1, "canonical_degree": -1, "max_degree": None},
    "BoundReport": {
        "term_pivot_upper": None,
        "term_pivot_lower": None,
        "term_unit_pivot": None,
        "witnessed_c2": None,
        "satisfied": None,
        "hypotheses": (),
    },
}


def test_every_value_class_is_sampled():
    assert len(NAMES) == 8


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    cls, args, kwargs = samples()[name]
    positional, keyword = cls(*args), cls(**kwargs)
    assert positional == keyword
    for field, default in DEFAULTS.get(name, {}).items():
        assert getattr(positional, field) == default
        assert getattr(keyword, field) == default


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_objects_and_hashes(name):
    (cls, args, _), (_, again, _) = samples()[name], samples()[name]
    a, b = cls(*args), cls(*again)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != tuple(args) and a != object()


def test_different_fields_give_different_objects():
    assert BoundInputs(2, 3, 1, 9, 1, 1) != BoundInputs(2, 3, 1, 9, 2, 1)
    assert DivisorClass((1, 0)) != DivisorClass((0, 1))
    # the same fields in another class are not equal
    p2 = projective_plane()
    assert CurveClassQuery(p2) != CurveClassQuery(blow_up(p2, 1))


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, args, kwargs = samples()[name]
    obj = cls(*args)
    for field in [*cls.__annotations__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert obj == cls(**kwargs)


def test_construction_rejects_bad_arguments():
    with pytest.raises(TypeError):
        IntersectionForm(("H",), ((1,),), 2)
    with pytest.raises(TypeError):
        IntersectionForm(("H",), basis_labels=("H",))
    with pytest.raises(TypeError):
        IntersectionForm(basis_labels=("H",), matrix=((1,),))
    with pytest.raises(TypeError):
        IntersectionForm(basis_labels=("H",))


def test_surface_invariants_are_cached_and_stay_out_of_equality():
    p2, fresh = projective_plane(), projective_plane()
    assert (p2.k2, p2.a0, p2.h2) == (9, 3, 1)
    assert {"k2", "a0", "h2"} <= set(vars(p2))
    assert p2 == fresh and hash(p2) == hash(fresh)
    with pytest.raises(AttributeError):
        p2.k2 = 0
    assert "k2" not in repr(p2)


def test_checked_surfaces_stay_out_of_repr_and_equality():
    x1 = blow_up(projective_plane(), 1)
    checked = CandidateCurveSet((DivisorClass((0, 1)),))
    zariski_decompose(x1, DivisorClass((1, 2)), checked)
    fresh = CandidateCurveSet((DivisorClass((0, 1)),))
    assert checked._prepared.keys() == {x1} and fresh._prepared == {}
    assert checked == fresh and hash(checked) == hash(fresh)
    assert "_prepared" not in repr(checked)


# Reprs captured from the dataclass implementation these classes replaced.
P2 = (
    "SurfaceModel(lattice=IntersectionForm(basis_labels=('H',), gram=((1,),)), "
    "canonical=DivisorClass(coords=(Fraction(-3, 1),)), "
    "polarization=DivisorClass(coords=(Fraction(1, 1),)), chi=1, c2=3, n_blowups=0, "
    "kind='projective_plane', params=())"
)
E1 = "DivisorClass(coords=(Fraction(0, 1), Fraction(1, 1)))"
REPORT = (
    "BoundReport(rule='blowup_chi_ge1', case='k2_gt_n', bound=Fraction(-4, 1), "
    "term_pivot_upper=None, term_pivot_lower=Fraction(-5, 3), "
    "term_unit_pivot=Fraction(-4, 1), witnessed_c2=-1, satisfied=True, "
    "hypotheses=('anticanonical_effective', 'polarization_very_ample'))"
)


def test_reprs_are_pinned():
    p2 = projective_plane()
    x1 = blow_up(p2, 1)
    e1 = DivisorClass((0, 1))
    reports = negbound.verify_bounds(x1, [e1])
    pinned = {
        DivisorClass((1, Fraction(-1, 2))): "DivisorClass(coords=(Fraction(1, 1), Fraction(-1, 2)))",
        IntersectionForm(("H", "E1"), ((1, 0), (0, -1))): (
            "IntersectionForm(basis_labels=('H', 'E1'), gram=((1, 0), (0, -1)))"
        ),
        p2: P2,
        CandidateCurveSet((e1,), complete=True): f"CandidateCurveSet(curves=({E1},), complete=True)",
        zariski_decompose(x1, DivisorClass((1, 2)), CandidateCurveSet((e1,))): (
            "ZariskiDecomposition(nef_part=DivisorClass(coords=(Fraction(1, 1), Fraction(0, 1))), "
            f"support=({E1},), coefficients=(Fraction(2, 1),))"
        ),
        CurveClassQuery(p2, max_degree=2): (
            f"CurveClassQuery(surface={P2}, self_int=-1, canonical_degree=-1, max_degree=2)"
        ),
        BoundInputs(degree=2, a0=3, h2=1, k2_base=9, n=1, chi=1): (
            "BoundInputs(degree=2, a0=3, h2=1, k2_base=9, n=1, chi=1)"
        ),
        reports[0]: REPORT,
    }
    assert len({type(obj) for obj in pinned}) == 8
    for obj, text in pinned.items():
        assert repr(obj) == text


# Validation errors, captured from the dataclass implementation.
P2_FORM = IntersectionForm(("H",), ((1,),))
PLANE = dict(lattice=P2_FORM, canonical=DivisorClass((-3,)), polarization=DivisorClass((1,)))
VALIDATION = [
    (IntersectionForm, dict(basis_labels=("H", "E1"), gram=((1,),)),
     LatticeError, "Gram matrix must be 2x2 to match 2 basis labels"),
    (IntersectionForm, dict(basis_labels=("H", "E1"), gram=((1, 2), (0, -1))),
     LatticeError, "Gram matrix is not symmetric at (0,1): 2 != 0"),
    (SurfaceModel, {**PLANE, "canonical": DivisorClass((-3, 0)), "chi": 1, "c2": 3},
     LatticeError, "canonical/polarization classes must have rank 1, got 2 and 1"),
    (SurfaceModel, {**PLANE, "chi": 1, "c2": 3, "n_blowups": -1},
     LatticeError, "n_blowups must be non-negative"),
    (SurfaceModel, {**PLANE, "chi": 1, "c2": 3, "n_blowups": 2},
     LatticeError, "n_blowups = 2 exceeds lattice rank 1"),
    (SurfaceModel, {**PLANE, "chi": 1, "c2": 4},
     LatticeError, "Noether identity violated: 12*chi = 12 but K^2 + c2 = 13"),
    (CandidateCurveSet, dict(curves=(DivisorClass((1,)), DivisorClass((1,)))),
     LatticeError, "duplicate candidate class (1)"),
    (CurveClassQuery, dict(surface=projective_plane(), self_int=-1, canonical_degree=-1, max_degree=0),
     ValueError, "max_degree must be >= 1, got 0"),
    (BoundInputs, dict(degree=1, a0=0, h2=1, k2_base=9, n=0, chi=1),
     ValueError, "a0 must be a positive integer, got 0"),
    (BoundInputs, dict(degree=1, a0=3, h2=0, k2_base=9, n=0, chi=1),
     ValueError, "H^2 must be a positive integer, got 0"),
    (BoundInputs, dict(degree=-1, a0=3, h2=1, k2_base=9, n=0, chi=1),
     ValueError, "degree C.H must be non-negative, got -1"),
    (BoundInputs, dict(degree=1, a0=3, h2=1, k2_base=9, n=-1, chi=1),
     ValueError, "blow-up count must be non-negative, got -1"),
]


@pytest.mark.parametrize("cls,kwargs,error,message", VALIDATION)
def test_validation_errors_are_unchanged(cls, kwargs, error, message):
    with pytest.raises(error) as info:
        cls(**kwargs)
    assert str(info.value) == message
    with pytest.raises(error):
        cls(*kwargs.values())


coordinate = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(-100, 100),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(coordinate, min_size=1, max_size=5), st.data())
def test_divisor_class_equality_and_hash_follow_coords(a, data):
    # b is a itself, one coordinate changed, or a coordinate re-typed
    b = list(a)
    i = data.draw(st.integers(0, len(a) - 1))
    b[i] = data.draw(st.one_of(coordinate, st.just(Fraction(a[i])), st.just(a[i])))
    if data.draw(st.booleans()):
        b.append(0)
    x, y = DivisorClass(a), DivisorClass(b)
    same = tuple(map(Fraction, a)) == tuple(map(Fraction, b))
    assert (x == y) is same and (x != y) is not same
    assert x.coords == tuple(map(Fraction, a))
    assert all(type(c) is Fraction for c in x.coords)
    if same:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A CLI job pays for every module ``negbound.cli`` imports; these two
    cost more than the rest of the package together."""
    src = str(Path(negbound.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import negbound.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
