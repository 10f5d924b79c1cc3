"""The package's public surface: the names ``negbound`` exports, the
functions the benchmark tracer wraps, and the README's library tour."""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from types import FunctionType

import negbound

REPO = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BoundInputs",
    "BoundReport",
    "CandidateCurveSet",
    "CurveClassQuery",
    "DecompositionError",
    "DivisorClass",
    "IntersectionForm",
    "InvariantError",
    "LatticeError",
    "SurfaceModel",
    "ZariskiDecomposition",
    "arithmetic_genus",
    "blow_up",
    "blowup_bound",
    "curve_genus",
    "custom_surface",
    "enumerate_classes",
    "evaluate_curve",
    "family_bound",
    "family_bound_terms",
    "format_class",
    "hirzebruch",
    "inputs_for_curve",
    "inputs_for_degree",
    "intersect",
    "is_negative_definite",
    "minus_one_candidates",
    "minus_one_classes",
    "projective_plane",
    "ruled_surface",
    "surface_bound",
    "validate_decomposition",
    "verify_bounds",
    "zariski_decompose",
]


def test_public_names_are_pinned():
    assert sorted(negbound.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(negbound, name), name


def test_traced_names_stay_module_level_functions(monkeypatch):
    """``perfbench/trace.py`` wraps each of its ``TARGETS`` by rebinding
    the module globals that hold it, so each must stay a plain function
    defined at the top level of a negbound module."""
    monkeypatch.syspath_prepend(str(REPO))
    targets = importlib.import_module("perfbench.trace").TARGETS
    assert targets
    for module_name, attr, _ in targets:
        func = getattr(importlib.import_module(module_name), attr)
        assert type(func) is FunctionType, (module_name, attr)
        assert func.__module__.startswith("negbound.") and func.__qualname__ == attr
        assert getattr(sys.modules[func.__module__], attr) is func


def test_readme_library_quick_tour_runs(capsys):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
