"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (tolerance 0): expected values are rationals computed
with independent oracles (direct pairings, hand substitution, exhaustive
subset search, larger-cutoff enumeration), never floats.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from negbound import (
    BoundInputs,
    CandidateCurveSet,
    DivisorClass,
    blow_up,
    blowup_bound,
    family_bound,
    hirzebruch,
    intersect,
    minus_one_candidates,
    minus_one_classes,
    projective_plane,
    ruled_surface,
    verify_bounds,
    zariski_decompose,
)
from negbound.cli import load_config, render_json, run
from conftest import random_model, sylvester_negative_definite
from oracles import pivot_multiple, self_intersection_from_chi, zariski_brute_force

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_chi_identity():
    """chi-level self-intersection identity on >= 1000 random triples."""
    with criterion(1, "chi-level identity"):
        rng = random.Random(101)
        started = time.perf_counter()
        checked = 0
        while checked < 1000:
            if rng.random() < 0.5:
                surface = projective_plane()
                n = rng.randrange(0, 9)
            else:
                surface = hirzebruch(rng.randrange(0, 4))
                n = rng.randrange(0, 7)
            if n:
                surface = blow_up(surface, n)
            coords = tuple(
                Fraction(rng.randrange(-6, 7)) for _ in range(surface.rank)
            )
            curve = DivisorClass(coords)
            m = rng.choice([v for v in range(-10, 11) if v != 1])
            expected = intersect(surface.lattice, curve, curve)
            assert self_intersection_from_chi(surface, curve, m) == expected
            checked += 1
        assert time.perf_counter() - started < 5.0


def test_criterion_2_pivot_bracket_and_shift():
    """Exhaustive bracket and minimality check, plus the degree-shift law."""
    with criterion(2, "pivot bracket and shift law"):
        started = time.perf_counter()
        for a0 in range(1, 51):
            for degree in range(0, 501):
                m = pivot_multiple(degree, a0)
                assert degree - a0 * m <= -1
                assert Fraction(degree + 1, a0) <= m
                assert m <= max(1, Fraction(degree + a0, a0))
                for smaller in range(1, m):
                    assert degree - a0 * smaller > -1
        # shift law: adding a0*H2 to the degree of a unit-pivot class moves
        # the pivot to H2 + 1
        for a0 in range(1, 51):
            for degree in range(0, a0):
                assert pivot_multiple(degree, a0) == 1
                for h2 in range(1, 101):
                    assert pivot_multiple(degree + a0 * h2, a0) == h2 + 1
        assert time.perf_counter() - started < 5.0


def test_criterion_3_plane_bound_reproduction():
    """The plane specialization of the chi>=1 bound on a 31x31 grid."""
    with criterion(3, "plane bound reproduction"):
        for n in range(0, 31):
            for degree in range(0, 31):
                inputs = BoundInputs(degree=degree, a0=3, h2=1, k2_base=9, n=n, chi=1)
                report = blowup_bound(inputs)
                assert report.rule == "blowup_chi_ge1"
                unit_printed = Fraction(-n - 3 + 3 * degree)
                assert report.term_unit_pivot == unit_printed
                if 9 <= n:
                    assert report.case == "k2_le_n"
                    upper_printed = Fraction(degree + 3, 6) * (9 - n) - 3
                    assert report.term_pivot_upper == upper_printed
                    assert report.bound == min(upper_printed, unit_printed)
                else:
                    assert report.case == "k2_gt_n"
                    lower_printed = Fraction(degree + 1, 6) * (9 - n) - 3
                    assert report.term_pivot_lower == lower_printed
                    assert report.bound == min(unit_printed, lower_printed)


def test_criterion_4_del_pezzo_verification():
    """Counts, rationality, and bound satisfaction across all eight models."""
    with criterion(4, "del Pezzo verification"):
        started = time.perf_counter()
        expected_counts = (1, 3, 6, 10, 16, 27, 56, 240)
        for n in range(1, 9):
            surface = blow_up(projective_plane(), n)
            classes = minus_one_classes(surface)
            assert len(classes) == expected_counts[n - 1]
            for c in classes:
                assert surface.dot(c, c) == -1
                pa = (surface.dot(c, c) + surface.dot(surface.canonical, c)) / 2 + 1
                assert pa == 0
            reports = verify_bounds(surface, classes)
            assert all(r.satisfied for r in reports)
        assert time.perf_counter() - started < 60.0


def test_criterion_5_zariski_oracle_equivalence():
    """Iterative decomposition equals the exhaustive-subset oracle on >= 500
    pseudoeffective-shaped divisors; the five defining invariants hold."""
    with criterion(5, "Zariski oracle equivalence"):
        rng = random.Random(555)
        plan = [(1, 150), (2, 150), (3, 120), (4, 80)]
        total = 0
        for n, runs in plan:
            surface = blow_up(projective_plane(), n)
            candidates = minus_one_candidates(surface)
            assert len(candidates) <= 12
            h = surface.lattice.basis_class(0)
            for _ in range(runs):
                divisor = rng.randrange(0, 5) * h
                for curve in candidates.curves:
                    if rng.random() < 0.45:
                        divisor = divisor + rng.randrange(0, 4) * curve
                fast = zariski_decompose(surface, divisor, candidates)
                slow = zariski_brute_force(surface, divisor, candidates)
                # exact agreement of the nef part and the coefficient map
                assert fast.nef_part.coords == slow.nef_part.coords
                fast_map = dict(
                    zip((e.coords for e in fast.support), fast.coefficients)
                )
                slow_map = dict(
                    zip((e.coords for e in slow.support), slow.coefficients)
                )
                assert fast_map == slow_map
                # the five defining invariants, checked directly
                recombined = fast.nef_part
                for coeff, curve in zip(fast.coefficients, fast.support):
                    recombined = recombined + coeff * curve
                assert recombined.coords == divisor.coords  # (1) D = P + N
                assert all(a > 0 for a in fast.coefficients)  # (2) N effective
                gram = [
                    [surface.dot(a, b) for b in fast.support] for a in fast.support
                ]
                assert sylvester_negative_definite(gram)  # (3) negative definite
                for e in fast.support:  # (4) orthogonality
                    assert surface.dot(fast.nef_part, e) == 0
                for c in candidates.curves:  # (5) nef against candidates
                    assert surface.dot(fast.nef_part, c) >= 0
                total += 1
        assert total >= 500


def test_criterion_6_noether_consistency():
    """12*chi = K^2 + c2 for built-ins and 1000 random blow-up chains."""
    with criterion(6, "Noether consistency"):
        builtins = [
            projective_plane(),
            hirzebruch(0),
            hirzebruch(1),
            hirzebruch(5),
            ruled_surface(1, -1),
            ruled_surface(2, -4),
            ruled_surface(3, -7),
        ]
        for s in builtins:
            assert 12 * s.chi == s.k2 + s.c2
        rng = random.Random(606)
        for _ in range(1000):
            s = random_model(rng, max_blowups=8)
            assert 12 * s.chi == s.k2 + s.c2


def test_criterion_7_family_bound():
    """Exact value on the plane-fiber inputs and monotonicity in l and pg."""
    with criterion(7, "family bound"):
        assert family_bound(1, 9, 3, 10, 0) == Fraction(-3)
        for chi, k2, c2 in [(1, 9, 3), (1, 8, 4), (0, 0, 0)]:
            for pg in range(0, 51):
                previous = None
                for l in range(1, 51):
                    value = family_bound(chi, k2, c2, l, pg)
                    if previous is not None:
                        assert value <= previous
                    previous = value
            for l in (1, 10, 50):
                previous = None
                for pg in range(0, 51):
                    value = family_bound(chi, k2, c2, l, pg)
                    if previous is not None:
                        assert value <= previous
                    previous = value


def test_criterion_8_discrepancy_surfacing(tmp_path):
    """Golden-file check of the emitted discrepancies arrays."""
    with criterion(8, "discrepancy surfacing"):
        jobs = {
            "hirzebruch": {
                "surface": {"kind": "hirzebruch", "e": 1, "n_blowups": 1},
                "task": "bound",
                "params": {"degree": 2},
            },
            "ruled": {
                "surface": {
                    "kind": "ruled",
                    "genus": 1,
                    "twist_degree": -1,
                    "n_blowups": 1,
                },
                "task": "bound",
                "params": {"degree": 0},
            },
        }
        for name, payload in jobs.items():
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(payload), encoding="utf-8")
            config = load_config(str(config_path))
            report, failures = run(config, "bound")
            assert failures == 0
            golden = json.loads(
                (GOLDEN_DIR / f"{name}_discrepancies.json").read_text(encoding="utf-8")
            )
            assert json.loads(render_json(report))["discrepancies"] == golden
        # the hirzebruch flag carries the stated-vs-computed pair e+1 vs e+2
        hirz = json.loads(
            (GOLDEN_DIR / "hirzebruch_discrepancies.json").read_text(encoding="utf-8")
        )
        assert hirz[0]["computed"] == "3/1" and hirz[0]["stated"] == "2/1"
        ruled = json.loads(
            (GOLDEN_DIR / "ruled_discrepancies.json").read_text(encoding="utf-8")
        )
        assert ruled[0]["computed"] == "-3/1" and ruled[0]["stated"] == "-4/1"
