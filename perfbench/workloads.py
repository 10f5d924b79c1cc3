"""The three workloads: seeded inputs, one timed operation each, and the
output checks and canonical text that go with it.

Inputs come from ``random.Random(seed)`` in shuffled blocks that hold
each input class once (support size on X8, blow-up count on the chain,
job kind on the CLI), so any run of whole blocks has the same mix and
runs with different seeds differ only in the details of each input.

This module imports only the standard library; ``setup`` imports
negbound, so that a set-up probe can time the import.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from . import checks
from .job import vm_hwm_kb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One CLI job in a fresh interpreter, through ``negbound.cli:main``.
JOB_BOOT = (
    f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]; "
    "from perfbench.job import main; raise SystemExit(main(sys.argv[1:]))"
)


def _blocks(rng: random.Random, kinds: list, make):
    while True:
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            yield make(rng, kind)


def _disjoint(rng: random.Random, curves, meets, k: int) -> list[int]:
    """Indices of k mutually disjoint curves, found by a depth-first search
    over a shuffled order; ``meets[i]`` is the bitset of curves meeting i."""
    order = list(range(len(curves)))
    rng.shuffle(order)

    def search(chosen: list[int], blocked: int, start: int):
        if len(chosen) == k:
            return chosen
        for pos in range(start, len(order)):
            i = order[pos]
            if not blocked >> i & 1:
                found = search(chosen + [i], blocked | meets[i], pos + 1)
                if found:
                    return found
        return None

    return search([], 0, 0)


def disjoint_curve_divisor(rng, lat: checks.Lattice, curves, meets, k: int) -> tuple[int, ...]:
    """D = a(-K) + sum b_i C_i over k disjoint (-1)-curves, a in 0..2,
    b_i in 1..5: effective, hence decomposable."""
    a = rng.randint(0, 2)
    coords = [-a * x for x in lat.canonical]
    for i in _disjoint(rng, curves, meets, k):
        b = rng.randint(1, 5)
        coords = [x + b * y for x, y in zip(coords, curves[i])]
    return tuple(coords)


def meet_bitsets(lat: checks.Lattice, curves) -> list[int]:
    """Bit j of entry i is set when curve j meets curve i (or j == i)."""
    covectors = [lat.covector(c) for c in curves]
    return [
        sum(1 << j for j, d in enumerate(curves) if j == i or sum(x * y for x, y in zip(d, cov)))
        for i, cov in enumerate(covectors)
    ]


def chain_divisor(rng, n: int) -> tuple[int, ...]:
    """D = aH + sum b_i E_i with b_i in 0..5 up to a random depth and 0
    beyond it: effective, hence decomposable."""
    depth = rng.randint(4, n)
    return (rng.randint(0, 3),) + tuple(rng.randint(0, 5) if i < depth else 0 for i in range(n))


def _rational(c) -> str:
    return f"{c.numerator}/{c.denominator}"


class ZariskiWorkload:
    """``zariski_decompose`` in-process against fixed candidate sets;
    ``setup`` builds ``{key: (surface, candidates)}`` through the public
    API and ``inputs`` yields ``(key, divisor coordinates)``."""

    def start(self, workdir: str, traced: bool) -> "ZariskiPass":
        return ZariskiPass(self.setup(), self.candidate_lists())


class ZariskiPass:
    def __init__(self, models: dict, expected: dict) -> None:
        self.models = models
        self.setup_problems = []
        self.lattices = {}
        for key, (surface, candidates) in models.items():
            found = sorted(tuple(int(x) for x in c.coords) for c in candidates.curves)
            if found != sorted(expected[key]):
                self.setup_problems.append(f"candidate set {key} is not the expected one")
            lat = checks.plane_blowup(key)
            curves = expected[key]
            self.lattices[key] = (lat, set(curves), [lat.covector(c) for c in curves])

    def prepare(self, inp):
        """The timed call.  The function is looked up when it runs, so a
        traced wrapper installed after this is the one that runs."""
        import negbound

        surface, candidates = self.models[inp[0]]
        divisor = negbound.DivisorClass(inp[1])
        return lambda: negbound.zariski_decompose(surface, divisor, candidates)

    def check(self, inp, dec) -> list[str]:
        lat, candidates, covectors = self.lattices[inp[0]]
        support = [tuple(int(x) for x in e.coords) for e in dec.support]
        return checks.check_zariski(
            lat, inp[1], candidates, covectors, dec.nef_part.coords, support, dec.coefficients
        )

    def canonical(self, inp, dec) -> str:
        """The decomposition in report form, support sorted by coordinates."""
        parts = sorted((tuple(int(x) for x in e.coords), c) for e, c in zip(dec.support, dec.coefficients))
        return json.dumps({
            "divisor": list(inp[1]),
            "nef": [_rational(c) for c in dec.nef_part.coords],
            "support": [[list(e), _rational(c)] for e, c in parts],
        })

    def dumps(self) -> list[dict]:
        return []

    def peak_rss_kb(self) -> int:
        """Peak resident memory of this process, which ran the workload."""
        return vm_hwm_kb()


class ZariskiX8(ZariskiWorkload):
    """X8 (the plane blown up at 8 points) against all 240 (-1)-classes.

    Pairing-bound: about 1,400 pairings per decomposition, and the 240
    candidates are adjunction-checked on every call, while elimination
    stays at 8x8 or smaller."""

    name = "zariski_x8"

    def setup(self) -> dict:
        import negbound

        surface = negbound.blow_up(negbound.projective_plane(), 8)
        return {8: (surface, negbound.minus_one_candidates(surface))}

    def candidate_lists(self) -> dict:
        return {8: checks.classical_minus_one(8)}

    def inputs(self, seed: int):
        lat = checks.plane_blowup(8)
        curves = checks.classical_minus_one(8)
        meets = meet_bitsets(lat, curves)
        return _blocks(
            random.Random(seed), range(9),
            lambda rng, k: (8, disjoint_curve_divisor(rng, lat, curves, meets, k)),
        )


class ZariskiChain(ZariskiWorkload):
    """The plane blown up at n = 10..18 infinitely near points, against
    the (-2)-chain E_i - E_{i+1}, E_n and H - E_1 - E_2.

    Elimination-bound: supports of up to 18 curves, whose Gram matrix is
    rebuilt and whose minors are recomputed every round, with at most 20
    candidates to scan."""

    name = "zariski_chain"
    sizes = range(10, 19)

    def setup(self) -> dict:
        import negbound

        models = {}
        for n in self.sizes:
            surface = negbound.blow_up(negbound.projective_plane(), n)
            curves = tuple(negbound.DivisorClass(c) for c in checks.minus_one_chain(n))
            models[n] = (surface, negbound.CandidateCurveSet(curves))
        return models

    def candidate_lists(self) -> dict:
        return {n: checks.minus_one_chain(n) for n in self.sizes}

    def inputs(self, seed: int):
        return _blocks(random.Random(seed), self.sizes, lambda rng, n: (n, chain_divisor(rng, n)))


# --- CLI jobs --------------------------------------------------------------

FORMATS = ("table", "csv", "json")
JOB_TIMEOUT_S = 120

# One block: 3 bound, 4 verify, 2 enumerate, 2 zariski and 1 family job.
JOB_KINDS = [
    "bound_plane", "bound_hirzebruch", "bound_ruled",
    "verify_plane", "verify_plane", "verify_hirzebruch", "verify_ruled",
    "enumerate_plane", "enumerate_plane",
    "zariski_minus_one", "zariski_chain",
    "family",
]


def _ruled(rng, max_genus: int) -> dict:
    genus = rng.randint(1, max_genus)
    return {"kind": "ruled", "genus": genus, "twist_degree": 2 - 3 * genus - rng.randint(0, 3)}


def spot_check_curves(lat: checks.Lattice) -> list[tuple[int, ...]]:
    """The negative section if C0^2 < 0, each E_i and each f - E_i."""
    def unit(i: int) -> tuple[int, ...]:
        return tuple(int(j == i) for j in range(lat.rank))

    curves = [unit(0)] if lat.gram[0][0] < 0 else []
    for i in range(2, lat.rank):
        curves += [unit(i), tuple(a - b for a, b in zip(unit(1), unit(i)))]
    return curves


def make_job(rng: random.Random, kind: str) -> dict:
    task, _, family = kind.partition("_")
    if task == "bound":
        surface = {
            "plane": lambda: {"kind": "projective_plane"},
            "hirzebruch": lambda: {"kind": "hirzebruch", "e": rng.randint(0, 4)},
            "ruled": lambda: _ruled(rng, 3),
        }[family]()
        surface["n_blowups"] = rng.randint(1, 200)
        params = {"degree": rng.randint(0, 40), "pg": rng.randint(0, 2)}
    elif kind in ("verify_plane", "enumerate_plane"):
        surface = {"kind": "projective_plane", "n_blowups": rng.randint(1, 8)}
        params = {}
    elif task == "verify":
        if family == "hirzebruch":
            surface = {"kind": "hirzebruch", "e": rng.randint(1, 3)}
        else:
            surface = _ruled(rng, 2)
        surface["n_blowups"] = rng.randint(1, 12)
        curves = spot_check_curves(checks.lattice_for(surface))
        params = {"curves": [list(c) for c in rng.sample(curves, rng.randint(1, len(curves)))]}
    elif kind == "zariski_minus_one":
        n = rng.randint(2, 6)
        surface = {"kind": "projective_plane", "n_blowups": n}
        lat = checks.plane_blowup(n)
        curves = checks.classical_minus_one(n)
        divisor = disjoint_curve_divisor(rng, lat, curves, meet_bitsets(lat, curves), rng.randint(0, n))
        params = {"divisor": list(divisor), "candidates": "minus_one"}
    elif kind == "zariski_chain":
        n = rng.randint(4, 8)
        surface = {"kind": "projective_plane", "n_blowups": n}
        params = {
            "divisor": list(chain_divisor(rng, n)),
            "candidates": [list(c) for c in checks.minus_one_chain(n)],
        }
    else:
        surface = rng.choice([
            lambda: {"kind": "projective_plane"},
            lambda: {"kind": "hirzebruch", "e": rng.randint(0, 4)},
            lambda: _ruled(rng, 3),
        ])()
        surface["n_blowups"] = rng.randint(0, 3)
        params = {"l": rng.randint(1, 12), "pg": rng.randint(0, 3)}
    return {"surface": surface, "task": task, "params": params}


class CliJobs:
    """One fresh process per job through ``negbound.cli:main``; the mix
    covers all five tasks and all three formats."""

    name = "cli_jobs"

    def setup(self) -> None:
        import negbound.cli  # noqa: F401

    def inputs(self, seed: int):
        return _blocks(
            random.Random(seed), JOB_KINDS,
            lambda rng, kind: (make_job(rng, kind), rng.choice(FORMATS)),
        )

    def start(self, workdir: str, traced: bool) -> "CliPass":
        return CliPass(workdir, traced)


class CliPass:
    def __init__(self, workdir: str, traced: bool) -> None:
        self.workdir = workdir
        self.traced = traced
        self.jobs = 0
        self.rss_files: list[str] = []
        self.span_files: list[str] = []
        self.setup_problems: list[str] = []

    def prepare(self, inp):
        """Write the job's config file; the timed call runs the job."""
        config, fmt = inp
        self.jobs += 1
        path = os.path.join(self.workdir, f"job{self.jobs}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        rss = os.path.join(self.workdir, f"rss{self.jobs}")
        self.rss_files.append(rss)
        spans = "-"
        if self.traced:
            spans = os.path.join(self.workdir, f"spans{self.jobs}.json")
            self.span_files.append(spans)
        cmd = [sys.executable, "-c", JOB_BOOT, rss, spans,
               config["task"], "--config", path, "--format", fmt]
        return lambda: _run_job(cmd)

    def peak_rss_kb(self) -> int:
        """The largest peak resident memory of a job process that ran."""
        peaks = []
        for path in self.rss_files:
            if os.path.exists(path):
                with open(path, encoding="ascii") as fh:
                    peaks.append(int(fh.read()))
        return max(peaks, default=0)

    def check(self, inp, out) -> list[str]:
        code, stdout, stderr = out
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        try:
            return checks.check_cli_report(inp[0], stdout, inp[1])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"report does not parse: {exc!r}"]

    def canonical(self, inp, out) -> str:
        return json.dumps({"job": inp[0], "format": inp[1], "exit": out[0], "report": out[1]}, sort_keys=True)

    def dumps(self) -> list[dict]:
        """Span dumps the traced jobs wrote."""
        dumps = []
        for path in self.span_files:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        return dumps


def _run_job(cmd: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=JOB_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


WORKLOADS = {w.name: w for w in (ZariskiX8(), ZariskiChain(), CliJobs())}

