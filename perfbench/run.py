"""Benchmark of negbound: end-to-end metrics per workload, or a traced
per-module breakdown.

    python3 perfbench/run.py --workload zariski_x8 --seed 1 --seconds 30 --trace 0

``--workload all`` measures the three workloads one after another.

Run it from the root of a source checkout; it imports ``src/negbound``
and exits 2 without a result when that is missing.

Workloads (see ``workloads.py`` for why each was chosen):

* ``zariski_x8``: ``zariski_decompose`` on X8 against its 240 (-1)-classes.
* ``zariski_chain``: ``zariski_decompose`` on the plane blown up at 10-18
  infinitely near points against the (-2)-chain.
* ``cli_jobs``: one fresh ``python`` process per job through
  ``negbound.cli:main``, over a seeded mix of all tasks and formats.

Each workload is a closed loop with one caller: an operation starts when
the previous one has finished, and at most one child process exists at a
time.  With ``--trace 0`` the loop runs until its operations have taken
``--seconds`` seconds and at least 100 operations have run, and reports

* ``ops_per_s``: operations per second of time spent in operations;
* ``op_p50_ms``, ``op_p90_ms``: median and 90th-percentile latency (at
  least 100 samples, so at least ten lie beyond the p90);
* ``setup_s``: median over 15 fresh interpreters, started one at a time
  between operations spread over the run, of the time to import negbound
  and build the workload's surfaces and candidate sets through the public
  API (``import negbound.cli`` for ``cli_jobs``);
* ``peak_rss_mb``: peak resident memory (Linux ``VmHWM``) of the process
  that runs the workload, or of the largest job process for ``cli_jobs``.

Every time among them is at reference speed (``reference.py``): the
reference kernel is timed after each operation, in this process, and
after each set-up, in the probe's interpreter, and each time is scaled
by ``REF_MS`` over the kernel's time next to it, for an operation the
median over the operations within ``KERNEL_WINDOW`` of it.  The host's
speed swings by up to 1.8x over tens of seconds, and this takes it out
of the figures; the wall-clock figures are printed beside them, not in
the result line.

The error rate (failed / attempted) is printed with them and carried by
the result's ``attempted`` and ``failed``: it is 0 on a correct program,
so a relative bound cannot be set on it.  An exception, a non-zero exit
code or an output that fails its check counts as a failure.  Outputs are
checked after the timed loop by ``checks.py``, which does not use
negbound's pairing.  The SHA-256 of the canonical outputs of the seed's
first 100 inputs is printed too; it changes only when an output does.

With ``--trace 1`` the first 100 inputs run twice, untraced and then with
spans around calls into negbound's modules (``trace.py``), set-up
included for the in-process workloads.  The traced pass gives the
per-layer metrics, totals over that pass; ``trace.overhead_pct`` is the
time the traced pass took over the untraced one, both at reference
speed.  Both passes must give the same outputs.  The op count is fixed,
not ``--seconds``, so that every count repeats exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import reference, trace  # noqa: E402
from perfbench.workloads import SRC, WORKLOADS  # noqa: E402

MIN_OPS = 100
HASHED_OPS = 100
TRACED_OPS = 100
SETUP_SAMPLES = 15
KERNEL_WINDOW = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_PROBE = (
    f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]; "
    "from perfbench.workloads import WORKLOADS; w = WORKLOADS[sys.argv[1]]; "
    "t = time.perf_counter(); w.setup(); t = time.perf_counter() - t; "
    "from perfbench.reference import kernel_s; print(t, kernel_s(5))"
)


def setup_probe(name: str) -> tuple[float, float]:
    """Set-up time of one fresh interpreter, and the reference kernel's
    time in that interpreter right after it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, name],
        capture_output=True, text=True, cwd=ROOT, timeout=60, check=True,
    )
    setup, kernel = proc.stdout.split()[-2:]
    return float(setup), float(kernel)


def closed_loop(run, inputs, seconds: float | None = None, ops: int | None = None, between=None):
    """Run operations one after another, until they have taken ``seconds``
    and at least MIN_OPS ran, or for exactly ``ops`` operations; ``between``
    is called with the time taken so far after each one, off the clock.
    Returns the latencies and ``(input, output, error)`` records."""
    latencies: list[float] = []
    records = []
    busy = 0.0
    gc.collect()
    while len(latencies) < ops if ops is not None else (busy < seconds or len(latencies) < MIN_OPS):
        inp = next(inputs)
        call = run.prepare(inp)
        start = time.perf_counter()
        try:
            out, error = call(), None
        except Exception as exc:  # a failed operation is data, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        latencies.append(elapsed)
        records.append((inp, out, error))
        if between:
            between(busy)
    return latencies, records


def check_records(run, records, offset: int = 0) -> dict[int, str]:
    """Failed operations by index, each with its reason; the checks run
    outside the timed loop.  A wrong set-up fails every operation."""
    failed = {}
    for i, (inp, out, error) in enumerate(records):
        problems = run.setup_problems or ([error] if error else run.check(inp, out))
        if problems:
            failed[offset + i] = "; ".join(problems)
    return failed


def _canonical(run, record) -> str:
    inp, out, error = record
    return run.canonical(inp, out) if error is None else f"error {error}"


def outputs_digest(name: str, seed: int, run, records) -> str:
    digest = hashlib.sha256(json.dumps({"workload": name, "seed": seed}).encode())
    for record in records[:HASHED_OPS]:
        digest.update(b"\n" + _canonical(run, record).encode())
    return digest.hexdigest()


def rescale_series(latencies: list[float], kernel_times: list[float]) -> list[float]:
    """Each latency at reference speed, rescaled by the median kernel time
    of the operations around it, ``kernel_times[i]`` being the one timed
    right after operation i."""
    return [
        reference.rescale(lat, statistics.median(kernel_times[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1]))
        for i, lat in enumerate(latencies)
    ]


def timings(latencies: list[float], setups: list[float]) -> dict:
    """The timed end-to-end metrics from op latencies and set-up times."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "setup_s": statistics.median(setups),
    }


def measure(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    kernel_times: list[float] = []
    setup_samples: list[tuple[float, float]] = []

    def after_op(busy: float) -> None:
        kernel_times.append(reference.kernel_s())
        # Spread over the timed loop, set-up samples see the same swings
        # in machine speed as the operations do.
        if len(setup_samples) < SETUP_SAMPLES and busy >= len(setup_samples) * seconds / SETUP_SAMPLES:
            setup_samples.append(setup_probe(name))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = workload.start(workdir, traced=False)
        latencies, records = closed_loop(run, workload.inputs(seed), seconds=seconds, between=after_op)
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(name))
        failed = check_records(run, records)
        digest = outputs_digest(name, seed, run, records)
        peak_rss_kb = run.peak_rss_kb()
    metrics = timings(
        rescale_series(latencies, kernel_times),
        [reference.rescale(setup, kernel) for setup, kernel in setup_samples],
    )
    metrics["peak_rss_mb"] = peak_rss_kb / 1024
    wall = timings(latencies, [setup for setup, _ in setup_samples])
    units = dict(END_TO_END)
    return {
        "attempted": len(records),
        "failed": failed,
        "digest": digest,
        "samples": len(latencies),
        "metrics": {k: (metrics[k], unit) for k, unit in END_TO_END},
        "wall": {k: (v, units[k]) for k, v in wall.items()},
        "kernel_ms": statistics.median(kernel_times) * 1000,
    }


def measure_traced(name: str, seed: int, ops: int = TRACED_OPS) -> dict:
    workload = WORKLOADS[name]
    tracer = trace.Tracer()
    plain_kernel: list[float] = []
    traced_kernel: list[float] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        plain = workload.start(workdir, traced=False)
        plain_latencies, plain_records = closed_loop(
            plain, workload.inputs(seed), ops=ops, between=lambda _: plain_kernel.append(reference.kernel_s()))
        tracer.install()
        try:
            traced = workload.start(workdir, traced=True)
            traced_latencies, traced_records = closed_loop(
                traced, workload.inputs(seed), ops=ops, between=lambda _: traced_kernel.append(reference.kernel_s()))
        finally:
            tracer.uninstall()
        failed = check_records(plain, plain_records)
        failed.update(check_records(traced, traced_records, offset=ops))
        for i, (a, b) in enumerate(zip(plain_records, traced_records)):
            if _canonical(plain, a) != _canonical(traced, b):
                failed.setdefault(ops + i, "traced output differs from the untraced one")
        digest = outputs_digest(name, seed, plain, plain_records)
        traced_digest = outputs_digest(name, seed, traced, traced_records)
        metrics = trace.layer_metrics([tracer.dump(), *traced.dumps()])
    traced_s = sum(rescale_series(traced_latencies, traced_kernel))
    metrics["trace.overhead_pct"] = (traced_s / sum(rescale_series(plain_latencies, plain_kernel)) - 1) * 100
    units = {k: unit for k, unit, _ in trace.LAYER_METRICS}
    return {
        "attempted": len(plain_records) + len(traced_records),
        "failed": failed,
        "digest": digest,
        "traced_digest": traced_digest,
        "samples": len(traced_latencies),
        "metrics": {k: (metrics[k], units[k]) for k in units},
    }


def report(name: str, seed: int, seconds: float, traced: bool) -> None:
    """Measure one workload and print its summary, then its result line."""
    result = measure_traced(name, seed) if traced else measure(name, seed, seconds)
    failed = len(result["failed"])
    for i, reason in sorted(result["failed"].items())[:10]:
        print(f"FAILED op {i}: {reason}", file=sys.stderr)

    print(f"workload {name}  seed {seed}  trace {int(traced)}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:40s} {value:.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / result['attempted']:.6g} "
          f"({failed} failed of {result['attempted']} attempted)")
    print(f"  {'samples':40s} {result['samples']} operations timed")
    for key, (value, unit) in result.get("wall", {}).items():
        print(f"  {'wall_clock.' + key:40s} {value:.6g} {unit} (not rescaled)")
    if "kernel_ms" in result:
        print(f"  {'reference_kernel_ms':40s} {result['kernel_ms']:.6g} ms (median; {reference.REF_MS} ms at reference speed)")
    print(f"  {'outputs_sha256':40s} {result['digest']} (first {HASHED_OPS} outputs, seed included)")
    print(json.dumps({
        "correct": not failed,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="a workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "negbound" / "cli.py").is_file():
        print(f"error: no negbound sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        # each workload in its own process, as when it is run alone
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run(cmd, cwd=ROOT).returncode
            if code:
                return code
        return 0
    try:
        report(args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up failed in a fresh interpreter:\n{exc.stderr}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
