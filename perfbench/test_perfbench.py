"""Tests of the benchmark itself: its checks catch wrong outputs, tracing
changes no output, and traced counts repeat for a seed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from perfbench import checks, reference, run, trace
from perfbench.workloads import WORKLOADS

import negbound  # noqa: E402  (importable once perfbench.run set the path)
import negbound.cli  # noqa: E402

COUNTS = [name for name, unit, _ in trace.LAYER_METRICS if unit == "count"]


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(trace.LAYER_METRICS)


@pytest.mark.parametrize("n", range(1, 9))
def test_classical_minus_one_classes_match_the_enumerator(n):
    classes = checks.classical_minus_one(n)
    assert len(classes) == checks.CLASSICAL_MINUS_ONE_COUNTS[n]
    surface = negbound.blow_up(negbound.projective_plane(), n)
    found = {tuple(int(x) for x in c.coords) for c in negbound.minus_one_classes(surface)}
    assert found == set(classes)


def test_zariski_check_rejects_a_tampered_decomposition():
    workload = WORKLOADS["zariski_chain"]
    zariski = workload.start("", traced=False)
    for inp in workload.inputs(3):
        dec = zariski.prepare(inp)()
        if dec.support:
            break
    assert zariski.check(inp, dec) == []
    half = Fraction(1, 2)
    shifted = negbound.ZariskiDecomposition(
        nef_part=dec.nef_part + half * dec.support[0],
        support=dec.support,
        coefficients=(dec.coefficients[0] - half,) + dec.coefficients[1:],
    )
    assert "P is not orthogonal to the support" in zariski.check(inp, shifted)
    dropped = negbound.ZariskiDecomposition(dec.nef_part, dec.support[1:], dec.coefficients[1:])
    assert "P + N does not recombine to D" in zariski.check(inp, dropped)


def test_rescaling_takes_out_host_speed():
    latencies = [0.1, 0.2, 0.1, 0.3]
    kernel = reference.REF_MS / 1000
    at_reference = run.rescale_series(latencies, [kernel] * 4)
    assert at_reference == pytest.approx(latencies)
    # The same operations on a host running at half speed throughout.
    assert run.rescale_series([2 * x for x in latencies], [2 * kernel] * 4) == pytest.approx(latencies)
    # One slow kernel timing does not move the median around it.
    assert run.rescale_series(latencies, [kernel, kernel, 10 * kernel, kernel]) == pytest.approx(latencies)


def test_negative_definite_check():
    assert checks.is_negative_definite([[-2, 1], [1, -2]])
    assert not checks.is_negative_definite([[-1, 1], [1, -1]])
    assert not checks.is_negative_definite([[-1, 2], [2, -1]])
    assert checks.is_negative_definite([])


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_cli_report_check_rejects_a_wrong_row(tmp_path, fmt):
    config = {"surface": {"kind": "hirzebruch", "e": 2, "n_blowups": 9}, "task": "verify",
              "params": {"curves": [[1, 0] + [0] * 9, [0, 1, -1] + [0] * 8]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report"
    assert negbound.cli.main(["verify", "--config", str(path), "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    assert checks.check_cli_report(config, text, fmt) == []
    problems = checks.check_cli_report(config, text.replace("true", "false", 1), fmt)
    assert any("satisfied flag" in p for p in problems)


def test_plane_enumerate_check_counts_classes(tmp_path):
    config = {"surface": {"kind": "projective_plane", "n_blowups": 5}, "task": "enumerate", "params": {}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report"
    assert negbound.cli.main(["enumerate", "--config", str(path), "--format", "csv", "--out", str(out)]) == 0
    text = out.read_text()
    assert checks.check_cli_report(config, text, "csv") == []
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert any("16" in p for p in checks.check_cli_report(config, short, "csv"))


@pytest.mark.parametrize("name, ops", [("zariski_x8", 9), ("zariski_chain", 9), ("cli_jobs", 12)])
def test_traced_runs_repeat_counts_and_match_untraced_outputs(name, ops):
    first = run.measure_traced(name, seed=5, ops=ops)
    second = run.measure_traced(name, seed=5, ops=ops)
    for result in (first, second):
        assert result["failed"] == {}
        assert result["digest"] == result["traced_digest"]
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}
    if name == "cli_jobs":
        assert first["metrics"]["cli.jobs"][0] == ops


def test_exits_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zariski_x8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
