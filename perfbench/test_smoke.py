"""Smoke test of the benchmark at reduced size: one timed or traced unit per
workload, the output schema against BENCHMARK.json, and the correctness gate.

    python3 -m pytest -q perfbench/test_smoke.py      (about two minutes)
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def one_unit(workload, trace, seed=3):
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace), "--max-units", "1",
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_unit_schema(workload, trace):
    stdout, result = one_unit(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        assert trace or m["value"] > 0, name
        assert f"  {name} " in stdout, f"{name} not printed by name"
    provenance = json.loads(stdout.split("provenance ", 1)[1].splitlines()[0])
    assert provenance["workload"] == workload and provenance["seed"] == 3
    assert provenance["inputs"] and provenance["nproc"] >= 1


@pytest.mark.parametrize("workload", ["verify", "figures", "decode-small"])
def test_traced_counts_repeat(workload):
    counts = []
    for seed in (3, 4):
        _, result = one_unit(workload, trace=1, seed=seed)
        metrics = result["metrics"].items()
        counts.append({k: m["value"] for k, m in metrics if m["unit"] == "count"})
    assert counts[0] == counts[1]


@pytest.fixture
def one_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_corrupted_csv_hash_is_a_failure(monkeypatch, one_probe):
    monkeypatch.setitem(run.FIGURE_SHA256, "fig5", "0" * 64)
    ws = run.FiguresWorkload(run.import_dirtycast(), seed=0)
    result = run.run_workload(ws, seconds=0, trace=0, max_units=1)
    assert result["fail_frac"] > 0 and not result["correct"]
    assert any("fig5" in message for message in result["failures"])


def test_failing_check_is_a_failure(monkeypatch, one_probe):
    dc = run.import_dirtycast()
    verify = dc["verify"]

    def broken():
        raise verify.CheckFailure("deliberately broken")

    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:1] + (("broken", broken),))
    result = run.run_workload(run.VerifyWorkload(dc, 0), seconds=0, trace=0, max_units=1)
    assert result["fail_frac"] == 1.0 and not result["correct"]


def test_wrong_decoder_is_a_failure(monkeypatch, one_probe):
    """A decoder that misses every codeword passes each report's own checks
    (the union count stays between the per-user counts) but not the pooled
    error rate."""
    dc = run.import_dirtycast()
    simulate = dc["simulate"]
    right = simulate.simulate_scheme

    def wrong(spec, scheme_run, threads=None):
        report = right(spec, scheme_run, threads)
        return dataclasses.replace(report, frame_error_rate=1.0, fer_user1=1.0, fer_user2=1.0)

    monkeypatch.setattr(simulate, "simulate_scheme", wrong)
    ws = run.DecodeSmallWorkload(dc, seed=0)
    result = run.run_workload(ws, seconds=0, trace=0, max_units=1)
    assert result["failed"] == 1 and not result["correct"]
    assert any("user decodes failed" in message for message in result["failures"])


def test_failure_exits_nonzero(monkeypatch, capsys, one_probe):
    monkeypatch.setitem(run.FIGURE_SHA256, "fig2", "0" * 64)
    code = run.main(["--workload", "figures", "--seconds", "0", "--max-units", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and result["failed"] > 0 and result["correct"] is False


def test_refuses_to_run_without_the_program():
    bare = run.RESULTS_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = bench("--workload", "figures", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tail_has_ten_units_beyond_it():
    assert run.tail([float(x) for x in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
