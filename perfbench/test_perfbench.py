"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ("batch", "service", "stream", "cluster")


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    record = run.run_workload(name, seed=3, seconds=0.3, trace=False,
                              size="tiny", out_dir=tmp_path)
    assert record["correct"], record["failures"]
    assert record["failed_ratio"] == 0
    assert set(record["metrics"]) == set(run.END_TO_END)
    for key, value in record["metrics"].items():
        assert np.isfinite(value) and value > 0, key


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    record = run.run_workload(name, seed=3, seconds=0.6, trace=True,
                              size="tiny", out_dir=tmp_path)
    assert record["correct"], record["failures"]
    metrics = record["metrics"]
    assert set(metrics) == set(run.per_layer_units())
    accounting = record["accounting"]
    assert accounting["orphan_spans"] == 0
    # Self times plus the unattributed share account for request time.
    assert accounting["layer_self_s"] + accounting["unattributed_s"] == pytest.approx(
        accounting["request_s"], rel=1e-9)
    assert (metrics["kernels.tc_gemm.calls"] > 0) == (name == "batch")
    assert (metrics["engine.journal.calls"] > 0) == (name == "cluster")
    events = json.loads(Path(record["trace_file"]).read_text())["traceEvents"]
    assert any(e["ph"] == "X" for e in events)


def _perturb_first_profile(name):
    def perturb(ops):
        op = next(op for op in ops if op.output is not None)
        if name == "service":
            result = op.output.result
        elif name == "stream":
            profile, index = op.output["exact"]
            op.output["exact"] = (profile * 1.5, index)
            return
        else:
            result = op.output
        result.profile = result.profile * 1.5
    return perturb


@pytest.mark.parametrize("name", ("batch", "stream", "cluster"))
def test_perturbed_profile_fails_the_gate(name, tmp_path):
    record = run.run_workload(name, seed=3, seconds=0.2, trace=False,
                              size="tiny", out_dir=tmp_path,
                              perturb=_perturb_first_profile(name))
    assert not record["correct"]
    assert record["failed_ratio"] > 0


def test_perturbed_cache_hit_fails_the_gate(tmp_path):
    def perturb(ops):
        hit = next(op for op in ops if op.kind == "hit")
        result = hit.output.result
        hit.output.result = type(result)(**{**result.__dict__,
                                            "profile": result.profile + 1e-9})

    record = run.run_workload("service", seed=3, seconds=0.5, trace=False,
                              size="tiny", out_dir=tmp_path, perturb=perturb)
    assert not record["correct"]
    assert record["failed_ratio"] > 0


def test_traced_replay_divergence_fails_the_gate(tmp_path):
    record = run.run_workload("cluster", seed=3, seconds=0.4, trace=True,
                              size="tiny", out_dir=tmp_path,
                              perturb=_perturb_first_profile("cluster"))
    assert not record["correct"]


def test_command_prints_result_line_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cluster",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    saved = json.loads((tmp_path / ".perfbench" / "cluster-seed2-trace0.json").read_text())
    assert saved["env"]["seed"] == 2
    assert not (tmp_path / ".perfbench" / "journals").exists()


def test_command_fails_without_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
