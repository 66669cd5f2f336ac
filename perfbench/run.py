"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs an untraced reference pass for half the budget, then
replays the same operations with every layer's entry point wrapped in a
span, checks the two passes agree bit for bit, and reports the per-layer
metrics.  Every output is checked outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment block, and in traced runs a Chrome trace-event file,
are written under ``.perfbench/`` in the working directory.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
#: Results, traces and cluster journals, relative to the working directory.
OUT_DIR = Path(".perfbench")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END = {
    # name: unit
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "cells_per_s": "cells/s",
    "samples_per_s": "samples/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}

#: Span names of the wrapped entry points (see ``spans.install_layers``).
LAYER_SPANS = (
    "kernels.precalc", "kernels.dist_calc", "kernels.tc_gemm",
    "kernels.sort_scan", "kernels.update",
    "engine.precalc_prepare", "engine.plan", "engine.execute_plan",
    "engine.backend_run", "engine.merge", "engine.journal",
    "cluster.run", "autotune.tune", "core.plan_tiles", "core.matrix_profile",
    "service.submit", "service.process", "service.scheduler_execute",
    "service.result_cache",
    "streams.ingest", "streams.cover", "streams.probe", "streams.sketch_score",
)

#: Workload counters: name -> unit.
COUNTERS = {
    "engine.journal_bytes": "bytes",
    "cluster.rounds": "count",
    "cluster.resharded_tiles": "count",
    "cluster.dropped_tiles": "count",
    "service.queue_wait_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.stats_cache_hit_ratio": "ratio",
    "service.downgrades": "count",
    "service.tile_retries": "count",
    "streams.suppressed_ratio": "ratio",
    "streams.exact_columns": "count",
    "streams.alarms": "count",
}

#: Modelled kernel costs: result cost name -> metric infix.
MODELLED_KERNELS = {
    "precalculation": "precalc",
    "dist_calc": "dist_calc",
    "sort_&_incl_scan": "sort_scan",
    "update_mat_prof": "update",
}

PRECISION_KINDS = ("fp32", "fp16", "mixed", "mixed_tc")

TRACE_METRICS = {
    "trace.request_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    for kernel in MODELLED_KERNELS.values():
        units[f"kernels.{kernel}.modelled_flops"] = "flop"
        units[f"kernels.{kernel}.modelled_bytes_dram"] = "bytes"
        units[f"kernels.{kernel}.modelled_s"] = "s"
    for kind in PRECISION_KINDS:
        units[f"precision.{kind}.job_s"] = "s"
        units[f"precision.{kind}.rel_err"] = "ratio"
    units.update(TRACE_METRICS)
    return units


# -- environment --------------------------------------------------------------


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _openblas_runtime() -> dict:
    """Core type and thread count the loaded OpenBLAS reports."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if corename is None or threads is None:
                continue
            corename.restype, corename.argtypes = ctypes.c_char_p, []
            threads.restype, threads.argtypes = ctypes.c_int, []
            return {"core": corename().decode(), "threads": threads()}
    return {"core": "unknown", "threads": None}


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            **_openblas_runtime(),
        },
        "thread_env": {key: os.environ[key] for key in sorted(os.environ)
                       if key.startswith(("OPENBLAS_", "OMP_", "MKL_", "BLIS_"))},
        "git_sha": _git_sha(ROOT_DIR),
        "seed": seed,
    }


# -- metrics ------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else float("nan")


def end_to_end_metrics(workload, ops, wall, setup_s) -> tuple[dict, dict]:
    done = [op for op in ops if op.error is None]
    latencies = workload.latencies(done)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(done) / wall,
        "cells_per_s": sum(op.cells for op in done) / wall,
        "samples_per_s": sum(op.samples for op in done) / wall,
        "latency_p50_ms": 1e3 * _percentile(latencies, 50),
        "latency_p95_ms": 1e3 * _percentile(latencies, 95),
    }
    samples = {
        "operations": len(ops),
        "latency_samples": len(latencies),
        "beyond_p95": sum(x > metrics["latency_p95_ms"] / 1e3 for x in latencies),
        "timed_wall_s": wall,
    }
    return metrics, samples


def precision_metrics(workload, ops) -> dict:
    """Per-mode job time and accuracy A (batch only; 0 elsewhere)."""
    out = {}
    rel_err = getattr(workload, "rel_err", {})
    for kind in PRECISION_KINDS:
        times = [op.wall_s for op in ops if op.kind == kind and op.error is None]
        out[f"precision.{kind}.job_s"] = statistics.median(times) if times else 0.0
        errs = rel_err.get(kind, [])
        out[f"precision.{kind}.rel_err"] = statistics.median(errs) if errs else 0.0
    return out


def modelled_metrics(results) -> dict:
    out = {}
    for cost_name, kernel in MODELLED_KERNELS.items():
        flops = bytes_dram = seconds = 0.0
        for result in results:
            cost = result.costs.get(cost_name)
            if cost is not None:
                flops += cost.flops
                bytes_dram += cost.bytes_dram
            seconds += result.timeline.kernel_breakdown().get(cost_name, 0.0)
        out[f"kernels.{kernel}.modelled_flops"] = flops
        out[f"kernels.{kernel}.modelled_bytes_dram"] = bytes_dram
        out[f"kernels.{kernel}.modelled_s"] = seconds
    return out


def trace_metrics(spans_list, untraced_ops, traced_ops) -> tuple[dict, dict]:
    from spans import ROOT, layer_times, self_times

    layers = layer_times(spans_list)
    out = {}
    for name in LAYER_SPANS:
        row = layers.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    roots = [s for s in spans_list if s.name == ROOT]
    selfs = self_times(spans_list)
    request_s = sum(s.end - s.start for s in roots)
    unattributed = sum(selfs[s.id] for s in roots)
    out["trace.request_s"] = request_s
    out["trace.unattributed_s"] = unattributed
    out["trace.unattributed_ratio"] = unattributed / request_s if request_s else 0.0
    base = sum(op.wall_s for op in untraced_ops)
    out["trace.overhead_ratio"] = sum(op.wall_s for op in traced_ops) / base - 1.0 if base else 0.0
    # Queue wait: from submit returning to the worker picking the job up.
    submitted, picked = {}, {}
    for span in spans_list:
        if span.name == "service.submit":
            submitted[span.request] = span.end
        elif span.name == "service.process":
            picked[span.request] = span.start
    out["service.queue_wait_s"] = sum(
        max(0.0, picked[r] - submitted[r]) for r in picked if r in submitted)
    root_ids = {s.id for s in roots}
    by_id = {s.id: s for s in spans_list}
    orphans = 0
    for span in spans_list:
        node = span
        while node.parent is not None:
            node = by_id[node.parent]
        orphans += node.id not in root_ids
    accounting = {
        "layer_self_s": sum(row["self_s"] for name, row in layers.items() if name != ROOT),
        "unattributed_s": unattributed,
        "request_s": request_s,
        "spans": len(spans_list),
        "orphan_spans": orphans,
    }
    return out, accounting


# -- running ------------------------------------------------------------------


def _median_setup(workload) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", out_dir: Path = OUT_DIR,
                 perturb=None, import_s: float = 0.0) -> dict:
    """Run one workload; returns the full result record.

    ``perturb(ops)`` (tests only) may tamper with outputs between the
    timed region and the correctness gate.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, size, out_dir)
    record: dict = {"workload": name, "size": size, "seconds": seconds,
                    "trace": int(trace)}
    try:
        setup_s = import_s + _median_setup(workload)
        if not trace:
            ops, wall = workload.run(seconds=seconds)
            if perturb is not None:
                perturb(ops)
            failures = workload.check(ops)
            attempted = len(ops)
            metrics, samples = end_to_end_metrics(workload, ops, wall, setup_s)
            extra = precision_metrics(workload, ops) if name == "batch" else {}
        else:
            from spans import Tracer, chrome_trace_events, install_layers

            ops, wall = workload.run(seconds=seconds / 2)
            workload.setup()
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced, _ = workload.run(replay=ops, tracer=tracer)
            finally:
                tracer.uninstall()
            if perturb is not None:
                perturb(traced)
            failures = workload.check(ops)
            for op, again in zip(ops, traced):
                if again.error is not None:
                    failures.setdefault(again.request, again.error)
                elif not _same_outputs(workload.comparable(op), workload.comparable(again)):
                    failures.setdefault(again.request, "traced output differs from untraced")
            attempted = len(ops) + len(traced)
            metrics = {key: 0.0 for key in per_layer_units()}
            layer, record["accounting"] = trace_metrics(tracer.spans, ops, traced)
            metrics.update(layer)
            metrics.update(workload.counters)
            metrics.update(precision_metrics(workload, ops))
            metrics.update(modelled_metrics(workload.modelled_costs(ops)))
            _, samples = end_to_end_metrics(workload, ops, wall, setup_s)
            extra = {}
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_path = out_dir / f"{name}-seed{seed}.trace.json"
            trace_path.write_text(json.dumps(
                {"traceEvents": chrome_trace_events(tracer.spans)}))
            record["trace_file"] = str(trace_path)
    finally:
        workload.close()
    record.update({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": dict(list(failures.items())[:20]),
        "metrics": metrics,
        "also_measured": extra,
        "samples": samples,
        # Raw per-operation times of the untraced pass, for any other statistic.
        "ops": [[op.request, op.kind, op.wall_s, op.error] for op in ops],
    })
    return record


def _same_outputs(first: list, second: list) -> bool:
    from checks import bit_equal

    return len(first) == len(second) and all(map(bit_equal, first, second))


def _print_record(record: dict, env: dict) -> None:
    units = END_TO_END if not record["trace"] else per_layer_units()
    print(f"== {record['workload']} (seed {env['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}) ==")
    for key, value in record["metrics"].items():
        print(f"{key:40s} {value:16.6g} {units[key]}")
    for key, value in record["also_measured"].items():
        print(f"{key:40s} {value:16.6g} {per_layer_units()[key]}   (also measured)")
    print(f"{'failed_ratio':40s} {record['failed_ratio']:16.6g} ratio "
          f"({record['failed']} of {record['attempted']})")
    for request, reason in record["failures"].items():
        print(f"FAILED {request}: {reason}")
    print("samples " + json.dumps(record["samples"]))
    if "accounting" in record:
        print("accounting " + json.dumps(record["accounting"]))
    print("env " + json.dumps(env))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch", "service", "stream", "cluster", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro  # noqa: F401 - the import is part of set-up time
    import workloads  # noqa: F401

    import_s = time.perf_counter() - _PROCESS_START
    env = environment(args.seed)
    names = ["batch", "service", "stream", "cluster"] if args.workload == "all" \
        else [args.workload]
    units = per_layer_units() if args.trace else END_TO_END
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              import_s=import_s)
        record["env"] = env
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        _print_record(record, env)
        result["correct"] &= record["correct"]
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        # With several workloads, metric names carry the workload name.
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({
            prefix + key: {"value": value, "unit": units[key]}
            for key, value in record["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
