"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it computes
the same series the figure plots (real numerics at reduced scale, modelled
times at paper scale), prints the rows, and archives them under
``benchmarks/results/`` so the output survives pytest's capture.

Run the full harness with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to watch the tables stream by; they are always written to the
results directory regardless.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"

#: The five precision modes, in the paper's plotting order.
MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")

#: Reduced-scale defaults for *executed* (not modelled) experiments.  The
#: paper's n=2^16 costs O(n^2 d) scalar ops — infeasible in pure Python —
#: and the accuracy trends are functions of stream length and machine eps,
#: so they reproduce at these sizes.
EXEC_N = 1536
EXEC_D = 8
EXEC_M = 32


def emit(name: str, text: str) -> None:
    """Print a result block and archive it to benchmarks/results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text, file=sys.stderr)
    print(text)


def series_label(exp: str, paper: str, ours: str) -> str:
    """Standard paper-vs-measured annotation line."""
    return f"[{exp}] paper: {paper}\n[{exp}] ours:  {ours}"


def paired_ratios(baseline, runtime, pairs: int):
    """Time ``pairs`` interleaved (baseline, runtime) runs and return
    ``(baseline_result, runtime_result, stats)``.

    Each pair runs the two sides back to back, alternating which goes
    first, and records ``baseline_s / runtime_s``; both sides of a pair
    see the same host load, so the median ratio reflects the code rather
    than the neighbours on a shared host.  ``stats`` holds the median,
    the quartiles and their distance (IQR) of the ratios, the per-pair
    ratios and each side's median seconds.
    """
    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    ratios, base_s, run_s = [], [], []
    base_result = run_result = None
    for i in range(pairs):
        if i % 2 == 0:
            base_result, tb = timed(baseline)
            run_result, tr = timed(runtime)
        else:
            run_result, tr = timed(runtime)
            base_result, tb = timed(baseline)
        base_s.append(tb)
        run_s.append(tr)
        ratios.append(tb / tr)
    q25, median, q75 = np.percentile(ratios, [25, 50, 75])
    stats = {
        "pairs": pairs,
        "median": float(median),
        "q25": float(q25),
        "q75": float(q75),
        "iqr": float(q75 - q25),
        "ratios": [float(r) for r in ratios],
        "baseline_median_s": float(np.median(base_s)),
        "runtime_median_s": float(np.median(run_s)),
    }
    return base_result, run_result, stats
