"""Row-blocked kernel execution bench — per-row vs blocked vs parallel.

The row-blocked main loop (``RunConfig.row_block``) is a pure host-side
optimisation: ``dist_calc`` keeps the sequential Eq. (1) recurrence but
fills B consecutive row planes into one workspace, and the
column-independent sort/scan/update stages then run once per block.  The
output — profile, indices, per-kernel costs, modelled timeline — is
bit-for-bit that of the per-row emulation, the oracle in
``tests/kernel_oracle.py`` (``tests/test_row_blocking.py`` pins this), so
the only thing to measure is wall clock.

Two measurements:

1. **Kernel level (the reference config)** — one multi-dimensional FP16
   tile, n_seg = 256, d = 8, m = 32: the per-row oracle against
   :func:`repro.engine.backends.run_tile` at the default ``row_block``
   (64), for FP16 and FP64.  Acceptance: >= 3x for the FP16 tile.
   ``run_tile`` at ``row_block=1`` (one-row blocks through the same
   loop) is timed and recorded beside them, without a gate.
2. **Engine level** — a 4-tile FP16 self-join through
   :func:`~repro.core.multi_tile.compute_multi_tile`, serial one-row vs
   serial blocked vs blocked with ``parallel_workers`` tile threads.
   The per-tile precalc and merge overhead is shared by every variant,
   so the end-to-end ratio is lower than the kernel-level one; on a
   single-core host the parallel row measures dispatch overhead only
   (the workers exist for multi-core hosts; determinism is pinned by
   the tests either way).

Results are archived to ``benchmarks/results/row_blocking.txt`` and, for
machine consumption, ``BENCH_row_blocking.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the problem and relaxes the speedup
floor for CI smoke runs.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine.backends import run_tile
from repro.kernels.layout import to_device_layout
from repro.reporting import format_table

from _harness import emit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.kernel_oracle import run_tile_per_row  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: The reference config of the acceptance criterion: one multi-dim FP16
#: tile.  n_seg = 256 reference segments (n = n_seg + m - 1 samples).
N_SEG = 128 if SMOKE else 256
D = 8
M = 32
BLOCK = RunConfig().row_block  # the shipped default (64)
REPEATS = 2 if SMOKE else 3
#: CI smoke boxes are noisy single-core runners; the real floor is
#: asserted at full scale.
MIN_SPEEDUP_FP16 = 1.5 if SMOKE else 3.0

ENGINE_N = 384 if SMOKE else 640
ENGINE_TILES = 4
WORKERS = 4

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_row_blocking.json"


def _series(n, d, seed=11):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)).cumsum(axis=0)


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _time_tile(mode, row_block):
    """Time the reference tile through ``run_tile`` at ``row_block``, or
    through the per-row oracle when ``row_block`` is None."""
    cfg = RunConfig(mode=mode)
    ref = _series(N_SEG + M - 1, D)
    tr = to_device_layout(ref, cfg.policy.storage)

    def run():
        if row_block is None:
            return run_tile_per_row(
                tr, tr, M, cfg.policy, cfg.launch, exclusion_zone=M // 4
            )
        return run_tile(
            tr, tr, M, cfg.policy, cfg.launch,
            exclusion_zone=M // 4, row_block=row_block,
        )
    out, best = _timed(run)
    return out, best


@pytest.mark.benchmark(group="row_blocking")
def test_row_blocking_speedup(benchmark):
    rows = []
    record = {
        "reference_config": {"n_seg": N_SEG, "d": D, "m": M,
                             "row_block": BLOCK, "smoke": SMOKE},
        "kernel_level": {},
        "engine_level": {},
    }

    # -- kernel level: the acceptance measurement ------------------------
    fp16_ratio = None
    for mode in ("FP16", "FP64"):
        out_o, t_o = _time_tile(mode, None)
        out_1, t_1 = _time_tile(mode, 1)
        out_b, t_b = _time_tile(mode, BLOCK)
        for out in (out_1, out_b):
            assert np.array_equal(
                out.profile.view(np.uint8), out_o.profile.view(np.uint8)
            )
            assert np.array_equal(out.indices, out_o.indices)
        ratio = t_o / t_b
        if mode == "FP16":
            fp16_ratio = ratio
        rows.append([f"tile {mode} per-row oracle", f"{t_o * 1e3:9.1f}",
                     "1.00x"])
        rows.append([f"tile {mode} row_block=1", f"{t_1 * 1e3:9.1f}",
                     f"{t_o / t_1:.2f}x"])
        rows.append([f"tile {mode} block={BLOCK}", f"{t_b * 1e3:9.1f}",
                     f"{ratio:.2f}x"])
        record["kernel_level"][mode] = {
            "per_row_oracle_s": t_o, "row_block_1_s": t_1,
            "blocked_s": t_b, "speedup": ratio,
        }

    # -- engine level: multi-tile, serial vs parallel workers ------------
    series = _series(ENGINE_N, D, seed=23)
    base_cfg = dict(mode="FP16", n_tiles=ENGINE_TILES)
    r_row, t_row = _timed(
        lambda: compute_multi_tile(
            series, None, M, RunConfig(row_block=1, **base_cfg))
    )
    r_blk, t_blk = _timed(
        lambda: compute_multi_tile(series, None, M, RunConfig(**base_cfg))
    )
    r_par, t_par = _timed(
        lambda: compute_multi_tile(
            series, None, M, RunConfig(parallel_workers=WORKERS, **base_cfg))
    )
    assert np.array_equal(r_blk.profile, r_row.profile)
    assert np.array_equal(r_blk.index, r_row.index)
    assert np.array_equal(r_par.profile, r_blk.profile)
    assert np.array_equal(r_par.index, r_blk.index)
    rows.append(["engine FP16 row_block=1", f"{t_row * 1e3:9.1f}", "1.00x"])
    rows.append(["engine FP16 blocked", f"{t_blk * 1e3:9.1f}",
                 f"{t_row / t_blk:.2f}x"])
    rows.append([f"engine FP16 blocked +{WORKERS} workers",
                 f"{t_par * 1e3:9.1f}", f"{t_row / t_par:.2f}x"])
    record["engine_level"] = {
        "n": ENGINE_N, "n_tiles": ENGINE_TILES, "workers": WORKERS,
        "row_block_1_s": t_row, "blocked_s": t_blk, "parallel_s": t_par,
        "host_cpus": os.cpu_count(),
    }

    table = format_table(
        ["configuration", "best (ms)", "speedup"],
        rows,
        f"Row-blocked execution, reference tile n_seg={N_SEG}, d={D}, "
        f"m={M} (block={BLOCK}, best of {REPEATS})",
    )
    emit("row_blocking", table)
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")

    benchmark.pedantic(lambda: _time_tile("FP16", BLOCK), rounds=1,
                       iterations=1)

    assert fp16_ratio >= MIN_SPEEDUP_FP16, (
        f"FP16 reference tile speedup over the per-row oracle "
        f"{fp16_ratio:.2f}x below the {MIN_SPEEDUP_FP16}x floor"
    )
