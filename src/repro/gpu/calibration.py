"""Calibration constants for the analytic performance model.

We have no physical V100/A100, so modelled execution times must be anchored
to the paper's published measurements.  Every constant below is derived
from a specific statement in the paper; the derivations are documented so
that the model stays auditable.

Anchors used (paper section in parentheses):

* Single-tile A100 FP64 at n=2^16, d=2^6, m=2^6 totals ~15 s with
  ``sort_&_incl_scan`` dominant at large d and ``dist_calc`` dominant at
  small d (Fig. 4).
* A100 FP64 is 54.0x faster, V100 FP64 41.6x faster, than the 16-core
  Skylake (MP)^N baseline (Fig. 6) => CPU at that size ~810 s.
* Reduced precision buys ~1.4x end-to-end on A100 "for common problem
  settings" (Section I); per-kernel DRAM/L1 utilisation drops with
  narrower types (Section V-C resource utilisation), which is why the
  speed-up is sub-linear in bit width.
* ``sort_&_incl_scan`` is dominated by synchronisation and benefits only
  minimally from reduced precision (Section V-C).
* Stream concurrency makes ~256 tiles slightly *faster* than 1 tile, after
  which CPU-side merge overhead wins (Fig. 7).

The efficiency table encodes the paper's utilisation observations: e.g.
"dist_calc [uses] over 80% DRAM [in FP64] ... around 60% [in FP32] ...
around 30% [in FP16-family]" — note 0.25x traffic at 0.375x efficiency
means FP16 dist_calc runs ~0.67x the FP64 time, not 0.25x, exactly the
sub-linear scaling the paper reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "DRAM_EFFICIENCY",
    "L1_EFFICIENCY",
    "L2_EFFICIENCY",
    "SM_EFFICIENCY",
    "TC_EFFICIENCY",
    "DEVICE_EFFICIENCY_SCALE",
    "CPU_CELL_TIME",
    "CPU_SORT_FACTOR",
    "MERGE_TIME_PER_ELEMENT",
    "TILE_DISPATCH_OVERHEAD",
    "STREAM_SETUP_OVERHEAD",
    "dram_efficiency",
    "l1_efficiency",
    "device_scale",
    "CalibrationProfile",
    "default_profile",
    "save_profile",
    "load_profile",
    "measure_host_profile",
]

#: Achieved fraction of peak DRAM bandwidth, per kernel family and element
#: size in bytes (Section V-C utilisation numbers).
DRAM_EFFICIENCY: dict[str, dict[int, float]] = {
    "dist_calc": {8: 0.80, 4: 0.60, 2: 0.30},
    "update_mat_prof": {8: 0.80, 4: 0.70, 2: 0.50},
    "precalculation": {8: 0.70, 4: 0.60, 2: 0.40},
    "sort_&_incl_scan": {8: 0.60, 4: 0.45, 2: 0.30},
}

#: Achieved fraction of aggregate L1/TEX bandwidth for the shared-memory
#: resident sort/scan stages.  The paper's utilisation ratios ("over 80%
#: L1/TEX [FP64], around 40% [FP32], around 20% [FP16-family]") fix the
#: *relative* values; the absolute level is calibrated so the FP64 sort
#: lands on its Fig. 4 share (~6 s of the ~15 s total at d=2^6).  Traffic
#: shrinks with the dtype while the efficiency shrinks almost as fast
#: => near-constant sort time across precisions (Section V-C).
L1_EFFICIENCY: dict[int, float] = {8: 0.58, 4: 0.30, 2: 0.165}

#: Compute (SM) utilisation of the sort kernel ("around 70% compute (SM)")
#: — used for the stage-serialisation term.
SM_EFFICIENCY: float = 0.70

#: Achieved fraction of the dense tensor-core peak for the batched
#: small-GEMM update panels.  Small fragments (16x16x16) on a
#: memory-streaming kernel cannot feed the MMA pipes at the cuBLAS-style
#: large-GEMM rate; 60% matches published WMMA microbenchmarks for
#: k=16-chained accumulation chains.
TC_EFFICIENCY: float = 0.60

#: Per-device multiplier on achieved memory throughput.  The V100 code path
#: saturates its (smaller) HBM2 more fully than the A100 does HBM2e — the
#: paper's measured cross-generation gap is 54.0/41.6 = 1.30x, well below
#: the 1.73x raw-bandwidth ratio, so a per-device achievability factor is
#: required to land both anchors.
DEVICE_EFFICIENCY_SCALE: dict[str, float] = {
    "V100": 1.15,
    "A100": 0.90,
    "Skylake16": 1.0,
}

#: Effective fraction of L2 bandwidth when a tile's working set becomes
#: L2-resident (small tiles) — part of the Fig. 7 dip at ~256 tiles.
L2_EFFICIENCY: float = 0.70

#: CPU (MP)^N seconds per distance-matrix cell-dimension, FP64, before the
#: sort factor.  Anchor: A100 FP64 single-tile at n=2^16, d=2^6 models to
#: ~17 s (Fig. 4 shows ~15 s of kernel bars); 54.0x slower
#: => ~912 s = n^2 * d * c * (1 + 0.35*log2 d)  =>  c = 1.07e-9 s.
CPU_CELL_TIME: float = 1.07e-9

#: Relative extra CPU cost of the per-cell sort+scan work versus the
#: streaming update, per log2(d) factor (the CPU baseline sorts with
#: introsort; cost ~ d log d per column versus d for the update).
CPU_SORT_FACTOR: float = 0.35

#: CPU-side merge cost per matrix-profile element per merge operation
#: (~10 ns for the host-side min/argmin of Pseudocode 2 line 7).  Each
#: query column is merged once per covering row-split (sqrt(ntiles) of
#: them), so at n=2^16, d=2^6 the merge grows from ~0.04 s (1 tile) to
#: ~1.3 s (1024 tiles) — the late-upturn of Fig. 7.
MERGE_TIME_PER_ELEMENT: float = 2.0e-8

#: Host-side cost of preparing and dispatching one tile (stream selection,
#: argument marshalling, allocator churn).
TILE_DISPATCH_OVERHEAD: float = 2.0e-4

#: One-off cost of creating a CUDA stream (paper caps at 16 per GPU).
STREAM_SETUP_OVERHEAD: float = 1.0e-5


# ---------------------------------------------------------------------------
# Host-side calibration profiles (the autotuner's absolute-time anchor)
#
# The roofline tables above price the *modelled device*; the autotuner must
# also predict *host wall time*, because the kernels execute as real numpy
# on this machine.  A CalibrationProfile captures the handful of host
# constants that prediction needs — measured by `measure_host_profile`
# (the `repro calibrate` subcommand) and persisted as JSON so later runs
# start from measured constants instead of cold defaults.

#: Mode keys of the per-mode host tables, in ladder order.
_PROFILE_MODES = ("FP64", "FP32", "Mixed", "FP16", "FP16C")

#: Cold-start host seconds per distance-matrix cell-dimension, per mode.
#: numpy has no native half SIMD path, so the FP16-family modes are
#: *slower per cell on the host* even though the modelled device is
#: faster — exactly why the autotuner needs a host table separate from
#: the roofline tables.
_DEFAULT_SECONDS_PER_CELL: dict[str, float] = {
    "FP64": 1.2e-8,
    "FP32": 9.0e-9,
    "Mixed": 1.6e-8,
    "FP16": 2.4e-8,
    "FP16C": 4.0e-8,
}

#: Cold-start host cost of one row-block super-step (per-block python
#: dispatch: slicing, kernel-object churn, cost accounting).
_DEFAULT_SUPERSTEP_OVERHEAD: dict[str, float] = {
    "FP64": 2.0e-4,
    "FP32": 2.0e-4,
    "Mixed": 2.5e-4,
    "FP16": 2.5e-4,
    "FP16C": 3.0e-4,
}


@dataclass
class CalibrationProfile:
    """Measured host-execution constants for autotuner cost prediction.

    ``seconds_per_cell`` and ``superstep_overhead`` are per-mode tables
    (mode value -> seconds); the remaining fields are mode-independent.
    ``source`` records provenance: ``"default"`` (cold analytic guesses)
    or ``"measured"`` (written by :func:`measure_host_profile`).
    """

    device: str = "A100"
    seconds_per_cell: dict[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_SECONDS_PER_CELL)
    )
    superstep_overhead: dict[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_SUPERSTEP_OVERHEAD)
    )
    #: Fixed host cost per dispatched tile (planning, layout slicing,
    #: stream selection, result merge bookkeeping).
    tile_overhead: float = 1.5e-3
    #: Fixed host cost per extra worker thread (spawn + join + queue).
    worker_overhead: float = 5.0e-4
    #: Fraction of the ideal per-worker speedup the host thread pool
    #: achieves (1.0 = perfect scaling, 0.0 = no benefit; the GIL-bound
    #: dispatch layer keeps this well below 1 on most machines).
    parallel_efficiency: float = 0.55
    #: Row-block workspace bytes that stay cache-resident; larger blocks
    #: spill and pay ``spill_factor`` on the per-cell term.
    workspace_bytes: float = 8.0 * 1024 * 1024
    #: Per-cell slowdown multiplier once the block workspace has spilled
    #: far past ``workspace_bytes``.
    spill_factor: float = 1.6
    #: Host per-cell multiplier of the tensor-core main loop relative to
    #: the vector path at the same mode (the packed-panel GEMM update
    #: replaces the per-row streaming recurrence; < 1 means faster).
    tc_cell_factor: float = 0.5
    #: Host super-step multiplier of the tensor-core main loop (panel
    #: packing, shear gathers and chained-GEMM dispatch per block cost
    #: more python than the vector super-step).
    tc_step_factor: float = 1.5
    source: str = "default"

    def cell_time(self, mode) -> float:
        """Host seconds per cell-dimension at ``mode`` (falls back to FP64)."""
        key = getattr(mode, "value", str(mode))
        return self.seconds_per_cell.get(key, self.seconds_per_cell["FP64"])

    def step_time(self, mode) -> float:
        """Host seconds per row-block super-step at ``mode``."""
        key = getattr(mode, "value", str(mode))
        return self.superstep_overhead.get(key, self.superstep_overhead["FP64"])

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        data = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def default_profile(device: str = "A100") -> CalibrationProfile:
    """The cold-start profile (analytic guesses, ``source='default'``)."""
    return CalibrationProfile(device=str(getattr(device, "name", device)))


def save_profile(profile: CalibrationProfile, path) -> Path:
    """Persist ``profile`` as JSON; returns the written path."""
    path = Path(path)
    path.write_text(profile.to_json())
    return path


def load_profile(path) -> CalibrationProfile:
    """Load a profile written by :func:`save_profile`."""
    return CalibrationProfile.from_json(Path(path).read_text())


def measure_host_profile(
    device: str = "A100",
    modes=_PROFILE_MODES,
    n_seg: int = 160,
    d: int = 4,
    m: int = 24,
    repeats: int = 2,
    clock=None,
) -> CalibrationProfile:
    """Measure the host constants by timing small probe runs.

    Per mode, times one self-join tile at ``row_block=1`` versus a fully
    blocked run.  Both go through the same blocked main loop, the first in
    one-row super-steps, so the difference is the per-super-step overhead
    ``HostCostModel`` prices; the blocked time (minus overheads) yields
    the per-cell rate.  A pair of
    4-tile runs at 1 versus 2 workers fits the thread-pool efficiency.
    Probe sizes are deliberately tiny (sub-second total) — the constants
    feed *relative* candidate ranking, where small-sample noise washes
    out against the 2-10x effects being ranked.
    """
    import time

    import numpy as np

    from ..core.config import RunConfig
    from ..core.multi_tile import compute_multi_tile
    from ..core.single_tile import compute_single_tile

    clock = clock or time.perf_counter
    rng = np.random.default_rng(7)
    series = rng.standard_normal((n_seg + m - 1, d)).cumsum(axis=0)
    tiny = series[: 4 * m + m - 1]

    def timed(fn, *args, **kwargs) -> float:
        best = math.inf
        for _ in range(max(repeats, 1)):
            t0 = clock()
            fn(*args, **kwargs)
            best = min(best, clock() - t0)
        return best

    profile = default_profile(device)
    cells = float(n_seg) * n_seg * d
    blocked = max(32, n_seg)
    steps_blocked = math.ceil(n_seg / blocked)
    tile_overheads = []
    for mode in modes:
        base = RunConfig(mode=mode, device=device)
        t_tiny = timed(
            compute_single_tile, tiny, None, m, base.with_(row_block=blocked)
        )
        t_rowed = timed(
            compute_single_tile, series, None, m, base.with_(row_block=1)
        )
        t_block = timed(
            compute_single_tile, series, None, m, base.with_(row_block=blocked)
        )
        steps = n_seg - steps_blocked
        step = max((t_rowed - t_block) / max(steps, 1), 1e-7)
        overhead = steps_blocked * step + t_tiny
        spc = max((t_block - overhead) / cells, 1e-10)
        key = getattr(mode, "value", str(mode))
        profile.seconds_per_cell[key] = spc
        profile.superstep_overhead[key] = step
        tile_overheads.append(t_tiny)
    profile.tile_overhead = max(min(tile_overheads), 1e-5)

    cfg = RunConfig(mode="FP64", device=device, n_tiles=4)
    t_serial = timed(compute_multi_tile, series, None, m, cfg)
    t_pair = timed(
        compute_multi_tile, series, None, m, cfg.with_(parallel_workers=2)
    )
    # t(w) = serial / (1 + eff*(w-1))  =>  eff = serial/t(w) - 1 at w=2.
    if t_pair > 0:
        profile.parallel_efficiency = min(max(t_serial / t_pair - 1.0, 0.0), 1.0)
    profile.source = "measured"
    return profile


def dram_efficiency(kernel: str, itemsize: int) -> float:
    """Achieved DRAM-bandwidth fraction for ``kernel`` at ``itemsize`` bytes."""
    table = DRAM_EFFICIENCY.get(kernel)
    if table is None:
        table = DRAM_EFFICIENCY["precalculation"]
    return table.get(itemsize, table[8])


def l1_efficiency(itemsize: int) -> float:
    """Achieved L1/TEX-bandwidth fraction at ``itemsize`` bytes."""
    return L1_EFFICIENCY.get(itemsize, L1_EFFICIENCY[8])


def device_scale(device_name: str) -> float:
    """Per-device achievability multiplier on memory throughput."""
    return DEVICE_EFFICIENCY_SCALE.get(device_name, 1.0)
