"""Tile backends: how one tile actually gets executed.

The dispatcher (:mod:`repro.engine.dispatch`) is backend-agnostic: it
hands a :class:`~repro.engine.plan.ExecutionPlan` tile to a
:class:`TileBackend` and gets back a :class:`TileExecution` carrying the
modelled :class:`~repro.gpu.perfmodel.TileTiming` and (for numeric
backends) the tile's :class:`TileOutput`.  Two backends exist:

* :class:`NumericBackend` — Pseudocode 1 for real: slice + upload the
  device layouts, reserve the workspace, run the four kernels via
  :func:`run_tile`, and free everything afterwards.  Allocation cleanup
  is context-managed, so an injected failure or OOM mid-tile can no
  longer leak pool memory the way the old hand-rolled
  ``alloc.free()`` choreography could.  For self-join *diagonal* tiles
  (identical row/col sample ranges on a shared layout) the query slice
  reuses the reference allocation — one upload instead of two — and the
  saved H2D bytes are recorded on the execution.
* :class:`AnalyticBackend` — no data at all: per-tile timings from the
  roofline cost model (:func:`~repro.gpu.perfmodel.single_tile_timing`),
  enabling paper-scale projections (n = 2^16 and beyond) and the
  multi-node deployment model.

This module is also the home of the tile *primitive* itself
(:func:`run_tile`, :class:`TileOutput`, :func:`schedule_tile`,
:func:`tile_timing_from_output`), re-exported by
:mod:`repro.core.single_tile` for backwards compatibility.
"""

from __future__ import annotations

import math
import threading
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Protocol, runtime_checkable

import numpy as np

from ..gpu.kernel import KernelCost, LaunchConfig
from ..gpu.perfmodel import TileTiming, kernel_time, single_tile_timing
from ..gpu.simulator import SimulatedGPU, schedule_tile_timing
from ..gpu.stream import Stream, Timeline
from ..kernels.dist_calc import DistCalcKernel, block_rows
from ..kernels.precalc import PrecalcKernel, PreparedPrecalc
from ..kernels.sort_scan import SortScanKernel
from ..kernels.sort_scan_batch import BatchSortScanKernel
from ..kernels.tc_gemm import TcGemmKernel
from ..kernels.update import INDEX_DTYPE, UpdateKernel
from ..precision.modes import TENSOR_CORE_MODES, PrecisionMode, PrecisionPolicy
from .plan import ExecutionPlan, Tile

__all__ = [
    "TileOutput",
    "TileExecution",
    "TileBackend",
    "NumericBackend",
    "TensorCoreBackend",
    "AnalyticBackend",
    "WorkspacePool",
    "backend_for",
    "run_tile",
    "schedule_tile",
    "tile_timing_from_output",
    "workspace_bytes",
    "KERNEL_ORDER",
]

KERNEL_ORDER = ("precalculation", "dist_calc", "sort_&_incl_scan", "update_mat_prof")


#: Workspace row planes the main loop keeps live, priced in half-plane
#: units (each plane is double-buffered in row halves by the streaming
#: recurrence).  The vector path streams 4 — the QT and D planes, each
#: double-buffered — while the tensor-core panel kernel holds ~3: its
#: FP32 pad/accumulate/scan fragments cover 16-row MMA chunks rather
#: than full row planes, so the capacity model must not charge it the
#: vector path's footprint (it over-splits on OOM otherwise).
WORKSPACE_HALF_PLANES = {"vector": 4, "tensor_core": 3}


def workspace_bytes(
    n_r_seg: int,
    n_q_seg: int,
    d: int,
    policy: PrecisionPolicy,
    main_loop: str = "vector",
    mirror: bool = False,
) -> int:
    """Device footprint of a tile's intermediates beyond the raw inputs:
    the eight precalculated vectors, the main loop's workspace planes
    (backend-dependent — see :data:`WORKSPACE_HALF_PLANES`), and the
    running P/I output planes (cf. ``core.planner.tile_memory_bytes``).
    ``mirror`` adds the second, row-indexed P/I pair a symmetric
    self-join tile writes."""
    s = policy.itemsize
    precalc = (4 * n_r_seg + 4 * n_q_seg) * d * s
    half_planes = WORKSPACE_HALF_PLANES.get(main_loop, 4)
    planes = half_planes * n_q_seg * d * s // 2
    outputs = n_q_seg * d * (s + INDEX_DTYPE.itemsize)
    if mirror:
        outputs += n_r_seg * d * (s + INDEX_DTYPE.itemsize)
    return int(precalc + planes + outputs)


@lru_cache(maxsize=64)
def _cached_arange(n: int) -> np.ndarray:
    """Read-only ``np.arange(n)``, cached per length — the exclusion-zone
    column-index vector is the same for every row and every tile of a
    given width, so it is built once instead of per ``run_tile`` call."""
    idx = np.arange(n)
    idx.setflags(write=False)
    return idx


class WorkspacePool:
    """Reusable host-side kernel workspaces, one buffer per dtype.

    The row-blocked main loop leases its ``(d, B, n_q)`` QT block buffer
    from here, amortising the allocation across blocks, rows *and* tiles
    executed by the same worker.  Each dtype keeps one flat buffer, grown
    to the largest request, and a lease is a reshaped prefix view of it,
    so a worker whose block shapes keep changing (a stream's band tiles
    widen on every append) still holds one buffer per dtype.  A request
    of the last leased shape gets the same view back.  :meth:`lease` is
    a context manager: the buffer returns to the pool on every exit path,
    so an injected fault or device OOM mid-tile can neither leak the
    buffer nor leave it checked out.  Pools are per-worker (see
    ``NumericBackend``), so no locking is needed.
    """

    def __init__(self):
        self._free: dict[np.dtype, np.ndarray] = {}

    @contextmanager
    def lease(self, shape: tuple[int, ...], dtype):
        shape, dtype = tuple(shape), np.dtype(dtype)
        buf = self._free.pop(dtype, None)
        if buf is None or buf.shape != shape:
            size = math.prod(shape)
            base = None if buf is None else buf.base
            if base is None or base.size < size:
                base = np.empty(size, dtype=dtype)
            buf = base[:size].reshape(shape)
        try:
            yield buf
        finally:
            self._free[dtype] = buf


#: Maps kernel class cost names to the paper's kernel labels.
_KERNEL_LABELS = {
    "PrecalcKernel": "precalculation",
    "DistCalcKernel": "dist_calc",
    "TcGemmKernel": "dist_calc",
    "SortScanKernel": "sort_&_incl_scan",
    "BatchSortScanKernel": "sort_&_incl_scan",
    "UpdateKernel": "update_mat_prof",
}


@dataclass
class TileOutput:
    """Numerical output + hardware costs of one executed tile."""

    profile: np.ndarray  # (d, n_q_seg), storage dtype, dimension-wise layout
    indices: np.ndarray  # (d, n_q_seg), int64, *global* reference positions
    costs: dict[str, KernelCost] = field(default_factory=dict)
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    #: Mirrored contribution of a symmetric self-join tile (row-wise
    #: reduce of the same distance panels, indexed by tile-local row;
    #: indices are global *column* positions).  ``None`` unless the tile
    #: ran with ``mirror=True``.
    mirror_profile: np.ndarray | None = None
    mirror_indices: np.ndarray | None = None


def run_tile(
    tr_dev: np.ndarray,
    tq_dev: np.ndarray,
    m: int,
    policy: PrecisionPolicy,
    launch: LaunchConfig,
    row_offset: int = 0,
    col_offset: int = 0,
    exclusion_zone: int | None = None,
    sort_strategy: str = "bitonic",
    fast_path_1d: bool = True,
    row_block: int = 1,
    workspace: "WorkspacePool | None" = None,
    precalc: "PreparedPrecalc | None" = None,
    main_loop: str = "vector",
    mirror: bool = False,
) -> TileOutput:
    """Execute the kernels of one tile; pure numerics + cost accounting.

    ``tr_dev``/``tq_dev`` are (d, len) device-layout arrays in the storage
    dtype.  ``row_offset``/``col_offset`` locate the tile inside the global
    distance matrix (indices recorded in the output are global).
    ``exclusion_zone`` (for self-joins) suppresses matches with
    ``|global_row - global_col| <= zone``.  ``sort_strategy`` selects the
    cooperative bitonic kernel or the batch-based ablation alternative;
    ``fast_path_1d`` skips the sort/scan entirely for d == 1 (identity).

    The main loop runs in super-steps of ``row_block`` reference rows
    (``row_block=1`` runs one-row blocks): ``dist_calc`` fills a leased
    ``(d, B, n_q)`` QT workspace (sequential recurrence, no per-row
    temporaries), the column-independent sort/scan runs once per block
    on the reshaped ``(d, B*n_q)`` plane and the update reduces the
    block before one merge into the running profile.  On the vector
    path a tile taller than wide takes budget-sized blocks instead
    (``row_block`` is then a floor; see
    :func:`~repro.kernels.dist_calc.block_rows`), which ``dist_calc``
    walks column by column.  Output, kernel costs and therefore modelled
    timings are bit-for-bit identical for every block size, and to the
    per-row reference execution the tests keep — blocking only
    amortises the host dispatch overhead.  ``workspace`` is an optional
    :class:`WorkspacePool` reused across calls.

    ``precalc`` is an optional :class:`~repro.kernels.precalc.
    PreparedPrecalc` assembled by the plan-level
    :class:`~repro.engine.precalc_cache.PrecalcPlaneCache`: its result
    (bit-identical to running :class:`PrecalcKernel` here) is used
    directly and its pre-computed cost stands in for the kernel's.  The
    device uploads are unchanged either way — the tile still needs both
    series resident for the main loop, so H2D accounting and the memory
    footprint stay as they were.

    ``main_loop`` selects the main-loop execution path: ``"vector"`` (the
    paper's row-wise recurrence) or ``"tensor_core"`` (the
    packed-panel chained-GEMM kernel of :class:`~repro.kernels.tc_gemm.
    TcGemmKernel`).  The tensor-core path always runs row-blocked (its
    unit of work *is* the panel), keeps the distance panel in the FP32
    accumulator through a fused sort/scan (``SortScanKernel(mma_scan=
    True)``) and reduce-then-store update, and is only valid for the
    ``TENSOR_CORE_MODES`` — callers route ineligible jobs back to
    ``"vector"`` (see :func:`backend_for`).  It is *not* bit-identical
    to the vector path: FP32 accumulation is the point.

    ``mirror=True`` (symmetric self-join tiles) additionally reduces
    every distance panel row-wise: the returned output carries a second
    ``(d, n_r_seg)`` profile/index pair — the transposed contribution of
    the lower-triangle twin this tile replaces (D(i, j) = D(j, i)), with
    indices recording global *column* positions.  The exclusion mask is
    symmetric in global coordinates, so the same lifted panel feeds both
    reduces.
    """
    d = tr_dev.shape[0]
    n_r_seg = tr_dev.shape[1] - m + 1
    n_q_seg = tq_dev.shape[1] - m + 1
    if n_r_seg < 1 or n_q_seg < 1:
        raise ValueError(f"m={m} leaves no segments for tile of shape "
                         f"{tr_dev.shape} x {tq_dev.shape}")
    if main_loop not in ("vector", "tensor_core"):
        raise ValueError(
            f"main_loop must be 'vector' or 'tensor_core', got {main_loop!r}"
        )
    tensor_core = main_loop == "tensor_core"
    if tensor_core and policy.mode not in TENSOR_CORE_MODES:
        eligible = ", ".join(mode.value for mode in TENSOR_CORE_MODES)
        raise ValueError(
            f"tensor-core main loop requires one of ({eligible}), got"
            f" {policy.mode.value}; route ineligible modes to the vector"
            f" path (backend_for does)"
        )

    if tensor_core:
        dist = TcGemmKernel(config=launch, policy=policy)
        # The fused path hands the sort stage the FP32 accumulator panel;
        # mma_scan consumes it without intermediate half roundings.  The
        # batch-sort ablation has no wide-panel path, so the strategy
        # knob is rejected upstream (RunConfig) for this backend.
        sort_scan = SortScanKernel(config=launch, policy=policy, mma_scan=True)
    else:
        dist = DistCalcKernel(config=launch, policy=policy)
        if sort_strategy == "batch":
            sort_scan = BatchSortScanKernel(config=launch, policy=policy)
        else:
            sort_scan = SortScanKernel(config=launch, policy=policy)
    update = UpdateKernel(config=launch, policy=policy)
    skip_sort = fast_path_1d and d == 1

    if precalc is None:
        precalc_kernel = PrecalcKernel(config=launch, policy=policy)
        pre = precalc_kernel.run(tr_dev, tq_dev, m)
        precalc_cost = precalc_kernel.cost
    else:
        pre = precalc.result
        precalc_cost = precalc.cost
    dist.bind(pre)
    update.allocate(d, n_q_seg, mirror_rows=n_r_seg if mirror else None)

    cols_global = _cached_arange(n_q_seg) + col_offset
    if not tensor_core:
        row_block = block_rows(n_r_seg, n_q_seg, d, row_block)
    block = max(1, min(row_block, n_r_seg))
    if tensor_core:
        # The panel kernel keeps the QT panel in its own FP32 accumulator
        # scratch; only the vector path needs the compute-dtype workspace.
        lease = nullcontext()
    else:
        pool = workspace if workspace is not None else WorkspacePool()
        lease = pool.lease((d, block, n_q_seg), policy.compute)
    with lease as qt_ws:
        for i0 in range(0, n_r_seg, block):
            b = min(block, n_r_seg - i0)
            dist_blk = dist.run_block(
                i0, b, None if qt_ws is None else qt_ws[:, :b, :]
            )
            if skip_sort:
                avg_blk = dist_blk
            else:
                flat = dist_blk.reshape(d, b * n_q_seg)
                avg_blk = sort_scan.run(flat, rows=b).reshape(d, b, n_q_seg)
            mask = None
            if exclusion_zone is not None:
                rows_global = _cached_arange(n_r_seg)[i0 : i0 + b] + row_offset
                mask = (
                    np.abs(cols_global[None, :] - rows_global[:, None])
                    <= exclusion_zone
                )
            update.run_block(avg_blk, i0, row_offset=row_offset, mask=mask,
                             col_offset=col_offset)

    itemsize = policy.itemsize
    h2d_bytes = float((tr_dev.shape[1] + tq_dev.shape[1]) * d * itemsize)
    d2h_bytes = float(n_q_seg * d * (itemsize + INDEX_DTYPE.itemsize))
    if mirror:
        # The mirrored P/I pair rides the same download.
        d2h_bytes += float(n_r_seg * d * (itemsize + INDEX_DTYPE.itemsize))
    costs = {
        _KERNEL_LABELS[c.name]: replace(c, name=_KERNEL_LABELS[c.name])
        for c in (precalc_cost, dist.cost, sort_scan.cost, update.cost)
    }
    return TileOutput(
        profile=update.profile,
        indices=update.indices,
        costs=costs,
        h2d_bytes=h2d_bytes,
        d2h_bytes=d2h_bytes,
        mirror_profile=update.mirror_profile,
        mirror_indices=update.mirror_indices,
    )


def tile_timing_from_output(
    output: TileOutput, policy: PrecisionPolicy, device
) -> TileTiming:
    """Convert an executed tile's recorded costs to modelled timings."""
    d, n_q_seg = output.profile.shape
    working_set = 6.0 * n_q_seg * d * policy.itemsize
    timing = TileTiming(h2d_bytes=output.h2d_bytes, d2h_bytes=output.d2h_bytes)
    for name in KERNEL_ORDER:
        cost = output.costs[name]
        itemsize = (
            policy.precalc.itemsize if name == "precalculation" else policy.itemsize
        )
        timing.kernels[name] = kernel_time(
            cost, device, itemsize, working_set=working_set
        )
    return timing


def schedule_tile(
    gpu: SimulatedGPU,
    stream: Stream,
    timeline: Timeline,
    output: TileOutput,
    policy: PrecisionPolicy,
    label: str = "tile0",
) -> None:
    """Place one executed tile's operations on a simulated stream.

    The four kernels are aggregated over rows: the engine-exclusive total
    is identical to interleaved per-row scheduling.
    """
    timing = tile_timing_from_output(output, policy, gpu.spec)
    schedule_tile_timing(gpu, stream, timeline, timing, label)


@dataclass
class TileExecution:
    """One tile's run as seen by the dispatcher and accumulator."""

    tile: Tile
    timing: TileTiming
    output: TileOutput | None = None  # None for analytic backends
    gpu_id: int = -1  # filled in by the dispatcher
    h2d_saved_bytes: float = 0.0  # diagonal-tile shared-upload savings
    mode: "PrecisionMode | None" = None  # precision the tile executed at
    precalc_saved_flops: float = 0.0  # plane work amortised away for this tile


@runtime_checkable
class TileBackend(Protocol):
    """Executes one tile of a plan on one simulated GPU."""

    def run(self, plan: ExecutionPlan, tile: Tile, gpu: SimulatedGPU) -> TileExecution:
        ...


class NumericBackend:
    """Real numerics: upload → :func:`run_tile` → free, context-managed.

    Parameters
    ----------
    lock:
        Context manager serialising allocator traffic (the service shares
        one GPU pool across worker threads; numerics stay outside it).
    label:
        Prefix for allocation labels (the service tags them per job).
    discount_shared_h2d:
        When a self-join diagonal tile reuses the reference upload for
        its query slice, also subtract the second upload from the
        modelled H2D bytes.  ``compute_multi_tile`` enables this; the
        single-tile path keeps the paper's original both-series transfer
        accounting for continuity with the calibrated figures.
    """

    #: Main-loop execution path handed to :func:`run_tile`; the
    #: tensor-core subclass overrides it.
    main_loop: str = "vector"

    def __init__(
        self,
        lock=None,
        label: str = "",
        discount_shared_h2d: bool = False,
    ):
        self._lock = lock if lock is not None else nullcontext()
        self._label = f"{label}:" if label else ""
        self.discount_shared_h2d = discount_shared_h2d
        # Host workspace pools are per worker thread: row-blocked tiles
        # reuse their QT block buffer across rows and tiles without any
        # cross-worker contention.
        self._workspaces = threading.local()

    def ensure_serialised_allocator(self) -> None:
        """Install a real lock around allocator traffic if none was given
        (called by the dispatcher before running tiles on worker threads)."""
        if isinstance(self._lock, nullcontext):
            self._lock = threading.RLock()

    def _workspace_pool(self) -> WorkspacePool:
        pool = getattr(self._workspaces, "pool", None)
        if pool is None:
            pool = WorkspacePool()
            self._workspaces.pool = pool
        return pool

    def run(self, plan: ExecutionPlan, tile: Tile, gpu: SimulatedGPU) -> TileExecution:
        spec = plan.spec
        policy = spec.policy
        config = spec.config
        m = spec.m
        r0, r1 = tile.sample_range_rows(m)
        c0, c1 = tile.sample_range_cols(m)
        # Self-join diagonal tile: row and column slices are the same
        # samples of the same layout — upload once, bind twice.
        shared = plan.tq_layout is plan.tr_layout and (r0, r1) == (c0, c1)
        # Amortised precalculation: assembled host-side before any device
        # allocation, so a device OOM cannot strand a half-built plane
        # cache and the (locked) plane build never holds device memory.
        prepared = None
        cache = getattr(plan, "precalc_cache", None)
        if cache is not None:
            prepared = cache.prepare(plan, tile)
        with ExitStack() as stack:
            with self._lock:
                tr_alloc = gpu.memory.upload(
                    np.ascontiguousarray(plan.tr_layout[:, r0:r1]),
                    label=f"{self._label}Tr{tile.tile_id}",
                )
                stack.callback(self._free, tr_alloc)
                if shared:
                    tq_alloc = tr_alloc
                else:
                    tq_alloc = gpu.memory.upload(
                        np.ascontiguousarray(plan.tq_layout[:, c0:c1]),
                        label=f"{self._label}Tq{tile.tile_id}",
                    )
                    stack.callback(self._free, tq_alloc)
            # Per-plan eligibility: an escalated plan may have widened the
            # mode past the tensor-core formats (FP16 -> FP32 on a sick
            # tile), in which case *that* execution silently takes the
            # vector path — escalation composes without special-casing.
            main_loop = self.main_loop
            if policy.mode not in TENSOR_CORE_MODES:
                main_loop = "vector"
            mirror = getattr(tile, "mirror", False)
            with self._lock:
                workspace = gpu.memory.reserve(
                    workspace_bytes(
                        tile.n_rows,
                        tile.n_cols,
                        spec.d,
                        policy,
                        main_loop=main_loop,
                        mirror=mirror,
                    ),
                    label=f"{self._label}ws{tile.tile_id}",
                )
                stack.callback(self._free, workspace)
            output = run_tile(
                tr_alloc.array,
                tq_alloc.array,
                m,
                policy,
                config.launch,
                row_offset=tile.row_start,
                col_offset=tile.col_start,
                exclusion_zone=spec.exclusion_zone,
                sort_strategy=config.sort_strategy,
                fast_path_1d=config.fast_path_1d,
                row_block=plan.row_block,
                workspace=self._workspace_pool(),
                precalc=prepared,
                main_loop=main_loop,
                mirror=mirror,
            )
        saved = 0.0
        if shared and self.discount_shared_h2d:
            saved = float((c1 - c0) * spec.d * policy.itemsize)
            output.h2d_bytes -= saved
        timing = tile_timing_from_output(output, policy, gpu.spec)
        return TileExecution(
            tile=tile, timing=timing, output=output, h2d_saved_bytes=saved,
            mode=policy.mode,
            precalc_saved_flops=prepared.saved_flops if prepared else 0.0,
        )

    def _free(self, alloc) -> None:
        with self._lock:
            alloc.free()


class TensorCoreBackend(NumericBackend):
    """Numeric backend running the tensor-core main loop.

    Identical to :class:`NumericBackend` in allocation, upload and cost
    plumbing; only the main loop differs — :func:`run_tile` executes
    :class:`~repro.kernels.tc_gemm.TcGemmKernel` super-steps with the
    fused FP32 sort/scan/update epilogue instead of the vector
    recurrence.  Tiles whose (possibly escalated) precision mode falls
    outside ``TENSOR_CORE_MODES`` transparently run the vector path, so
    health-check escalation up the precision ladder composes unchanged.

    Use :func:`backend_for` to build one from a :class:`~repro.core.
    config.RunConfig` — it owns the eligibility routing and the recorded
    fallback reason.
    """

    main_loop = "tensor_core"


def backend_for(
    config,
    *,
    lock=None,
    label: str = "",
    discount_shared_h2d: bool = False,
) -> "tuple[NumericBackend, str | None]":
    """The numeric backend a :class:`~repro.core.config.RunConfig` asks
    for, plus the fallback reason when the request cannot be honoured.

    ``config.backend == "tensor_core"`` yields a
    :class:`TensorCoreBackend` when the precision mode has a tensor-core
    formulation (``TENSOR_CORE_MODES``: FP16 storage, wide precalc) *and*
    the modelled device has tensor cores; otherwise — and for the default
    ``"numeric"`` — a plain :class:`NumericBackend` with ``reason``
    explaining the downgrade (``None`` when the request was honoured).
    Callers surface the reason on
    :attr:`~repro.core.result.MatrixProfileResult.backend_fallback_reason`.
    """
    kwargs = dict(lock=lock, label=label, discount_shared_h2d=discount_shared_h2d)
    requested = getattr(config, "backend", "numeric")
    if requested != "tensor_core":
        return NumericBackend(**kwargs), None
    mode = config.policy.mode
    if mode not in TENSOR_CORE_MODES:
        eligible = ", ".join(m.value for m in TENSOR_CORE_MODES)
        return NumericBackend(**kwargs), (
            f"mode {mode.value} has no tensor-core formulation"
            f" (eligible: {eligible})"
        )
    if not getattr(config.device, "has_tensor_cores", False):
        return NumericBackend(**kwargs), (
            f"device {config.device.name} has no tensor cores"
        )
    return TensorCoreBackend(**kwargs), None


class AnalyticBackend:
    """Roofline-model timings only — no data touched.

    Serves ``model_multi_tile`` and the multi-node deployment model: the
    tile's dimensions and the precision policy fully determine the
    modelled cost, so paper-scale problems plan in microseconds.
    """

    def run(self, plan: ExecutionPlan, tile: Tile, gpu: SimulatedGPU) -> TileExecution:
        spec = plan.spec
        policy = spec.policy
        timing = single_tile_timing(
            tile.n_rows,
            tile.n_cols,
            spec.d,
            spec.m,
            gpu.spec,
            policy.itemsize,
            config=spec.config.launch,
            precalc_itemsize=policy.precalc.itemsize,
            compensated=policy.compensated,
        )
        return TileExecution(tile=tile, timing=timing, mode=policy.mode)
