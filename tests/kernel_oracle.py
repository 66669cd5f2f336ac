"""Reference executions the runtime paths are pinned against.

:class:`PerTilePrecalc` restarts the whole precalculation per tile, the
oracle of the plan-level plane caches.  :func:`run_tile_per_row` is the
oracle of the main loop.

The runtime main loop (:func:`repro.engine.backends.run_tile`) runs
row-blocked super-steps with vectorised fast paths.
:func:`run_tile_per_row` runs Pseudocode 1 the way the paper's kernels
do, one reference row at a time:

* ``dist_calc`` — the Eq. (1) QT recurrence, two ``rp_fma`` calls per row,
  then the QT -> distance chain in the compute dtype;
* ``sort_&_incl_scan`` — the stage-by-stage bitonic network (padded to a
  power of two with the dtype maximum) and the fan-in scan;
* ``update_mat_prof`` — the strict-``<`` merge of each row into the
  running profile, masked around the diagonal, plus the row-wise reduce
  of a mirrored symmetric tile.

Costs are recorded once per row through the kernels' own accounting, with
the sort's stage count taken from the network that actually ran, so the
blocked path's per-logical-row costs compare equal too.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from repro.engine.backends import _KERNEL_LABELS, TileOutput
from repro.kernels.dist_calc import DistCalcKernel
from repro.kernels.precalc import PrecalcKernel, PreparedPrecalc
from repro.kernels.sort_scan import SortScanKernel, fanin_inclusive_scan
from repro.kernels.sort_scan_batch import BatchSortScanKernel
from repro.kernels.update import INDEX_DTYPE, UpdateKernel
from repro.precision.arithmetic import rp_fma
from repro.precision.modes import DTYPE_MAX

__all__ = ["PerTilePrecalc", "bitonic_sort", "run_tile_per_row"]


class PerTilePrecalc:
    """Per-tile precalculation: :meth:`PrecalcKernel.run` on each tile's
    own device slices, the way the paper restarts it per tile.

    Duck-types the ``prepare(plan, tile)`` contract of the plane caches
    (:class:`~repro.engine.precalc_cache.PrecalcPlaneCache`,
    :class:`~repro.streams.incremental.StreamPlaneCache`), so a test can
    swap it into ``plan.precalc_cache``.  Diagonal self-join tiles hand
    the kernel one array for both roles, as the backend's shared upload
    does.  Every tile is charged its full precalculation and saves
    nothing.
    """

    def prepare(self, plan, tile) -> PreparedPrecalc:
        spec = plan.spec
        m = spec.m
        r0, r1 = tile.sample_range_rows(m)
        c0, c1 = tile.sample_range_cols(m)
        tr = np.ascontiguousarray(plan.tr_layout[:, r0:r1])
        shared = plan.tq_layout is plan.tr_layout and (r0, r1) == (c0, c1)
        tq = tr if shared else np.ascontiguousarray(plan.tq_layout[:, c0:c1])
        kernel = PrecalcKernel(config=spec.config.launch, policy=spec.policy)
        result = kernel.run(tr, tq, m)
        return PreparedPrecalc(result=result, cost=kernel.cost, saved_flops=0.0)


@lru_cache(maxsize=64)
def _bitonic_network(p: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Compare-exchange passes of the ``p``-input bitonic network: for
    each pass the lower/upper partner rows and the per-pair ascending
    flag column ``(i_lo, i_hi, ascending[:, None])``."""
    passes = []
    idx = np.arange(p)
    size = 2
    while size <= p:
        stride = size // 2
        while stride >= 1:
            partner = idx ^ stride
            lower = idx < partner
            passes.append(
                (idx[lower], partner[lower], ((idx & size) == 0)[lower][:, None])
            )
            stride //= 2
        size *= 2
    return tuple(passes)


def bitonic_sort(plane: np.ndarray, count_stages: bool = False):
    """Bitonic-sort each column of ``plane`` (axis 0) ascending.

    ``plane`` is (d, n) and is padded to the next power of two with the
    dtype's largest finite value (padding sorts to the bottom and is
    stripped before returning).  Returns the sorted (d, n) array, plus
    the stage count when ``count_stages`` is set.  For each ``size``
    (2, 4, ..., p) and each ``stride`` (size/2 ... 1) one full
    compare-exchange pass runs; on the device every pass ends with a
    group synchronisation.
    """
    d, n = plane.shape
    p = 1 << (d - 1).bit_length()
    pad_value = DTYPE_MAX.get(np.dtype(plane.dtype), np.inf)
    work = np.concatenate(
        [plane, np.full((p - d, n), pad_value, dtype=plane.dtype)], axis=0
    )
    passes = _bitonic_network(p)
    for i_lo, i_hi, asc in passes:
        a = work[i_lo]
        b = work[i_hi]
        swap = np.where(asc, a > b, a < b)
        work[i_lo] = np.where(swap, b, a)
        work[i_hi] = np.where(swap, a, b)
    out = work[:d]
    if count_stages:
        return out, len(passes)
    return out


def sort_scan_per_row(plane: np.ndarray, dtype: np.dtype) -> tuple[np.ndarray, int]:
    """D'' of one (d, n_q) plane through the bitonic network and the
    fan-in scan; returns the plane and the executed stage count."""
    d = plane.shape[0]
    sorted_plane, sort_stages = bitonic_sort(
        plane.astype(dtype, copy=False), count_stages=True
    )
    scanned, scan_stages = fanin_inclusive_scan(sorted_plane, dtype, count_stages=True)
    divisors = np.arange(1, d + 1, dtype=np.float64)[:, None].astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        averaged = (scanned / divisors).astype(dtype)
    return averaged, sort_stages + scan_stages


def _distance_rows(pre, dtype: np.dtype):
    """Yield the (d, n_q) distance plane of every reference row."""
    df_r, dg_r, inv_r, df_q, dg_q, inv_q, qt_col0 = (
        a.astype(dtype, copy=False)
        for a in (pre.df_r, pre.dg_r, pre.inv_r, pre.df_q, pre.dg_q,
                  pre.inv_q, pre.qt_col0)
    )
    one = dtype.type(1)
    two_m = dtype.type(2 * pre.m)
    limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
    qt = pre.qt_row0.astype(dtype, copy=True)
    for i in range(pre.n_r_seg):
        if i > 0:
            # Two rounded FMAs per element, matching the __hfma2 pipeline:
            # QT[i, j] = QT[i-1, j-1] + df_r[i]*dg_q[j] + df_q[j]*dg_r[i].
            step = rp_fma(df_r[:, i : i + 1], dg_q[:, 1:], qt[:, :-1], dtype)
            nxt = np.empty_like(qt)
            nxt[:, 1:] = rp_fma(df_q[:, 1:], dg_r[:, i : i + 1], step, dtype)
            nxt[:, 0] = qt_col0[:, i]
            qt = nxt
        with np.errstate(over="ignore", invalid="ignore"):
            corr = ((qt * inv_r[:, i : i + 1]).astype(dtype) * inv_q).astype(dtype)
            gap = np.maximum((one - corr).astype(dtype), dtype.type(0))
            dist = np.sqrt((two_m * gap).astype(dtype)).astype(dtype)
        yield np.where(np.isfinite(dist), dist, limit).astype(dtype)


def run_tile_per_row(
    tr_dev: np.ndarray,
    tq_dev: np.ndarray,
    m: int,
    policy,
    launch,
    col_offset: int = 0,
    exclusion_zone: int | None = None,
    sort_strategy: str = "bitonic",
    mirror: bool = False,
) -> TileOutput:
    """The vector main loop of ``run_tile``, one reference row at a time.

    Takes the :func:`repro.engine.backends.run_tile` arguments the tests
    vary (with a tile at row 0 and the d == 1 sort skip) and returns its
    output: profile, indices, mirrored pair and costs; transfer byte
    counts are left at zero.
    """
    dtype = policy.compute
    storage = policy.storage
    limit = storage.type(DTYPE_MAX[np.dtype(storage)])
    precalc = PrecalcKernel(config=launch, policy=policy)
    pre = precalc.run(tr_dev, tq_dev, m)
    d, n_r_seg, n_q_seg = pre.d, pre.n_r_seg, pre.n_q_seg
    dist_k = DistCalcKernel(config=launch, policy=policy)
    batch = sort_strategy == "batch"
    sort_k = (BatchSortScanKernel if batch else SortScanKernel)(
        config=launch, policy=policy
    )
    update_k = UpdateKernel(config=launch, policy=policy)
    update_k.allocate(d, n_q_seg, mirror_rows=n_r_seg if mirror else None)

    profile = np.full((d, n_q_seg), limit, dtype=storage)
    indices = np.full((d, n_q_seg), -1, dtype=INDEX_DTYPE)
    mirror_profile = np.full((d, n_r_seg), limit, dtype=storage)
    mirror_indices = np.full((d, n_r_seg), -1, dtype=INDEX_DTYPE)
    cols_global = np.arange(n_q_seg) + col_offset
    for i, plane in enumerate(_distance_rows(pre, dtype)):
        dist_k._record_cost(plane.size)
        if d == 1:
            averaged = plane
        elif batch:
            averaged = sort_k.run(plane)
        else:
            averaged, stages = sort_scan_per_row(plane, dtype)
            sort_k._record_cost(plane, stages)
        averaged = averaged.astype(storage, copy=False)
        excluded = np.zeros(n_q_seg, dtype=bool)
        if exclusion_zone is not None:
            excluded = np.abs(cols_global - i) <= exclusion_zone
        improved = (averaged < profile) & ~excluded
        np.copyto(profile, averaged, where=improved)
        np.copyto(indices, INDEX_DTYPE.type(i), where=improved)
        if mirror:
            # Row i's minimum over the tile's columns is the mirrored
            # contribution of global column i.
            lifted = np.where(excluded, limit, averaged)
            best_col = np.argmin(lifted, axis=1)
            best_val = lifted[np.arange(d), best_col]
            won = best_val < mirror_profile[:, i]
            mirror_profile[won, i] = best_val[won]
            mirror_indices[won, i] = best_col[won] + col_offset
        update_k._record_cost(averaged)

    costs = {
        _KERNEL_LABELS[c.name]: replace(c, name=_KERNEL_LABELS[c.name])
        for c in (precalc.cost, dist_k.cost, sort_k.cost, update_k.cost)
    }
    return TileOutput(
        profile=profile,
        indices=indices,
        costs=costs,
        mirror_profile=mirror_profile if mirror else None,
        mirror_indices=mirror_indices if mirror else None,
    )
