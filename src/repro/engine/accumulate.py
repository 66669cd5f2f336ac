"""CPU-side result accumulation: the merge node of the tile DAG.

Pseudocode 2's second loop — min/argmin-merge every tile's profile into
the global one — plus the bookkeeping every caller used to duplicate:
kernel-cost aggregation, merge-element counting and the modelled CPU
merge time.  :class:`ProfileAccumulator` is fed one
:class:`~repro.engine.backends.TileExecution` at a time, and
:class:`TileCommitOrder` decides *when*: a finished tile commits once no
tile with a smaller id is outstanding, so every column receives its
tiles in ascending tile-id order and the strict-``<`` tie-breaking
contract of :func:`merge_tile_outputs` (earliest reference row wins)
holds whatever order tiles finish in — across worker threads, retries,
escalations, cluster nodes and recovery rounds.  Both
:func:`~repro.engine.dispatch.execute_plan` and
:class:`~repro.cluster.ClusterDispatcher` commit through it, so a
journal fed at commit time is always an ascending-id prefix.

For analytic runs (no numerical output) the accumulator still counts
merge elements from the tile geometry, so :meth:`merge_time` models the
same CPU cost the numeric path would pay.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

import numpy as np

from ..core.tiling import Tile
from ..gpu.calibration import MERGE_TIME_PER_ELEMENT, TILE_DISPATCH_OVERHEAD
from ..gpu.kernel import KernelCost
from ..kernels.update import INDEX_DTYPE
from ..precision.modes import DTYPE_MAX, PrecisionPolicy

__all__ = ["merge_tile_outputs", "merge_mirrored", "ProfileAccumulator", "TileCommitOrder"]


def merge_tile_outputs(
    profile: np.ndarray,
    index: np.ndarray,
    tile: Tile,
    tile_profile: np.ndarray,
    tile_index: np.ndarray,
) -> None:
    """CPU-side min/argmin merge of one tile into the global profile.

    ``profile``/``index`` are global (d, n_q_seg) accumulators; the tile
    contributes its query-column slice.  Strict ``<`` keeps the earliest
    reference row on ties (tiles are merged in row-major tile order, so
    this matches the sequential single-tile iteration order).
    """
    sl = slice(tile.col_start, tile.col_stop)
    target_p = profile[:, sl]
    target_i = index[:, sl]
    improved = tile_profile < target_p
    np.copyto(target_p, tile_profile, where=improved)
    np.copyto(target_i, tile_index, where=improved)


def merge_mirrored(
    profile: np.ndarray,
    index: np.ndarray,
    tile: Tile,
    mirror_profile: np.ndarray,
    mirror_indices: np.ndarray,
) -> None:
    """Merge a symmetric tile's mirrored (row-wise) contribution.

    By symmetry D(i, j) = D(j, i), the row-wise minimum of an
    upper-triangular tile's panel is the profile contribution of global
    columns ``[row_start, row_stop)`` — the band its lower-triangle twin
    would have covered — with the recorded indices already global column
    positions.  The same strict ``<`` applies: together with the
    triangular grid's (band_row, band_col) tile order, every profile
    column still receives its contributions in ascending reference-band
    order, so the earliest-index tie-break matches the full grid's.
    """
    sl = slice(tile.row_start, tile.row_stop)
    target_p = profile[:, sl]
    target_i = index[:, sl]
    improved = mirror_profile < target_p
    np.copyto(target_p, mirror_profile, where=improved)
    np.copyto(target_i, mirror_indices, where=improved)


class ProfileAccumulator:
    """Accumulates tile executions into the global profile + cost totals.

    Parameters
    ----------
    d, n_q_seg:
        Global profile shape (dimension-wise device layout).
    policy:
        Precision policy; the profile starts at the storage dtype's
        distance limit with index -1, so untouched columns of a partial
        (anytime/deadline) run remain a valid upper bound.
    materialize:
        ``False`` for analytic runs — no arrays are allocated, only the
        merge-element and cost accounting is kept.
    """

    def __init__(
        self,
        d: int,
        n_q_seg: int,
        policy: PrecisionPolicy,
        materialize: bool = True,
    ):
        self.d = d
        self.n_q_seg = n_q_seg
        self.policy = policy
        if materialize:
            limit = policy.storage.type(DTYPE_MAX[policy.storage])
            self.profile = np.full((d, n_q_seg), limit, dtype=policy.storage)
            self.index = np.full((d, n_q_seg), -1, dtype=INDEX_DTYPE)
        else:
            self.profile = None
            self.index = None
        self.costs: dict[str, KernelCost] = {}
        self.merge_elements = 0
        self.h2d_saved_bytes = 0.0
        self.precalc_saved_flops = 0.0

    def add(self, execution) -> None:
        """Merge one completed tile (numeric or analytic)."""
        self.h2d_saved_bytes += execution.h2d_saved_bytes
        self.precalc_saved_flops += getattr(execution, "precalc_saved_flops", 0.0)
        output = execution.output
        if output is None:
            # Analytic tile: the merge would touch n_cols columns x d dims
            # (plus the n_rows-column mirrored band of a symmetric tile).
            self.merge_elements += execution.tile.n_cols * self.d
            if getattr(execution.tile, "mirror", False):
                self.merge_elements += execution.tile.n_rows * self.d
            return
        merge_tile_outputs(
            self.profile, self.index, execution.tile,
            output.profile, output.indices,
        )
        self.merge_elements += output.profile.size
        if getattr(output, "mirror_profile", None) is not None:
            merge_mirrored(
                self.profile, self.index, execution.tile,
                output.mirror_profile, output.mirror_indices,
            )
            self.merge_elements += output.mirror_profile.size
        for name, cost in output.costs.items():
            self.costs[name] = (
                cost if name not in self.costs else self.costs[name] + cost
            )

    def extend_columns(self, n_q_seg: int) -> None:
        """Grow the accumulator to ``n_q_seg`` query columns in place.

        New columns start at the storage dtype's distance limit with
        index -1 — exactly the initial state — so a stream that appends
        query segments and then merges the new-band tiles is in the same
        state as an accumulator built at the larger size from scratch.
        Existing columns are untouched (the arrays are copied, values
        preserved bit for bit).
        """
        if n_q_seg < self.n_q_seg:
            raise ValueError(
                f"cannot shrink accumulator from {self.n_q_seg} to "
                f"{n_q_seg} columns"
            )
        if n_q_seg == self.n_q_seg:
            return
        if self.profile is not None:
            limit = self.policy.storage.type(DTYPE_MAX[self.policy.storage])
            profile = np.full(
                (self.d, n_q_seg), limit, dtype=self.policy.storage
            )
            index = np.full((self.d, n_q_seg), -1, dtype=INDEX_DTYPE)
            profile[:, : self.n_q_seg] = self.profile
            index[:, : self.n_q_seg] = self.index
            self.profile = profile
            self.index = index
        self.n_q_seg = n_q_seg

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The accumulator's mergeable state as plain arrays (for
        checkpoint journals; costs are serialised separately)."""
        if self.profile is None:
            raise ValueError("an analytic accumulator has no state to save")
        return {
            "profile": self.profile,
            "index": self.index,
            "merge_elements": np.int64(self.merge_elements),
            "h2d_saved_bytes": np.float64(self.h2d_saved_bytes),
            "precalc_saved_flops": np.float64(self.precalc_saved_flops),
        }

    def restore_state(
        self,
        profile: np.ndarray,
        index: np.ndarray,
        merge_elements: int,
        h2d_saved_bytes: float,
        costs: dict[str, KernelCost] | None = None,
        precalc_saved_flops: float = 0.0,
    ) -> None:
        """Adopt journaled state (checkpoint/resume).  The arrays must
        match the accumulator's shape and storage dtype exactly — resume
        is bit-identical, not a cast."""
        if self.profile is None:
            raise ValueError("cannot restore into an analytic accumulator")
        if profile.shape != self.profile.shape:
            raise ValueError(
                f"journal profile shape {profile.shape} does not match "
                f"accumulator {self.profile.shape}"
            )
        if profile.dtype != self.profile.dtype:
            raise ValueError(
                f"journal dtype {profile.dtype} does not match accumulator "
                f"storage {self.profile.dtype}"
            )
        self.profile[...] = profile
        self.index[...] = index
        self.merge_elements = int(merge_elements)
        self.h2d_saved_bytes = float(h2d_saved_bytes)
        self.precalc_saved_flops = float(precalc_saved_flops)
        if costs is not None:
            self.costs = dict(costs)

    def merge_time(self, dispatch_count: int) -> float:
        """Modelled CPU merge time for ``dispatch_count`` dispatched tiles
        (callers pass completed tiles for partial runs)."""
        return (
            self.merge_elements * MERGE_TIME_PER_ELEMENT
            + dispatch_count * TILE_DISPATCH_OVERHEAD
        )

    def host_profile(self) -> np.ndarray:
        """The (n_q_seg, d) float64 time-major profile for results."""
        return np.ascontiguousarray(self.profile.T.astype(np.float64))

    def host_index(self) -> np.ndarray:
        """The (n_q_seg, d) int64 time-major index for results."""
        return np.ascontiguousarray(self.index.T)


class TileCommitOrder:
    """The commit rule: finished tiles commit in ascending tile-id order.

    ``commit(execution)`` is called for a finished tile once no tile with
    a smaller id is outstanding — queued, in flight, or waiting for a
    retry or escalation.  Outstanding ids live in a heap, so each commit
    costs O(log n) instead of a rescan.  On a serial, failure-free
    dispatch every tile commits the moment it finishes.

    Parameters
    ----------
    commit:
        Called with each :class:`~repro.engine.backends.TileExecution`,
        in ascending ``execution.tile.tile_id`` order.
    tile_ids:
        The ids outstanding at the start.
    """

    def __init__(
        self, commit: Callable[[object], None], tile_ids: Iterable[int] = ()
    ):
        self._commit = commit
        self._outstanding = list(tile_ids)
        heapq.heapify(self._outstanding)
        self._finished: dict[int, object] = {}
        self._dropped: set[int] = set()

    def expect(self, tile_ids: Iterable[int]) -> None:
        """Mark new tiles outstanding (OOM-split children)."""
        for tile_id in tile_ids:
            heapq.heappush(self._outstanding, tile_id)

    def drop(self, tile_id: int) -> None:
        """An outstanding tile will never finish (a split parent)."""
        self._dropped.add(tile_id)
        self._release()

    def finish(self, execution) -> None:
        """A tile finished; commit it and every unblocked successor."""
        self._finished[execution.tile.tile_id] = execution
        self._release()

    def flush(self) -> None:
        """Normal exit: commit every finished tile in ascending id order,
        whatever is still outstanding (deadline-abandoned tiles)."""
        for tile_id in sorted(self._finished):
            self._commit(self._finished.pop(tile_id))

    def _release(self) -> None:
        heap = self._outstanding
        while heap:
            tile_id = heap[0]
            if tile_id in self._dropped:
                self._dropped.discard(tile_id)
            elif tile_id in self._finished:
                self._commit(self._finished.pop(tile_id))
            else:
                return
            heapq.heappop(heap)
