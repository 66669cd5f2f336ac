"""The ``update_mat_prof`` kernel (Pseudocode 1, line 6).

Merges the inclusive-average plane of iteration ``i`` into the running
matrix profile with a column-wise min/argmin (Eq. 3)::

    P[j,k] = min(P[j,k], D''[i,j,k]);   I[j,k] = i  where it improved

Each thread owns one ``(j, k)`` element — "embarrassingly parallel" in the
paper's words.  Strict ``<`` keeps the *first* minimising row on ties,
matching the sequential iteration order of the CPU reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..gpu.kernel import Kernel
from ..precision.modes import DTYPE_MAX, PrecisionPolicy

__all__ = ["UpdateKernel", "INDEX_DTYPE"]

#: Matrix-profile index dtype; int64 comfortably covers any segment count.
INDEX_DTYPE = np.dtype(np.int64)


@dataclass
class UpdateKernel(Kernel):
    """Running min/argmin merge for one tile."""

    policy: PrecisionPolicy = field(kw_only=True)

    # Mirrored outputs (symmetric self-join tiles); (re)set by allocate().
    mirror_profile = None
    mirror_indices = None

    def allocate(
        self, d: int, n_q_seg: int, mirror_rows: int | None = None
    ) -> None:
        """Initialise the running profile to +max and indices to -1.

        ``mirror_rows`` (the tile's reference-row count) additionally
        allocates the mirrored outputs of a symmetric self-join tile: a
        second profile/index pair indexed by tile-local *row*, filled by
        the row-wise reduce of the same distance planes (D(i, j) =
        D(j, i), so row i's minimum over columns is the profile
        contribution of global column ``row_offset + i``).
        """
        dtype = self.policy.storage
        limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
        self.profile = np.full((d, n_q_seg), limit, dtype=dtype)
        self.indices = np.full((d, n_q_seg), -1, dtype=INDEX_DTYPE)
        self.mirror_profile = self.mirror_indices = None
        if mirror_rows is not None:
            self.mirror_profile = np.full((d, mirror_rows), limit, dtype=dtype)
            self.mirror_indices = np.full(
                (d, mirror_rows), -1, dtype=INDEX_DTYPE
            )

    @staticmethod
    def _radix_argmin(block: np.ndarray, axis: int) -> np.ndarray:
        """First-occurrence argmin, vectorised for the half/single planes.

        The planes here are saturated inclusive averages — non-negative
        and NaN-free — so their unsigned bit patterns order exactly like
        their values and an integer argmin (first minimum, same
        tie-break) returns identical indices without the scalar
        convert-to-float comparison loops of half precision.
        """
        if block.dtype == np.float16:
            return np.argmin(block.view(np.uint16), axis=axis)
        if block.dtype == np.float32:
            return np.argmin(block.view(np.uint32), axis=axis)
        return np.argmin(block, axis=axis)

    def _merge_mirror_rows(
        self,
        block: np.ndarray,
        row0: int,
        col_offset: int,
        wide_block: bool = False,
    ) -> None:
        """Row-wise reduce of a masked ``(d, rows, n_q)`` block into the
        mirrored outputs for tile-local rows ``row0 .. row0+rows-1``.

        The column axis is reduced with the same radix-key argmin
        (first-occurrence keeps the earliest global column = earliest
        mirrored reference index) and merged strict-``<`` against the
        limit-initialised mirror profile, so fully-excluded rows keep
        index -1.  Wide (FP32 accumulator) blocks reduce *before*
        narrowing, mirroring the column path's reduce-then-store.
        """
        rows = block.shape[1]
        best_col = self._radix_argmin(block, axis=2)  # (d, rows)
        best_val = np.take_along_axis(
            block, best_col[:, :, None], axis=2
        )[:, :, 0]
        if wide_block:
            with np.errstate(over="ignore", invalid="ignore"):
                best_val = best_val.astype(self.policy.storage)
        target = self.mirror_profile[:, row0 : row0 + rows]
        improved = best_val < target
        np.copyto(target, best_val, where=improved)
        np.copyto(
            self.mirror_indices[:, row0 : row0 + rows],
            best_col.astype(INDEX_DTYPE) + INDEX_DTYPE.type(col_offset),
            where=improved,
        )

    def run(
        self,
        plane: np.ndarray,
        row: int,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> None:
        """Merge plane ``D''`` of (tile-local) reference row ``row``: a
        one-row :meth:`run_block` of the plane narrowed to storage.

        ``row_offset`` maps the tile-local row to the global reference
        index recorded in ``I`` (multi-tile runs pass the tile's origin);
        ``col_offset`` is the tile's global column origin, used only by
        the mirrored row-wise reduce of symmetric self-join tiles.
        """
        plane = plane.astype(self.policy.storage, copy=False)
        self.run_block(plane[:, None, :], row, row_offset=row_offset,
                       col_offset=col_offset)

    def masked_run(
        self,
        plane: np.ndarray,
        row: int,
        mask: np.ndarray,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> None:
        """:meth:`run` with an exclusion mask over the plane's columns
        (True = excluded).

        Self-joins exclude trivial matches around the diagonal; the mask is
        applied per row before the min-merge.
        """
        plane = plane.astype(self.policy.storage, copy=False)
        self.run_block(plane[:, None, :], row, row_offset=row_offset,
                       mask=np.reshape(mask, (1, -1)), col_offset=col_offset)

    def run_block(
        self,
        block: np.ndarray,
        row0: int,
        row_offset: int = 0,
        mask: np.ndarray | None = None,
        col_offset: int = 0,
    ) -> None:
        """Merge a ``(d, rows, n_q)`` block of D'' planes for tile-local
        reference rows ``row0 .. row0+rows-1`` in one step.

        Equivalent to ``rows`` consecutive one-row merges, bit for bit:
        the block is first reduced over its row axis with ``argmin``
        (first occurrence wins, preserving the sequential
        first-minimising-row tie-break), then the single winner per
        column is merged into the running profile with the same strict
        ``<``.  ``mask`` is the (rows, n_q) exclusion mask (True =
        excluded); masked entries are lifted to the dtype limit, which
        can never win a strict-``<`` merge against a profile that starts
        at that limit.  Cost is recorded per logical row.
        """
        d, rows, n_q = block.shape
        if (d, n_q) != self.profile.shape:
            raise ValueError(
                f"plane shape {(d, n_q)} != profile shape {self.profile.shape}"
            )
        storage = self.policy.storage
        wide_block = block.dtype.itemsize > storage.itemsize
        if wide_block:
            # Fused tensor-core path: the block is the FP32 accumulator
            # fragment from the mma sort/scan (and that kernel's scratch,
            # so masking in place is fine).  Reduce over the row axis
            # *before* narrowing — on hardware the min-merge runs in
            # registers and only the winning entry is stored — so the
            # single FP16 rounding per column happens at the store below.
            # Ties are decided on the wide values; columns whose wide
            # values differ only below storage precision may therefore
            # pick a different (equally minimal after rounding) row than
            # the storage-domain networks.
            if mask is not None:
                limit = block.dtype.type(DTYPE_MAX[np.dtype(storage)])
                np.copyto(block, limit, where=mask[None, :, :])
        else:
            block = block.astype(storage, copy=False)
            if mask is not None:
                limit = storage.type(DTYPE_MAX[np.dtype(storage)])
                block = np.where(mask[None, :, :], limit, block)
        # First-occurrence argmin over the row axis (radix keys for the
        # half/single planes — see :meth:`_radix_argmin`).
        best_row = self._radix_argmin(block, axis=1)  # (d, n_q), first min row
        best_val = np.take_along_axis(block, best_row[:, None, :], axis=1)[:, 0, :]
        if wide_block:
            with np.errstate(over="ignore", invalid="ignore"):
                best_val = best_val.astype(storage)
        improved = best_val < self.profile
        np.copyto(self.profile, best_val, where=improved)
        np.copyto(
            self.indices,
            best_row.astype(INDEX_DTYPE) + INDEX_DTYPE.type(row0 + row_offset),
            where=improved,
        )
        if self.mirror_profile is not None:
            self._merge_mirror_rows(
                block, row0, col_offset, wide_block=wide_block
            )
        self._record_cost(block[:, 0, :], rows=rows)

    def _record_cost(self, plane: np.ndarray, rows: int = 1) -> None:
        """Cost of ``rows`` logical per-row invocations, per the
        conventions in ``repro.gpu.perfmodel``."""
        elems = float(plane.size)
        size = self.policy.storage.itemsize
        rounds = math.ceil(plane.size / self.config.total_threads)
        mirror = self.mirror_profile is not None
        self._account(
            # The mirrored row-wise reduce re-reads the plane from L2 and
            # adds one compare per element; it stores only one winner per
            # row, so DRAM traffic barely moves.
            bytes_dram=rows * 2.0 * elems * size,
            bytes_l2=rows * (6.0 if mirror else 5.0) * elems * size,
            flops=rows * (3.0 if mirror else 2.0) * elems,
            launches=rows,
            loop_rounds=rows * rounds * (2 if mirror else 1),
        )
