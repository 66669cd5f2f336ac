"""The ``dist_calc`` kernel (Pseudocode 1, line 4).

Computes one row (plane) of the 3-d distance matrix from the previous row
using the mean-centred streaming dot product, Eq. (1) of the paper::

    QT[i,j,k] = QT[i-1,j-1,k] + df_r[i,k]*dg_q[j,k] + df_q[j,k]*dg_r[i,k]
    D[i,j,k]  = sqrt( 2*m * (1 - QT[i,j,k] * inv_r[i,k] * inv_q[j,k]) )

Each device thread evaluates one ``(j, k)`` element of the new plane; the
update costs two FMAs per element per dimension ("only four floating-point
operations per dimension in each iteration").  All arithmetic rounds to the
mode's compute dtype after every operation, exactly like the ``__half``
intrinsics path of the CUDA implementation.

QT[i,j] depends only on QT[i-1,j-1], so the recurrence runs along
diagonals: a block of rows may equally be advanced column by column, with
the identical per-element FMA sequence.  Blocks with more rows than
columns take that column walk (``~n_q`` sequential steps instead of
``~rows``); :func:`block_rows` sizes the blocks of tiles taller than wide
so that they do.

Overflow handling: half-precision QT values beyond 65504 become ``inf`` in
the FMA pipeline (the large-deviation failure mode of Section V-B); the
resulting non-finite distances are saturated to the dtype's largest finite
value so that the downstream sort and min-merge remain well defined — they
then simply never win a nearest-neighbour slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..gpu.kernel import Kernel
from ..precision.modes import DTYPE_MAX, PrecisionPolicy
from ._f16fast import f16_keys19, f16_lut19, round_f16_inplace
from .precalc import PrecalcResult

__all__ = ["DistCalcKernel", "TALL_BLOCK_ELEMS", "block_rows"]

#: Elements (``d * rows * n_q``) of one main-loop block of a tile taller
#: than wide.  Large enough that a stream band tile (long history x a few
#: dozen new columns) is one or a few column-walked blocks, small enough
#: that the block workspace stays cache-resident.
TALL_BLOCK_ELEMS = 1 << 17


def block_rows(n_r_seg: int, n_q_seg: int, d: int, row_block: int) -> int:
    """Rows per block of the vector main loop of one tile.

    Square and wide tiles, and one-row blocks (``row_block <= 1``), take
    ``row_block`` rows.  A tile taller than wide takes enough rows
    to fill :data:`TALL_BLOCK_ELEMS`, never fewer than ``row_block`` and
    at most the whole tile, when such a block has more rows than columns
    — :meth:`DistCalcKernel.run_block` then walks it column by column.
    A budget block of a near-square tall tile would still be walked row
    by row, and taller row-walked blocks only cost, so it keeps
    ``row_block``.  Callers cap the result at ``n_r_seg``.
    """
    if row_block > 1 and n_r_seg > n_q_seg:
        rows = min(n_r_seg, max(row_block, TALL_BLOCK_ELEMS // (d * n_q_seg)))
        if rows > n_q_seg:
            return rows
    return row_block


@lru_cache(maxsize=32)
def _qt_to_dist_lut_f16(m: int) -> np.ndarray:
    """The half-precision correlation -> distance map as a 65536-entry
    table: ``saturate(sqrt(2m * max(1 - corr, 0)))``.

    Everything after ``corr`` is a unary function of ``corr``, and half
    precision has only 2^16 values, so the half path replaces the whole
    per-element chain of :meth:`DistCalcKernel._distances` (five
    software-emulated half ufunc passes) with a single gather.  The table
    is built by running that op sequence over every representable half —
    bit-identical to it by construction, NaN and infinity patterns
    included.
    """
    dtype = np.dtype(np.float16)
    vals = np.arange(65536, dtype=np.uint16).view(np.float16)
    one = np.float16(1)
    two_m = np.float16(2 * m)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = (one - vals).astype(np.float16)
        np.maximum(gap, np.float16(0), out=gap)
        dist = np.sqrt((two_m * gap).astype(np.float16)).astype(np.float16)
    limit = np.float16(DTYPE_MAX[dtype])
    out = np.where(np.isfinite(dist), dist, limit).astype(np.float16)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _qt_to_dist_lut19_f16(m: int) -> np.ndarray:
    """:func:`_qt_to_dist_lut_f16` re-keyed to the 19-bit float32 key
    space, so correlations held as half-valued float32 gather their
    distances without materialising a half array first."""
    return f16_lut19(_qt_to_dist_lut_f16(m))


@dataclass
class DistCalcKernel(Kernel):
    """Streaming distance-row computation for one tile.

    Holds the running QT plane between invocations (the diagonal-wise
    dependency of Eq. (1)); call :meth:`run_block` (or :meth:`run`, one
    row) with consecutive rows starting at ``i = 0``.
    """

    policy: PrecisionPolicy = field(kw_only=True)

    def bind(self, pre: PrecalcResult) -> None:
        """Attach a tile's precalculation outputs and reset the recurrence."""
        dtype = self.policy.compute
        self.pre = pre
        self.qt = None  # current row's QT plane, (d, n_q_seg)
        self._two_m = dtype.type(2 * pre.m)
        self._one = dtype.type(1)
        # Cache compute-dtype views of the per-row vectors (storage and
        # compute dtypes coincide in every mode, so these are no-copy).
        self._df_r = pre.df_r.astype(dtype, copy=False)
        self._dg_r = pre.dg_r.astype(dtype, copy=False)
        self._inv_r = pre.inv_r.astype(dtype, copy=False)
        self._df_q = pre.df_q.astype(dtype, copy=False)
        self._dg_q = pre.dg_q.astype(dtype, copy=False)
        self._inv_q = pre.inv_q.astype(dtype, copy=False)
        self._qt_col0 = pre.qt_col0.astype(dtype, copy=False)
        self._blk_ready = False  # wide mirrors built lazily by run_block

    def _ensure_block_state(self) -> None:
        """Build the wide-dtype operand mirrors and scratch buffers the
        inlined block recurrence uses (see :meth:`_advance_qt_block`).

        ``rp_fma`` evaluates each FMA in the next-wider format and rounds
        once; the block path runs the identical pipeline but hoists the
        operand widening out of the row loop and reuses preallocated
        scratch, so the per-row cost is just the arithmetic itself.
        """
        if self._blk_ready:
            return
        dtype = self.policy.compute
        wide = np.dtype(np.float32) if dtype == np.float16 else np.dtype(np.float64)
        d, n_q = self._inv_q.shape
        self._wide = wide
        self._df_r_w = self._df_r.astype(wide)
        self._dg_r_w = self._dg_r.astype(wide)
        self._df_q_w = self._df_q.astype(wide)
        self._dg_q_w = self._dg_q.astype(wide)
        self._inv_r_w = self._inv_r.astype(wide)
        self._inv_q_w = self._inv_q.astype(wide)
        self._blk_step_q = np.empty((d, n_q - 1), dtype=dtype)
        self._blk_prod1 = None  # (d, rows, n_q-1) wide, grown on demand
        self._blk_prod2 = None
        self._blk_ready = True

    def _prod_buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Reusable wide buffers for the hoisted a*b block products."""
        d, n_q = self._inv_q.shape
        if self._blk_prod1 is None or self._blk_prod1.shape[1] < rows:
            self._blk_prod1 = np.empty((d, rows, n_q - 1), dtype=self._wide)
            self._blk_prod2 = np.empty_like(self._blk_prod1)
        return (
            self._blk_prod1[:, :rows],
            self._blk_prod2[:, :rows],
        )

    def _advance_qt_block(self, i0: int, rows: int, ws: np.ndarray) -> None:
        """Fill ``ws[:, r, :]`` with the QT planes of rows ``i0..i0+rows-1``.

        The sequential Eq. (1) recurrence, two ``rp_fma`` FMAs per row
        (each evaluated in the next-wider format and rounded once), with
        the wrapper inlined: quantisation happens through
        cast-assignments into preallocated buffers — numpy assignment
        rounds to the destination dtype exactly like ``astype`` — and
        each FMA's ``c`` operand is added in its narrow dtype directly
        (numpy promotes it through an exact widening cast inside the
        add), so no per-row widening passes or temporaries remain.
        Bit-identical to calling ``rp_fma`` row by row.
        """
        self._ensure_block_state()
        step_q = self._blk_step_q
        # The previous QT row, in compute dtype: the last row of the
        # preceding block (saved by run_block) or, within the block, a
        # view of the row just written.
        prev = self.qt
        with np.errstate(over="ignore", invalid="ignore"):
            # The a*b products of both FMAs depend only on the row index,
            # not on the running QT state — hoist them out of the
            # sequential loop as two vectorised block multiplies
            # (element-wise, so the same wide products bit-for-bit).
            prod1, prod2 = self._prod_buffers(rows)
            np.multiply(
                self._df_r_w[:, i0 : i0 + rows, None],
                self._dg_q_w[:, None, 1:],
                out=prod1,
            )
            np.multiply(
                self._df_q_w[:, None, 1:],
                self._dg_r_w[:, i0 : i0 + rows, None],
                out=prod2,
            )
            # Column 0 never enters the recurrence of rows inside this
            # block (row r reads prev[:, :-1], i.e. the *previous* row's
            # column 0) — pre-write the whole strip in one assignment.
            ws[:, :rows, 0] = self._qt_col0[:, i0 : i0 + rows]
            for r in range(rows):
                i = i0 + r
                row = ws[:, r, :]
                if i == 0:
                    row[...] = self.pre.qt_row0
                else:
                    t = prod1[:, r]  # consumed once, so += in place is fine
                    np.add(t, prev[:, :-1], out=t)  # c widened in the add
                    step_q[...] = t  # single rounding of the fused a*b + c
                    t = prod2[:, r]
                    np.add(t, step_q, out=t)  # exact widening in the add
                    row[:, 1:] = t  # single rounding of the second FMA
                prev = row

    def _advance_qt_columns(self, i0: int, rows: int, ws: np.ndarray) -> None:
        """:meth:`_advance_qt_block` walking columns instead of rows.

        Column ``j`` of rows ``i0..i0+rows-1`` needs only column ``j-1``
        of rows ``i0-1..i0+rows-2``, so each of the ``n_q - 1`` sequential
        steps advances every row of the block at once.  Every element
        gets the row walk's two FMAs with the same operands in the same
        order, so the planes are bit-identical.  The walk runs in a
        transposed scratch, where each column is contiguous, that is
        copied into ``ws`` once at the end.
        """
        self._ensure_block_state()
        dtype = self.policy.compute
        d, n_q = self._inv_q.shape
        # qt[:, j, 1 + r] holds QT[i0 + r, j]; slot 0 holds the previous
        # block's last row.  Block row 0 of the first block has no
        # predecessor and takes qt_row0 instead.
        qt = np.empty((d, n_q, rows + 1), dtype=dtype)
        lo = 0
        if i0 == 0:
            qt[:, :, 1] = self.pre.qt_row0
            lo = 1
        else:
            qt[:, :, 0] = self.qt
        r = slice(i0 + lo, i0 + rows)
        # Written after row 0, which keeps qt_row0's column-0 entry.
        qt[:, 0, 1 + lo :] = self._qt_col0[:, r]
        step = np.empty((d, rows - lo), dtype=dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            prod1 = np.multiply(self._df_r_w[:, None, r], self._dg_q_w[:, 1:, None])
            prod2 = np.multiply(self._df_q_w[:, 1:, None], self._dg_r_w[:, None, r])
            for j in range(1, n_q):
                t = prod1[:, j - 1]
                np.add(t, qt[:, j - 1, lo:rows], out=t)
                step[...] = t  # single rounding of the fused a*b + c
                t = prod2[:, j - 1]
                np.add(t, step, out=t)
                qt[:, j, 1 + lo :] = t  # single rounding of the second FMA
        ws[:, :rows, :] = qt[:, :, 1:].transpose(0, 2, 1)

    def _distances_block_f16(self, qt: np.ndarray, i0: int, rows: int) -> np.ndarray:
        """Half-precision :meth:`_distances` over a ``(d, rows, n_q)`` QT
        block, with the two genuine binary multiplies evaluated the way
        numpy's half ufuncs define them — float32 product (exact, both
        operands are half-valued) followed by one RNE rounding to half —
        but vectorised (``_f16fast``), and the unary tail collapsed into
        a single gather (``_qt_to_dist_lut19_f16``).  Bit-identical to
        the half ufunc chain; degenerate planes (half subnormals, NaNs from
        inf * 0) divert to the scalar rounding inside
        ``round_f16_inplace`` and still match.
        """
        self._ensure_block_state()
        with np.errstate(over="ignore", invalid="ignore"):
            corr = qt.astype(np.float32)
            corr *= self._inv_r_w[:, i0 : i0 + rows, None]
            round_f16_inplace(corr)
            corr *= self._inv_q_w[:, None, :]
            round_f16_inplace(corr)
        return np.take(_qt_to_dist_lut19_f16(self.pre.m), f16_keys19(corr))

    def _distances(self, qt: np.ndarray, inv_r: np.ndarray) -> np.ndarray:
        """(d, rows, n_q) QT block -> saturated z-normalised distances;
        element-wise, so the result per element is independent of how
        many rows are batched."""
        dtype = self.policy.compute
        inv_q = self._inv_q[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            corr = ((qt * inv_r).astype(dtype) * inv_q).astype(dtype)
            gap = (self._one - corr).astype(dtype)
            # Rounding can push corr slightly above 1 for perfect matches;
            # clamp so sqrt stays real (SCAMP does the same).
            np.maximum(gap, dtype.type(0), out=gap)
            dist = np.sqrt((self._two_m * gap).astype(dtype)).astype(dtype)
        limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
        return np.where(np.isfinite(dist), dist, limit).astype(dtype)

    def run(self, i: int) -> np.ndarray:
        """Compute distance plane for reference row ``i``; returns (d, n_q).

        A one-row :meth:`run_block` into a fresh workspace.
        """
        d, n_q = self._inv_q.shape
        ws = np.empty((d, 1, n_q), dtype=self.policy.compute)
        return self.run_block(i, 1, ws)[:, 0, :]

    def run_block(self, i0: int, rows: int, workspace: np.ndarray) -> np.ndarray:
        """Compute distance planes for rows ``i0 .. i0+rows-1`` at once.

        ``workspace`` is a preallocated ``(d, rows, n_q)`` compute-dtype
        buffer the sequential QT recurrence fills row by row (no per-row
        temporaries), or column by column when ``rows > n_q``; the QT ->
        distance conversion then runs once over the whole block.  Every
        operation is element-wise, so the result is bit-for-bit identical
        to ``rows`` consecutive one-row calls, and the cost is recorded
        per logical row so the modelled timings stay identical too.
        Returns a fresh (d, rows, n_q) distance block (``workspace``
        keeps the QT planes for the next block's recurrence).
        """
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if i0 != 0 and self.qt is None:
            raise RuntimeError("rows must be visited in order starting at 0")
        if rows > self._inv_q.shape[1]:
            self._advance_qt_columns(i0, rows, workspace)
        else:
            self._advance_qt_block(i0, rows, workspace)
        # The workspace is reused by the caller; keep the recurrence state
        # in a private copy of the last row.
        self.qt = workspace[:, rows - 1, :].copy()
        block = workspace[:, :rows, :]
        if self.policy.compute == np.float16:
            dist = self._distances_block_f16(block, i0, rows)
        else:
            dist = self._distances(block, self._inv_r[:, i0 : i0 + rows, None])
        self._record_cost(dist[:, 0, :].size, rows=rows)
        return dist

    def _record_cost(self, plane_size: int, rows: int = 1) -> None:
        """Cost of ``rows`` logical row invocations, per the conventions
        in ``repro.gpu.perfmodel``; ``plane_size`` is one row's d*n_q."""
        elems = float(plane_size)
        size = self.policy.storage.itemsize
        step = self.config.total_threads
        rounds = -(-plane_size // step)  # ceil; one grid-stride round per span
        self._account(
            bytes_dram=rows * 3.0 * elems * size,
            bytes_l2=rows * 6.0 * elems * size,
            flops=rows * 8.0 * elems,
            launches=rows,
            loop_rounds=rows * rounds,
        )
