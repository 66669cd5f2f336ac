"""Incremental (streaming) matrix profile against a fixed reference.

Monitoring scenarios (the paper's HPC-ODA and turbine studies) consume
*live* query data: new samples arrive continuously and each completed
segment should be matched against the historical reference immediately.
:class:`StreamingMatrixProfile` supports that pattern — append samples,
get the per-segment profile/index as soon as each window completes —
computing each new query segment's distance profile with the same
precision policy (and rounded arithmetic) as the batch kernels.

Per-append cost is O(n_ref * d * m) via vectorised naive dot products;
the streaming axis here is the *query*, so there is no recurrence to
restart and reduced precision only sees the length-m accumulation error.
The hot path allocates nothing: the query window lives in a fixed
(d, 2m) ring buffer (amortised O(1) appends) and the per-segment QT /
correlation planes reuse preallocated scratch.  :meth:`extend` batches
the whole QT chain across every segment a call completes, bit-identical
to the equivalent sequence of :meth:`append` calls (the arithmetic is
elementwise per segment and every reduction runs over the same
unit-stride length-m axis).

.. note::
   This class matches a stream against a **fixed reference** and keeps
   the whole history in host lists — the right tool for a single
   monitoring probe.  For growing self-joins, cached window-statistics
   planes, sketch-gated escalation and multi-tenant serving, use the
   :mod:`repro.streams` ingestion tier (:class:`repro.streams.
   IncrementalMatrixProfile` / :class:`repro.streams.
   StreamIngestService`), which runs the same distances through the
   tiled engine; this class is kept as the lightweight delegate for the
   fixed-reference probe pattern.
"""

from __future__ import annotations

import numpy as np

from ..core.config import RunConfig
from ..kernels.layout import (
    to_device_layout,
    validate_series,
    validate_stream_samples,
)
from ..kernels.precalc import PrecalcResult, PrecalcKernel
from ..kernels.sort_scan import inclusive_average
from ..kernels.update import INDEX_DTYPE
from ..precision.modes import DTYPE_MAX

__all__ = ["StreamingMatrixProfile"]

#: Segments evaluated per block in :meth:`StreamingMatrixProfile.extend`
#: — bounds the (d, block, n_ref_seg) batch scratch; block boundaries do
#: not affect the numerics (all per-segment arithmetic is independent).
_EXTEND_BLOCK = 512


class StreamingMatrixProfile:
    """Match an unbounded query stream against a fixed reference series.

    Parameters
    ----------
    reference:
        Historical reference series, (n, d) time-major.
    m:
        Segment length.
    config:
        Precision/device configuration (only the precision policy affects
        the numerics here).
    """

    def __init__(self, reference: np.ndarray, m: int, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self.policy = self.config.policy
        reference = validate_series(reference, "reference")
        if m < 2 or m > reference.shape[0]:
            raise ValueError(f"invalid m={m} for reference of {reference.shape[0]}")
        self.m = m
        self.d = reference.shape[1]
        self._ref_dev = to_device_layout(reference, self.policy.storage)
        self.n_ref_seg = self._ref_dev.shape[1] - m + 1

        # Reference-side statistics via the precalculation kernel (self
        # pairing only to reuse the kernel; query stats are not used).
        kernel = PrecalcKernel(config=self.config.launch, policy=self.policy)
        pre: PrecalcResult = kernel.run(self._ref_dev, self._ref_dev, m)
        dtype = self.policy.compute
        self._mu_r = pre.mu_r.astype(dtype, copy=False)
        self._inv_r = pre.inv_r.astype(dtype, copy=False)
        # Centred reference windows, precomputed once: (d, n_ref_seg, m).
        windows = np.lib.stride_tricks.sliding_window_view(
            self._ref_dev.astype(dtype, copy=False), m, axis=1
        )
        self._centered_ref = (windows - self._mu_r[:, :, None]).astype(dtype)

        # Query ring buffer: the live window is always the ``m`` columns
        # before ``_pos``; a full ring compacts its tail to the front
        # (amortised O(1) per append, no per-append allocation).
        self._ring = np.empty((self.d, 2 * m), dtype=dtype)
        self._pos = 0  # next write column
        self._have = 0  # valid samples ending at _pos (capped at m)
        self.samples_seen = 0  # global stream offset for validation
        # Per-append scratch planes, written with ``out=`` (hot path).
        self._qt = np.empty((self.d, self.n_ref_seg), dtype=dtype)
        self._term = np.empty((self.d, self.n_ref_seg), dtype=dtype)
        self._centered_q = np.empty((self.d, m), dtype=dtype)

        self.profiles: list[np.ndarray] = []  # per completed segment, (d,)
        self.indices: list[np.ndarray] = []

    @property
    def n_segments(self) -> int:
        """Completed query segments so far."""
        return len(self.profiles)

    def append(self, sample: np.ndarray) -> "tuple[np.ndarray, np.ndarray] | None":
        """Feed one time sample (shape (d,) or scalar for d=1).

        Returns ``(profile_row, index_row)`` for the newly completed
        segment once at least m samples have arrived, else ``None``.
        Non-finite samples are rejected with their dimension and global
        stream offset named.
        """
        sample = np.atleast_1d(np.asarray(sample, dtype=np.float64))
        if sample.shape != (self.d,):
            raise ValueError(f"sample must have shape ({self.d},), got {sample.shape}")
        validate_stream_samples(
            sample[None, :], name="sample", offset=self.samples_seen
        )
        if self._pos == self._ring.shape[1]:
            # Ring full: compact the live tail to the front.
            self._ring[:, : self.m - 1] = self._ring[
                :, self._pos - (self.m - 1) : self._pos
            ]
            self._pos = self.m - 1
        self._ring[:, self._pos] = sample.astype(self._ring.dtype)
        self._pos += 1
        self._have = min(self._have + 1, self.m)
        self.samples_seen += 1
        if self._have < self.m:
            return None
        return self._evaluate_segment(self._ring[:, self._pos - self.m : self._pos])

    def extend(self, samples: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Feed many samples; returns stacked (profiles, indices) for the
        segments completed during this call (possibly empty arrays).

        The QT chain is evaluated batched across all completed segments —
        bit-identical to the equivalent :meth:`append` sequence, at a
        fraction of the Python overhead.
        """
        arr = validate_stream_samples(
            samples, name="samples", offset=self.samples_seen
        )
        if arr.shape[1] != self.d:
            raise ValueError(
                f"samples must have d={self.d} dimensions, got {arr.shape[1]}"
            )
        dtype = self.policy.compute
        new = np.ascontiguousarray(arr.T, dtype=dtype)  # (d, k)
        k = new.shape[1]
        # Stitch the live tail (at most m-1 samples back the new windows
        # reach into) to the new block; every window ending at a new
        # sample lives contiguously in ``combined``.
        h = min(self._have, self.m - 1)
        tail = self._ring[:, self._pos - h : self._pos]
        combined = np.concatenate([tail, new], axis=1)
        n_windows = combined.shape[1] - self.m + 1  # all end at new samples
        rows: list[np.ndarray] = []
        idxs: list[np.ndarray] = []
        if n_windows > 0:
            wins = np.lib.stride_tricks.sliding_window_view(
                combined, self.m, axis=1
            )  # (d, n_windows, m), unit-stride window axis
            for b0 in range(0, n_windows, _EXTEND_BLOCK):
                b1 = min(b0 + _EXTEND_BLOCK, n_windows)
                p, i = self._evaluate_block(wins[:, b0:b1, :])
                rows.extend(p)
                idxs.extend(i)
            self.profiles.extend(rows)
            self.indices.extend(idxs)
        # Re-anchor the ring on the stream's new tail.
        keep = min(self.m, combined.shape[1])
        self._ring[:, :keep] = combined[:, combined.shape[1] - keep :]
        self._pos = keep
        self._have = keep
        self.samples_seen += k
        if not rows:
            return (np.empty((0, self.d)), np.empty((0, self.d), dtype=INDEX_DTYPE))
        return np.stack(rows), np.stack(idxs)

    def _evaluate_segment(self, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One (d, m) window against the reference, scratch-reusing."""
        dtype = self.policy.compute
        centered = self._centered_q
        qt = self._qt
        term = self._term
        with np.errstate(over="ignore", invalid="ignore"):
            mu = (seg.sum(axis=1, dtype=dtype) / dtype.type(self.m)).astype(dtype)
            np.subtract(seg, mu[:, None], out=centered)
            energy = (centered * centered).astype(dtype).sum(axis=1, dtype=dtype)
            tiny = np.finfo(dtype).tiny
            inv_q = (dtype.type(1.0) / np.sqrt(np.maximum(energy, tiny))).astype(dtype)

            # QT against every reference window: rounded per-step FMA chain.
            qt[...] = 0
            for t in range(self.m):
                np.multiply(
                    self._centered_ref[:, :, t], centered[:, t : t + 1], out=term
                )
                np.add(qt, term, out=qt)
            np.multiply(qt, self._inv_r, out=term)
            np.multiply(term, inv_q[:, None], out=term)  # corr
            np.subtract(dtype.type(1.0), term, out=term)
            np.maximum(term, dtype.type(0), out=term)  # gap
            np.multiply(term, dtype.type(2 * self.m), out=term)
            dist = np.sqrt(term).astype(dtype)
        limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
        dist = np.where(np.isfinite(dist), dist, limit).astype(dtype)
        profile_row, index_row = self._connect_dimensions(dist)
        self.profiles.append(profile_row)
        self.indices.append(index_row)
        return profile_row, index_row

    def _evaluate_block(self, wins: np.ndarray) -> tuple[list, list]:
        """Batch of (d, S, m) windows → per-segment profile/index rows.

        Every operation is elementwise per segment or reduces the same
        unit-stride length-m axis the per-append path reduces, so each
        segment's outputs match :meth:`_evaluate_segment` bit for bit.
        """
        dtype = self.policy.compute
        S = wins.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            mu = (wins.sum(axis=2, dtype=dtype) / dtype.type(self.m)).astype(dtype)
            centered = (wins - mu[:, :, None]).astype(dtype)  # (d, S, m)
            energy = (centered * centered).astype(dtype).sum(axis=2, dtype=dtype)
            tiny = np.finfo(dtype).tiny
            inv_q = (dtype.type(1.0) / np.sqrt(np.maximum(energy, tiny))).astype(dtype)

            qt = np.zeros((self.d, S, self.n_ref_seg), dtype=dtype)
            term = np.empty_like(qt)
            for t in range(self.m):
                np.multiply(
                    self._centered_ref[:, None, :, t],
                    centered[:, :, t, None],
                    out=term,
                )
                np.add(qt, term, out=qt)
            np.multiply(qt, self._inv_r[:, None, :], out=term)
            np.multiply(term, inv_q[:, :, None], out=term)  # corr
            np.subtract(dtype.type(1.0), term, out=term)
            np.maximum(term, dtype.type(0), out=term)  # gap
            np.multiply(term, dtype.type(2 * self.m), out=term)
            dist = np.sqrt(term).astype(dtype)
        limit = dtype.type(DTYPE_MAX[np.dtype(dtype)])
        dist = np.where(np.isfinite(dist), dist, limit).astype(dtype)
        # Sort/scan operate columnwise along the dimension axis, so the
        # batch folds into one (d, S * n_ref_seg) plane.
        plane = np.ascontiguousarray(dist.reshape(self.d, S * self.n_ref_seg))
        averaged = inclusive_average(plane, self.policy.compute).reshape(
            self.d, S, self.n_ref_seg
        )
        rows = []
        idxs = []
        for s in range(S):
            rows.append(averaged[:, s, :].min(axis=1).astype(np.float64))
            idxs.append(averaged[:, s, :].argmin(axis=1).astype(INDEX_DTYPE))
        return rows, idxs

    def _connect_dimensions(self, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """mSTAMP dimension connection of one (d, n_ref_seg) plane: sort
        along dims, fan-in average, then min/argmin across positions."""
        averaged = inclusive_average(dist, self.policy.compute)
        profile_row = averaged.min(axis=1).astype(np.float64)
        index_row = averaged.argmin(axis=1).astype(INDEX_DTYPE)
        return profile_row, index_row

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """All completed segments as (n_seg, d) arrays (batch layout)."""
        if not self.profiles:
            return (np.empty((0, self.d)), np.empty((0, self.d), dtype=INDEX_DTYPE))
        return np.stack(self.profiles), np.stack(self.indices)
