"""The ``sort_&_incl_scan`` kernel (Pseudocode 1, line 5).

For every query column ``j`` of the current distance plane, the ``d``
per-dimension distances are sorted ascending and then progressively
averaged (Eq. 2): ``D''[j, k]`` is the mean of the ``k+1`` smallest
distances, realised as an inclusive scan divided by ``k+1``.

The paper's kernel uses a custom **bitonic sort** — O(log^2 d) stages of
compare-exchange networks, chosen over CUB/ModernGPU for performance — and
an O(log d) **fan-in (Hillis–Steele) inclusive scan**, both executed
cooperatively by a thread group per column with coarse-grained
synchronisation between stages (Section III-A, IV).

This implementation sorts every column of a plane at once with one
network, :func:`sort_columns`: Batcher's odd-even merge network for
``d <= 16`` (each comparator one vectorised min/max pair across all
columns) and ``np.sort`` above that.  Any correct ascending sort of a
NaN-free column holding no negative zero yields the same value sequence,
so the values are bit-identical to the bitonic network's; the cost
record keeps the bitonic stage count and one synchronisation per stage.
The stage-by-stage bitonic emulation is the test suite's oracle.  The
scan adds in fan-in order with per-stage rounding in the mode's compute
dtype, which on real hardware differs from a sequential cumsum — our
emulation reproduces that summation order bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..gpu.kernel import Kernel
from ..precision.modes import PrecisionPolicy
from ._f16fast import f16_keys19, f16_lut19, round_f16_nonneg_inplace

__all__ = [
    "SortScanKernel",
    "fanin_inclusive_scan",
    "inclusive_average",
    "sort_columns",
]


def _next_pow2(d: int) -> int:
    return 1 << (d - 1).bit_length()


@lru_cache(maxsize=64)
def _divisor_column(d: int, dtype: np.dtype) -> np.ndarray:
    """The (d, 1) inclusive-average divisor column ``[1, 2, ..., d]`` in
    ``dtype``, cached per (d, dtype) instead of rebuilt per run."""
    col = (np.arange(1, d + 1, dtype=np.float64)[:, None]).astype(dtype)
    col.setflags(write=False)
    return col


def _network_stage_count(p: int) -> int:
    """Pass count of the ``p``-input bitonic network without running it
    (``size`` = 2..p contributes ``log2(size)`` strides)."""
    k = (p - 1).bit_length()
    return k * (k + 1) // 2


_U16_SIGN = np.uint16(0x8000)
_U16_REST = np.uint16(0x7FFF)

#: Largest ``d`` :func:`sort_columns` sorts with the Batcher network
#: (19 comparators at d=8, 63 at d=16); taller planes go to ``np.sort``.
_NETWORK_MAX_D = 16


@lru_cache(maxsize=64)
def _batcher_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange pairs of Batcher's odd-even merge sorting network
    for ``d`` inputs, in execution order.

    Built for the next power of two and filtered to comparators whose
    wires both lie below ``d`` — the dropped wires would carry +inf
    padding, which never swaps downward, so the filtered network sorts
    any ``d`` inputs (verified exhaustively by the zero-one principle in
    the tests).  At ``d = 8`` this is the optimal 19-comparator network.
    """
    p = 1 << (d - 1).bit_length()
    pairs: list[tuple[int, int]] = []

    def merge(lo: int, n: int, r: int) -> None:
        step = r * 2
        if step < n:
            merge(lo, n, step)
            merge(lo + r, n, step)
            for i in range(lo + r, lo + n - r, step):
                pairs.append((i, i + r))
        else:
            pairs.append((lo, lo + r))

    def sort(lo: int, hi: int) -> None:
        if hi - lo >= 1:
            mid = lo + (hi - lo) // 2
            sort(lo, mid)
            sort(mid + 1, hi)
            merge(lo, hi - lo + 1, 1)

    sort(0, p - 1)
    return tuple((i, j) for (i, j) in pairs if j < d)


def _sort_network(a: np.ndarray) -> None:
    """Ascending in-place sort of ``a`` along axis 0: the Batcher network
    for ``d <= _NETWORK_MAX_D``, ``np.sort`` above."""
    d = a.shape[0]
    if d > _NETWORK_MAX_D:
        a[...] = np.sort(a, axis=0)
        return
    lo = np.empty_like(a[0])
    for i, j in _batcher_pairs(d):
        np.minimum(a[i], a[j], out=lo)
        np.maximum(a[i], a[j], out=a[j])
        a[i] = lo


def sort_columns(plane: np.ndarray) -> np.ndarray:
    """Sort each column (axis 0) of ``plane`` ascending, in place.

    ``plane`` must be NaN-free and, for a result bitwise equal to
    ``np.sort(plane, axis=0)``, hold no negative zero: min/max networks
    and ``np.sort`` may order ``-0.0`` and ``+0.0`` differently.
    Distance planes satisfy both by construction.

    numpy's ``float16`` comparisons run a scalar convert-to-float loop,
    so halves are sorted as ``uint16`` keys: IEEE half bit patterns order
    like their values once negative patterns are flipped (the classic
    radix-key transform).  Returns ``plane``.
    """
    if plane.dtype == np.float16:
        keys = plane.view(np.uint16)
        keys ^= (keys >> np.uint16(15)) * _U16_REST + _U16_SIGN
        _sort_network(keys)
        keys ^= ((keys >> np.uint16(15)) ^ np.uint16(1)) * _U16_REST + _U16_SIGN
    else:
        _sort_network(plane)
    return plane


@lru_cache(maxsize=64)
def _divide_lut_f16(k: int) -> np.ndarray:
    """All 65536 half values divided by ``k`` and rounded, as one table.

    ``x / k`` is a unary function of ``x`` for a fixed divisor, and half
    precision has only 2^16 values — so the whole inclusive-average
    division collapses to a gather.  Built with numpy's own half
    division, hence bit-identical to it by construction (NaN payloads
    included).
    """
    vals = np.arange(65536, dtype=np.uint16).view(np.float16)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = (vals / np.float16(k)).astype(np.float16)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _divide_lut19_f16(k: int) -> np.ndarray:
    """:func:`_divide_lut_f16` re-keyed to the 19-bit float32 key space,
    so scan results held as half-valued float32 are divided without ever
    materialising a half array."""
    return f16_lut19(_divide_lut_f16(k))


@lru_cache(maxsize=16)
def _divide_lut19_stack_f16(d: int) -> np.ndarray:
    """The divisor tables for k = 1..d concatenated into one flat array,
    so the whole (d, n) inclusive-average division is a single gather
    with ``key + (k << 19)`` indices instead of d separate takes."""
    stack = np.concatenate([_divide_lut19_f16(k + 1) for k in range(d)])
    stack.setflags(write=False)
    return stack


def _fanin_scan_f16_block(sorted16: np.ndarray) -> np.ndarray:
    """:func:`fanin_inclusive_scan` for half precision, evaluated in
    float32 storage with explicit half rounding after each stage.

    numpy's half add *is* a float32 add followed by one RNE conversion
    per element (scalar loop); this runs the identical pipeline with the
    conversion vectorised (``_f16fast``), so every stage's bits match.
    Inputs are sorted saturated distances — non-negative and NaN-free,
    the ``round_f16_nonneg_inplace`` domain.  Returns the scanned plane
    as half-valued float32 (gather keys via :func:`f16_keys19`).
    """
    work = sorted16.astype(np.float32)
    d = work.shape[0]
    tmp = np.empty_like(work[1:]) if d > 1 else None
    offset = 1
    while offset < d:
        seg = tmp[: d - offset]
        np.add(work[offset:], work[:-offset], out=seg)
        round_f16_nonneg_inplace(seg)
        work[offset:] = seg
        offset *= 2
    return work


def fanin_inclusive_scan(plane: np.ndarray, dtype: np.dtype, count_stages: bool = False):
    """Hillis–Steele inclusive scan along axis 0 with per-stage rounding.

    ``out[t] = sum(plane[0..t])`` evaluated in ``ceil(log2 d)`` fan-in
    stages; each stage's additions round to ``dtype``.
    """
    d = plane.shape[0]
    work = plane.astype(dtype, copy=True)
    stages = 0
    offset = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while offset < d:
            shifted = work[:-offset]
            work[offset:] = (work[offset:] + shifted).astype(dtype)
            stages += 1
            offset *= 2
    if count_stages:
        return work, stages
    return work


def inclusive_average(plane: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """D'' of a NaN-free distance plane: each column sorted ascending
    (:func:`sort_columns`), fan-in scanned and divided by ``k+1``, all in
    ``dtype``.

    ``plane`` is scratch: when it already has ``dtype`` it is sorted in
    place.  Half planes scan in float32 storage with explicit half
    rounding per stage and divide by table lookup — the same bits as
    numpy's half arithmetic, without its scalar loops.
    """
    d = plane.shape[0]
    sorted_plane = sort_columns(plane.astype(dtype, copy=False))
    if dtype == np.float16:
        keys = f16_keys19(_fanin_scan_f16_block(sorted_plane))
        keys += np.arange(d, dtype=np.uint32)[:, None] << np.uint32(19)
        return np.take(_divide_lut19_stack_f16(d), keys)
    scanned = fanin_inclusive_scan(sorted_plane, dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        return (scanned / _divisor_column(d, dtype)).astype(dtype)


@lru_cache(maxsize=16)
def _scan_tri_f32(d: int) -> np.ndarray:
    """Lower-triangular all-ones (d, d) float32 matrix — Eq. (2)'s
    inclusive scan as a single MMA operand (``d <= 16`` fits one
    fragment row, so the chain has length one)."""
    tri = np.tril(np.ones((d, d), dtype=np.float32))
    tri.setflags(write=False)
    return tri


@dataclass
class SortScanKernel(Kernel):
    """Sort + inclusive-average of one distance plane (d, n_q)."""

    policy: PrecisionPolicy = field(kw_only=True)

    #: Fused tensor-core mode: accept the float32 distance fragment from
    #: ``TcGemmKernel``, sort it with native float min/max, and run
    #: Eq. (2)'s fan-in scan as one lower-triangular MMA with FP32
    #: accumulation (``d <= 16`` is a single fragment row; the chained
    #: form of ``TcGemmKernel`` applies above that).  The inclusive
    #: average divides in float32 — no half rounding happens here at
    #: all; the single narrow store is the update kernel's profile
    #: merge.  Cost accounting is unchanged (the network/stage
    #: conventions stay, conservatively).
    mma_scan: bool = field(default=False, kw_only=True)

    def run(self, plane: np.ndarray, rows: int = 1) -> np.ndarray:
        """Returns D'' — the (d, n_q) plane of inclusive averages, where row
        ``k`` holds the mean of the k+1 best per-dimension distances
        (:func:`inclusive_average`; ``plane`` is scratch).

        Both networks are column-independent, so a row-blocked caller may
        pass ``rows`` logical distance rows side by side as one
        ``(d, rows*n_q)`` plane: the same compare-exchange and fan-in
        stages run once over all columns, producing bit-for-bit the
        per-row results.  ``rows`` only affects the cost accounting,
        which stays per *logical* row (``rows`` launches, per-row loop
        rounds and syncs, the bitonic network's stage count) so blocked
        and per-row timings are identical.
        """
        dtype = self.policy.compute
        d = plane.shape[0]
        if self.mma_scan and plane.dtype == np.float32 and dtype == np.float16:
            averaged = self._run_mma(plane)
        else:
            averaged = inclusive_average(plane, dtype)
        stages = _network_stage_count(_next_pow2(d)) + max(d - 1, 0).bit_length()
        self._record_cost(plane, stages, rows)
        return averaged

    def _run_mma(self, plane: np.ndarray) -> np.ndarray:
        """Fused tensor-core sort+scan on the FP32 distance fragment.

        ``plane`` is treated as scratch (it is ``TcGemmKernel``'s reused
        panel) and sorted in place; the scanned inclusive averages come
        back in a reused float32 buffer of the same shape.
        """
        d = plane.shape[0]
        sorted_plane = sort_columns(plane)
        out = getattr(self, "_mma_out", None)
        if out is None or out.shape != plane.shape:
            out = np.empty_like(plane)
            self._mma_out = out
        np.matmul(_scan_tri_f32(d), sorted_plane, out=out)
        np.divide(out, _divisor_column(d, np.dtype(np.float32)), out=out)
        return out

    def _record_cost(self, plane: np.ndarray, stages: int, rows: int = 1) -> None:
        """Cost of ``rows`` logical per-row invocations, per the
        conventions in ``repro.gpu.perfmodel``."""
        d, cols = plane.shape
        n_q = cols // rows
        p = _next_pow2(d)
        size = self.policy.storage.itemsize
        elems = float(d * n_q)
        rounds = math.ceil(n_q * p / self.config.total_threads)
        self._account(
            bytes_dram=rows * 2.0 * elems * size,
            bytes_l2=rows * 2.0 * elems * size,
            bytes_l1=float(rows * stages * n_q * p * size),
            flops=float(rows * stages * n_q * p),
            syncs=rows * stages,
            launches=rows,
            loop_rounds=rows * rounds,
        )
