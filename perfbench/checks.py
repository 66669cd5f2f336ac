"""Correctness gates the benchmark applies outside its timed region."""

from __future__ import annotations

import numpy as np

from repro.baselines.brute_force import _znormalize_segments
from repro.metrics.numerical import relative_error
from repro.precision.errors import (
    implied_correlation,
    streaming_qt_error_bound,
    tc_gemm_error_bound,
)


def _arrays(output) -> tuple[np.ndarray, np.ndarray]:
    """(profile, index) of a result object or a ``(profile, index)`` pair."""
    if isinstance(output, tuple):
        return output
    return output.profile, output.index


def bit_equal(a, b) -> bool:
    """Whether two outputs hold the same profile bits and indices."""
    pa, ia = _arrays(a)
    pb, ib = _arrays(b)
    pa, pb = np.ascontiguousarray(pa), np.ascontiguousarray(pb)
    return (pa.dtype == pb.dtype and pa.shape == pb.shape
            and np.array_equal(pa.view(np.uint8), pb.view(np.uint8))
            and np.array_equal(ia, ib))


def error_bound(mode: str, backend: str | None, rows: int, m: int) -> float:
    """The a-priori correlation-space error bound of one job: the
    tensor-core bound on that backend, Section V-B's otherwise.  ``rows``
    is the tile edge, the longest recurrence the job runs."""
    if backend == "tensor_core":
        return tc_gemm_error_bound(rows, m, mode)
    return streaming_qt_error_bound(rows, m, mode)


def neighbour_distances(series: np.ndarray, m: int, index: np.ndarray) -> np.ndarray:
    """The true FP64 k-dimensional distance from every query segment to
    the neighbour ``index`` names, for every k (the mSTAMP dimension
    connection: mean of the k+1 smallest per-dimension distances)."""
    series = np.asarray(series, dtype=np.float64)
    z = np.stack([_znormalize_segments(series[:, k], m) for k in range(series.shape[1])])
    d, n_seg, _ = z.shape
    out = np.full(index.shape, np.inf)
    rows = np.arange(n_seg)
    for k in range(d):
        valid = index[:, k] >= 0
        nbr = np.where(valid, index[:, k], 0)
        per_dim = np.linalg.norm(z[:, rows, :] - z[:, nbr, :], axis=2)  # (d, n_seg)
        per_dim.sort(axis=0)
        out[valid, k] = per_dim[: k + 1, valid].mean(axis=0)
    return out


def check_reduced_profile(result, oracle, series, m, mode, backend, rows):
    """Gate one reduced-precision self-join against its FP64 oracle.

    Returns ``(relative_error, problem)``; ``problem`` is ``None`` when
    the profile passes:

    * every finite oracle entry has a finite profile entry within the
      mode's a-priori bound of it, compared in correlation space (the
      quantity the bounds speak of);
    * the index contract: every returned neighbour lies outside the
      exclusion zone, and its true FP64 distance is within the same
      bound of the FP64 minimum.
    """
    rel = relative_error(result.profile, oracle.profile)
    bound = error_bound(mode, backend, rows, m)
    ref = oracle.profile
    finite = np.isfinite(ref)
    got = np.asarray(result.profile, dtype=np.float64)
    if not np.all(np.isfinite(got[finite])):
        return rel, "non-finite profile entries"
    ref_corr = implied_correlation(ref[finite], m)
    value_err = float(np.max(np.abs(implied_correlation(got[finite], m) - ref_corr)))
    if not value_err <= bound:
        return rel, f"profile corr error {value_err:.3g} above bound {bound:.3g}"
    index = np.asarray(result.index)
    n_seg = ref.shape[0]
    zone = int(np.ceil(m / 4))
    if np.any(index[finite] < 0) or np.any(index >= n_seg):
        return rel, "index out of range"
    cols = np.broadcast_to(np.arange(n_seg)[:, None], index.shape)
    if np.any(np.abs(index[finite] - cols[finite]) <= zone):
        return rel, "index inside the exclusion zone"
    true_dist = neighbour_distances(series, m, index)
    index_err = float(np.max(ref_corr - implied_correlation(true_dist[finite], m)))
    if not index_err <= bound:
        return rel, f"neighbour corr gap {index_err:.3g} above bound {bound:.3g}"
    return rel, None
