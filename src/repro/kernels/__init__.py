"""The four GPU kernels of Pseudocode 1, executing real numpy arithmetic in
the requested precision while recording hardware-cost counters."""

from .dist_calc import DistCalcKernel
from .layout import to_device_layout, to_host_layout, validate_series
from .precalc import PrecalcKernel, PrecalcResult, naive_qt_row
from .sort_scan import SortScanKernel, fanin_inclusive_scan, sort_columns
from .sort_scan_batch import (
    BatchSortScanKernel,
    insertion_sort_columns,
    sequential_inclusive_scan,
)
from .update import INDEX_DTYPE, UpdateKernel

__all__ = [
    "DistCalcKernel",
    "PrecalcKernel",
    "PrecalcResult",
    "naive_qt_row",
    "SortScanKernel",
    "BatchSortScanKernel",
    "fanin_inclusive_scan",
    "sort_columns",
    "insertion_sort_columns",
    "sequential_inclusive_scan",
    "UpdateKernel",
    "INDEX_DTYPE",
    "to_device_layout",
    "to_host_layout",
    "validate_series",
]
