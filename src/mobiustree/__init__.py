"""Nested-interval tree encoding with continued fractions.

Tree nodes are addressed five equivalent ways: materialized path,
rational label, continued fraction, 2x2 unimodular integer matrix, and
a semiopen interval with rational endpoints.  Ancestor queries are
O(depth) integer arithmetic, descendant queries are interval range
scans, inserts never relabel existing nodes, and subtrees relocate by
solving one 2x2 matrix equation.  ``TreeStore`` is a file-backed store
built on the encoding; the ``mobius-tree`` CLI fronts both.
"""

from .exactmath import (
    DomainError,
    INFINITY,
    Ratio,
    ext_gcd,
    euclid_quotients,
    gcd,
    ratio_cmp,
)
from .encoding import (
    MobiusMatrix,
    NestedInterval,
    Path,
    child,
    concat,
    convergents,
    depth,
    interval_contains,
    interval_to_matrix,
    is_ancestor,
    matrix_to_interval,
    matrix_to_path,
    next_sibling,
    parent,
    path_to_matrix,
    path_to_ratio,
    prev_sibling,
    ratio_to_matrix,
    ratio_to_path,
    relative,
)
from .store import (
    CycleError,
    LoadError,
    MissingNodeError,
    NodeRecord,
    OccupiedSlotError,
    ROOT,
    StoreError,
    StoreStats,
    TreeStore,
)

__version__ = "0.1.0"

# The kernels are pure Python; kept as a constant for reports that print it.
KERNEL_BACKEND = "pure"

__all__ = [
    "__version__",
    "KERNEL_BACKEND",
    "DomainError",
    "INFINITY",
    "Ratio",
    "gcd",
    "ext_gcd",
    "euclid_quotients",
    "ratio_cmp",
    "Path",
    "MobiusMatrix",
    "NestedInterval",
    "path_to_matrix",
    "matrix_to_path",
    "path_to_ratio",
    "ratio_to_path",
    "ratio_to_matrix",
    "matrix_to_interval",
    "interval_to_matrix",
    "interval_contains",
    "parent",
    "next_sibling",
    "prev_sibling",
    "child",
    "concat",
    "relative",
    "is_ancestor",
    "convergents",
    "depth",
    "TreeStore",
    "NodeRecord",
    "StoreStats",
    "StoreError",
    "MissingNodeError",
    "OccupiedSlotError",
    "CycleError",
    "LoadError",
    "ROOT",
]
