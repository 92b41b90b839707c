"""Nested-interval tree encoding with continued fractions.

Tree nodes are addressed five equivalent ways: materialized path,
rational label, continued fraction, 2x2 unimodular integer matrix, and
a semiopen interval with rational endpoints.  Ancestor queries are
O(depth) integer arithmetic, descendant queries are interval range
scans, inserts never relabel existing nodes, and subtrees relocate by
solving one 2x2 matrix equation.  ``TreeStore`` is a file-backed store
built on the encoding; the ``mobius-tree`` CLI fronts both.
"""

from . import encoding, exactmath, store
from .exactmath import *
from .encoding import *
from .store import *

__version__ = "0.1.0"

# The kernels are pure Python; kept as a constant for reports that print it.
KERNEL_BACKEND = "pure"

__all__ = ["__version__", "KERNEL_BACKEND"]
__all__ += exactmath.__all__
__all__ += encoding.__all__
__all__ += store.__all__
