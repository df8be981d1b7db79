"""In-memory columnar table engine.

This subpackage replaces the PostgreSQL backend used by the original T-REx
demo (see DESIGN.md, system S1).  It provides:

* :class:`~repro.engine.storage.ColumnStore` — a columnar store over object
  arrays with copy-on-write semantics,
* :class:`~repro.engine.index.HashIndex` — value → row-id hash indexes used
  by the violation detector for equality predicates,
* :mod:`~repro.engine.stats` — per-column and pairwise co-occurrence
  statistics (the ``P[Country = c | City = v]`` style quantities used by the
  paper's Algorithm 1 and by the HoloClean-style repairer).
"""

from repro.engine.storage import ColumnStore
from repro.engine.index import HashIndex
from repro.engine.stats import (
    ColumnStatistics,
    CooccurrenceStatistics,
    TableStatistics,
)

__all__ = [
    "ColumnStore",
    "HashIndex",
    "ColumnStatistics",
    "CooccurrenceStatistics",
    "TableStatistics",
]
