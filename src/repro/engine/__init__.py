"""In-memory columnar table engine.

This subpackage replaces the PostgreSQL backend used by the original T-REx
demo (see DESIGN.md, system S1).  It provides:

* :class:`~repro.engine.storage.ColumnStore` — a columnar store over object
  arrays with copy-on-write semantics,
* :mod:`~repro.engine.encoding` — per-column value ↔ ``int32`` code
  dictionaries that the statistics and the repair walk count over,
* :class:`~repro.engine.index.MultiColumnIndex` — key → row-id hash indexes
  used by the violation detector for equality predicates (one column is a
  one-element key),
* :mod:`~repro.engine.stats` — per-column and pairwise co-occurrence
  statistics (the ``P[Country = c | City = v]`` style quantities used by the
  paper's Algorithm 1 and by the HoloClean-style repairer).
"""

from repro.engine.storage import ColumnStore
from repro.engine.stats import (
    ColumnStatistics,
    CooccurrenceStatistics,
    TableStatistics,
)

__all__ = [
    "ColumnStore",
    "ColumnStatistics",
    "CooccurrenceStatistics",
    "TableStatistics",
]
