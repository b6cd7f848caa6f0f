"""Relational storage layer.

The paper implements its filter "using a standard relational database
system thereby taking advantage of their matured storing, indexing, and
querying abilities" (Section 1).  This package provides the SQLite-backed
equivalent: a small engine wrapper, the complete physical schema of
Section 3.3.4, and typed accessors for the bookkeeping tables.
"""

from repro.storage.engine import Database
from repro.storage.schema import (
    COMPARISON_TABLES,
    TRIGGER_TABLES,
    create_all,
    filter_rules_table,
)
from repro.storage.tables import (
    AtomRow,
    DocumentLoader,
    DocumentTable,
    FilterDataTable,
    FilterInputTable,
    MaterializedTable,
    ResourceTable,
    ResultObjectsTable,
)

__all__ = [
    "Database",
    "create_all",
    "COMPARISON_TABLES",
    "TRIGGER_TABLES",
    "filter_rules_table",
    "AtomRow",
    "DocumentLoader",
    "DocumentTable",
    "ResourceTable",
    "FilterDataTable",
    "FilterInputTable",
    "ResultObjectsTable",
    "MaterializedTable",
]
