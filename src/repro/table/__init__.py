"""Columnar table substrate (pandas stand-in on numpy).

Public surface::

    from repro.table import Table, read_csv, write_csv

Persistence has one format: the memory-mapped columnar arena
(:func:`write_arena`/:func:`read_arena`), which attaches as zero-copy
read-only views shared across processes.
"""

from .arena import attach_arena, read_arena, write_arena
from .column import as_column, factorize
from .csvio import read_csv, read_jsonl, write_csv, write_jsonl
from .frame import Table
from .groupby import GroupBy

__all__ = [
    "Table",
    "GroupBy",
    "as_column",
    "factorize",
    "read_csv",
    "write_csv",
    "read_jsonl",
    "write_jsonl",
    "read_arena",
    "write_arena",
    "attach_arena",
]
