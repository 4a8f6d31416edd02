"""A small columnar table built on numpy arrays.

:class:`Table` is the data-interchange type of the whole toolkit: every
log (RAS, job, task, I/O) loads into a Table, every analysis consumes and
returns Tables.  It supports the handful of relational operations the
paper's analyses need — filter, sort, group-by, join, concat — with
column-oriented numpy storage so 2001-day traces stay tractable.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .column import as_column, factorize, is_numeric
from .join import join as _join

__all__ = ["Table"]


class _ColumnStore(dict):
    """Column mapping that materializes lazy loaders on first access.

    Arena-backed tables (:mod:`repro.table.arena`) defer string-column
    decoding: the store holds a loader per deferred column and swaps in
    the decoded array the first time the column is read.  All read
    paths (``[]``, ``get``, ``items``, ``values``) materialize; key
    iteration and membership never do, so listing columns stays free.

    .. warning:: ``dict(store)`` uses CPython's raw-storage merge fast
       path and would copy un-materialized placeholders — always go
       through ``dict(store.items())`` (as :meth:`Table.with_column`
       does) when snapshotting.
    """

    __slots__ = ("_lazy",)

    def __init__(self, data, lazy):
        super().__init__(data)
        self._lazy = dict(lazy)

    def __getitem__(self, key):
        loader = self._lazy.get(key)
        if loader is not None:
            arr = loader.load()
            dict.__setitem__(self, key, arr)
            del self._lazy[key]
            return arr
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        if dict.__contains__(self, key):
            return self[key]
        return default

    def values(self):
        return [self[key] for key in dict.keys(self)]

    def items(self):
        return [(key, self[key]) for key in dict.keys(self)]


class Table:
    """An immutable-by-convention columnar table.

    Parameters
    ----------
    columns:
        Mapping of column name to 1-D sequence.  All columns must share
        the same length.

    Examples
    --------
    >>> t = Table({"user": ["a", "b", "a"], "jobs": [3, 1, 2]})
    >>> t.n_rows
    3
    >>> t.filter(t["jobs"] > 1).to_rows()
    [{'user': 'a', 'jobs': 3}, {'user': 'a', 'jobs': 2}]
    """

    #: Set on arena-backed root tables to ``(path, table_name,
    #: fingerprint)``; pickling such a table ships this descriptor and
    #: the receiver re-attaches the shared mapping
    #: (:func:`repro.table.arena.attach_table`) instead of the bytes.
    _arena: tuple[str, str, str] | None = None

    def __init__(self, columns: Mapping[str, Sequence | np.ndarray]):
        data: dict[str, np.ndarray] = {}
        length: int | None = None
        for name, values in columns.items():
            arr = as_column(values, name)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {length}"
                )
            data[name] = arr
        self._data = data
        self._length = length or 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def _from_arrays(cls, data: dict[str, np.ndarray], length: int) -> "Table":
        """Wrap already-validated column arrays without re-coercing them.

        Internal fast path for row-selection operations whose outputs are
        slices/gathers of existing columns — group iteration builds one
        sub-table per group, so per-table validation cost is hot there.
        """
        table = cls.__new__(cls)
        table._data = data
        table._length = length
        return table

    @classmethod
    def _from_lazy(
        cls,
        data: dict[str, np.ndarray],
        lazy: Mapping[str, Any],
        length: int,
    ) -> "Table":
        """Wrap columns where some values are deferred loaders.

        ``data`` fixes column order (deferred names hold placeholders);
        ``lazy`` maps those names to objects with a zero-arg ``load()``
        returning the column array.  Used by the arena reader so an
        attached dataset is O(1) RAM until a string column is touched.
        """
        table = cls.__new__(cls)
        table._data = _ColumnStore(data, lazy)
        table._length = length
        return table

    def __reduce__(self):
        if self._arena is not None:
            from .arena import attach_table

            return (attach_table, self._arena)
        return (Table._from_arrays, (dict(self._data.items()), self._length))

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, Any]]) -> "Table":
        """Build a table from an iterable of dict-like rows.

        All rows must share the same keys; an empty iterable produces an
        empty zero-column table.
        """
        rows = list(rows)
        if not rows:
            return cls({})
        names = tuple(rows[0].keys())
        n_names = len(names)
        for i, row in enumerate(rows):
            # len check first so conforming rows (the common case) pay one
            # tuple build, not a per-row list allocation plus compare.
            if len(row) != n_names or tuple(row.keys()) != names:
                raise ValueError(f"row {i} keys {list(row.keys())} != {list(names)}")
        return cls({name: [row[name] for row in rows] for name in names})

    @classmethod
    def empty(cls, schema: Mapping[str, type]) -> "Table":
        """Build an empty table with typed columns from a name→type schema."""
        dtype_for = {int: np.int64, float: np.float64, str: object, bool: bool}
        return cls(
            {
                name: np.empty(0, dtype=dtype_for.get(pytype, object))
                for name, pytype in schema.items()
            }
        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._length

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._data.keys())

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.to_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names or len(self) != len(other):
            return False
        for name in self.column_names:
            a, b = self._data[name], other._data[name]
            if is_numeric(a) and is_numeric(b):
                if not np.allclose(a, b, equal_nan=True):
                    return False
            elif not all(x == y for x, y in zip(a, b)):
                return False
        return True

    def __repr__(self) -> str:
        return f"Table({self.n_rows} rows x {len(self.column_names)} cols: {self.column_names})"

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize the table as a list of plain dict rows."""
        names = self.column_names
        cols = [self._data[n].tolist() for n in names]
        return [dict(zip(names, values)) for values in zip(*cols)] if names else []

    def to_dict(self) -> dict[str, list]:
        """Return a name → list-of-values mapping (a copy)."""
        return {name: arr.tolist() for name, arr in self._data.items()}

    def row(self, index: int) -> dict[str, Any]:
        """Return a single row as a dict (supports negative indices)."""
        if not -self._length <= index < self._length:
            raise IndexError(f"row {index} out of range for {self._length} rows")
        return {name: arr[index].item() if hasattr(arr[index], "item") else arr[index]
                for name, arr in self._data.items()}

    # ------------------------------------------------------------------
    # projection / mutation-by-copy
    # ------------------------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Project onto the given columns, in the given order."""
        missing = [n for n in names if n not in self._data]
        if missing:
            raise KeyError(f"unknown columns {missing}; available: {self.column_names}")
        return Table({name: self._data[name] for name in names})

    def drop(self, names: Sequence[str]) -> "Table":
        """Return a table without the given columns."""
        drop_set = set(names)
        return Table(
            {name: arr for name, arr in self._data.items() if name not in drop_set}
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Return a table with columns renamed per ``mapping``."""
        return Table(
            {mapping.get(name, name): arr for name, arr in self._data.items()}
        )

    def with_column(self, name: str, values: Sequence | np.ndarray) -> "Table":
        """Return a table with ``name`` added or replaced."""
        arr = as_column(values, name)
        if self._data and len(arr) != self._length:
            raise ValueError(
                f"column {name!r} has length {len(arr)}, expected {self._length}"
            )
        # dict(self._data) would take CPython's raw-storage merge fast
        # path, bypassing a lazy store's materializing __getitem__ —
        # snapshot through items(), which always materializes.
        data = dict(self._data.items())
        data[name] = arr
        return Table(data)

    def map_column(self, name: str, func: Callable[[Any], Any]) -> "Table":
        """Return a table with ``func`` applied elementwise to one column."""
        return self.with_column(name, [func(v) for v in self._data[name].tolist()])

    # ------------------------------------------------------------------
    # filtering / ordering
    # ------------------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "Table":
        """Return the rows where the boolean ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise TypeError(f"mask must be boolean, got dtype {mask.dtype}")
        if len(mask) != self._length:
            raise ValueError(f"mask length {len(mask)} != table length {self._length}")
        return self.take(np.nonzero(mask)[0])

    def take(self, indices: np.ndarray | Sequence[int]) -> "Table":
        """Return rows at the given integer positions, in that order."""
        idx = np.asarray(indices, dtype=np.int64)
        return Table._from_arrays(
            {name: arr[idx] for name, arr in self._data.items()}, len(idx)
        )

    def head(self, n: int = 10) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._length)))

    def sort_by(self, *names: str, reverse: bool = False) -> "Table":
        """Return rows sorted by the given columns (stable, last key primary
        as in ``numpy.lexsort`` convention is hidden: ``names[0]`` is the
        primary key)."""
        if not names:
            raise ValueError("sort_by requires at least one column")
        keys = []
        for name in reversed(names):
            arr = self[name]
            keys.append(arr.astype(str) if arr.dtype.kind == "O" else arr)
        order = np.lexsort(keys)
        if reverse:
            order = order[::-1]
        return self.take(order)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def unique(self, name: str) -> np.ndarray:
        """Unique values of one column (sorted for numeric, first-seen order
        for strings)."""
        _, uniques = factorize(self[name])
        return uniques

    def value_counts(self, name: str) -> "Table":
        """Count occurrences of each value; result sorted by count desc.

        Returns a table with columns ``(name, 'count')``.
        """
        codes, uniques = factorize(self[name])
        counts = np.bincount(codes, minlength=len(uniques))
        order = np.argsort(counts)[::-1]
        return Table({name: uniques[order], "count": counts[order]})

    def group_by(self, *names: str) -> "GroupBy":
        """Start a group-by over the given key columns."""
        from .groupby import GroupBy

        return GroupBy(self, list(names))

    def join(
        self,
        other: "Table",
        on: str | Sequence[str],
        how: str = "inner",
        suffix: str = "_right",
    ) -> "Table":
        """Join with another table on one or more key columns."""
        return _join(self, other, on=on, how=how, suffix=suffix)

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------

    @staticmethod
    def concat(tables: Sequence["Table"]) -> "Table":
        """Vertically stack tables with identical column names."""
        tables = [t for t in tables if t.column_names]
        if not tables:
            return Table({})
        names = tables[0].column_names
        for i, t in enumerate(tables):
            if t.column_names != names:
                raise ValueError(
                    f"table {i} columns {t.column_names} != {names}"
                )
        data = {}
        for name in names:
            parts = [t[name] for t in tables]
            if any(p.dtype.kind == "O" for p in parts):
                parts = [p.astype(object) for p in parts]
            data[name] = np.concatenate(parts)
        return Table(data)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def to_text(self, max_rows: int = 40, float_fmt: str = "{:.4g}") -> str:
        """Render a fixed-width text view (used by reports and benches)."""
        names = self.column_names
        if not names:
            return "(empty table)"
        shown = self.head(max_rows)
        cells: list[list[str]] = [names]
        for row in shown.to_rows():
            rendered = []
            for name in names:
                value = row[name]
                if isinstance(value, float):
                    rendered.append(float_fmt.format(value))
                else:
                    rendered.append(str(value))
            cells.append(rendered)
        widths = [max(len(r[i]) for r in cells) for i in range(len(names))]
        lines = []
        for i, row_cells in enumerate(cells):
            lines.append("  ".join(c.rjust(w) for c, w in zip(row_cells, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.n_rows > max_rows:
            lines.append(f"... ({self.n_rows - max_rows} more rows)")
        return "\n".join(lines)
