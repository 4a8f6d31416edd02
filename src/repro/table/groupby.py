"""Group-by aggregation over :class:`~repro.table.frame.Table`.

Grouping factorizes each key column into integer codes, combines the
codes into a single group id, and then computes aggregates with
``np.bincount`` / sorted ``reduceat`` — no Python-level loop over rows,
which keeps multi-hundred-thousand-row job logs fast.

Group iteration (:meth:`GroupBy.apply`, :meth:`GroupBy.groups`) and the
order-statistic aggregations share one stable argsort of the group ids:
every group is a contiguous slice of the sorted row order, so walking
all groups costs O(n log n) once instead of one O(n) mask scan per
group.

When ``REPRO_CHUNK_ROWS`` is set (see :mod:`repro.util.chunking`),
:meth:`GroupBy.agg` streams decomposable aggregations over row chunks
instead of materializing whole-column float temporaries — the working
set becomes O(chunk + groups) regardless of table length, which is what
lets memory-mapped fleet-scale tables aggregate without faulting every
page in at once.  ``count``/``nancount``/``min``/``max`` are exactly
the full-pass results; ``sum``/``mean``/``std`` accumulate partial sums
per chunk, so they agree with the full pass to floating-point
associativity (``allclose``, not bit equality).  ``median`` needs a
global sort and always takes the full-pass kernel.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.obs.trace import span as trace_span
from repro.util.chunking import chunk_rows, iter_slices

from .column import factorize

__all__ = ["GroupBy", "AGGREGATIONS", "STREAMING_AGGREGATIONS"]


def _agg_sum(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return np.bincount(group_ids, weights=values.astype(np.float64), minlength=n_groups)


def _agg_count(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return np.bincount(group_ids, minlength=n_groups).astype(np.int64)


def _agg_mean(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    totals = _agg_sum(values, group_ids, n_groups)
    counts = _agg_count(values, group_ids, n_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        return totals / counts


def _agg_std(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Sample standard deviation (ddof=1); NaN for groups of size < 2.

    Computed from per-group centered squares (not E[x²]−E[x]²), so it
    stays accurate when group means dwarf the spread — core-hour columns
    do exactly that.
    """
    counts = _agg_count(values, group_ids, n_groups)
    means = _agg_mean(values, group_ids, n_groups)
    deviations = values.astype(np.float64) - means[group_ids]
    squares = np.bincount(group_ids, weights=deviations * deviations,
                          minlength=n_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.sqrt(squares / (counts - 1))


def _agg_nancount(values: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Count of non-NaN values per group (the ``nan*`` naming follows
    numpy: the aggregation ignores NaNs)."""
    valid = ~np.isnan(values.astype(np.float64))
    return np.bincount(group_ids, weights=valid, minlength=n_groups).astype(np.int64)


def _sorted_reduce(
    values: np.ndarray, group_ids: np.ndarray, n_groups: int, ufunc
) -> np.ndarray:
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    sorted_values = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate(([0], boundaries))
    present = sorted_ids[starts]
    reduced = ufunc.reduceat(sorted_values, starts)
    out = np.full(n_groups, np.nan, dtype=np.float64)
    out[present] = reduced
    return out


def _agg_min(values, group_ids, n_groups):
    return _sorted_reduce(values, group_ids, n_groups, np.minimum)


def _agg_max(values, group_ids, n_groups):
    return _sorted_reduce(values, group_ids, n_groups, np.maximum)


def _agg_median(values, group_ids, n_groups):
    """Median per group without a per-group ``np.median`` call.

    One lexsort orders rows by (group, value); each group's median is
    then the mean of its two middle elements picked by index.  Groups
    containing NaN report NaN, matching ``np.median``.
    """
    values = values.astype(np.float64, copy=False)
    order = np.lexsort((values, group_ids))
    sorted_ids = group_ids[order]
    sorted_values = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_ids)]))
    sizes = ends - starts
    lo = starts + (sizes - 1) // 2
    hi = starts + sizes // 2
    medians = 0.5 * (sorted_values[lo] + sorted_values[hi])
    has_nan = np.bincount(
        sorted_ids[np.isnan(sorted_values)], minlength=n_groups
    ).astype(bool)
    out = np.full(n_groups, np.nan, dtype=np.float64)
    out[sorted_ids[starts]] = medians
    out[has_nan] = np.nan
    return out


AGGREGATIONS: dict[str, Callable] = {
    "sum": _agg_sum,
    "count": _agg_count,
    "mean": _agg_mean,
    "min": _agg_min,
    "max": _agg_max,
    "median": _agg_median,
    "std": _agg_std,
    "nancount": _agg_nancount,
}


# ----------------------------------------------------------------------
# streaming (chunked) kernels
# ----------------------------------------------------------------------


def _stream_count(group_ids, n_groups, size):
    out = np.zeros(n_groups, dtype=np.int64)
    for start, stop in iter_slices(len(group_ids), size):
        out += np.bincount(group_ids[start:stop], minlength=n_groups).astype(np.int64)
    return out


def _stream_weighted(values, group_ids, n_groups, size, weight_of):
    """Accumulate per-chunk ``bincount`` partials (float64)."""
    out = np.zeros(n_groups, dtype=np.float64)
    for start, stop in iter_slices(len(group_ids), size):
        out += np.bincount(
            group_ids[start:stop],
            weights=weight_of(values[start:stop]),
            minlength=n_groups,
        )
    return out


def _stream_sum(values, group_ids, n_groups, size):
    return _stream_weighted(
        values, group_ids, n_groups, size, lambda v: v.astype(np.float64)
    )


def _stream_nancount(values, group_ids, n_groups, size):
    return _stream_weighted(
        values,
        group_ids,
        n_groups,
        size,
        lambda v: (~np.isnan(v.astype(np.float64))).astype(np.float64),
    ).astype(np.int64)


def _stream_mean(values, group_ids, n_groups, size):
    totals = _stream_sum(values, group_ids, n_groups, size)
    counts = _stream_count(group_ids, n_groups, size)
    with np.errstate(invalid="ignore", divide="ignore"):
        return totals / counts


def _stream_std(values, group_ids, n_groups, size):
    """Two-pass streaming std: means first, then centered squares."""
    counts = _stream_count(group_ids, n_groups, size)
    means = _stream_mean(values, group_ids, n_groups, size)
    squares = np.zeros(n_groups, dtype=np.float64)
    for start, stop in iter_slices(len(group_ids), size):
        ids = group_ids[start:stop]
        deviations = values[start:stop].astype(np.float64) - means[ids]
        squares += np.bincount(ids, weights=deviations * deviations,
                               minlength=n_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.sqrt(squares / (counts - 1))


def _stream_extremum(ufunc):
    """Running elementwise min/max over per-chunk sorted reductions.

    Exactly matches the full-pass kernel: an extremum over any chunk
    partition is the extremum of the partial extrema, and a NaN value
    poisons its group's partial, which then propagates through the
    NaN-propagating ``ufunc`` — while groups merely *absent* from a
    chunk (whose partial slot is the NaN placeholder) are skipped via
    the presence mask instead of poisoning the running value.
    """

    def stream(values, group_ids, n_groups, size):
        out = np.full(n_groups, np.nan, dtype=np.float64)
        seen = np.zeros(n_groups, dtype=bool)
        for start, stop in iter_slices(len(group_ids), size):
            ids = group_ids[start:stop]
            reduced = _sorted_reduce(values[start:stop], ids, n_groups, ufunc)
            present = np.bincount(ids, minlength=n_groups) > 0
            both = seen & present
            out[both] = ufunc(out[both], reduced[both])
            fresh = present & ~seen
            out[fresh] = reduced[fresh]
            seen |= present
        return out

    return stream


STREAMING_AGGREGATIONS: dict[str, Callable] = {
    "sum": _stream_sum,
    "count": lambda values, group_ids, n_groups, size: _stream_count(
        group_ids, n_groups, size
    ),
    "mean": _stream_mean,
    "min": _stream_extremum(np.minimum),
    "max": _stream_extremum(np.maximum),
    "std": _stream_std,
    "nancount": _stream_nancount,
    # median intentionally absent: it needs a global sort.
}


#: Above this product of key cardinalities the dense radix encoding of
#: multi-key groups would overflow int64; fall back to tuple hashing.
_MAX_DENSE_GROUPS = 2**62


class GroupBy:
    """A deferred group-by produced by :meth:`Table.group_by`.

    Examples
    --------
    >>> from repro.table import Table
    >>> t = Table({"user": ["a", "b", "a"], "hours": [1.0, 2.0, 3.0]})
    >>> t.group_by("user").agg(hours="sum").sort_by("user").to_rows()
    [{'user': 'a', 'hours_sum': 4.0}, {'user': 'b', 'hours_sum': 2.0}]
    """

    def __init__(self, table, keys: Sequence[str]):
        from .frame import Table

        if not keys:
            raise ValueError("group_by requires at least one key column")
        self._table: Table = table
        self._keys = list(keys)
        code_arrays = []
        unique_arrays = []
        capacity = 1
        for key in self._keys:
            codes, uniques = factorize(table[key])
            code_arrays.append(codes)
            unique_arrays.append(uniques)
            capacity *= max(len(uniques), 1)
        if capacity <= _MAX_DENSE_GROUPS:
            combined = np.zeros(len(table), dtype=np.int64)
            for codes, uniques in zip(code_arrays, unique_arrays):
                combined = combined * max(len(uniques), 1) + codes
        else:
            # Radix encoding would overflow int64: hash key tuples instead.
            tuples = list(zip(*[c.tolist() for c in code_arrays]))
            as_objects = np.empty(len(tuples), dtype=object)
            as_objects[:] = tuples
            combined, _ = factorize(as_objects)
        group_ids, first_index, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        self._group_ids = inverse.astype(np.int64)
        self._n_groups = len(group_ids)
        self._key_values = {
            key: table[key][first_index] for key in self._keys
        }
        self._slices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def n_groups(self) -> int:
        """Number of distinct key combinations."""
        return self._n_groups

    def _group_slices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, starts, ends)``: one stable argsort under which group
        ``g`` is the contiguous slice ``order[starts[g]:ends[g]]`` in
        original row order."""
        if self._slices is None:
            order = np.argsort(self._group_ids, kind="stable")
            counts = np.bincount(self._group_ids, minlength=self._n_groups)
            ends = np.cumsum(counts)
            starts = ends - counts
            self._slices = (order, starts, ends)
        return self._slices

    def size(self):
        """Return a table of group keys plus a ``count`` column."""
        return self.agg()

    def agg(self, spec: Mapping[str, str] | None = None, **kwargs: str):
        """Aggregate value columns.

        Accepts either a mapping ``{"column": "sum"}`` or keyword form
        ``column="sum"``.  Output columns are named ``<column>_<agg>``.
        A ``count`` column with group sizes is always included.
        """
        from .frame import Table

        merged: dict[str, str] = dict(spec or {})
        merged.update(kwargs)
        size = chunk_rows()
        streaming = 0 < size < len(self._group_ids)
        with trace_span(
            "kernel.groupby",
            n_rows=len(self._group_ids),
            n_groups=self._n_groups,
            n_aggs=len(merged),
            chunked=streaming,
        ):
            data: dict[str, np.ndarray] = dict(self._key_values)
            if streaming:
                data["count"] = _stream_count(
                    self._group_ids, self._n_groups, size
                )
            else:
                data["count"] = _agg_count(
                    np.empty(len(self._group_ids)), self._group_ids, self._n_groups
                )
            for column, agg_name in merged.items():
                if agg_name not in AGGREGATIONS:
                    raise ValueError(
                        f"unknown aggregation {agg_name!r}; "
                        f"options: {sorted(AGGREGATIONS)}"
                    )
                values = self._table[column]
                if values.dtype.kind == "O":
                    raise TypeError(f"cannot aggregate string column {column!r}")
                if streaming and agg_name in STREAMING_AGGREGATIONS:
                    result = STREAMING_AGGREGATIONS[agg_name](
                        values, self._group_ids, self._n_groups, size
                    )
                else:
                    result = AGGREGATIONS[agg_name](
                        values, self._group_ids, self._n_groups
                    )
                data[f"{column}_{agg_name}"] = result
            return Table(data)

    def apply(self, func: Callable) -> list:
        """Call ``func(sub_table)`` for every group; returns the list of
        results in group order.  Use for aggregations the vectorized
        kernels do not cover (e.g. distribution fits per group)."""
        with trace_span(
            "kernel.groupby.apply",
            n_rows=len(self._group_ids),
            n_groups=self._n_groups,
        ):
            order, starts, ends = self._group_slices()
            return [
                func(self._table.take(order[starts[gid]:ends[gid]]))
                for gid in range(self._n_groups)
            ]

    def groups(self):
        """Yield ``(key_dict, sub_table)`` pairs in group order."""
        order, starts, ends = self._group_slices()
        for gid in range(self._n_groups):
            key = {k: self._key_values[k][gid] for k in self._keys}
            yield key, self._table.take(order[starts[gid]:ends[gid]])
