"""Cross-log attribution: joining RAS events to job executions.

This is the paper's central methodological device: a RAS event *affects*
a job when it occurs (a) during the job's execution window and (b) on
hardware inside the job's block.  From that join follow the
user-vs-system failure attribution (E03), the per-user event
correlations (E14), and the block annotation of the RAS log.

The join is interval-based: jobs on the same midplane never overlap in
time (the allocator guarantees it), so each (midplane, timestamp) query
has at most one owning job.  The index flattens every job into
per-midplane intervals sorted by ``(midplane, start)`` and resolves all
queries in a single :func:`np.searchsorted` pass — no per-event Python
loop, which is what keeps the full 2001-day trace tractable.
"""

from __future__ import annotations

import numpy as np

from repro.bgq.location import Location
from repro.bgq.machine import MachineSpec
from repro.obs.trace import span as trace_span
from repro.stats import pearson, spearman
from repro.table import Table
from repro.table.column import factorize
from repro.util.chunking import chunk_rows, iter_slices

__all__ = [
    "event_midplanes",
    "event_midplane_spans",
    "map_events_to_jobs",
    "attribute_failures",
    "attribution_summary",
    "events_per_user",
]

NO_JOB = -1
"""Sentinel job id for events that hit no running job."""


def _hex_digit_values(chars: np.ndarray) -> np.ndarray:
    """Codepoints → hex digit values; -1 where not an uppercase hex digit."""
    values = np.full(chars.shape, -1, dtype=np.int64)
    decimal = (chars >= 48) & (chars <= 57)
    values[decimal] = chars[decimal].astype(np.int64) - 48
    upper = (chars >= 65) & (chars <= 70)
    values[upper] = chars[upper].astype(np.int64) - 55
    return values


def _parse_unique_spans(
    uniques: np.ndarray, spec: MachineSpec
) -> tuple[np.ndarray, np.ndarray]:
    """``(first_midplane, n_midplanes)`` for each distinct location code.

    The canonical grammar (``Rxx[-Md[-Nnn[-Jnn[-Cnn]]]]`` with
    range-checked fields) is verified on a codepoint matrix — one
    vectorized pass over all distinct codes instead of one regex parse
    per code.  Anything the fast path rejects goes through
    :meth:`Location.parse`, which either handles it or raises the
    canonical :class:`~repro.errors.LocationError`.
    """
    n = len(uniques)
    first = np.empty(n, dtype=np.int64)
    count = np.empty(n, dtype=np.int64)
    fixed = uniques.astype(str)
    width = fixed.dtype.itemsize // 4
    if n == 0 or width == 0:
        slow = np.arange(n)
    else:
        chars = np.ascontiguousarray(fixed).view(np.uint32).reshape(n, width)

        def column(i: int) -> np.ndarray:
            return chars[:, i] if i < width else np.zeros(n, dtype=np.uint32)

        def decimal_digit(i: int) -> np.ndarray:
            c = column(i)
            return np.where((c >= 48) & (c <= 57), c.astype(np.int64) - 48, -1)

        nonzero = chars != 0
        lengths = width - nonzero[:, ::-1].argmax(axis=1)
        clean = nonzero.sum(axis=1) == lengths  # no embedded NULs
        row = _hex_digit_values(column(1))
        col = _hex_digit_values(column(2))
        rack_ok = (
            clean
            & (lengths >= 3)
            & (column(0) == ord("R"))
            & (row >= 0)
            & (row < spec.rack_rows)
            & (col >= 0)
            & (col < spec.rack_columns)
        )
        rack = row * spec.rack_columns + col
        midplane = decimal_digit(5)
        mp_ok = (
            rack_ok
            & (lengths >= 6)
            & (column(3) == ord("-"))
            & (column(4) == ord("M"))
            & (midplane >= 0)
            & (midplane < spec.midplanes_per_rack)
        )
        # Optional deeper levels: each must nest inside the previous one
        # and stay in range, exactly like Location.parse + validate.
        depth_ok = mp_ok
        valid = rack_ok & (lengths == 3) | (mp_ok & (lengths == 6))
        for offset, letter, bound in (
            (6, "N", spec.node_boards_per_midplane),
            (10, "J", spec.nodes_per_node_board),
            (14, "C", spec.cores_per_node),
        ):
            tens, ones = decimal_digit(offset + 2), decimal_digit(offset + 3)
            value = tens * 10 + ones
            depth_ok = (
                depth_ok
                & (lengths >= offset + 4)
                & (column(offset) == ord("-"))
                & (column(offset + 1) == ord(letter))
                & (tens >= 0)
                & (ones >= 0)
                & (value < bound)
            )
            valid |= depth_ok & (lengths == offset + 4)
        is_rack_level = valid & (lengths == 3)
        has_midplane = valid & ~is_rack_level
        first[has_midplane] = (
            rack[has_midplane] * spec.midplanes_per_rack + midplane[has_midplane]
        )
        count[has_midplane] = 1
        first[is_rack_level] = rack[is_rack_level] * spec.midplanes_per_rack
        count[is_rack_level] = spec.midplanes_per_rack
        slow = np.flatnonzero(~valid)
    for i in slow:
        loc = Location.parse(uniques[i], spec)
        if loc.midplane is not None:
            first[i] = loc.midplane_index(spec)
            count[i] = 1
        else:
            first[i] = spec.rack_index(loc.rack) * spec.midplanes_per_rack
            count[i] = spec.midplanes_per_rack
    return first, count


def event_midplane_spans(
    locations, spec: MachineSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Midplane coverage of each location code as ``(first, count)`` arrays.

    Every covered span is contiguous: midplane-level and finer codes map
    to one midplane (``count == 1``); rack-level codes (power/cooling/
    clock events) cover every midplane of the rack.  Locations are
    factorized so each distinct code — RAS logs repeat locations heavily
    — is parsed exactly once, and the distinct codes themselves parse as
    one vectorized pass (:func:`_parse_unique_spans`).
    """
    arr = np.asarray(locations, dtype=object)
    codes, uniques = factorize(arr)
    first, count = _parse_unique_spans(uniques, spec)
    return first[codes], count[codes]


def event_midplanes(locations, spec: MachineSpec) -> list[tuple[int, ...]]:
    """Midplane indices covered by each location code, as tuples.

    Compatibility wrapper around :func:`event_midplane_spans` for
    callers that want per-event tuples rather than flat arrays.
    """
    first, count = event_midplane_spans(locations, spec)
    return [
        tuple(range(f, f + c)) for f, c in zip(first.tolist(), count.tolist())
    ]


def _within_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` — offsets inside each repeated span."""
    total = int(counts.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


class _JobIntervalIndex:
    """Flattened per-midplane job intervals with one-pass batch lookup.

    Jobs are expanded to one interval per covered midplane
    (``np.repeat``), then sorted by ``(midplane, start, end, job_id)``.
    :meth:`lookup_many` ranks all float timestamps through one shared
    ``np.unique`` so the ``(midplane, start)`` composite keys are exact
    integers — the float comparisons of the old bisection are preserved
    bit-for-bit — and resolves every query with a single
    ``np.searchsorted`` over the flat key array.
    """

    def __init__(self, jobs: Table, spec: MachineSpec):
        n = jobs.n_rows
        if n:
            counts = np.asarray(jobs["n_midplanes"], dtype=np.int64)
            firsts = np.asarray(jobs["first_midplane"], dtype=np.int64)
            midplanes = np.repeat(firsts, counts) + _within_offsets(counts)
            starts = np.repeat(
                np.asarray(jobs["start_time"], dtype=np.float64), counts
            )
            ends = np.repeat(np.asarray(jobs["end_time"], dtype=np.float64), counts)
            ids = np.repeat(np.asarray(jobs["job_id"], dtype=np.int64), counts)
            order = np.lexsort((ids, ends, starts, midplanes))
            self._midplanes = midplanes[order]
            self._starts = starts[order]
            self._ends = ends[order]
            self._ids = ids[order]
        else:
            self._midplanes = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.float64)
            self._ends = np.empty(0, dtype=np.float64)
            self._ids = np.empty(0, dtype=np.int64)

    def lookup_many(self, midplanes: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
        """Owning job id for each ``(midplane, timestamp)`` query row."""
        if self._midplanes.size == 0 or midplanes.size == 0:
            return np.full(midplanes.size, NO_JOB, dtype=np.int64)
        ranks = np.unique(np.concatenate((self._starts, timestamps)))
        radix = np.int64(ranks.size + 1)
        keys = self._midplanes * radix + np.searchsorted(ranks, self._starts)
        query_keys = midplanes * radix + np.searchsorted(ranks, timestamps)
        pos = np.searchsorted(keys, query_keys, side="right") - 1
        safe = np.maximum(pos, 0)
        hit = (
            (pos >= 0)
            & (self._midplanes[safe] == midplanes)
            & (timestamps < self._ends[safe])
        )
        return np.where(hit, self._ids[safe], NO_JOB)


def map_events_to_jobs(
    ras: Table, jobs: Table, spec: MachineSpec
) -> np.ndarray:
    """Map each RAS event to the job it affected (or :data:`NO_JOB`).

    An event affects a job when its timestamp falls inside the job's
    execution window and its location lies inside the job's block.  A
    rack-level event is charged to the first running job found among the
    rack's midplanes.  Events expand to one query per covered midplane
    (``np.repeat``), all queries resolve in one ``searchsorted`` pass,
    and the first midplane-order hit per event wins — identical
    semantics to the old per-event bisection loop.

    When ``REPRO_CHUNK_ROWS`` is set, events stream through the join in
    chunks: the interval index is built once, but the repeat expansion
    and rank arrays only ever cover one chunk of events, bounding the
    working set on fleet-scale traces.  The output is bit-identical to
    the single-pass join — the timestamp ranking only ever compares job
    starts against query timestamps pairwise, so it is insensitive to
    which other timestamps share the batch.
    """
    size = chunk_rows()
    chunked = 0 < size < ras.n_rows
    with trace_span(
        "kernel.attribution",
        n_events=ras.n_rows,
        n_jobs=jobs.n_rows,
        chunked=chunked,
    ):
        first, count = event_midplane_spans(ras["location"], spec)
        out = np.full(ras.n_rows, NO_JOB, dtype=np.int64)
        if ras.n_rows == 0 or jobs.n_rows == 0:
            return out
        index = _JobIntervalIndex(jobs, spec)
        timestamps = np.asarray(ras["timestamp"], dtype=np.float64)
        spans = (
            iter_slices(ras.n_rows, size) if chunked else [(0, ras.n_rows)]
        )
        for lo, hi in spans:
            span_count = count[lo:hi]
            event_index = np.repeat(
                np.arange(hi - lo, dtype=np.int64), span_count
            )
            query_midplanes = (
                np.repeat(first[lo:hi], span_count) + _within_offsets(span_count)
            )
            query_times = np.repeat(timestamps[lo:hi], span_count)
            pair_jobs = index.lookup_many(query_midplanes, query_times)
            hits = np.flatnonzero(pair_jobs != NO_JOB)
            if hits.size:
                # event_index is non-decreasing, so return_index picks
                # each event's first hit in midplane order — the loop's
                # `break`.
                hit_events, first_hit = np.unique(
                    event_index[hits], return_index=True
                )
                out[lo + hit_events] = pair_jobs[hits[first_hit]]
        return out


def attribute_failures(
    jobs: Table, fatal_events: Table, spec: MachineSpec
) -> Table:
    """Classify each failed job as user- or system-caused.

    A failed job is *system-caused* when at least one FATAL event maps
    into its execution; all other failures are *user-caused*.  Returns
    the failed-job sub-table with an ``attributed`` column.  The input
    ``fatal_events`` should already be restricted to FATAL severity
    (pass a filtered table) — events of other severities would inflate
    the system share.
    """
    failed = jobs.filter(jobs["exit_status"] != 0)
    mapped = map_events_to_jobs(fatal_events, failed, spec)
    is_system = np.isin(failed["job_id"], mapped[mapped != NO_JOB])
    attributed = np.empty(failed.n_rows, dtype=object)
    attributed[:] = "user"
    attributed[is_system] = "system"
    return failed.with_column("attributed", attributed)


def attribution_summary(attributed_failures: Table) -> dict[str, float]:
    """Headline attribution numbers (E03) from :func:`attribute_failures`."""
    n = attributed_failures.n_rows
    n_system = int((attributed_failures["attributed"] == "system").sum())
    n_user = n - n_system
    return {
        "n_failed": n,
        "n_user": n_user,
        "n_system": n_system,
        "user_share": n_user / n if n else float("nan"),
        "system_share": n_system / n if n else float("nan"),
    }


def events_per_user(
    ras: Table, jobs: Table, spec: MachineSpec
) -> tuple[Table, dict[str, float]]:
    """Per-user event exposure versus core-hours (E14).

    Maps every event to a job, aggregates hit counts per user alongside
    the user's total core-hours, and reports Pearson/Spearman
    correlations between the two — the paper's "RAS events affecting
    job executions exhibit a high correlation with users and
    core-hours".
    """
    mapped = map_events_to_jobs(ras, jobs, spec)
    hit = ras.with_column("job_id", mapped).filter(mapped != NO_JOB)
    per_job = hit.group_by("job_id").size().rename({"count": "n_events"})
    jobs_with_events = jobs.join(
        per_job.select(["job_id", "n_events"]), on="job_id", how="left"
    )
    n_events = np.maximum(jobs_with_events["n_events"], 0)
    jobs_with_events = jobs_with_events.with_column("n_events", n_events)
    per_user = (
        jobs_with_events.group_by("user")
        .agg(n_events="sum", core_hours="sum")
        .rename({"n_events_sum": "n_events", "core_hours_sum": "core_hours"})
    )
    correlations = {
        "pearson": pearson(per_user["core_hours"], per_user["n_events"]),
        "spearman": spearman(per_user["core_hours"], per_user["n_events"]),
    }
    return per_user, correlations
