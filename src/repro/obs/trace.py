"""Span-based tracing with named counters and gauges.

One module-level recorder slot governs everything.  When it is empty
(the default), :func:`span` returns a shared do-nothing context manager
and :func:`add`/:func:`set_gauge` return immediately — the entire cost
of an instrumented hot path is one global load and an ``is None`` test,
guarded below 1 µs per span by a tier-1 perf test.  When a
:class:`TraceRecorder` is installed (``repro-report --trace``), spans
nest via an explicit stack, durations come from the monotonic clock
(:func:`time.perf_counter`), and the finished trace is written as
``trace.jsonl`` through :mod:`repro.util.atomic` next to the run's
``journal.jsonl``.

An entry point's trace opens with a ``process.start`` span
(:meth:`TraceRecorder.mark_process_start`): interpreter start-up and
imports, from the kernel's record of when the process started up to
the entry point's ``main``.  Linux only; elsewhere it is omitted.

Spans recorded in a worker process cannot share the supervisor's
recorder; the experiment engine ships them back inside the
:class:`~repro.experiments.engine.ExperimentOutcome` and merges them
with :meth:`TraceRecorder.absorb`, which re-bases span ids so parent
links stay valid.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

__all__ = [
    "TRACE_SCHEMA",
    "TraceRecorder",
    "active",
    "add",
    "install",
    "process_start",
    "recording",
    "set_gauge",
    "span",
    "uninstall",
]

#: Bump when the trace.jsonl record layout changes; validators refuse
#: other versions rather than guessing.
TRACE_SCHEMA = 1


def process_start(main_at: float) -> float | None:
    """When this process started, as a :func:`time.perf_counter` reading.

    ``main_at`` is the reading an entry point takes as its ``main``
    begins; the result is clamped to it.  Linux only: ``/proc/self/stat``
    gives the start in clock ticks since boot, which ``CLOCK_BOOTTIME``
    turns into an age (to the tick, 10 ms on most kernels).  There,
    ``perf_counter`` and ``monotonic`` are the same ``CLOCK_MONOTONIC``,
    so a :func:`time.monotonic` ``main_at`` serves as well.  ``None``
    elsewhere, or when ``/proc`` cannot be read.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        with open("/proc/self/stat", "rb") as handle:
            stat = handle.read()
        # Field 2 (the command name) may hold spaces and parentheses;
        # fields 3 onwards follow its last ")", and starttime is 22.
        start_ticks = int(stat[stat.rindex(b")") + 2:].split()[19])
        ticks_per_s = os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / ticks_per_s
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return min(time.perf_counter() - max(age, 0.0), main_at)


class _NullSpan:
    """The disabled-path span: enters, exits, records nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def note(self, **attrs) -> None:
        """Discard attributes (matches :meth:`_Span.note`)."""


_NULL_SPAN = _NullSpan()

#: The installed recorder, or ``None`` (tracing off).  A plain module
#: global, not a threading.local: the pipeline's hot paths run on the
#: main thread of each process, and worker processes get their own
#: module copy anyway.
_ACTIVE: "TraceRecorder | None" = None


class _Span:
    """A live span: context manager that finalizes its record on exit."""

    __slots__ = ("_recorder", "_record", "_t0")

    def __init__(self, recorder: "TraceRecorder", record: dict):
        self._recorder = recorder
        self._record = record
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        recorder._stack.append(self._record["id"])
        self._t0 = time.perf_counter()
        self._record["start"] = round(self._t0 - recorder._epoch, 9)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._record["seconds"] = round(time.perf_counter() - self._t0, 9)
        if exc_type is not None:
            # The span still closes and keeps its duration; the error
            # class makes aborted phases visible in the trace.
            self._record["attrs"]["error"] = exc_type.__name__
        self._recorder._stack.pop()
        return False

    def note(self, **attrs) -> None:
        """Attach attributes computed mid-span (row counts, byte sizes)."""
        self._record["attrs"].update(attrs)


class TraceRecorder:
    """Accumulates spans, counters, and gauges for one process.

    Spans are appended in start order; ``parent`` links express the
    nesting that was live when each span began.  Counters and gauges
    are plain name→number maps; counters accumulate, gauges overwrite.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._stack: list[int] = []
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def _new_record(self, name: str, attrs: Mapping) -> dict:
        record = {
            "kind": "span",
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "seconds": 0.0,
            "depth": len(self._stack),
            "pid": os.getpid(),
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        return record

    def start_span(self, name: str, attrs: Mapping) -> _Span:
        return _Span(self, self._new_record(name, attrs))

    def mark_process_start(self, main_at: float) -> None:
        """Record ``process.start``, from process start to ``main_at``.

        ``main_at`` is the :func:`time.perf_counter` reading an entry
        point takes as its ``main`` begins.  The trace's clock is
        re-based on the process start, so the span starts at 0 and
        every later span after it; call this before any other span.
        A no-op where :func:`process_start` is ``None``.
        """
        started = process_start(main_at)
        if started is None:
            return
        self._epoch = started
        record = self._new_record("process.start", {})
        record["start"] = 0.0  # the re-based epoch
        record["seconds"] = round(main_at - started, 9)

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def absorb(self, spans, counters: Mapping | None = None) -> None:
        """Merge spans shipped from another process (the worker path).

        Ids are re-based past this recorder's existing spans so parent
        links inside the shipped batch stay consistent; batch roots
        keep ``parent: null`` (cross-process clocks are not
        comparable, so grafting them under a supervisor span would
        fabricate a timing relationship).
        """
        offset = len(self.spans)
        for record in spans:
            merged = dict(record)
            merged["id"] = record["id"] + offset
            if record.get("parent") is not None:
                merged["parent"] = record["parent"] + offset
            merged["attrs"] = dict(record.get("attrs", {}))
            self.spans.append(merged)
        for name, value in (counters or {}).items():
            self.add(name, value)

    def records(self, run_id: str | None = None) -> list[dict]:
        """All trace records in file order: header, spans, metrics."""
        from repro import __version__

        header = {
            "kind": "trace",
            "schema": TRACE_SCHEMA,
            "run_id": run_id,
            "toolkit_version": __version__,
            "pid": os.getpid(),
        }
        out = [header]
        out.extend(self.spans)
        pid = os.getpid()
        for name in sorted(self.counters):
            out.append(
                {
                    "kind": "counter",
                    "name": name,
                    "value": self.counters[name],
                    "pid": pid,
                }
            )
        for name in sorted(self.gauges):
            out.append(
                {"kind": "gauge", "name": name, "value": self.gauges[name], "pid": pid}
            )
        return out

    def write(self, path: str | Path, run_id: str | None = None) -> Path:
        """Write the trace as JSONL, atomically; returns the path."""
        from repro.util.atomic import atomic_write_text

        lines = [json.dumps(record) for record in self.records(run_id)]
        return atomic_write_text(Path(path), "\n".join(lines) + "\n")


def active() -> TraceRecorder | None:
    """The installed recorder, or ``None`` when tracing is off."""
    return _ACTIVE


def install(recorder: TraceRecorder) -> TraceRecorder:
    """Make ``recorder`` the process-wide active recorder."""
    global _ACTIVE
    _ACTIVE = recorder
    return recorder


def uninstall() -> None:
    """Disable tracing (spans revert to the shared no-op)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def recording(
    recorder: TraceRecorder | None = None,
) -> Iterator[TraceRecorder]:
    """Install a recorder for the duration of a block, then restore.

    The previous recorder (usually ``None``) comes back on exit, so
    nested/temporary recordings — tests, the worker path — cannot leak
    an active recorder into later code.
    """
    recorder = recorder if recorder is not None else TraceRecorder()
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


def span(name: str, **attrs) -> _Span | _NullSpan:
    """Start a span; use as ``with span("csv.tokenize", rows=n): ...``.

    With no recorder installed this returns a shared no-op context
    manager — the disabled cost is one global load plus the call
    overhead, guarded under 1 µs by ``tests/obs``.
    """
    recorder = _ACTIVE
    if recorder is None:
        return _NULL_SPAN
    return recorder.start_span(name, attrs)


def add(name: str, value: float = 1) -> None:
    """Increment counter ``name`` by ``value`` (no-op when disabled)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.add(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.set_gauge(name, value)
