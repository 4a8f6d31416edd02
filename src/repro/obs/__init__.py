"""Structured observability: span tracing + run metrics, off by default.

The reproduction pipeline is instrumented the way the paper instruments
its subject system: every hot path — CSV ingest, the columnar cache,
dataset synthesis, the vectorized kernels, and the experiment engine —
carries named spans and counters that cost a single attribute check
when no recorder is installed, and stream into a per-run
``trace.jsonl`` when one is (``repro-report --trace``).

The package is stdlib-only, so every instrumented module imports it
directly; with no recorder installed a span is a shared no-op.

- :mod:`repro.obs.trace` — the recorder, ``span()`` context managers,
  counters and gauges.
- :mod:`repro.obs.schema` — ``trace.jsonl`` record validation.
- :mod:`repro.obs.summary` — self-time rollups and run-vs-run diffs.
- :mod:`repro.obs.cli` — the ``repro-trace`` command
  (``summarize`` / ``diff`` / ``validate``).
"""

from .trace import (
    TRACE_SCHEMA,
    TraceRecorder,
    active,
    add,
    install,
    recording,
    set_gauge,
    span,
    uninstall,
)

__all__ = [
    "TRACE_SCHEMA",
    "TraceRecorder",
    "active",
    "add",
    "install",
    "recording",
    "set_gauge",
    "span",
    "uninstall",
]
