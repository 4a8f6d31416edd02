"""Trace rollups: where did the run's wall time actually go.

Loads a validated ``trace.jsonl`` (see :mod:`repro.obs.schema`), rolls
spans up by name into total time and **self time** (a span's duration
minus its direct children — the quantity that sums to real work instead
of double-counting every nesting level), and renders the two views
``repro-trace`` exposes:

- ``summarize`` — top span names by self time plus counter/gauge totals;
- ``diff`` — per-span-name regression table between two runs, the
  manual counterpart of the CI e03 wall-time gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .schema import validate_file

__all__ = ["Trace", "SpanRollup", "load_trace", "rollup_spans", "summarize_lines", "diff_lines"]


@dataclass(frozen=True)
class Trace:
    """One parsed, schema-valid trace file."""

    header: dict
    spans: list[dict] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    @property
    def run_id(self) -> str | None:
        return self.header.get("run_id")


@dataclass(frozen=True)
class SpanRollup:
    """Aggregate of every span sharing one name."""

    name: str
    count: int
    total_seconds: float
    self_seconds: float


def load_trace(path: str | Path) -> Trace:
    """Read and validate a trace.jsonl into a :class:`Trace`."""
    records = validate_file(path)
    header = records[0]
    spans = [r for r in records if r["kind"] == "span"]
    counters = {r["name"]: r["value"] for r in records if r["kind"] == "counter"}
    gauges = {r["name"]: r["value"] for r in records if r["kind"] == "gauge"}
    return Trace(header=header, spans=spans, counters=counters, gauges=gauges)


def rollup_spans(spans: list[dict]) -> list[SpanRollup]:
    """Per-name rollups sorted by self time, descending.

    Self time charges each span for its own duration minus its direct
    children's, so a parent that merely wraps an instrumented child
    ranks by its true overhead, not the child's work again.
    """
    self_seconds = {record["id"]: float(record["seconds"]) for record in spans}
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent in self_seconds:
            self_seconds[parent] -= float(record["seconds"])
    totals: dict[str, list[float]] = {}
    for record in spans:
        bucket = totals.setdefault(record["name"], [0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += float(record["seconds"])
        bucket[2] += self_seconds[record["id"]]
    rollups = [
        SpanRollup(name, int(c), total, self_s)
        for name, (c, total, self_s) in totals.items()
    ]
    rollups.sort(key=lambda r: (-r.self_seconds, r.name))
    return rollups


def summarize_lines(trace: Trace, top: int = 20) -> list[str]:
    """Human-readable summary: top spans by self time, then metrics."""
    label = trace.run_id or "<no run id>"
    lines = [
        f"trace {label}: {len(trace.spans)} spans, "
        f"{len(trace.counters)} counters, {len(trace.gauges)} gauges"
    ]
    for record in trace.spans:
        if record["name"] == "process.start":
            lines.append(
                f"process.start: {float(record['seconds']):.4f} s from "
                "process start to main (interpreter start-up, imports)"
            )
            break
    for record in trace.spans:
        if record["name"] == "suite.input":
            lines.append(
                f"suite.input {record['attrs'].get('backend', '?')}: "
                f"{float(record['seconds']):.4f} s (input synthesis on a worker)"
            )
    rollups = rollup_spans(trace.spans)
    if rollups:
        lines.append("")
        lines.append(
            f"{'span':<32} {'count':>7} {'total s':>10} {'self s':>10}"
        )
        for r in rollups[:top]:
            lines.append(
                f"{r.name:<32} {r.count:>7} {r.total_seconds:>10.4f} "
                f"{r.self_seconds:>10.4f}"
            )
        if len(rollups) > top:
            lines.append(f"... {len(rollups) - top} more span name(s)")
    if trace.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(trace.counters):
            lines.append(f"  {name} = {trace.counters[name]:g}")
    if trace.gauges:
        lines.append("")
        lines.append("gauges:")
        for name in sorted(trace.gauges):
            lines.append(f"  {name} = {trace.gauges[name]:g}")
    return lines


def diff_lines(
    a: Trace,
    b: Trace,
    *,
    fail_above: float | None = None,
    min_seconds: float = 0.005,
) -> tuple[list[str], bool]:
    """Per-span regression table between two traces.

    Returns ``(lines, regressed)``: ``regressed`` is True when
    ``fail_above`` is set and some span name's total grew by more than
    that ratio (``1.5`` = +50%) while being big enough to matter
    (``min_seconds`` in the baseline — ratios on microsecond spans are
    noise, not regressions).
    """
    rollup_a = {r.name: r for r in rollup_spans(a.spans)}
    rollup_b = {r.name: r for r in rollup_spans(b.spans)}
    names = sorted(set(rollup_a) | set(rollup_b))
    rows = []
    regressed = False
    for name in names:
        total_a = rollup_a[name].total_seconds if name in rollup_a else 0.0
        total_b = rollup_b[name].total_seconds if name in rollup_b else 0.0
        delta = total_b - total_a
        ratio = total_b / total_a if total_a > 0 else float("inf")
        flag = ""
        if (
            fail_above is not None
            and total_a >= min_seconds
            and ratio > fail_above
        ):
            regressed = True
            flag = "  <-- regression"
        rows.append((abs(delta), name, total_a, total_b, delta, ratio, flag))
    rows.sort(key=lambda row: (-row[0], row[1]))
    label_a = a.run_id or "a"
    label_b = b.run_id or "b"
    lines = [
        f"{'span':<32} {label_a[:12]:>12} {label_b[:12]:>12} "
        f"{'delta s':>10} {'ratio':>7}"
    ]
    for _, name, total_a, total_b, delta, ratio, flag in rows:
        ratio_text = f"{ratio:.2f}" if ratio != float("inf") else "new"
        lines.append(
            f"{name:<32} {total_a:>12.4f} {total_b:>12.4f} "
            f"{delta:>+10.4f} {ratio_text:>7}{flag}"
        )
    counter_names = sorted(set(a.counters) | set(b.counters))
    if counter_names:
        lines.append("")
        lines.append(f"{'counter':<32} {label_a[:12]:>12} {label_b[:12]:>12}")
        for name in counter_names:
            lines.append(
                f"{name:<32} {a.counters.get(name, 0):>12g} "
                f"{b.counters.get(name, 0):>12g}"
            )
    return lines, regressed
