"""Which public callables the traced run times, and the per-layer metrics.

Each layer is a module of the toolkit.  A span name starts with the
layer it times; :func:`layer_metrics` turns the merged spans of a
traced run into the ``per_layer`` metrics of ``BENCHMARK.json``.  A
``*_s`` metric is the summed *self* time of its spans (duration minus
the time its child spans cover), except ``experiments.suite_s`` and
``stream.resume_s``, which are whole durations.
"""

from __future__ import annotations

import os

from common import median, percentile, tail_percentile
from spans import Target, covered, self_times

EXPERIMENT_IDS = tuple(f"e{i:02d}" for i in range(1, 23))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _synth_name(args, kwargs):
    backend = kwargs.get("backend", "mira")
    return "dataset.synthesize" if backend == "mira" else "adapters.backend_synth"


def _poll_attrs(args, kwargs, result):
    lines = list(result.recovered) + list(result.lines)
    return {"bytes": sum(len(line.encode()) + 1 for line in lines)}


def _suite_attrs(args, kwargs, result):
    # Experiment time inside workers is taken from the layer's own
    # returned timings (each outcome's ``seconds``), not from spans.
    return {"busy": sum(o.seconds for o in result.outcomes), "jobs": result.jobs}


def _store_attrs(args, kwargs, result):
    return {"bytes": _size(args[0]) if result else 0}


def _read_attrs(args, kwargs, result):
    return {"hit": result is not None}


TARGETS = [
    Target("repro.scheduler.cobalt", "CobaltScheduler.run", "scheduler.run",
           lambda a, k, r: {"jobs": len(r.jobs)}),
    Target("repro.scheduler.workload", "WorkloadModel.generate", "scheduler.workload"),
    Target("repro.ras.generator", "RasGenerator.generate", "ras.generate"),
    Target("repro.tasks.generator", "TaskLogGenerator.generate", "tasks.generate"),
    Target("repro.darshan.generator", "DarshanGenerator.generate", "darshan.generate"),
    Target("repro.dataset.mira", "MiraDataset.synthesize", _synth_name),
    Target("repro.dataset.mira", "MiraDataset.load", "dataset.load"),
    Target("repro.dataset.cache", "store_bundle", "dataset.cache_write", _store_attrs),
    Target("repro.dataset.cache", "store_arena", "dataset.cache_write", _store_attrs),
    Target("repro.dataset.cache", "load_arena", "dataset.cache_read", _read_attrs),
    Target("repro.dataset.cache", "load_cached_bundle", "dataset.cache_read", _read_attrs),
    Target("repro.dataset.cache", "fingerprint_directory", "dataset.fingerprint"),
    Target("repro.table.csvio", "read_csv", "table.read_csv",
           lambda a, k, r: {"rows": r.n_rows}),
    Target("repro.table.groupby", "GroupBy.apply", "table.groupby_apply"),
    Target("repro.table.groupby", "GroupBy.agg", "table.groupby_agg"),
    Target("repro.core.attribution", "map_events_to_jobs", "core.map_events_to_jobs"),
    Target("repro.stats.bootstrap", "bootstrap_ci", "stats.bootstrap_ci"),
    Target("repro.stats.changepoint", "detect_changepoints", "stats.detect_changepoints"),
    Target("repro.experiments", "run_experiment",
           lambda a, k: f"experiments.{a[0] if a else k['experiment_id']}"),
    Target("repro.experiments.engine", "run_suite", "experiments.suite", _suite_attrs),
    Target("repro.core.report", "render_report", "experiments.render"),
    Target("repro.serve.server", "ReproServer.handle_query", "serve.handle_query"),
    Target("repro.serve.resultcache", "ResultCache.get", "serve.cache_get"),
    Target("repro.serve.resultcache", "ResultCache.put", "serve.cache_put"),
    Target("repro.serve.workers", "WorkerSlot.run", "serve.worker_run"),
    Target("repro.stream.tailer", "FileTailer.poll", "stream.poll", _poll_attrs),
    Target("repro.stream.pipeline", "StreamPipeline.tick", "stream.tick"),
    Target("repro.stream.pipeline", "StreamPipeline.checkpoint", "stream.checkpoint",
           lambda a, k, r: {"bytes": _size(r)}),
    Target("repro.stream.pipeline", "StreamPipeline.resume", "stream.resume"),
]

#: (name, unit, better) for every per-layer metric, in print order.
PER_LAYER = [
    ("scheduler.run_s", "s", "lower"),
    ("scheduler.jobs_per_s", "1/s", "higher"),
    ("scheduler.workload_s", "s", "lower"),
    ("ras.generate_s", "s", "lower"),
    ("tasks.generate_s", "s", "lower"),
    ("darshan.generate_s", "s", "lower"),
    ("dataset.synthesize_s", "s", "lower"),
    ("adapters.backend_synth_s", "s", "lower"),
    ("dataset.cache_write_s", "s", "lower"),
    ("dataset.cache_write_bytes", "bytes", "lower"),
    ("dataset.cache_read_s", "s", "lower"),
    ("dataset.cache_hit_share", "share", "higher"),
    ("dataset.fingerprint_s", "s", "lower"),
    ("dataset.load_s", "s", "lower"),
    ("table.read_csv_s", "s", "lower"),
    ("table.read_csv_rows_per_s", "1/s", "higher"),
    ("table.groupby_apply_s", "s", "lower"),
    ("table.groupby_agg_s", "s", "lower"),
    ("core.map_events_to_jobs_s", "s", "lower"),
    ("stats.bootstrap_ci_s", "s", "lower"),
    ("stats.detect_changepoints_s", "s", "lower"),
    *[(f"experiments.{eid}_s", "s", "lower") for eid in EXPERIMENT_IDS],
    ("experiments.suite_s", "s", "lower"),
    ("experiments.worker_busy_share", "share", "higher"),
    ("experiments.render_s", "s", "lower"),
    ("serve.handle_query_ms", "ms", "lower"),
    ("serve.cache_get_ms", "ms", "lower"),
    ("serve.cache_put_ms", "ms", "lower"),
    ("serve.worker_run_p50_ms", "ms", "lower"),
    ("serve.worker_run_p99_ms", "ms", "lower"),
    ("serve.hit_p50_ms", "ms", "lower"),
    ("serve.miss_p50_ms", "ms", "lower"),
    ("serve.hit_share", "share", "higher"),
    ("serve.coalesced", "count", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_exceeded", "count", "lower"),
    ("serve.workers_replaced", "count", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.tail_ms", "ms", "lower"),
    ("serve.tail_pct", "pct", "higher"),
    ("stream.poll_s", "s", "lower"),
    ("stream.poll_bytes", "bytes", "higher"),
    ("stream.tick_s", "s", "lower"),
    ("stream.tick_p99_ms", "ms", "lower"),
    ("stream.checkpoint_ms", "ms", "lower"),
    ("stream.checkpoint_bytes", "bytes", "lower"),
    ("stream.resume_s", "s", "lower"),
    ("stream.rows_applied", "count", "higher"),
    ("stream.duplicates", "count", "lower"),
    ("stream.quarantined", "count", "lower"),
    ("stream.useful_share", "share", "higher"),
    ("share.scheduler.run", "share", "lower"),
    ("share.experiments.e22", "share", "lower"),
    ("trace.traced_value", "value", "lower"),
    ("trace.untraced_value", "value", "lower"),
    ("trace.overhead_share", "share", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Layers report-warm measures in its cache-filling (set-up) run.
SETUP_LAYERS = (
    "table.read_csv_s",
    "table.read_csv_rows_per_s",
    "dataset.cache_write_s",
    "dataset.cache_write_bytes",
)


def _ms_tail(durations: list[float]) -> float:
    """Tail of ``durations`` (s) in ms by the ≥10-beyond rule (0 when empty)."""
    if not durations:
        return 0.0
    pct = tail_percentile(len(durations)) or 50.0
    return percentile(durations, pct) * 1000.0


def span_table(spans: list[dict]) -> dict[str, dict]:
    """Span name → calls, total (inclusive) and self seconds, durations, attrs."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(
            span["name"],
            {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "attrs": []},
        )
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["total"] += duration
        row["self"] += selfs[span["id"]]
        row["durations"].append(duration)
        row["attrs"].append(span.get("attrs", {}))
    return table


def layer_metrics(spans: list[dict], wall_s: float | None = None) -> dict[str, float]:
    """Per-layer metrics that come from spans; the rest default to 0.

    With ``wall_s`` (the traced run's ``report_s``), ``share.*`` give
    the scheduler's and e22's whole span time as a share of it.
    """
    table = span_table(spans)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "attrs": []}

    def row(name):
        return table.get(name, empty)

    def attr_sum(name, key):
        return sum(float(a.get(key) or 0) for a in row(name)["attrs"])

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    simple = {
        "scheduler.run_s": "scheduler.run",
        "scheduler.workload_s": "scheduler.workload",
        "ras.generate_s": "ras.generate",
        "tasks.generate_s": "tasks.generate",
        "darshan.generate_s": "darshan.generate",
        "dataset.synthesize_s": "dataset.synthesize",
        "adapters.backend_synth_s": "adapters.backend_synth",
        "dataset.cache_write_s": "dataset.cache_write",
        "dataset.cache_read_s": "dataset.cache_read",
        "dataset.fingerprint_s": "dataset.fingerprint",
        "dataset.load_s": "dataset.load",
        "table.read_csv_s": "table.read_csv",
        "table.groupby_apply_s": "table.groupby_apply",
        "table.groupby_agg_s": "table.groupby_agg",
        "core.map_events_to_jobs_s": "core.map_events_to_jobs",
        "stats.bootstrap_ci_s": "stats.bootstrap_ci",
        "stats.detect_changepoints_s": "stats.detect_changepoints",
        "experiments.render_s": "experiments.render",
        "stream.poll_s": "stream.poll",
        "stream.tick_s": "stream.tick",
        **{f"experiments.{e}_s": f"experiments.{e}" for e in EXPERIMENT_IDS},
    }
    for metric, span_name in simple.items():
        out[metric] = row(span_name)["self"]
    sched = row("scheduler.run")
    if sched["total"] > 0:
        out["scheduler.jobs_per_s"] = attr_sum("scheduler.run", "jobs") / sched["total"]
    out["dataset.cache_write_bytes"] = attr_sum("dataset.cache_write", "bytes")
    reads = row("dataset.cache_read")
    if reads["calls"]:
        out["dataset.cache_hit_share"] = attr_sum("dataset.cache_read", "hit") / reads["calls"]
    csv = row("table.read_csv")
    if csv["total"] > 0:
        out["table.read_csv_rows_per_s"] = attr_sum("table.read_csv", "rows") / csv["total"]
    suite = row("experiments.suite")
    out["experiments.suite_s"] = suite["total"]
    capacity = sum(
        float(a.get("jobs") or 1) * d
        for a, d in zip(suite["attrs"], suite["durations"])
    )
    if capacity > 0:
        out["experiments.worker_busy_share"] = attr_sum("experiments.suite", "busy") / capacity
    for metric, span_name in (
        ("serve.handle_query_ms", "serve.handle_query"),
        ("serve.cache_get_ms", "serve.cache_get"),
        ("serve.cache_put_ms", "serve.cache_put"),
        ("serve.worker_run_p50_ms", "serve.worker_run"),
        ("stream.checkpoint_ms", "stream.checkpoint"),
    ):
        durations = row(span_name)["durations"]
        out[metric] = median(durations) * 1000.0 if durations else 0.0
    out["serve.worker_run_p99_ms"] = _ms_tail(row("serve.worker_run")["durations"])
    out["stream.tick_p99_ms"] = _ms_tail(row("stream.tick")["durations"])
    out["stream.poll_bytes"] = attr_sum("stream.poll", "bytes")
    ckpt = [float(a.get("bytes") or 0) for a in row("stream.checkpoint")["attrs"]]
    out["stream.checkpoint_bytes"] = median(ckpt) if ckpt else 0.0
    resumes = row("stream.resume")["durations"]
    out["stream.resume_s"] = median(resumes) if resumes else 0.0
    if wall_s:
        out["share.scheduler.run"] = sched["total"] / wall_s
        out["share.experiments.e22"] = row("experiments.e22")["total"] / wall_s
    return out


def span_lines(spans: list[dict], wall_s: float | None = None) -> list[str]:
    """Human-readable per-span-name table, largest self time first."""
    table = span_table(spans)
    lines = [f"{'span':34s} {'calls':>6s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self"]):
        share = f"{100 * row['self'] / wall_s:5.1f}%" if wall_s else ""
        lines.append(
            f"{name:34s} {row['calls']:6d} {row['total']:9.3f} {row['self']:9.3f} {share:>6s}"
        )
    if wall_s:
        roots = [(s["start"], s["end"]) for s in spans if s.get("parent") is None]
        outside = wall_s - covered(roots)
        lines.append(f"{'(outside every span)':34s} {'':6s} {'':9s} {outside:9.3f} "
                     f"{100 * outside / wall_s:5.1f}%")
    return lines
