"""The stream-catchup workload: resume ``StreamPipeline`` and drain a backlog.

The catch-ups run in a child process of their own (``catchup.py``), so
this process's memory does not count towards theirs.
"""

from __future__ import annotations

import json
import subprocess

from common import median, python, reap_survivors

#: Observation span of the fed dataset (days); it must hold more than
#: ``gen.BACKLOG_ROWS`` rows.
STREAM_DAYS = 120
#: Catch-ups per run, at least, whatever ``--seconds`` says.
MIN_CATCHUPS = 3
#: Seconds a catch-up process may run beyond its ``--seconds``.
CATCHUP_GRACE_S = 60.0


def _catch_ups(ctx, base, name: str, seconds: float, count: int, trace_dir=None) -> list[dict]:
    """Run catch-ups in one child process; their records, in order."""
    cmd = [python(), str(ctx.root / "perfbench" / "catchup.py"),
           str(base / "feed"), str(base / "checkpoint"), str(ctx.work / name),
           "--seconds", str(seconds), "--min", str(count)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    done = subprocess.run(cmd, cwd=ctx.work, env=ctx.env, capture_output=True,
                          text=True, timeout=seconds + CATCHUP_GRACE_S)
    survivors = reap_survivors(ctx.tag)
    if done.returncode != 0:
        raise RuntimeError(f"catch-up failed: {done.stderr[-800:]}")
    records = json.loads(done.stdout.strip().splitlines()[-1])
    records[-1]["survivors"] = survivors
    return records


def _check(ctx, runs: list[dict]) -> None:
    """Every catch-up ends in the same state; the verified one matches batch."""
    reference = runs[0]["state"]
    for run in runs:
        ctx.attempted += run["seen"]
        ctx.failed += run["quarantined"] + run.get("survivors", 0)
        if not run["resumed"] or run["state"] != reference:
            ctx.failed += run["seen"]
            ctx.note("catch-up did not resume or ended in a different state")
        if run.get("verified") is False:
            ctx.failed += run["seen"]
            ctx.note(f"verify_batch failed: {run['failed_checks']}")
    ctx.note(f"stream state {reference[:16]}; verify_batch ok="
             f"{all(r.get('verified', True) for r in runs)}")


def _generate(ctx):
    from gen import BACKLOG_ROWS

    base = ctx.work / "stream"
    ctx.generate(["stream", str(base), str(STREAM_DAYS), str(ctx.seed), str(BACKLOG_ROWS)],
                 ctx.env_with_cache(ctx.work / "cache"))
    return base


def stream_catchup(ctx) -> dict:
    base = _generate(ctx)
    if ctx.trace:
        return _traced(ctx, base)
    runs = _catch_ups(ctx, base, "catchups", ctx.seconds, MIN_CATCHUPS)
    _check(ctx, runs)
    rates = [r["applied"] / r["wall"] for r in runs]
    ctx.note(f"stream_rows_per_s {median(rates):.0f} over {len(runs)} catch-ups of "
             f"{runs[0]['applied']} rows: {[round(r) for r in rates]}")
    return {
        "setup_s": median([r["setup"] for r in runs]),
        "op_ms": median([r["wall"] for r in runs]) * 1000.0,
        "throughput_per_s": median(rates),
        "cpu_s": median([r["cpu"] for r in runs]),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }


def _traced(ctx, base) -> dict:
    from layers import layer_metrics, span_lines
    from spans import merge_span_files

    untraced = _catch_ups(ctx, base, "untraced", 0.0, 1)[0]
    trace_dir = ctx.work / "spans"
    traced = _catch_ups(ctx, base, "traced", 0.0, 1, trace_dir=trace_dir)[0]
    _check(ctx, [untraced, traced])
    spans = merge_span_files(trace_dir)
    metrics = layer_metrics(spans)
    rate = traced["applied"] / traced["wall"]
    base_rate = untraced["applied"] / untraced["wall"]
    metrics.update({
        "stream.rows_applied": traced["applied"],
        "stream.duplicates": traced["duplicates"],
        "stream.quarantined": traced["quarantined"],
        "stream.useful_share": traced["applied"] / traced["seen"] if traced["seen"] else 0.0,
        "trace.traced_value": rate,
        "trace.untraced_value": base_rate,
        # Throughput: overhead is the share of rows per second lost.
        "trace.overhead_share": (base_rate - rate) / base_rate,
    })
    ctx.note(f"traced stream_rows_per_s {rate:.0f}, untraced {base_rate:.0f}")
    for line in span_lines(spans):
        ctx.note(line)
    return metrics
