"""The report workloads: whole ``repro-report`` processes, cold and warm."""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import threading
import time
from pathlib import Path

from common import median, python, reap_survivors

#: Observation span of the cold report (days).
COLD_DAYS = 30
#: Observation span of the warm report's CSV dataset (days).
WARM_DAYS = 60
#: Experiment-suite worker processes for every report.
REPORT_JOBS = 2
#: Timed reports per run, at least, whatever ``--seconds`` says.
MIN_REPORTS = 2
#: Cache-filling reports per warm run; their median is ``setup_s``.
WARM_SETUPS = 2
#: A report process is killed (and failed) after this long.
REPORT_TIMEOUT_S = 60.0

_TIMINGS = "== TIMINGS =="


def report_digest(text: str) -> str:
    """SHA-256 of a rendered report without its TIMINGS section."""
    if _TIMINGS in text:
        text = text[: text.index(_TIMINGS)].rstrip("\n")
    return hashlib.sha256(text.encode()).hexdigest()


def wait_with_rusage(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with ``wait4``; kill it if it outlives ``timeout``.

    Returns ``(exit_code, rusage)``; the rusage covers the process and
    every descendant it waited for (a report's pool workers).
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class ReportRunner:
    """Runs ``repro-report`` processes for one benchmark run."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.count = 0

    def run(self, argv: list[str], env: dict, trace_dir: Path | None = None) -> dict:
        ctx = self.ctx
        self.count += 1
        stem = ctx.work / f"report-{self.count}"
        mark = Path(f"{stem}.mark")
        cmd = [python(), str(ctx.root / "perfbench" / "launch.py"), "report",
               "--mark", str(mark)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", *argv]
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ctx.work, env=env, stdout=out, stderr=err)
            code, usage = wait_with_rusage(proc, REPORT_TIMEOUT_S)
            wall = time.monotonic() - started
        text = Path(f"{stem}.out").read_text(errors="replace")
        try:
            setup = float(mark.read_text()) - started
        except (OSError, ValueError):
            setup = None
        survivors = reap_survivors(ctx.tag)
        ok = code == 0 and setup is not None
        if not ok:
            ctx.note(f"report {self.count} failed: exit {code}; "
                     + Path(f"{stem}.err").read_text(errors="replace")[-400:])
        return {
            "ok": ok,
            "wall": wall,
            "setup": setup,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "digest": report_digest(text) if code == 0 else None,
            "survivors": survivors,
        }


def _check(ctx, results: list[dict], workload: str) -> None:
    """Count failed reports: bad exits, stray survivors, digest mismatches."""
    expected = ctx.stored_digest(workload)
    if ctx.reference_digest is None:
        ctx.reference_digest = expected or next(
            (r["digest"] for r in results if r["digest"]), None
        )
        ctx.note(f"report digest ({'stored' if expected else 'first report'}): "
                 f"{ctx.reference_digest}")
    reference = ctx.reference_digest
    for result in results:
        ctx.attempted += 1
        bad = not result["ok"] or result["digest"] != reference
        ctx.failed += int(bad) + result["survivors"]


def _summarise(timed: list[dict], setups: list[float]) -> dict:
    walls = [r["wall"] for r in timed]
    return {
        "setup_s": median(setups),
        "op_ms": median(walls) * 1000.0,
        "throughput_per_s": 22.0 * len(walls) / sum(walls),
        "cpu_s": median([r["cpu"] for r in timed]),
        "peak_rss_mb": max(r["rss_mb"] for r in timed),
    }


def _timed_loop(ctx, runner, argv, env_for) -> list[dict]:
    results = []
    started = time.monotonic()
    while len(results) < MIN_REPORTS or time.monotonic() - started < ctx.seconds:
        results.append(runner.run(argv, env_for()))
    return results


def _traced_pair(ctx, runner, argv, env_for) -> dict:
    """One untraced and one traced report; per-layer metrics + overhead."""
    from layers import layer_metrics, span_lines
    from spans import merge_span_files

    untraced = runner.run(argv, env_for())
    trace_dir = ctx.work / "spans"
    traced = runner.run(argv, env_for(), trace_dir=trace_dir)
    _check(ctx, [untraced, traced], ctx.workload)
    spans = merge_span_files(trace_dir)
    wall = traced["wall"]
    metrics = layer_metrics(spans, wall)
    metrics["trace.traced_value"] = wall
    metrics["trace.untraced_value"] = untraced["wall"]
    metrics["trace.overhead_share"] = (wall - untraced["wall"]) / untraced["wall"]
    ctx.note(f"traced report_s {wall:.3f} s, untraced {untraced['wall']:.3f} s; "
             f"spans from {len({s['pid'] for s in spans})} processes")
    ctx.note("experiments.worker_busy_share comes from run_suite's returned "
             "outcome seconds, not from spans")
    for line in span_lines(spans, wall):
        ctx.note(line)
    return metrics


def _cold(ctx):
    argv = ["--days", str(COLD_DAYS), "--jobs", str(REPORT_JOBS), "--seed", str(ctx.seed)]
    runner = ReportRunner(ctx)

    def env_for():
        # Every report starts from an empty cache of its own.
        return ctx.env_with_cache(ctx.work / f"cold-cache-{runner.count + 1}")

    return runner, argv, env_for


def _warm(ctx):
    dataset = ctx.work / "dataset"
    cache = ctx.work / "cache"
    ctx.generate(["warm", str(dataset), str(WARM_DAYS), str(ctx.seed)], ctx.env_with_cache(cache))
    argv = ["--dataset", str(dataset), "--mode", "mmap", "--jobs", str(REPORT_JOBS)]
    return ReportRunner(ctx), argv, lambda: ctx.env_with_cache(cache), dataset


def reference_digest(ctx) -> str | None:
    """The digest of one report of ``ctx.workload`` (None if it failed)."""
    if ctx.workload == "report-cold":
        runner, argv, env_for = _cold(ctx)
    else:
        runner, argv, env_for, _ = _warm(ctx)
    result = runner.run(argv, env_for())
    return result["digest"] if result["ok"] and not result["survivors"] else None


def report_cold(ctx) -> dict:
    runner, argv, env_for = _cold(ctx)
    if ctx.trace:
        return _traced_pair(ctx, runner, argv, env_for)
    timed = _timed_loop(ctx, runner, argv, env_for)
    _check(ctx, timed, "report-cold")
    metrics = _summarise(timed, [r["setup"] or 0.0 for r in timed])
    ctx.note(f"report_s {metrics['op_ms'] / 1000:.3f} s over {len(timed)} cold reports")
    return metrics


def report_warm(ctx) -> dict:
    runner, argv, env_for, dataset = _warm(ctx)
    setups = []
    setup_spans = ctx.work / "setup-spans"
    for i in range(WARM_SETUPS):
        # A cache-filling run: the dataset's own cache starts empty.
        shutil.rmtree(dataset / ".repro-cache", ignore_errors=True)
        traced = ctx.trace and i == WARM_SETUPS - 1
        setups.append(runner.run(argv, env_for(), setup_spans if traced else None))
    if ctx.trace:
        from layers import SETUP_LAYERS, layer_metrics
        from spans import merge_span_files

        _check(ctx, setups, "report-warm")
        metrics = _traced_pair(ctx, runner, argv, env_for)
        # CSV parsing and the cache write happen only in the cache-filling run.
        filling = layer_metrics(merge_span_files(setup_spans))
        metrics.update({name: filling[name] for name in SETUP_LAYERS})
        ctx.note("table.read_csv_* and dataset.cache_write_* come from the "
                 "traced cache-filling run")
        return metrics
    timed = _timed_loop(ctx, runner, argv, env_for)
    _check(ctx, setups + timed, "report-warm")
    metrics = _summarise(timed, [r["wall"] for r in setups])
    ctx.note(f"report_s {metrics['op_ms'] / 1000:.3f} s over {len(timed)} warm reports; "
             f"cache-filling runs {[round(r['wall'], 3) for r in setups]}")
    return metrics
