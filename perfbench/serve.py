"""The serve-zipf workload: a closed loop against a running ``repro-serve``."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import time
from pathlib import Path

import loadgen
from common import (
    median,
    percentile,
    proc_children,
    proc_cpu_s,
    proc_peak_rss_mb,
    python,
    reap_survivors,
    samples_beyond,
    tail_percentile,
)

#: Observation span of the served dataset (days).
SERVE_DAYS = 60
SERVE_WORKERS = 2
#: Server starts per run; each is timed to ready plus a warm-up pass.
SERVE_SETUPS = 2
#: Requests generated per run; the loop wraps around if it gets further.
SEQUENCE_LENGTH = 200_000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``repro-serve`` child process."""

    def __init__(self, ctx, trace_dir: Path | None = None):
        self.ctx = ctx
        cmd = [python(), str(ctx.root / "perfbench" / "launch.py"), "serve"]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--", "--days", str(SERVE_DAYS), "--seed", str(ctx.seed),
                "--mode", "mmap", "--workers", str(SERVE_WORKERS)]
        self.started = time.monotonic()
        self.err = open(ctx.work / f"serve-{self.started:.0f}.err", "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.work, env=ctx.env_with_cache(ctx.work / "cache"),
            stdout=subprocess.PIPE, stderr=self.err,
        )
        self.host, self.port = self._await_listening()
        self.conn = loadgen.Connection(self.host, self.port)
        while True:
            try:
                status, _ = self.conn.request("GET", "/readyz")
            except OSError:
                status = 0
            if status == 200:
                break
            if time.monotonic() - self.started > START_TIMEOUT_S:
                raise RuntimeError("repro-serve never became ready")
            time.sleep(0.01)

    def _await_listening(self) -> tuple[str, int]:
        line = b""
        deadline = self.started + START_TIMEOUT_S
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                line += chunk
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                break
        text = line.decode(errors="replace")
        if "listening on http://" not in text:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {text!r}")
        address = text.split("listening on http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def pids(self) -> list[int]:
        return [self.proc.pid, *proc_children(self.proc.pid)]

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        """Largest VmHWM (peak resident set) of the server and its workers."""
        return max((proc_peak_rss_mb(pid) for pid in self.pids()), default=0.0)

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, then count surviving processes."""
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        survivors = reap_survivors(self.ctx.tag)
        if code != 0:
            self.ctx.note(f"repro-serve exited {code}")
        return int(code != 0) + survivors


def _warm_up(server: Server, reference: dict, ctx) -> None:
    """One interactive request per mode: every answer is a miss."""
    for index, mode in enumerate(loadgen.MODES):
        record = loadgen.one_request(server.conn, mode, "interactive", f"warm-{index}")
        ctx.attempted += 1
        if record["outcome"] != "ok":
            ctx.failed += 1
            ctx.note(f"warm-up {mode}: {record['outcome']}")
            continue
        # The first miss answer per mode is the reference payload.
        if reference.setdefault(mode, record["digest"]) != record["digest"]:
            ctx.failed += 1
            ctx.note(f"warm-up {mode}: payload differs from first answer")


def _start(ctx, reference, trace_dir=None) -> tuple[Server, float]:
    server = Server(ctx, trace_dir)
    _warm_up(server, reference, ctx)
    return server, time.monotonic() - server.started


def _window(ctx, reference, trace_dir=None) -> dict:
    """Start a server (timed set-up), run the closed loop for a window, stop it."""
    server, setup = _start(ctx, reference, trace_dir)
    health = {"queue_depth_max": 0}

    def on_health(payload):
        queue = payload.get("queue", {})
        depth = sum(v for k, v in queue.items() if k != "outstanding")
        health["queue_depth_max"] = max(health["queue_depth_max"], depth)

    clients = max(1, min(2, len(os.sched_getaffinity(0))))
    loop = loadgen.ClosedLoop(
        server.host, server.port,
        loadgen.request_sequence(ctx.seed, SEQUENCE_LENGTH), clients, on_health,
    )
    cpu_before = server.cpu_s()
    try:
        wall = loop.run(ctx.seconds)
        cpu = server.cpu_s() - cpu_before
        health["rss_mb"] = server.peak_rss_mb()
        _, final = server.conn.request("GET", "/healthz")
    finally:
        ctx.failed += server.stop()
    return {"setup": setup, "wall": wall, "cpu": cpu, "loop": loop,
            "health": health, "final": final}


def _score(ctx, window: dict, reference: dict) -> dict:
    """Check every answer against its mode's reference; latency summary."""
    records = window["loop"].records
    ctx.attempted += len(records)
    ok = 0
    latencies = []
    for record in records:
        good = record["outcome"] == "ok" and record["digest"] == reference.get(record["mode"])
        if good:
            ok += 1
            latencies.append(record["latency"])
        else:
            ctx.failed += 1
            latencies.append(float("inf"))
    n = len(latencies)
    # p99 is reported only while 10 samples lie beyond it; with fewer
    # requests the tail is the highest percentile that still has them.
    tail = tail_percentile(n)
    if tail is None:
        raise RuntimeError(f"only {n} requests: too few for any percentile")
    return {
        "ok": ok,
        "n": n,
        "tail_pct": tail,
        "beyond": samples_beyond(n, tail),
        "p50_ms": percentile(latencies, 50.0) * 1000.0,
        "tail_ms": percentile(latencies, tail) * 1000.0,
        "rps": ok / window["wall"],
    }


def serve_zipf(ctx) -> dict:
    ctx.generate(["serve", str(SERVE_DAYS), str(ctx.seed)],
                 ctx.env_with_cache(ctx.work / "cache"))
    reference: dict[str, str] = {}
    setups = []
    for _ in range(SERVE_SETUPS - 1):
        server, setup = _start(ctx, reference)
        ctx.failed += server.stop()
        setups.append(setup)
    if ctx.trace:
        return _traced(ctx, reference)
    window = _window(ctx, reference)
    setups.append(window["setup"])
    score = _score(ctx, window, reference)
    ctx.note(f"serve_p50_ms {score['p50_ms']:.3f} ms, serve tail p{score['tail_pct']:g} "
             f"{score['tail_ms']:.3f} ms (n={score['n']}, {score['beyond']} beyond), "
             f"serve_rps {score['rps']:.1f}; {window['loop'].attempted} requests "
             f"attempted, {len(window['loop'].records)} answered; "
             f"{window['loop'].flushes} cache flushes")
    return {
        "setup_s": median(setups),
        "op_ms": score["p50_ms"],
        "throughput_per_s": score["rps"],
        # Per block of FLUSH_EVERY answers: it does not grow with the window.
        "cpu_s": window["cpu"] * loadgen.FLUSH_EVERY / max(score["ok"], 1),
        "peak_rss_mb": window["health"]["rss_mb"],
    }


def _traced(ctx, reference) -> dict:
    from layers import layer_metrics, span_lines
    from spans import merge_span_files

    untraced = _score(ctx, _window(ctx, reference), reference)
    trace_dir = ctx.work / "spans"
    window = _window(ctx, reference, trace_dir)
    score = _score(ctx, window, reference)
    spans = merge_span_files(trace_dir)
    metrics = layer_metrics(spans)
    records = window["loop"].records
    hits = [r["latency"] for r in records if (r["cache"] or "").startswith("hit_")]
    misses = [r["latency"] for r in records if r["cache"] == "miss"]
    final = window["final"]
    requests = final.get("requests", {})
    metrics.update({
        "serve.hit_p50_ms": median(hits) * 1000.0 if hits else 0.0,
        "serve.miss_p50_ms": median(misses) * 1000.0 if misses else 0.0,
        "serve.hit_share": len(hits) / len(records),
        "serve.coalesced": sum(r["cache"] == "coalesced" for r in records),
        "serve.queue_depth_max": window["health"]["queue_depth_max"],
        "serve.shed": requests.get("shed", 0),
        "serve.deadline_exceeded": requests.get("deadline_exceeded", 0),
        "serve.workers_replaced": final.get("workers", {}).get("replaced", 0),
        "serve.requests": len(records),
        "serve.tail_ms": score["tail_ms"],
        "serve.tail_pct": score["tail_pct"],
        "trace.traced_value": score["p50_ms"],
        "trace.untraced_value": untraced["p50_ms"],
        "trace.overhead_share": (score["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"],
    })
    ctx.note(f"traced serve_p50_ms {score['p50_ms']:.3f}, untraced {untraced['p50_ms']:.3f}; "
             f"tail p{score['tail_pct']:g} {score['tail_ms']:.3f} ms "
             f"(n={score['n']}, {score['beyond']} beyond)")
    ctx.note(f"final /healthz cache stats: {json.dumps(final.get('cache', {}))[:300]}")
    for line in span_lines(spans):
        ctx.note(line)
    return metrics
