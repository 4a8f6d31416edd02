"""Console entry points: ``repro-serve`` and ``repro-replay``.

``repro-serve`` loads (or synthesizes) a dataset once — through the
same columnar cache as ``repro-report`` — and serves queries until a
SIGTERM/SIGINT starts its graceful drain.  The bound endpoint is
printed on stdout and written to ``endpoint.json`` in the journaled
run directory, so a replay client (or a CI job) can discover it
without parsing logs.

``repro-replay`` loads or generates a request CSV, fires it at the
server, optionally arms a chaos window and sweeps request rates, and
writes the ``BENCH_serve.json`` record.  Exit code 0 means the drill
was *clean*: the daemon stayed up (same PID, still healthy) and every
request ended in a typed protocol outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

from repro.errors import ReproError

__all__ = ["main_replay", "main_serve"]

ENDPOINT_NAME = "endpoint.json"


def main_serve(argv: list[str] | None = None) -> int:
    """Serve experiment/query requests from a hot dataset over HTTP."""
    main_at = time.monotonic()
    from repro.cli import _add_cache_args, _add_lenient_args, _add_synth_args
    from repro.cli import _load_or_synthesize
    from repro.dataset.cache import default_cache_dir, fingerprint_for_run
    from repro.experiments.journal import RunJournal, default_runs_dir
    from repro.serve.server import ReproServer, ServeConfig
    from repro.table.arena import prune_stale_temps
    from repro.util.atomic import atomic_write_text

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=main_serve.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "overload contract: a full admission lane answers 503 with\n"
            "outcome 'shed' and a Retry-After hint, never an unbounded\n"
            "queue; SIGTERM drains gracefully (finish in-flight within\n"
            "--drain-seconds, journal the shutdown).  See docs/serving.md."
        ),
    )
    parser.add_argument(
        "--dataset", help="dataset directory (from repro-gen); else synthesize"
    )
    _add_synth_args(parser)
    _add_lenient_args(parser)
    _add_cache_args(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = pick a free one and print it)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="supervised worker processes (default: 2)",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        metavar="N",
        help="interactive lane bound; beyond it requests are shed "
        "(default: 16)",
    )
    parser.add_argument(
        "--batch-capacity",
        type=int,
        default=64,
        metavar="N",
        help="batch lane bound (default: 64)",
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=int,
        default=10_000,
        help="deadline for requests that do not set one (default: 10000)",
    )
    parser.add_argument(
        "--max-deadline-ms",
        type=int,
        default=60_000,
        help="hard cap on any request's deadline (default: 60000)",
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        help="graceful-drain budget for in-flight work on shutdown "
        "(default: 5)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive failures that open an experiment's circuit "
        "breaker (default: 5)",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=3.0,
        metavar="SECONDS",
        help="open-state cooldown before a half-open probe (default: 3)",
    )
    parser.add_argument(
        "--cache-mb",
        type=int,
        default=64,
        metavar="MB",
        help="in-memory result-cache budget in MiB; 0 disables the "
        "result cache (default: 64)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for the persistent result-cache tier (e.g. "
        "results/cache); default: memory-only",
    )
    parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the content-addressed result cache (coalescing "
        "still applies); implied by --no-cache",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=4,
        metavar="N",
        help="max batch-lane requests folded into one worker "
        "round-trip; 1 disables folding (default: 4)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="root for journaled run directories "
        "(default: $REPRO_RUNS_DIR or results/runs)",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        help="explicit run ID (default: generated timestamp-suffix ID)",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="do not journal this server's lifecycle",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record one span per request to trace.jsonl in the run "
        "directory (inspect with repro-trace)",
    )
    args = parser.parse_args(argv)
    if args.trace and args.no_journal:
        parser.error("--trace needs a run directory; drop --no-journal")
    if args.cache_mb < 0:
        parser.error(f"--cache-mb must be >= 0, got {args.cache_mb}")
    # --no-cache means "trust nothing content-addressed": it bypasses
    # the columnar dataset cache, so the result cache (keyed by that
    # same fingerprint discipline) goes with it.
    result_cache_enabled = (
        not args.no_cache and not args.no_result_cache and args.cache_mb > 0
    )
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            interactive_capacity=args.queue_capacity,
            batch_capacity=args.batch_capacity,
            default_deadline_ms=args.default_deadline_ms,
            max_deadline_ms=args.max_deadline_ms,
            drain_s=args.drain_seconds,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            trace=args.trace,
            cache_enabled=result_cache_enabled,
            cache_max_bytes=max(args.cache_mb, 1) * 1024 * 1024,
            cache_dir=args.cache_dir if result_cache_enabled else None,
            batch_max=args.batch_max,
        )
    except ValueError as error:
        parser.error(str(error))
    # A previous daemon SIGKILLed mid-write (chaos drills do exactly
    # this) leaves `*.tmp.<pid>` orphans next to the arena and cache
    # entries; their writer PIDs are dead, so reclaim them up front.
    pruned_temps = prune_stale_temps(default_cache_dir())
    if args.dataset:
        pruned_temps += prune_stale_temps(Path(args.dataset) / ".repro-cache")
    if args.cache_dir:
        pruned_temps += prune_stale_temps(args.cache_dir)
    journal = None
    try:
        dataset = _load_or_synthesize(args)
        fingerprint = fingerprint_for_run(
            args.dataset, args.days, args.seed, scale=args.scale,
            backend=args.backend,
        )
        if not args.no_journal:
            runs_root = (
                Path(args.run_dir) if args.run_dir else default_runs_dir()
            )
            journal = RunJournal.start(
                runs_root,
                fingerprint=fingerprint,
                run_id=args.run_id,
                config={
                    "serve": True,
                    "dataset": args.dataset or None,
                    "days": args.days,
                    "seed": args.seed,
                    "scale": args.scale,
                    "backend": args.backend,
                    "dataset_mode": args.mode,
                    "workers": args.workers,
                    "queue_capacity": args.queue_capacity,
                    "batch_capacity": args.batch_capacity,
                    "default_deadline_ms": args.default_deadline_ms,
                    "drain_seconds": args.drain_seconds,
                    "breaker_threshold": args.breaker_threshold,
                    "breaker_cooldown": args.breaker_cooldown,
                    "batch_max": args.batch_max,
                    "result_cache": result_cache_enabled,
                    "result_cache_mb": args.cache_mb,
                    "result_cache_dir": args.cache_dir or None,
                },
            )
            if pruned_temps:
                journal.append_event(
                    "startup-prune", stale_temps_removed=pruned_temps
                )
    except (ReproError, OSError) as error:
        print(f"INVALID: {error}")
        return 1
    reloader = None
    if args.dataset:
        # Live dataset epochs: POST /admin/epoch re-reads the dataset
        # directory through the same loader + fingerprint discipline as
        # startup.  Synthesized datasets are parameter-determined and
        # can never change, so they get no reloader.
        def reloader():
            reloaded = _load_or_synthesize(args)
            new_fingerprint = fingerprint_for_run(
                args.dataset, args.days, args.seed, scale=args.scale,
                backend=args.backend,
            )
            return reloaded, new_fingerprint

    server = ReproServer(
        dataset,
        fingerprint=fingerprint,
        config=config,
        journal=journal,
        reloader=reloader,
        main_at=main_at,
    )
    host, _ = server.start()
    url = f"http://{host}:{server.port}"
    print(
        f"repro-serve listening on {url}"
        + (f" (run {journal.run_id})" if journal else ""),
        flush=True,
    )
    if journal is not None:
        atomic_write_text(
            journal.directory / ENDPOINT_NAME,
            json.dumps(
                {"url": url, "host": host, "port": server.port,
                 "pid": os.getpid()}
            )
            + "\n",
        )

    def _graceful(signum, frame):
        server.request_stop(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _graceful)
        except ValueError:  # pragma: no cover - non-main-thread embedding
            pass
    try:
        server.run_until_stopped()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(
        "repro-serve drained: "
        + json.dumps(server.outcome_counts())
        + (f" (run {journal.run_id})" if journal else ""),
        file=sys.stderr,
    )
    return 0


def _parse_sweep(raw: str | None) -> list[float]:
    if not raw:
        return []
    try:
        rates = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as error:
        raise ReproError(f"bad --rps-sweep: {error}") from None
    if any(rate <= 0 for rate in rates):
        raise ReproError("--rps-sweep rates must be positive")
    return rates


def _resolve_url(args, parser) -> str:
    if args.url:
        return args.url.rstrip("/")
    if args.endpoint_file:
        try:
            payload = json.loads(Path(args.endpoint_file).read_text())
            return str(payload["url"]).rstrip("/")
        except (OSError, ValueError, KeyError) as error:
            parser.error(f"cannot read endpoint file: {error}")
    parser.error("one of --url or --endpoint-file is required")


def main_replay(argv: list[str] | None = None) -> int:
    """Replay a timestamped request workload against repro-serve."""
    from repro.serve.replay import (
        ReplayError,
        generate_requests,
        load_request_csv,
        run_replay,
        write_request_csv,
    )
    from repro.util.atomic import atomic_write_text

    parser = argparse.ArgumentParser(
        prog="repro-replay",
        description=main_replay.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean drill: server stayed up (same PID) and every\n"
            "     request ended in a typed outcome\n"
            "  1  server crashed/unreachable, responses unaccounted,\n"
            "     or invalid input\n"
            "  2  bad command line"
        ),
    )
    parser.add_argument(
        "csv",
        nargs="?",
        default=None,
        help="request CSV (request_id,arrival_offset_s,mode,priority,"
        "deadline_ms); omit with --gen",
    )
    parser.add_argument("--url", help="server base URL, e.g. http://127.0.0.1:8787")
    parser.add_argument(
        "--endpoint-file",
        metavar="PATH",
        help="endpoint.json written by repro-serve (alternative to --url)",
    )
    parser.add_argument(
        "--gen",
        type=int,
        default=None,
        metavar="N",
        help="generate N synthetic requests instead of reading a CSV",
    )
    parser.add_argument(
        "--gen-rps", type=float, default=20.0,
        help="arrival rate for --gen (default: 20)",
    )
    parser.add_argument(
        "--gen-modes",
        default="ping,e01,e02",
        help="comma-separated modes for --gen (experiment ids, ping, "
        "summary, sleep:SECONDS; default: ping,e01,e02)",
    )
    parser.add_argument(
        "--gen-seed", type=int, default=0, help="RNG seed for --gen"
    )
    parser.add_argument(
        "--gen-dist",
        choices=("uniform", "zipf"),
        default="uniform",
        help="mode popularity for --gen: uniform, or zipf (few hot "
        "queries — the shape a result cache is measured under)",
    )
    parser.add_argument(
        "--gen-zipf-s",
        type=float,
        default=1.1,
        metavar="S",
        help="Zipf exponent for --gen-dist zipf (default: 1.1)",
    )
    parser.add_argument(
        "--gen-deadline-ms", type=int, default=5000,
        help="deadline for generated requests (default: 5000)",
    )
    parser.add_argument(
        "--gen-out",
        metavar="PATH",
        help="also write the generated workload as a replay CSV",
    )
    parser.add_argument(
        "--speed", type=float, default=1.0,
        help="replay speed factor for recorded offsets (default: 1.0)",
    )
    parser.add_argument(
        "--rps", type=float, default=None,
        help="override recorded offsets with a uniform arrival rate",
    )
    parser.add_argument(
        "--rps-sweep",
        metavar="R1,R2,...",
        help="refire the workload at each rate and find the saturation "
        "point",
    )
    parser.add_argument(
        "--saturation-ok-rate", type=float, default=0.95,
        help="ok-rate below which a sweep rate counts as saturated "
        "(default: 0.95)",
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        help="arm a process-fault plan (repro-chaos grammar, e.g. "
        "kill_worker:e03) on the live server for the drill",
    )
    parser.add_argument(
        "--chaos-start", type=float, default=0.0, metavar="SECONDS",
        help="arm the chaos plan this long after the replay starts",
    )
    parser.add_argument(
        "--chaos-duration", type=float, default=None, metavar="SECONDS",
        help="disarm the chaos plan after this long (default: whole run)",
    )
    parser.add_argument(
        "--flush-cache",
        action="store_true",
        help="POST /admin/cache before firing so the drill starts with "
        "a cold result cache (warm/cold comparisons)",
    )
    parser.add_argument(
        "--tail-concurrent",
        action="store_true",
        help="epoch-consistency drill: the server is expected to advance "
        "dataset epochs mid-replay (repro-tail --notify-serve); assert "
        "every successful answer is tagged with exactly one epoch and "
        "no response mixes two",
    )
    parser.add_argument(
        "--bench-json",
        default="BENCH_serve.json",
        metavar="PATH",
        help="where to write the replay record (default: BENCH_serve.json)",
    )
    args = parser.parse_args(argv)
    if (args.csv is None) == (args.gen is None):
        parser.error("exactly one of CSV or --gen is required")
    url = _resolve_url(args, parser)
    try:
        if args.gen is not None:
            modes = [m.strip() for m in args.gen_modes.split(",") if m.strip()]
            specs = generate_requests(
                args.gen,
                args.gen_rps,
                modes,
                seed=args.gen_seed,
                deadline_ms=args.gen_deadline_ms,
                dist=args.gen_dist,
                zipf_s=args.gen_zipf_s,
            )
            if args.gen_out:
                write_request_csv(args.gen_out, specs)
            source = (
                f"generated(n={args.gen}, rps={args.gen_rps:g}, "
                f"dist={args.gen_dist})"
            )
        else:
            specs = load_request_csv(args.csv)
            source = args.csv
        record = run_replay(
            url,
            specs,
            speed=args.speed,
            rps=args.rps,
            rps_sweep=_parse_sweep(args.rps_sweep),
            chaos_spec=args.chaos or "",
            chaos_start_s=args.chaos_start,
            chaos_duration_s=args.chaos_duration,
            saturation_ok_rate=args.saturation_ok_rate,
            source=source,
            flush_cache_first=args.flush_cache,
            tail_concurrent=args.tail_concurrent,
        )
    except ReplayError as error:
        print(f"INVALID: {error}")
        return 1
    except ReproError as error:
        print(f"INVALID: {error}")
        return 1
    atomic_write_text(
        args.bench_json, json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    requests = record["requests"]
    latency = record["latency_ms"]["overall"]
    print(
        f"replayed {requests['total']} request(s): "
        + ", ".join(
            f"{name}={count}"
            for name, count in requests["outcomes"].items()
        )
    )
    print(
        f"latency p50 {latency['p50_ms']:.1f}ms  "
        f"p99 {latency['p99_ms']:.1f}ms  max {latency['max_ms']:.1f}ms"
    )
    cache = record["cache"]
    print(
        f"cache hits={cache['hits']} misses={cache['misses']} "
        f"coalesced={cache['coalesced']} hit_rate={cache['hit_rate']:.3f} "
        f"warm_p50 {cache['warm_p50_ms']:.1f}ms  "
        f"cold_p50 {cache['cold_p50_ms']:.1f}ms"
    )
    epochs = record["epochs"]
    if args.tail_concurrent or epochs["observed"]:
        print(
            f"epochs observed={epochs['observed']} "
            f"untagged={epochs['untagged']} mixed={epochs['mixed']} "
            f"consistent={epochs['consistent']}"
        )
    if record["sweep"]:
        for entry in record["sweep"]:
            print(
                f"  sweep {entry['rps']:g} rps: ok_rate {entry['ok_rate']:.3f} "
                f"p99 {entry['p99_ms']:.1f}ms"
            )
        saturation = record["saturation_rps"]
        print(
            "saturation point: "
            + (f"{saturation:g} rps" if saturation else "not reached")
        )
    print(f"wrote {args.bench_json}")
    if not record["clean"]:
        if not record["server"]["same_pid"]:
            reason = "server unreachable or restarted"
        elif not epochs["consistent"]:
            reason = "epoch inconsistency (mixed or untagged answers)"
        else:
            reason = "responses unaccounted for"
        print(f"DRILL FAILED: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_serve())
