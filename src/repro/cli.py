"""Command-line interface.

Five entry points (installed as console scripts):

- ``repro-gen``      — synthesize a dataset and write it to a directory
- ``repro-analyze``  — run one experiment against a dataset directory
- ``repro-report``   — render the full study report for a dataset
- ``repro-validate`` — schema + cross-log validation of a dataset directory
- ``repro-chaos``    — corrupt a dataset directory for resilience drills

``repro-analyze``, ``repro-report``, and ``repro-validate`` accept
``--days``/``--seed`` to synthesize a dataset on the fly when no
directory is given, and ``--lenient``/``--max-bad-rows`` to load a
dirty directory through the quarantining ingestion path instead of
failing on the first bad record.

Dataset loads and parameter-free syntheses are served from the
columnar ``.npz`` cache (:mod:`repro.dataset.cache`); ``--no-cache``
bypasses it and ``--refresh-cache`` rebuilds the entry.
``repro-report`` additionally fans the experiment suite out across
``--jobs`` worker processes under crash-safe supervision: every run
gets a journaled run directory (``--run-dir``/``--run-id``), each
experiment a wall-time budget (``--timeout``) and a worker-death retry
budget (``--retries``/``--backoff``), SIGINT/SIGTERM shut down
gracefully with a resumable run ID, and ``--resume <run-id>`` replays
the journal and runs only what is missing (see ``docs/robustness.md``).
It can also record per-experiment timings (``--timings``), a
machine-readable perf trajectory (``--bench-json``), and a structured
span trace (``--trace``, written to ``trace.jsonl`` in the run
directory and inspected with the ``repro-trace`` entry point from
:mod:`repro.obs.cli`).
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.dataset import MiraDataset, validate_dataset
from repro.errors import JournalError, ReproError

__all__ = [
    "main_gen",
    "main_analyze",
    "main_report",
    "main_validate",
    "main_chaos",
]


def _add_synth_args(parser: argparse.ArgumentParser) -> None:
    from repro.adapters import all_backend_names

    parser.add_argument(
        "--days", type=float, default=90.0, help="observation span in days"
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--scale",
        type=int,
        default=1,
        help="fleet replication factor: synthesize N systems' worth of "
        "load on an N-fold machine (synthesis only; 1 = plain Mira)",
    )
    parser.add_argument(
        "--backend",
        choices=all_backend_names(),
        default="mira",
        help="trace backend to synthesize from (synthesis only; "
        "see docs/backends.md)",
    )


def _add_lenient_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="quarantine bad rows and degrade missing sources instead of failing",
    )
    parser.add_argument(
        "--max-bad-rows",
        type=int,
        default=None,
        help="abort a lenient load after this many quarantined rows",
    )
    parser.add_argument(
        "--assume-mira",
        action="store_true",
        help="with --lenient: load a dataset whose meta.jsonl is missing "
        "or unreadable by assuming the Mira machine geometry, instead of "
        "refusing to guess",
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the columnar dataset cache entirely",
    )
    parser.add_argument(
        "--refresh-cache",
        action="store_true",
        help="ignore any cached entry and rebuild it from source",
    )
    parser.add_argument(
        "--mode",
        choices=("ram", "mmap"),
        default="ram",
        help="dataset residency: 'mmap' serves read-only memory-mapped "
        "columns from a shared arena (O(1) RAM load, zero-copy workers)",
    )


def _load_or_synthesize(args) -> MiraDataset:
    cache = not getattr(args, "no_cache", False)
    refresh = getattr(args, "refresh_cache", False)
    mode = getattr(args, "mode", "ram")
    if mode == "mmap" and not cache:
        raise ReproError("--mode mmap needs the dataset cache; drop --no-cache")
    if getattr(args, "dataset", None):
        return MiraDataset.load(
            args.dataset,
            lenient=getattr(args, "lenient", False),
            max_bad_rows=getattr(args, "max_bad_rows", None),
            assume_mira=getattr(args, "assume_mira", False),
            cache=cache,
            refresh_cache=refresh,
            mode=mode,
        )
    return MiraDataset.synthesize(
        n_days=args.days,
        seed=args.seed,
        cache=cache,
        refresh_cache=refresh,
        mode=mode,
        scale=getattr(args, "scale", 1),
        backend=getattr(args, "backend", "mira"),
    )


def main_gen(argv: list[str] | None = None) -> int:
    """Generate a synthetic Mira dataset and save it."""
    parser = argparse.ArgumentParser(
        prog="repro-gen", description=main_gen.__doc__
    )
    parser.add_argument("output", help="directory to write the dataset into")
    _add_synth_args(parser)
    _add_cache_args(parser)
    parser.add_argument(
        "--no-validate", action="store_true", help="skip cross-log validation"
    )
    args = parser.parse_args(argv)
    dataset = MiraDataset.synthesize(
        n_days=args.days,
        seed=args.seed,
        cache=not args.no_cache,
        refresh_cache=args.refresh_cache,
        scale=args.scale,
        backend=args.backend,
    )
    if not args.no_validate:
        validate_dataset(dataset)
    dataset.save(args.output)
    summary = dataset.summary()
    print(
        f"wrote {args.output}: {summary['n_jobs']} jobs, "
        f"{summary['n_ras_events']} RAS events, "
        f"{summary['total_core_hours'] / 1e9:.3f}B core-hours"
    )
    return 0


def main_analyze(argv: list[str] | None = None) -> int:
    """Run one experiment (e01..e22) and print its tables."""
    from repro.experiments import all_experiments, run_experiment

    parser = argparse.ArgumentParser(
        prog="repro-analyze", description=main_analyze.__doc__
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id; one of {', '.join(all_experiments())}",
    )
    parser.add_argument(
        "--dataset", help="dataset directory (from repro-gen); else synthesize"
    )
    _add_synth_args(parser)
    _add_lenient_args(parser)
    _add_cache_args(parser)
    parser.add_argument("--max-rows", type=int, default=25)
    parser.add_argument(
        "--output",
        help="also export the result as Markdown + CSVs into this directory",
    )
    args = parser.parse_args(argv)
    if args.experiment not in all_experiments():
        parser.error(
            f"unknown experiment {args.experiment!r}; "
            f"known: {', '.join(all_experiments())}"
        )
    try:
        dataset = _load_or_synthesize(args)
        result = run_experiment(args.experiment, dataset)
    except ReproError as error:
        print(f"INVALID: {error}")
        return 1
    print(result.to_text(max_rows=args.max_rows))
    if args.output:
        from repro.experiments import export_result

        written = export_result(result, args.output)
        print(f"exported {len(written)} files to {args.output}")
    return 0


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt()


def main_report(argv: list[str] | None = None) -> int:
    """Render the full study report (all experiments + takeaways)."""
    import os
    from pathlib import Path

    from repro.core.report import render_report
    from repro.dataset.cache import fingerprint_for_run
    from repro.experiments.engine import (
        bench_record,
        profile_lines,
        run_suite,
        write_bench_json,
    )
    from repro.experiments.journal import RunJournal, default_runs_dir
    from repro.util.atomic import atomic_write_text

    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=main_report.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0    report rendered, no experiment errored\n"
            "  1    invalid input, or >=1 experiment errored "
            "(--allow-errors downgrades this to 0)\n"
            "  2    bad command line\n"
            "  130  interrupted (SIGINT/SIGTERM); finished experiments are\n"
            "       journaled — rerun with --resume RUN_ID to finish the rest"
        ),
    )
    parser.add_argument(
        "--dataset", help="dataset directory (from repro-gen); else synthesize"
    )
    _add_synth_args(parser)
    _add_lenient_args(parser)
    _add_cache_args(parser)
    parser.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        help="subset of experiment ids (default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for the experiment suite (default: CPU count)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-time budget; an experiment exceeding it "
        "becomes an error outcome (default: unlimited)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-dispatches of an experiment whose worker died (default: 2)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base delay between re-dispatch rounds, doubled each round "
        "(default: 0.5)",
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
        help="do not journal this run (it will not be resumable)",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        help="resume a journaled run: replay its completed experiments and "
        "run only what is missing (dataset flags are taken from the journal)",
    )
    parser.add_argument(
        "--allow-errors",
        action="store_true",
        help="exit 0 even when experiments errored (they are still "
        "reported in the INGESTION & FAILURES section)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="append a per-experiment wall-time / peak-RSS section",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record structured spans/counters to trace.jsonl in the run "
        "directory (implies --timings; inspect with repro-trace)",
    )
    parser.add_argument(
        "--bench-json",
        metavar="PATH",
        help="write the suite's timing record as machine-readable JSON",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="append per-experiment cProfile top-20 cumulative hotspots "
        "(re-runs the suite in-process under the profiler)",
    )
    parser.add_argument(
        "--output",
        help="also export every experiment as Markdown + CSVs into this directory",
    )
    args = parser.parse_args(argv)
    if args.resume and args.no_journal:
        parser.error("--resume and --no-journal are mutually exclusive")
    if args.trace and args.no_journal:
        parser.error("--trace needs a run directory; drop --no-journal")
    runs_root = Path(args.run_dir) if args.run_dir else default_runs_dir()

    recorder = None
    if args.trace:
        from repro.obs import trace as obs_trace

        recorder = obs_trace.install(obs_trace.TraceRecorder())

    journal = None
    completed = None
    experiment_ids = args.experiments
    timeout, retries, backoff = args.timeout, args.retries, args.backoff
    try:
        if args.resume:
            journal, state = RunJournal.resume(runs_root, args.resume)
            config = state.config
            # The journal's config pins what the run *is* (dataset
            # identity, experiment set, supervision budgets); only
            # execution knobs (--jobs, cache flags) follow the CLI.
            replay_args = argparse.Namespace(
                dataset=config.get("dataset"),
                days=config.get("days", 90.0),
                seed=config.get("seed", 0),
                scale=config.get("scale", 1),
                backend=config.get("backend", "mira"),
                lenient=config.get("lenient", False),
                max_bad_rows=config.get("max_bad_rows"),
                assume_mira=config.get("assume_mira", False),
                no_cache=args.no_cache,
                refresh_cache=args.refresh_cache,
                mode=args.mode,
            )
            dataset = _load_or_synthesize(replay_args)
            fingerprint = fingerprint_for_run(
                replay_args.dataset,
                replay_args.days,
                replay_args.seed,
                scale=replay_args.scale,
                backend=replay_args.backend,
            )
            if fingerprint != state.fingerprint:
                raise JournalError(
                    f"run {args.resume!r} was journaled against a different "
                    "dataset (fingerprint mismatch); refusing to mix results"
                )
            experiment_ids = config.get("experiments")
            timeout = config.get("timeout")
            retries = config.get("retries", retries)
            backoff = config.get("backoff", backoff)
            completed = state.outcomes
        else:
            dataset = _load_or_synthesize(args)
            fingerprint = fingerprint_for_run(
                args.dataset,
                args.days,
                args.seed,
                scale=args.scale,
                backend=args.backend,
            )
            if not args.no_journal:
                journal = RunJournal.start(
                    runs_root,
                    fingerprint=fingerprint,
                    run_id=args.run_id,
                    config={
                        "dataset": args.dataset or None,
                        "days": args.days,
                        "seed": args.seed,
                        "scale": args.scale,
                        "backend": args.backend,
                        "lenient": args.lenient,
                        "max_bad_rows": args.max_bad_rows,
                        "assume_mira": args.assume_mira,
                        "experiments": args.experiments,
                        "jobs": args.jobs,
                        "timeout": args.timeout,
                        "retries": args.retries,
                        "backoff": args.backoff,
                    },
                )
    except (ReproError, OSError) as error:
        print(f"INVALID: {error}")
        if recorder is not None:
            obs_trace.uninstall()
        return 1

    # SIGTERM gets the same graceful path as Ctrl-C: cancel what has
    # not started, keep what finished, leave a resumable journal.
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    try:
        suite = run_suite(
            dataset,
            experiment_ids,
            jobs=args.jobs,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            completed=completed,
            on_outcome=journal.append_outcome if journal else None,
            trace=args.trace,
        )
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)

    if suite.interrupted:
        if journal:
            journal.append_end("interrupted", suite.total_seconds)
            if recorder is not None:
                # A partial trace still shows where the time went.
                obs_trace.uninstall()
                recorder.write(
                    journal.directory / "trace.jsonl", run_id=journal.run_id
                )
            print(
                f"interrupted: {len(suite.outcomes)} experiment(s) journaled; "
                f"finish with: repro-report --resume {journal.run_id}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted: run was not journaled (--no-journal), "
                "partial results were discarded",
                file=sys.stderr,
            )
        return 130

    text = render_report(
        dataset, suite=suite, timings=args.timings or args.trace
    )
    print(text)
    if journal:
        journal.append_end("complete", suite.total_seconds)
        atomic_write_text(journal.report_path, text + "\n")
        if recorder is not None:
            obs_trace.uninstall()
            recorder.write(
                journal.directory / "trace.jsonl", run_id=journal.run_id
            )
        print(
            f"run {journal.run_id}: journal + report in {journal.directory}",
            file=sys.stderr,
        )
    if args.profile:
        print("\nPROFILE (cProfile, top 20 by cumulative time)")
        print("\n".join(profile_lines(dataset, experiment_ids)))
    if args.bench_json:
        write_bench_json(args.bench_json, bench_record(suite, dataset))
    if args.output:
        from repro.experiments import export_all

        written = export_all(dataset, args.output, experiment_ids=experiment_ids)
        print(f"exported {len(written)} files to {args.output}")
    errored = [o.experiment_id for o in suite.outcomes if o.status == "error"]
    if errored and not args.allow_errors:
        print(
            f"{len(errored)} experiment(s) errored ({', '.join(errored)}); "
            "exiting 1 (--allow-errors to override)",
            file=sys.stderr,
        )
        return 1
    return 0


def main_validate(argv: list[str] | None = None) -> int:
    """Validate a dataset directory (schemas + cross-log invariants)."""
    parser = argparse.ArgumentParser(
        prog="repro-validate", description=main_validate.__doc__
    )
    parser.add_argument(
        "dataset",
        nargs="?",
        default=None,
        help="dataset directory (from repro-gen or exports); else synthesize",
    )
    _add_synth_args(parser)
    _add_lenient_args(parser)
    _add_cache_args(parser)
    args = parser.parse_args(argv)
    try:
        dataset = _load_or_synthesize(args)
        report = validate_dataset(dataset, lenient=args.lenient)
    except ReproError as error:
        print(f"INVALID: {error}")
        return 1
    for check, status in report.items():
        print(f"  {check}: {status}")
    summary = dataset.summary()
    print(
        f"OK: {summary['n_jobs']} jobs / {summary['n_ras_events']} RAS events / "
        f"{summary['n_tasks']} tasks / {summary['n_io_profiles']} I/O profiles"
    )
    return 0


def main_chaos(argv: list[str] | None = None) -> int:
    """Corrupt a saved dataset directory, reproducibly, for drills."""
    from repro.faults import (
        ALL_FAULTS,
        PROCESS_FAULT_ENV,
        PROCESS_FAULTS,
        STREAM_FAULTS,
        FaultPlan,
        ProcessFaultPlan,
        StreamFeeder,
    )

    parser = argparse.ArgumentParser(
        prog="repro-chaos", description=main_chaos.__doc__
    )
    parser.add_argument(
        "dataset", nargs="?", default=None, help="dataset directory to corrupt in place"
    )
    parser.add_argument(
        "--faults",
        nargs="*",
        default=None,
        help=f"faults to inject, in order (default: all of {', '.join(ALL_FAULTS)})",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--rate",
        type=float,
        default=0.02,
        help="fraction of rows each row-level fault corrupts",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available faults and exit"
    )
    parser.add_argument(
        "--process-faults",
        metavar="SPEC",
        help="validate a process-level fault spec (kind:experiment[:amount], "
        "';'-joined; kinds: " + ", ".join(PROCESS_FAULTS) + ") and print the "
        "environment assignment that arms it for repro-report, e.g. "
        "env $(repro-chaos --process-faults kill_worker:e03) repro-report --jobs 4",
    )
    parser.add_argument(
        "--stream-from",
        metavar="SOURCE",
        help="replay SOURCE dataset dir as a chaos-armed append-only feed "
        "into the positional directory (for repro-tail drills); progress "
        "persists in .feeder-state.json, so repeated invocations continue "
        "the same feed",
    )
    parser.add_argument(
        "--stream-steps",
        type=int,
        default=None,
        help="append rounds per invocation (default: run until exhausted)",
    )
    parser.add_argument(
        "--stream-chunk-rows",
        type=int,
        default=200,
        help="rows appended per source per round (default 200)",
    )
    parser.add_argument(
        "--stream-faults",
        nargs="*",
        default=None,
        help="stream faults to arm (default: none — pure append); "
        f"available: {', '.join(STREAM_FAULTS)}",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in ALL_FAULTS:
            print(name)
        for name in PROCESS_FAULTS:
            print(f"{name} (process-level)")
        for name in STREAM_FAULTS:
            print(f"{name} (stream-level)")
        return 0
    if args.stream_from:
        if not args.dataset:
            parser.error("--stream-from needs the positional feed directory")
        try:
            feeder = StreamFeeder(
                args.stream_from,
                args.dataset,
                seed=args.seed,
                chunk_rows=args.stream_chunk_rows,
                faults=tuple(args.stream_faults or ()),
                rate=args.rate,
            )
            summary = feeder.run(steps=args.stream_steps)
        except ReproError as error:
            print(f"INVALID: {error}")
            return 1
        for fired in summary["faults"]:
            print(f"  {fired}")
        print(
            f"fed {summary['wrote']} rows in {summary['steps']} steps "
            f"into {args.dataset} (seed {args.seed}, "
            f"done={summary['done']})"
        )
        return 0
    if args.process_faults:
        try:
            plan = ProcessFaultPlan.parse(args.process_faults)
        except ReproError as error:
            print(f"INVALID: {error}")
            return 1
        print(f"{PROCESS_FAULT_ENV}={plan.spec()}")
        return 0
    if not args.dataset:
        parser.error(
            "dataset directory required unless --list or --process-faults is given"
        )
    try:
        plan = FaultPlan(
            faults=tuple(args.faults) if args.faults else ALL_FAULTS,
            seed=args.seed,
            rate=args.rate,
        )
        records = plan.inject(args.dataset)
    except ReproError as error:
        print(f"INVALID: {error}")
        return 1
    for record in records:
        detail = f" ({record.detail})" if record.detail else ""
        print(f"  {record.fault}: {record.path}, {record.n_rows} rows{detail}")
    print(f"injected {len(records)} faults into {args.dataset} (seed {args.seed})")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_report())
