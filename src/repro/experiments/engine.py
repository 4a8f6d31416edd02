"""Supervised parallel experiment engine.

Runs a set of independent experiments against one dataset, optionally
across supervised worker processes, while preserving two invariants
the report renderer depends on:

- **Deterministic ordering** — outcomes come back in the exact order
  the experiment IDs were requested, regardless of which worker
  finished first.
- **Failure isolation** — one crashing experiment becomes a recorded
  outcome (``skipped`` for expected data-starvation errors, ``error``
  for everything else), never an aborted suite.

With ``jobs > 1``, :func:`run_suite` drives ``jobs`` forked workers,
each a :class:`repro.util.workers.WorkerSlot` — the same supervisor
that runs ``repro-serve``'s query workers — from its one thread, and
supervises them the way a batch scheduler supervises jobs:

- a per-experiment **timeout** is enforced inside the worker via
  ``SIGALRM`` (an experiment that exceeds it becomes an ``error``
  outcome), with a supervisor-side stall bound as backstop: a worker
  silent for ``timeout + SUPERVISOR_GRACE_S`` after its dispatch is
  killed and replaced;
- a **worker death** or stall loses only the one experiment that
  worker was running.  That experiment is re-dispatched, up to
  ``1 + retries`` attempts, after an exponential backoff that delays
  it alone; every other experiment runs on undisturbed, and completed
  work is never discarded and never re-run;
- **no orphans** — every worker dies with the supervisor, whatever
  signal killed it, and every worker is joined before
  :func:`run_suite` returns;
- **graceful shutdown** — ``KeyboardInterrupt`` (SIGINT, or SIGTERM
  mapped to it by the CLI) kills every worker, keeps every outcome
  already collected, and returns a partial :class:`SuiteResult` with
  ``interrupted=True`` so the caller can journal it and offer a
  resume;
- **crash-safe journaling** — every freshly computed outcome is pushed
  through the ``on_outcome`` callback the moment it is collected, and
  ``completed`` outcomes replayed from a journal are returned verbatim
  without re-running their experiments.

Every outcome carries wall-time, peak-RSS, and the attempt number that
produced it, and :func:`write_bench_json` serializes a suite into the
machine-readable ``BENCH_pipeline.json`` perf-trajectory format the
benchmark harness and CI consume.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Mapping

from repro.errors import FaultError, ReproError
from repro.obs import trace as _obs
from repro.util.atomic import atomic_write_text
from repro.util.deadline import DeadlineExceeded, deadline
from repro.util.workers import WorkerSlot

from .base import ExperimentResult

__all__ = [
    "ExperimentOutcome",
    "SuiteResult",
    "run_suite",
    "profile_lines",
    "bench_record",
    "write_bench_json",
]


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's fate: its result or why it has none.

    ``status`` is ``"ok"`` (``result`` is set), ``"skipped"`` (an
    expected :class:`~repro.errors.ReproError`/:class:`ValueError`,
    e.g. a small trace starving an analysis; ``message`` is ``str(error)``)
    or ``"error"`` (an isolated crash, a timeout, or a worker lost
    beyond its retry budget; ``message`` says which).
    ``max_rss_kb`` is a peak resident set from ``getrusage``,
    normalized to KiB on every platform (Linux reports KiB natively,
    macOS reports bytes).  ``rss_scope`` says what that peak covers:
    ``"worker"`` — the worker process that ran this experiment — or
    ``"process"`` — the whole supervisor, when the experiment ran
    in-process (``jobs=1``), where the number is a shared monotonic
    high-water mark, *not* this experiment's own footprint.
    ``attempt`` is the dispatch number that produced this outcome
    (``2`` means the first worker died and the retry succeeded).
    ``spans`` and ``counters`` (``(name, value)`` pairs) carry what
    the worker's recorder captured when the suite ran with tracing
    on; the supervisor merges them into the active recorder and they
    are never journaled.
    """

    experiment_id: str
    status: str
    result: ExperimentResult | None
    message: str
    seconds: float
    max_rss_kb: int
    attempt: int = 1
    rss_scope: str = "worker"
    spans: tuple = ()
    counters: tuple = ()


@dataclass(frozen=True)
class SuiteResult:
    """All outcomes of one suite run, in requested order.

    ``interrupted`` is True when the run was cut short (SIGINT/SIGTERM)
    and ``outcomes`` holds only what finished before the interrupt.
    """

    outcomes: tuple[ExperimentOutcome, ...]
    jobs: int
    total_seconds: float
    interrupted: bool = False

    @cached_property
    def _by_id(self) -> dict[str, ExperimentOutcome]:
        return {outcome.experiment_id: outcome for outcome in self.outcomes}

    def outcome(self, experiment_id: str) -> ExperimentOutcome:
        """O(1) lookup of one experiment's outcome by ID."""
        try:
            return self._by_id[experiment_id]
        except KeyError:
            raise KeyError(f"no outcome for {experiment_id!r}") from None


def _peak_rss_kb() -> int:
    """Peak resident set of this process in KiB, on every platform.

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux but in *bytes*
    on macOS — normalizing at the one call site keeps every journal,
    bench record, and report comparable across platforms.
    """
    raw = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        return raw // 1024
    return raw


def _run_one(
    experiment_id: str,
    dataset,
    timeout: float | None = None,
    attempt: int = 1,
    trace: bool = False,
    in_worker: bool = False,
) -> ExperimentOutcome:
    """Run one experiment with isolation, timing, and RSS accounting.

    ``in_worker`` fixes the RSS scope — a worker's ``ru_maxrss`` is
    (approximately) this experiment's own peak, while in-process it is
    the whole supervisor's shared high-water mark and is labelled as
    such.  With ``trace=True`` in a worker, a process-local recorder
    captures the experiment's spans and counters and ships them back
    on the outcome; in-process, they flow straight into the
    supervisor's active recorder.
    """
    from repro.experiments import run_experiment
    from repro.faults.plan import apply_process_faults

    recorder = None
    if trace:
        if in_worker:
            # Always start fresh in a worker: under the fork start
            # method the child inherits the supervisor's recorder, and
            # spans added to that copy would be silently discarded.
            recorder = _obs.install(_obs.TraceRecorder())
        elif _obs.active() is None:
            recorder = _obs.install(_obs.TraceRecorder())
    started = time.perf_counter()
    try:
        with deadline(timeout):
            with _obs.span("experiment", id=experiment_id, attempt=attempt):
                # Deterministic chaos (kill/hang/slow) fires here, inside
                # the timeout window, so drills exercise the same
                # supervision paths real failures would.
                apply_process_faults(experiment_id, attempt)
                result = run_experiment(experiment_id, dataset)
        status, message = "ok", ""
    except DeadlineExceeded:
        result, status = None, "error"
        message = f"timeout: exceeded {timeout:g}s"
    except FaultError as error:
        # A misspelled REPRO_PROCESS_FAULTS spec must surface, not be
        # mistaken for a data-starved skip.
        result, status, message = None, "error", repr(error)
    except (ReproError, ValueError) as error:
        # Small traces legitimately starve some experiments (too few
        # failures per family, too few interruption intervals, ...).
        result, status, message = None, "skipped", str(error)
    except Exception as error:  # noqa: BLE001 - isolate experiment crashes
        result, status, message = None, "error", repr(error)
    spans: tuple = ()
    counters: tuple = ()
    if recorder is not None:
        _obs.uninstall()
        spans = tuple(recorder.spans)
        counters = tuple(recorder.counters.items())
    return ExperimentOutcome(
        experiment_id=experiment_id,
        status=status,
        result=result,
        message=message,
        seconds=time.perf_counter() - started,
        max_rss_kb=_peak_rss_kb(),
        attempt=attempt,
        rss_scope="worker" if in_worker else "process",
        spans=spans,
        counters=counters,
    )


def _run_in_worker(job: tuple, dataset) -> ExperimentOutcome:
    """The experiment workers' :class:`WorkerSlot` handler."""
    experiment_id, timeout, attempt, trace = job
    return _run_one(
        experiment_id, dataset, timeout, attempt, trace, in_worker=True
    )


def _run_on_slots(
    dataset,
    pending: list[str],
    *,
    jobs: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    record: Callable[[ExperimentOutcome], None],
    trace: bool = False,
) -> None:
    """Run ``pending`` on ``jobs`` worker slots until every one has an
    outcome.

    Each idle slot takes the next ready experiment.  A worker that dies
    or stalls (silent for ``timeout + SUPERVISOR_GRACE_S``) loses only
    the experiment it was running: the slot replaces its worker, and
    the experiment becomes ready again after ``backoff *
    2**(attempt-1)`` seconds, up to ``1 + retries`` attempts in all,
    after which it is recorded as an ``error`` outcome.  Every slot is
    killed on ``KeyboardInterrupt`` and closed and joined on the way
    out.
    """
    attempts = dict.fromkeys(pending, 0)
    ready = deque(pending)
    backing_off: list[tuple[float, str]] = []  # heap of (ready_at, id)
    slots: list[WorkerSlot] = []
    running: dict[WorkerSlot, str] = {}
    try:
        for _ in range(jobs):
            slots.append(WorkerSlot(dataset, _run_in_worker))
        while ready or backing_off or running:
            now = time.monotonic()
            while backing_off and backing_off[0][0] <= now:
                ready.append(heapq.heappop(backing_off)[1])
            for slot in slots:
                if ready and slot not in running:
                    experiment_id = ready.popleft()
                    attempts[experiment_id] += 1
                    slot.submit(
                        (experiment_id, timeout, attempts[experiment_id], trace)
                    )
                    running[slot] = experiment_id
            wake = [at for at, _ in backing_off[:1]]
            if timeout is not None:
                wake += [slot.stall_at(timeout) for slot in running]
            wait_s = max(min(wake) - now, 0.0) if wake else None
            conns = [slot.connection for slot in running]
            if None in conns:
                wait_s = 0.0
            readable = wait([c for c in conns if c is not None], wait_s)
            now = time.monotonic()
            for slot in list(running):
                if not (
                    slot.connection is None
                    or slot.connection in readable
                    or (timeout is not None and now >= slot.stall_at(timeout))
                ):
                    continue
                experiment_id = running.pop(slot)
                verdict = slot.collect(timeout)
                attempt = attempts[experiment_id]
                if verdict.kind == "done":
                    record(verdict.payload)
                elif attempt < 1 + retries:
                    heapq.heappush(
                        backing_off,
                        (time.monotonic() + backoff * 2 ** (attempt - 1),
                         experiment_id),
                    )
                else:
                    record(
                        ExperimentOutcome(
                            experiment_id=experiment_id,
                            status="error",
                            result=None,
                            message=(
                                "worker lost (process died or hung) after "
                                f"{attempt} attempt(s)"
                            ),
                            seconds=0.0,
                            max_rss_kb=0,
                            attempt=attempt,
                        )
                    )
    except KeyboardInterrupt:
        # In-flight experiments are simply re-run on resume.
        for slot in slots:
            slot.kill()
        raise
    finally:
        for slot in slots:
            slot.close()


def run_suite(
    dataset,
    experiment_ids: list[str] | None = None,
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
    completed: Mapping[str, ExperimentOutcome] | None = None,
    on_outcome: Callable[[ExperimentOutcome], None] | None = None,
    trace: bool = False,
) -> SuiteResult:
    """Run experiments (default: all registered) against ``dataset``.

    ``jobs`` caps worker processes (default ``os.cpu_count()``); 1 runs
    everything in-process.  The worker count never exceeds the number
    of experiments.  ``timeout`` bounds each experiment's wall time
    (``None`` = unlimited); ``retries``/``backoff`` govern re-dispatch
    after worker deaths (see :func:`_run_on_slots`).  ``completed``
    supplies already-journaled outcomes to replay instead of re-running
    (the ``--resume`` path), and ``on_outcome`` is invoked once per
    *freshly computed* outcome, in completion order, so a journal can
    be flushed as the suite progresses.  ``trace`` asks workers to
    record per-experiment spans and counters; the supervisor merges
    what they ship into its active :mod:`repro.obs` recorder as
    outcomes arrive (a no-op when no recorder is installed).

    Raises
    ------
    ValueError
        On ``jobs < 1``, ``retries < 0``, or duplicate experiment IDs.
    """
    from repro.experiments import all_experiments

    ids = (
        list(experiment_ids)
        if experiment_ids is not None
        else list(all_experiments())
    )
    duplicates = sorted(eid for eid, n in Counter(ids).items() if n > 1)
    if duplicates:
        raise ValueError(f"duplicate experiment id(s): {duplicates}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    jobs = min(jobs, max(len(ids), 1))

    done: dict[str, ExperimentOutcome] = {}
    if completed:
        for experiment_id in ids:
            if experiment_id in completed:
                done[experiment_id] = completed[experiment_id]

    def record(outcome: ExperimentOutcome) -> None:
        if outcome.experiment_id in done:
            return
        done[outcome.experiment_id] = outcome
        if outcome.spans or outcome.counters:
            recorder = _obs.active()
            if recorder is not None:
                recorder.absorb(outcome.spans, dict(outcome.counters))
        if on_outcome is not None:
            on_outcome(outcome)

    pending = [eid for eid in ids if eid not in done]
    started = time.perf_counter()
    interrupted = False
    try:
        if jobs == 1:
            for experiment_id in pending:
                record(_run_one(experiment_id, dataset, timeout, trace=trace))
        elif pending:
            _run_on_slots(
                dataset,
                pending,
                jobs=min(jobs, len(pending)),
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                record=record,
                trace=trace,
            )
    except KeyboardInterrupt:
        interrupted = True
    return SuiteResult(
        outcomes=tuple(done[eid] for eid in ids if eid in done),
        jobs=jobs,
        total_seconds=time.perf_counter() - started,
        interrupted=interrupted,
    )


def timing_lines(suite: SuiteResult) -> list[str]:
    """Human-readable per-experiment timing block for the report."""
    lines = [
        f"suite: {len(suite.outcomes)} experiments in "
        f"{suite.total_seconds:.3f}s with {suite.jobs} job(s)"
    ]
    for outcome in suite.outcomes:
        # A process-scoped peak is the whole supervisor's high-water
        # mark, not this experiment's own footprint — label it so the
        # numbers are not misread as per-experiment attribution.
        scope = "" if outcome.rss_scope == "worker" else " (process-wide)"
        lines.append(
            f"{outcome.experiment_id}: {outcome.seconds:.3f}s  "
            f"peak-rss {outcome.max_rss_kb / 1024:.1f} MiB{scope}  "
            f"[{outcome.status}]"
        )
    return lines


def profile_lines(
    dataset,
    experiment_ids: list[str] | None = None,
    top: int = 20,
) -> list[str]:
    """Per-experiment cProfile hotspots, top-``top`` by cumulative time.

    Runs each experiment in-process under ``cProfile`` (profiling and
    worker processes don't mix) and returns a readable block per experiment
    — the starting point for the next round of kernel optimization.
    Expected data-starvation errors are reported, not raised, mirroring
    :func:`run_suite`'s isolation.
    """
    import cProfile
    import io
    import pstats

    from repro.experiments import all_experiments, run_experiment

    ids = (
        list(experiment_ids)
        if experiment_ids is not None
        else list(all_experiments())
    )
    lines: list[str] = []
    for experiment_id in ids:
        profiler = cProfile.Profile()
        status = "ok"
        profiler.enable()
        try:
            run_experiment(experiment_id, dataset)
        except (ReproError, ValueError) as error:
            status = f"skipped: {error}"
        except Exception as error:  # noqa: BLE001 - keep profiling the rest
            status = f"error: {error!r}"
        finally:
            profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        lines.append(f"--- {experiment_id} [{status}] ---")
        # Drop the pstats preamble; keep the header row and entries.
        body = stream.getvalue().splitlines()
        keep = [
            line
            for line in body
            if line.strip()
            and not line.lstrip().startswith(("Ordered by", "List reduced"))
            and "function calls" not in line
        ]
        lines.extend(keep)
        lines.append("")
    return lines


def bench_record(
    suite: SuiteResult,
    dataset=None,
    stages: dict | None = None,
) -> dict:
    """Assemble the ``BENCH_pipeline.json`` record for one suite run.

    ``stages`` carries pipeline-level timings (cold/warm load, ingest
    rates) measured by the caller; the per-experiment section comes
    from the suite itself.
    """
    from repro import __version__

    record: dict = {
        "schema": 1,
        "toolkit_version": __version__,
        "suite": {
            "jobs": suite.jobs,
            "total_seconds": round(suite.total_seconds, 6),
            "n_experiments": len(suite.outcomes),
        },
        "experiments": [
            {
                "id": outcome.experiment_id,
                "status": outcome.status,
                "seconds": round(outcome.seconds, 6),
                "max_rss_kb": outcome.max_rss_kb,
                "rss_scope": outcome.rss_scope,
            }
            for outcome in suite.outcomes
        ],
    }
    if dataset is not None:
        record["dataset"] = {
            "n_days": dataset.n_days,
            "seed": dataset.seed,
            "n_jobs": dataset.jobs.n_rows,
            "n_ras_events": dataset.ras.n_rows,
            "n_tasks": dataset.tasks.n_rows,
            "n_io_profiles": dataset.io.n_rows,
        }
    if stages:
        record["stages"] = stages
    return record


def write_bench_json(path: str | Path, record: dict) -> Path:
    """Write a bench record as pretty-printed JSON, atomically."""
    return atomic_write_text(
        path, json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
