"""Query jobs for the serve tier's supervised workers.

Every query runs in a worker *process*, never in the daemon itself, so
a poisoned request — one that segfaults numpy, exhausts memory, or is
deliberately killed by an armed chaos plan — costs exactly one worker.
The process supervision (spawn, crash and stall detection, respawn,
parent-death handling, fork hygiene) is the toolkit's one worker
supervisor, :class:`repro.util.workers.WorkerSlot`, which also runs
``repro-report``'s experiment workers.  This module supplies what the
serve workers *run*: :func:`run_job` and the folded :func:`run_batch`,
bound into the slot by this module's :class:`WorkerSlot`.

Deadlines are enforced twice, as in the batch engine:

- inside the worker, :func:`repro.util.deadline.deadline` arms a
  ``SIGALRM`` for the request's *remaining* budget, so a slow query is
  cancelled in place and the worker survives to serve the next one;
- the supervisor polls the result pipe for the same budget plus
  :data:`SUPERVISOR_GRACE_S`, and a worker that blows through it (e.g.
  an armed ``hang`` fault blocking ``SIGALRM``) is SIGKILLed and
  replaced.

Chaos plans travel *per job*, not via the environment: the server
snapshots its armed spec into each job, and the worker applies it with
:class:`repro.faults.ProcessFaultPlan` keyed by the experiment id (or
the mode name for ``ping``/``sleep``/``summary``), so a live server
can be armed and disarmed between requests.
"""

from __future__ import annotations

import time

from repro.errors import FaultError, ReproError
from repro.util.deadline import DeadlineExceeded, deadline
from repro.util.workers import FORK_LOCK, SUPERVISOR_GRACE_S, WorkerVerdict
from repro.util.workers import WorkerSlot as _WorkerSlot

__all__ = [
    "FORK_LOCK",
    "SUPERVISOR_GRACE_S",
    "WorkerSlot",
    "WorkerVerdict",
    "run_batch",
    "run_job",
]


def run_job(job: dict, dataset) -> dict:
    """Execute one job dict against ``dataset``; always returns an outcome.

    The outcome dict carries ``outcome`` (``ok`` / ``skipped`` /
    ``deadline_exceeded`` / ``error``), ``message``, ``seconds`` (run
    time inside the worker), and ``result`` (mode-specific payload for
    ``ok``).  Runs inside the worker process, but is also directly
    callable in-process by tests.
    """
    from repro.faults.plan import ProcessFaultPlan

    started = time.perf_counter()
    outcome, message, result = "ok", "", None
    try:
        with deadline(job.get("deadline_s")):
            spec = job.get("chaos_spec") or ""
            if spec:
                # Chaos is keyed like the batch engine: by experiment
                # id, falling back to the mode name so drills can
                # target ping/sleep traffic without a dataset.
                key = job.get("experiment") or job["mode"]
                ProcessFaultPlan.parse(spec).apply(key, job.get("attempt", 1))
            mode = job["mode"]
            if mode == "ping":
                result = None
            elif mode == "sleep":
                time.sleep(float(job.get("seconds", 0.0)))
            elif mode == "summary":
                result = {"summary": dataset.summary()}
            elif mode == "experiment":
                from repro.experiments import run_experiment
                from repro.experiments.journal import result_to_json

                experiment_result = run_experiment(
                    job["experiment"], dataset
                )
                result = result_to_json(experiment_result)
            else:
                outcome, message = "error", f"unknown mode {mode!r}"
    except DeadlineExceeded:
        outcome = "deadline_exceeded"
        message = f"deadline exceeded after {job.get('deadline_s', 0):.3f}s"
        result = None
    except FaultError as error:
        outcome, message, result = "error", repr(error), None
    except (ReproError, ValueError) as error:
        outcome, message, result = "skipped", str(error), None
    except Exception as error:  # noqa: BLE001 - isolate query crashes
        outcome, message, result = "error", repr(error), None
    return {
        "request_id": job.get("request_id", ""),
        "outcome": outcome,
        "message": message,
        "seconds": time.perf_counter() - started,
        "result": result,
    }


def run_batch(job: dict, dataset) -> dict:
    """Execute a folded batch job: sub-jobs back to back, one round-trip.

    The dispatcher folds compatible queued batch-lane requests into
    ``{"mode": "batch", "jobs": [...]}`` so N cheap queries cost one
    pipe send/recv instead of N.  Each sub-job runs through
    :func:`run_job` with its *own* remaining deadline — reduced by the
    time earlier members already spent, so a request's deadline keeps
    covering queue wait *plus* execution even inside a fold — and its
    SIGALRM fires individually, so one slow member times out alone
    without poisoning its batchmates' outcomes.  ``results`` is
    index-aligned with ``jobs``.
    """
    started = time.perf_counter()
    results = []
    for sub in job.get("jobs", ()):
        budget = sub.get("deadline_s")
        if budget is not None:
            budget -= time.perf_counter() - started
            if budget <= 0:
                results.append(
                    {
                        "request_id": sub.get("request_id", ""),
                        "outcome": "deadline_exceeded",
                        "message": (
                            "deadline expired behind earlier batch members"
                        ),
                        "seconds": 0.0,
                        "result": None,
                    }
                )
                continue
            sub = dict(sub, deadline_s=budget)
        results.append(run_job(sub, dataset))
    return {
        "request_id": job.get("request_id", ""),
        "outcome": "ok",
        "message": "",
        "seconds": time.perf_counter() - started,
        "results": results,
    }


def _serve_job(job: dict, dataset) -> dict:
    """The serve workers' handler: a folded batch or a single job."""
    runner = run_batch if job.get("mode") == "batch" else run_job
    return runner(job, dataset)


class WorkerSlot(_WorkerSlot):
    """A supervised worker process that answers serve jobs."""

    def __init__(self, dataset, epoch: int = 0):
        super().__init__(dataset, _serve_job, epoch=epoch)
