"""The ``repro-serve`` daemon: HTTP front, supervised workers behind.

Request lifecycle — every stage either advances the request or ends it
with a typed outcome, so nothing is ever silently dropped:

1. an HTTP handler thread parses the body (``invalid`` on protocol
   violations) and asks :meth:`ReproServer.handle_query`;
2. admission: draining servers answer ``draining``; a clean dataset's
   deterministic queries are answered straight from the content-
   addressed result cache (:mod:`repro.serve.resultcache`) when
   present; identical in-flight requests coalesce behind one leader
   (single-flight); an open circuit breaker answers ``breaker_open``;
   a full lane answers ``shed`` with a load-derived ``retry_after_s``
   — all without touching a worker;
3. a dispatcher thread (one per worker slot) takes the ticket —
   interactive lane first — charges queue wait against its deadline,
   and runs it on its supervised worker process with the *remaining*
   budget; compatible batch-lane neighbors fold into the same worker
   round-trip (up to ``batch_max``) when no interactive work waits;
4. the verdict (worker outcome, crash, or stall-kill) becomes the
   response, feeds the experiment's breaker and — for ``ok`` /
   ``skipped`` answers with a cache key — the result cache, fans out
   to any coalesced followers, and wakes the waiting HTTP thread.

Shutdown (SIGTERM/SIGINT or ``POST /admin/drain``) is a graceful
drain: stop admitting, finish in-flight work within the drain
deadline, answer whatever remains with ``draining``, journal the
shutdown, and write the run's ``trace.jsonl`` with one span per
request.  ``GET /healthz`` (always 200 while the process lives) and
``GET /readyz`` (503 once draining or worker-less) report queue
depths, breaker states, outcome counts, and the dataset fingerprint.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import __version__
from repro.errors import FaultError
from repro.faults.plan import ProcessFaultPlan
from repro.obs import trace as _obs
from repro.util.deadline import Deadline

from .admission import AdmissionQueue, Ticket
from .breaker import BreakerBoard
from .protocol import ProtocolError, ServeRequest, ServeResponse
from .resultcache import CACHEABLE_OUTCOMES, ResultCache, result_key
from .workers import FORK_LOCK, SUPERVISOR_GRACE_S, WorkerSlot, WorkerVerdict

__all__ = ["ReproServer", "ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one server instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    interactive_capacity: int = 16
    batch_capacity: int = 64
    default_deadline_ms: int = 10_000
    max_deadline_ms: int = 60_000
    drain_s: float = 5.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 3.0
    trace: bool = False
    cache_enabled: bool = True
    cache_max_bytes: int = 64 * 1024 * 1024
    cache_dir: str | None = None
    batch_max: int = 4

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.default_deadline_ms < 1 or self.max_deadline_ms < 1:
            raise ValueError("deadlines must be positive")
        if self.drain_s < 0:
            raise ValueError(f"drain_s must be >= 0, got {self.drain_s}")
        if self.cache_enabled and self.cache_max_bytes < 1:
            raise ValueError(
                f"cache_max_bytes must be >= 1, got {self.cache_max_bytes}"
            )
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")


class _ServeTrace:
    """Thread-safe per-request span/counter sink for ``trace.jsonl``.

    The obs :class:`TraceRecorder` is single-threaded by design (its
    span stack assumes one thread), so the server records flat,
    parentless spans itself — one per request, made under a lock —
    and absorbs them into a recorder only at write time.
    """

    def __init__(self, main_at: float | None = None):
        self._lock = threading.Lock()
        self._epoch = time.monotonic()
        self._spans: list[dict] = []
        self._counters: dict[str, float] = {}
        self._pid = os.getpid()
        started = None if main_at is None else _obs.process_start(main_at)
        if started is not None:
            # Re-base the clock on the process start: span 0 is start-up.
            self._epoch = started
            self.record_span("process.start", started, main_at - started)

    def record_span(self, name: str, start: float, seconds: float, **attrs):
        with self._lock:
            self._spans.append(
                {
                    "kind": "span",
                    "id": len(self._spans),
                    "parent": None,
                    "name": name,
                    "start": round(max(start - self._epoch, 0.0), 9),
                    "seconds": round(max(seconds, 0.0), 9),
                    "depth": 0,
                    "pid": self._pid,
                    "attrs": attrs,
                }
            )

    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def write(self, path, run_id: str | None):
        recorder = _obs.TraceRecorder()
        with self._lock:
            recorder.absorb(list(self._spans), dict(self._counters))
        return recorder.write(path, run_id=run_id)


class ReproServer:
    """One live daemon: dataset, queue, breakers, workers, HTTP front."""

    def __init__(
        self,
        dataset,
        fingerprint: str = "",
        config: ServeConfig | None = None,
        journal=None,
        reloader=None,
        main_at: float | None = None,
    ):
        self.dataset = dataset
        self.fingerprint = fingerprint
        self.config = config or ServeConfig()
        self.journal = journal
        #: zero-arg callable returning ``(dataset, fingerprint)``; when
        #: given, ``POST /admin/epoch`` reloads through it and — if the
        #: fingerprint changed — atomically advances the dataset epoch.
        self.reloader = reloader
        self._epoch = 0
        self._epochs_advanced = 0
        self.queue = AdmissionQueue(
            self.config.interactive_capacity, self.config.batch_capacity
        )
        self.breakers = BreakerBoard(
            self.config.breaker_threshold, self.config.breaker_cooldown_s
        )
        #: ``main_at``, the :func:`time.monotonic` reading taken as the
        #: entry point's ``main`` began, opens the trace with a
        #: ``process.start`` span (Linux only).
        self._trace = _ServeTrace(main_at) if self.config.trace else None
        self._lock = threading.Lock()
        # A lenient load that quarantined or degraded anything is not
        # content-addressable: its fingerprint names the *source*, not
        # the salvaged tables actually in memory, so its answers are
        # never cached (they still coalesce — determinism within one
        # live dataset copy holds).
        self._dirty_dataset = bool(getattr(dataset, "ingestion", None))
        self.cache: ResultCache | None = None
        if self.config.cache_enabled:
            self.cache = ResultCache(
                self.config.cache_max_bytes,
                directory=self.config.cache_dir,
                on_event=self._cache_event,
            )
        self._flights: dict[str, Ticket] = {}
        self._coalesced = 0
        self._batched = 0
        self._bypasses = 0
        self._outcome_counts: dict[str, int] = {}
        self._outstanding = 0
        self._request_seq = 0
        self._chaos_spec = ""
        self._draining = False
        self._drain_reason = ""
        self._killing_workers = False
        self._stop_requested = threading.Event()
        self._stop_dispatch = threading.Event()
        self._stopped = threading.Event()
        self._started_at = time.monotonic()
        self._slots: list[WorkerSlot] = []
        self._dispatchers: list[threading.Thread] = []
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def _journal_event(self, name: str, **fields) -> None:
        """Journal one event under :data:`FORK_LOCK`.

        Worker replacements fork from this multithreaded process; the
        lock keeps the journal's append from being mid-write — and its
        lock from being copied held — in the forked child.
        """
        if self.journal is None:
            return
        with FORK_LOCK:
            self.journal.append_event(name, **fields)

    def _cache_event(self, name: str, value: int = 1) -> None:
        if self._trace is not None:
            self._trace.incr(f"serve.cache.{name}", value)

    def start(self) -> tuple[str, int]:
        """Spawn workers + dispatchers, bind HTTP; returns (host, port).

        The first workers die when the calling thread exits (see
        :mod:`repro.util.workers`), so call this from a thread that
        outlives the server, such as the main thread.
        """
        self._started_at = time.monotonic()
        if self.cache is not None and self.cache.directory is not None:
            # Entries keyed by another fingerprint or toolkit version
            # are structurally unreachable; reclaim them now so the
            # disk tier only ever holds live answers.
            removed = self.cache.prune_mismatched(self.fingerprint, __version__)
            if removed:
                self._journal_event(
                    "cache-pruned",
                    removed=removed,
                    fingerprint=self.fingerprint,
                )
        for _ in range(self.config.workers):
            self._slots.append(WorkerSlot(self.dataset))
        for index, slot in enumerate(self._slots):
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(slot,),
                name=f"serve-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)
        self._httpd = _ServeHTTPServer(
            (self.config.host, self.config.port), _ServeHandler
        )
        self._httpd.repro = self
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        self._journal_event(
            "serve-listening",
            host=self.config.host,
            port=self.port,
            pid=os.getpid(),
            workers=self.config.workers,
        )
        return self.config.host, self.port

    @property
    def port(self) -> int:
        return self._httpd.server_port if self._httpd else self.config.port

    def request_stop(self, reason: str = "requested") -> None:
        """Begin a graceful drain; idempotent and signal-handler-safe.

        Admission flips to ``draining`` immediately; the thread inside
        :meth:`run_until_stopped` performs the actual drain.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self._drain_reason = reason
        self._stop_requested.set()

    def run_until_stopped(self) -> None:
        """Block until a stop is requested, then drain and shut down."""
        self._stop_requested.wait()
        self._shutdown()

    def drain_and_stop(self, reason: str = "requested") -> None:
        """Synchronous stop for tests: request + drain + shut down."""
        self.request_stop(reason)
        self.run_until_stopped()

    def _shutdown(self) -> None:
        if self._stopped.is_set():
            return
        reason = self._drain_reason or "requested"
        self._journal_event(
            "drain-start",
            reason=reason,
            outstanding=self._outstanding,
            drain_s=self.config.drain_s,
        )
        drain_deadline = Deadline.after(self.config.drain_s)
        while self._outstanding > 0 and not drain_deadline.expired:
            time.sleep(0.02)
        drained_in_time = self._outstanding == 0
        self.queue.close()
        # Whatever never reached a worker answers `draining` — typed,
        # accounted for, and honest about why.
        for ticket in self.queue.drain_remaining():
            self._complete(
                ticket,
                outcome="draining",
                message=f"server shut down before dispatch ({reason})",
                retry_after_s=None,
            )
        if self._outstanding > 0:
            # In-flight work blew the drain budget: kill the busy
            # workers so their dispatchers answer promptly.
            self._killing_workers = True
            for slot in self._slots:
                if slot.busy:
                    slot.kill()
        self._stop_dispatch.set()
        for thread in self._dispatchers:
            thread.join(timeout=SUPERVISOR_GRACE_S + 5.0)
        for slot in self._slots:
            slot.close()
        uptime = time.monotonic() - self._started_at
        if self.journal is not None:
            self._journal_event(
                "shutdown",
                reason=reason,
                drained_in_time=drained_in_time,
                uptime_s=round(uptime, 3),
                outcomes=self.outcome_counts(),
                workers_replaced=self.workers_replaced(),
                cache=self.cache_stats(),
            )
            with FORK_LOCK:
                self.journal.append_end("complete", uptime)
            if self._trace is not None:
                self._trace.incr(
                    "serve.workers.replaced", self.workers_replaced()
                )
                self._trace.write(
                    self.journal.directory / "trace.jsonl",
                    run_id=self.journal.run_id,
                )
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
        self._stopped.set()

    # -- chaos ---------------------------------------------------------

    def arm_chaos(self, spec: str) -> dict:
        """Arm (or, with an empty spec, clear) a process-fault plan.

        The spec is validated eagerly and snapshotted into every
        subsequently admitted request, so arming a live server affects
        exactly the requests admitted while it is armed.
        """
        spec = (spec or "").strip()
        if spec:
            ProcessFaultPlan.parse(spec)  # FaultError on a bad spec
        with self._lock:
            self._chaos_spec = spec
        self._journal_event(
            "chaos-armed" if spec else "chaos-cleared", spec=spec
        )
        return {"armed": bool(spec), "spec": spec}

    # -- request path --------------------------------------------------

    def handle_query(self, payload: dict) -> ServeResponse:
        """Admit, run, and answer one request; never raises."""
        arrived = time.monotonic()
        try:
            request = ServeRequest.parse(payload)
        except ProtocolError as error:
            response = ServeResponse(
                request_id=str(payload.get("request_id", ""))
                if isinstance(payload, dict)
                else "",
                outcome="invalid",
                message=str(error),
            )
            self._account(response, arrived, None)
            return response
        if not request.request_id:
            with self._lock:
                self._request_seq += 1
                seq = self._request_seq
            request = request.with_request_id(f"srv-{seq:06d}")
        if request.mode == "experiment":
            from repro.experiments import all_experiments

            if request.experiment not in all_experiments():
                response = ServeResponse(
                    request_id=request.request_id,
                    outcome="invalid",
                    message=f"unknown experiment {request.experiment!r}",
                )
                self._account(response, arrived, request)
                return response
        if self._draining:
            response = ServeResponse(
                request_id=request.request_id,
                outcome="draining",
                message="server is draining; not accepting new requests",
                retry_after_s=round(self.config.drain_s + 1.0, 3),
            )
            self._account(response, arrived, request)
            return response
        params = request.canonical_params()
        with self._lock:
            chaos_spec = self._chaos_spec
            epoch = self._epoch
        # Experiment and summary answers are deterministic functions of
        # the loaded dataset, so identical requests may share one
        # execution (coalesce) and — when the dataset is clean and
        # content-addressed — one cached answer.  Chaos-armed requests
        # must each reach a worker to experience their fault, so they
        # do neither.
        coalescable = (
            request.mode in ("experiment", "summary") and not chaos_spec
        )
        cacheable = (
            coalescable
            and self.cache is not None
            and not self._dirty_dataset
            and bool(self.fingerprint)
        )
        key = (
            result_key(self.fingerprint, params, __version__)
            if cacheable
            else ""
        )
        if cacheable:
            hit = self.cache.get(key)
            if hit is not None:
                entry, tier = hit
                response = ServeResponse(
                    request_id=request.request_id,
                    outcome=entry.outcome,
                    message=entry.message,
                    seconds=round(time.monotonic() - arrived, 6),
                    result=entry.result,
                    cache=f"hit_{tier}",
                    # The key embeds the fingerprint, so a hit is by
                    # construction an answer for the current epoch.
                    epoch=epoch,
                )
                self._account(response, arrived, request)
                return response
        elif request.mode in ("experiment", "summary"):
            with self._lock:
                self._bypasses += 1
            self._cache_event("bypass")
        deadline_ms = min(
            request.deadline_ms or self.config.default_deadline_ms,
            self.config.max_deadline_ms,
        )
        ticket = Ticket(
            request=request,
            deadline=Deadline.after(deadline_ms / 1000.0),
            chaos_spec=chaos_spec,
            cache_key=key,
            params=params,
            epoch=epoch,
        )
        if key:
            ticket.cache_status = "miss"
        elif request.mode in ("experiment", "summary"):
            ticket.cache_status = "bypass"
        leader: Ticket | None = None
        if coalescable:
            # Single-flight: the first request for a key leads; every
            # identical request admitted while it is in progress rides
            # along instead of dispatching its own worker job.
            # Cacheable flights key on the fingerprint (epoch-distinct
            # already); parameter-only flights must scope to the epoch
            # explicitly, or a request admitted after an advance could
            # ride a pre-advance execution and see the old dataset.
            flight_id = key or f"params:e{epoch}:{params!r}"
            with self._lock:
                leader = self._flights.get(flight_id)
                if leader is None:
                    ticket.flight_id = flight_id
                    self._flights[flight_id] = ticket
        if leader is not None:
            with self._lock:
                self._coalesced += 1
            self._cache_event("coalesced")
            if leader.attach_follower(ticket):
                return self._await_coalesced(ticket)
            # The leader completed while we were attaching; its fan-out
            # has already happened, so answer from its response.
            fanned = leader.response
            response = ServeResponse(
                request_id=request.request_id,
                outcome=fanned.outcome,
                message=fanned.message,
                seconds=round(time.monotonic() - arrived, 6),
                retry_after_s=fanned.retry_after_s,
                result=fanned.result,
                cache="coalesced",
                epoch=fanned.epoch,
            )
            self._account(response, arrived, request)
            return response
        if request.mode == "experiment":
            breaker = self.breakers.get(request.experiment)
            verdict = breaker.admit()
            if verdict == "open":
                self._complete(
                    ticket,
                    outcome="breaker_open",
                    message=(
                        f"circuit breaker for {request.experiment!r} is open"
                    ),
                    retry_after_s=breaker.retry_after_s(),
                )
                return ticket.response
            ticket.probe = verdict == "probe"
        admitted = self.queue.submit(ticket)
        if not admitted:
            # _complete releases a probe reservation and fans the shed
            # out to any follower that attached in the meantime.
            self._complete(
                ticket,
                outcome="shed",
                message=(
                    f"admission queue full ({request.priority} lane); "
                    "retry after the hinted delay"
                ),
                retry_after_s=self.queue.retry_after_s(self.config.workers),
            )
            return ticket.response
        with self._lock:
            self._outstanding += 1
            ticket.counted = True
        budget_s = deadline_ms / 1000.0 + SUPERVISOR_GRACE_S + 3.0
        if not ticket.done.wait(budget_s):
            # Belt-and-braces: a dispatcher should always answer first.
            self._complete(
                ticket,
                outcome="error",
                message="internal: dispatch never answered",
                retry_after_s=None,
            )
            ticket.done.wait(1.0)
        response = ticket.response
        if response is None:  # pragma: no cover - complete() always sets it
            response = ServeResponse(
                request_id=request.request_id,
                outcome="error",
                message="internal: request lost",
            )
        return response

    def _await_coalesced(self, ticket: Ticket) -> ServeResponse:
        """Wait out a follower: the leader's fan-out answers it, or its
        own deadline does — a coalesced waiter never outlives its
        deadline just because the shared flight is slow."""
        if not ticket.done.wait(ticket.deadline.remaining()):
            self._complete(
                ticket,
                outcome="deadline_exceeded",
                message=(
                    f"deadline ({ticket.deadline.budget:.3f}s) expired "
                    "while coalesced behind an identical in-flight request"
                ),
                retry_after_s=None,
                cache_status="coalesced",
            )
            ticket.done.wait(1.0)
        response = ticket.response
        if response is None:  # pragma: no cover - complete() always sets it
            response = ServeResponse(
                request_id=ticket.request.request_id,
                outcome="error",
                message="internal: coalesced request lost",
            )
        return response

    def _dispatch_loop(self, slot: WorkerSlot) -> None:
        # A worker this thread forks (a replacement or rebind) is
        # SIGKILLed by the kernel when the thread exits, so the thread
        # closes its slot on the way out rather than leave that to
        # the shutdown path.
        try:
            while True:
                ticket = self.queue.take(timeout=0.1)
                if ticket is None:
                    if self._stop_dispatch.is_set():
                        return
                    continue
                self._run_ticket(slot, ticket)
        finally:
            slot.close()

    def _foldable(self, ticket: Ticket) -> bool:
        """May ``ticket`` join a folded batch dispatch?

        Chaos-armed work must crash its own worker dispatch, a breaker
        probe must produce exactly one attributable verdict, sleeps
        would serialize the whole fold, and an expired ticket needs a
        ``deadline_exceeded`` answer, not an execution.
        """
        return (
            not ticket.probe
            and not ticket.chaos_spec
            and ticket.request.mode in ("experiment", "summary", "ping")
            and not ticket.deadline.expired
        )

    def _job_for(self, ticket: Ticket) -> dict:
        request = ticket.request
        return {
            "request_id": request.request_id,
            "mode": request.mode,
            "experiment": request.experiment,
            "seconds": request.seconds,
            "deadline_s": ticket.deadline.remaining(),
            "chaos_spec": ticket.chaos_spec,
            "attempt": 1,
        }

    def _run_ticket(self, slot: WorkerSlot, ticket: Ticket) -> None:
        if ticket.deadline.expired:
            self._complete(
                ticket,
                outcome="deadline_exceeded",
                message=(
                    f"deadline ({ticket.deadline.budget:.3f}s) expired "
                    "while queued"
                ),
                retry_after_s=None,
            )
            return
        if (
            ticket.request.priority == "batch"
            and self.config.batch_max > 1
            and self._foldable(ticket)
        ):
            extras = self.queue.take_compatible_batch(
                self.config.batch_max - 1, self._foldable
            )
            if extras:
                self._run_folded(slot, [ticket] + extras)
                return
        self._ensure_epoch(slot)
        queue_seconds = time.monotonic() - ticket.enqueued_at
        job = self._job_for(ticket)
        verdict = slot.run(job, job["deadline_s"])
        self._settle_verdict(ticket, verdict, queue_seconds, epoch=slot.epoch)

    def _run_folded(self, slot: WorkerSlot, members: list[Ticket]) -> None:
        """One worker round-trip for several compatible batch requests.

        The dispatch/IPC cost is paid once; each member keeps its own
        deadline (the worker charges earlier members' runtime against
        later budgets) and its own typed outcome, breaker vote, and
        cache entry.
        """
        self._ensure_epoch(slot)
        dispatched_at = time.monotonic()
        jobs = [self._job_for(ticket) for ticket in members]
        job = {
            "mode": "batch",
            "request_id": members[0].request.request_id,
            "jobs": jobs,
        }
        with self._lock:
            self._batched += len(members)
        self._cache_event("batched", len(members))
        # Worst case every member uses its full remaining budget, one
        # after the other; the in-worker SIGALRMs keep it far smaller.
        budget = sum(sub["deadline_s"] for sub in jobs)
        verdict = slot.run(job, budget)
        results = (verdict.payload or {}).get("results") or []
        for index, ticket in enumerate(members):
            queue_seconds = dispatched_at - ticket.enqueued_at
            if verdict.kind != "done":
                self._settle_verdict(
                    ticket, verdict, queue_seconds, epoch=slot.epoch
                )
                continue
            sub = results[index] if index < len(results) else None
            if not isinstance(sub, dict):
                sub_verdict = WorkerVerdict(
                    "done",
                    {
                        "outcome": "error",
                        "message": "internal: batch result misaligned",
                    },
                )
            else:
                sub_verdict = WorkerVerdict("done", sub)
            self._settle_verdict(
                ticket, sub_verdict, queue_seconds, epoch=slot.epoch
            )

    def _ensure_epoch(self, slot: WorkerSlot) -> None:
        """Rebind an idle slot to the current epoch before dispatch.

        Lazy per-dispatcher: an advance never stops the world — each
        slot picks up the new dataset on its next job, and the epoch it
        actually executed under travels with the verdict.
        """
        with self._lock:
            dataset, epoch = self.dataset, self._epoch
        if slot.epoch != epoch:
            slot.rebind(dataset, epoch)
            self._journal_event("worker-rebound", epoch=epoch)
            if self._trace is not None:
                self._trace.incr("serve.workers.rebound")

    def _settle_verdict(
        self,
        ticket: Ticket,
        verdict: WorkerVerdict,
        queue_seconds: float,
        epoch: int | None = None,
    ) -> None:
        request = ticket.request
        if verdict.kind == "done":
            payload = verdict.payload or {}
            outcome = payload.get("outcome", "error")
            message = payload.get("message", "")
            result = payload.get("result")
            self.queue.record_service(float(payload.get("seconds", 0.0)))
        elif verdict.kind == "stalled":
            outcome = "deadline_exceeded"
            message = (
                "worker exceeded the deadline and was killed "
                f"(budget {ticket.deadline.budget:.3f}s + grace)"
            )
            result = None
        else:  # crashed
            if self._killing_workers:
                outcome, message = "draining", (
                    "in-flight work killed at the drain deadline"
                )
            else:
                outcome = "error"
                message = "worker process died mid-request; replaced"
            result = None
        if request.mode == "experiment" and (
            not ticket.probe or ticket.settle_probe()
        ):
            # A probe that lost the settle race (the dispatch backstop
            # already cancelled it) must not vote twice.
            self.breakers.get(request.experiment).record(
                success=outcome in ("ok", "skipped"), probe=ticket.probe
            )
        self._complete(
            ticket,
            outcome=outcome,
            message=message,
            retry_after_s=None,
            result=result,
            queue_seconds=queue_seconds,
            epoch=epoch,
        )

    def _complete(
        self,
        ticket: Ticket,
        *,
        outcome: str,
        message: str,
        retry_after_s: float | None,
        result: dict | None = None,
        queue_seconds: float | None = None,
        cache_status: str | None = None,
        epoch: int | None = None,
    ) -> None:
        now = time.monotonic()
        request = ticket.request
        breaker_state = None
        if request.mode == "experiment":
            breaker = self.breakers.get(request.experiment)
            if ticket.probe and ticket.settle_probe():
                # The probe never produced a verdict (deadline expired
                # while queued, drain path, or the dispatch backstop):
                # release the half-open slot, or the breaker would
                # answer breaker_open forever.
                breaker.cancel_probe()
            breaker_state = breaker.snapshot()
        if queue_seconds is None:
            # Never dispatched: the whole wait was queue time.
            queue_seconds = now - ticket.enqueued_at
        if cache_status is None:
            cache_status = ticket.cache_status
        if epoch is None:
            # Refusals and cache hits never reached a worker: they are
            # answered under the epoch the ticket was admitted in.
            epoch = ticket.epoch
        response = ServeResponse(
            request_id=request.request_id,
            outcome=outcome,
            message=message,
            seconds=round(now - ticket.enqueued_at, 6),
            queue_seconds=round(max(queue_seconds, 0.0), 6),
            retry_after_s=retry_after_s,
            breaker=breaker_state,
            result=result,
            cache=cache_status,
            epoch=epoch,
        )
        if (
            ticket.cache_key
            and self.cache is not None
            and outcome in CACHEABLE_OUTCOMES
            and epoch == ticket.epoch
            and not ticket.completed
        ):
            # The epoch guard blocks a poisoned store: a ticket admitted
            # before an advance but executed after it would otherwise
            # write a new-epoch answer under the *old* fingerprint's key.
            # Store before waking the waiter (read-your-writes: once a
            # client holds an answer, the cache verifiably holds it
            # too — even across a daemon restart) and before
            # unregistering the flight, so there is no window where an
            # identical request neither hits the cache nor finds a
            # leader to coalesce behind.
            self.cache.put(
                ticket.cache_key,
                outcome=outcome,
                message=message,
                result=result,
                fingerprint=self.fingerprint,
                toolkit_version=__version__,
                params=ticket.params,
            )
        if ticket.complete(response):
            if ticket.flight_id:
                with self._lock:
                    if self._flights.get(ticket.flight_id) is ticket:
                        del self._flights[ticket.flight_id]
            if ticket.counted:
                with self._lock:
                    self._outstanding -= 1
            self._account(response, ticket.enqueued_at, request)
            # Fan the leader's answer out to every coalesced follower.
            # Followers never lead flights, hold cache keys, or count
            # against the outstanding gauge, so this recursion is one
            # level deep and side-effect-free beyond answering them.
            for follower in ticket.take_followers():
                self._complete(
                    follower,
                    outcome=outcome,
                    message=message,
                    retry_after_s=retry_after_s,
                    result=result,
                    cache_status="coalesced",
                    epoch=epoch,
                )

    def _account(
        self,
        response: ServeResponse,
        started_monotonic: float,
        request: ServeRequest | None,
    ) -> None:
        with self._lock:
            self._outcome_counts[response.outcome] = (
                self._outcome_counts.get(response.outcome, 0) + 1
            )
        if self._trace is not None:
            attrs = {
                "request_id": response.request_id,
                "outcome": response.outcome,
            }
            if response.cache is not None:
                attrs["cache"] = response.cache
            if request is not None:
                attrs["mode"] = request.mode
                attrs["priority"] = request.priority
                if request.experiment:
                    attrs["experiment"] = request.experiment
            self._trace.record_span(
                "serve.request",
                started_monotonic,
                time.monotonic() - started_monotonic,
                **attrs,
            )
            self._trace.incr("serve.requests.total")
            self._trace.incr(f"serve.outcome.{response.outcome}")

    # -- introspection -------------------------------------------------

    def outcome_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._outcome_counts.items()))

    def cache_stats(self) -> dict:
        """Result-cache and coalescing counters for /healthz and /admin.

        Always present — even with the cache disabled — so monitoring
        and the replay harness can assert its shape unconditionally.
        """
        if self.cache is not None:
            stats = self.cache.stats()
        else:
            stats = {
                "hits_memory": 0,
                "hits_disk": 0,
                "misses": 0,
                "stores": 0,
                "evictions": 0,
                "hits": 0,
                "hit_ratio": 0.0,
                "memory": {"entries": 0, "bytes": 0, "max_bytes": 0},
                "disk": {"dir": None, "entries": None},
            }
        with self._lock:
            stats["coalesced"] = self._coalesced
            stats["batched"] = self._batched
            stats["bypasses"] = self._bypasses
        stats["enabled"] = self.cache is not None
        stats["dirty_bypass"] = self._dirty_dataset
        return stats

    def flush_cache(self) -> dict:
        """Drop both cache tiers (``POST /admin/cache``); journaled."""
        if self.cache is None:
            return {"enabled": False, "flushed": {"memory": 0, "disk": 0}}
        flushed = self.cache.flush()
        self._journal_event("cache-flush", **flushed)
        return {"enabled": True, "flushed": flushed}

    def workers_replaced(self) -> int:
        return sum(slot.replacements for slot in self._slots)

    def advance_epoch(self) -> dict:
        """Reload the dataset and — if it changed — swap epochs live.

        ``POST /admin/epoch`` lands here, typically fired by
        ``repro-tail --notify-serve`` after a checkpointed batch of
        streamed rows.  The swap is atomic under the server lock:
        requests admitted afterwards see the new dataset/fingerprint/
        epoch triple together, while in-flight work finishes on
        whatever epoch its worker was forked against (and is refused a
        cache store if the two disagree).  Workers rebind lazily, one
        per dispatcher, on their next dispatch — an advance never
        stops the world.  Idempotent: an unchanged fingerprint is a
        cheap no-op.
        """
        if self.reloader is None:
            return {
                "advanced": False,
                "reason": "no reloader configured",
                "epoch": self._epoch,
            }
        if self._draining:
            return {
                "advanced": False,
                "reason": "draining",
                "epoch": self._epoch,
            }
        try:
            dataset, fingerprint = self.reloader()
        except Exception as error:  # noqa: BLE001 - keep serving old epoch
            return {
                "advanced": False,
                "reason": f"reload failed: {error!r}",
                "epoch": self._epoch,
            }
        with self._lock:
            if fingerprint == self.fingerprint:
                return {
                    "advanced": False,
                    "reason": "fingerprint unchanged",
                    "epoch": self._epoch,
                    "fingerprint": fingerprint,
                }
            self.dataset = dataset
            self.fingerprint = fingerprint
            self._dirty_dataset = bool(getattr(dataset, "ingestion", None))
            self._epoch += 1
            self._epochs_advanced += 1
            epoch = self._epoch
        invalidated = 0
        if self.cache is not None:
            # Old-epoch entries are already unreachable (keys embed the
            # fingerprint); reclaim their budget in both tiers so the
            # new epoch starts with the whole cache to itself.
            invalidated = self.cache.prune_memory_mismatched(fingerprint)
            if self.cache.directory is not None:
                invalidated += self.cache.prune_mismatched(
                    fingerprint, __version__
                )
        self._journal_event(
            "epoch-advance",
            epoch=epoch,
            fingerprint=fingerprint,
            invalidated=invalidated,
        )
        if self._trace is not None:
            self._trace.incr("serve.epochs.advanced")
        return {
            "advanced": True,
            "epoch": epoch,
            "fingerprint": fingerprint,
            "invalidated": invalidated,
        }

    def healthz(self) -> dict:
        summary = {}
        try:
            summary = {
                "n_jobs": self.dataset.jobs.n_rows,
                "n_ras_events": self.dataset.ras.n_rows,
                # Arena-backed tables mean workers attach the shared
                # memory map instead of holding private copies.
                "mode": (
                    "mmap" if self.dataset.jobs._arena is not None else "ram"
                ),
            }
        except Exception:  # noqa: BLE001 - health must never raise
            pass
        alive = sum(1 for slot in self._slots if slot.alive)
        with self._lock:
            chaos = self._chaos_spec
            outstanding = self._outstanding
            epoch = self._epoch
            epochs_advanced = self._epochs_advanced
        return {
            "status": "draining" if self._draining else "ok",
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "draining": self._draining,
            "dataset": {
                "fingerprint": self.fingerprint,
                "epoch": epoch,
                "epochs_advanced": epochs_advanced,
                **summary,
            },
            "queue": {**self.queue.depths(), "outstanding": outstanding},
            "workers": {
                "slots": len(self._slots),
                "alive": alive,
                "replaced": self.workers_replaced(),
                "rebound": sum(slot.rebinds for slot in self._slots),
            },
            "breakers": self.breakers.snapshot(),
            "requests": self.outcome_counts(),
            "cache": self.cache_stats(),
            "chaos": chaos,
        }

    def readyz(self) -> tuple[bool, dict]:
        alive = sum(1 for slot in self._slots if slot.alive)
        if self._draining:
            return False, {"ready": False, "reason": "draining"}
        if alive == 0:
            return False, {"ready": False, "reason": "no live workers"}
        return True, {"ready": True, "workers_alive": alive}


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    repro: ReproServer  # attached right after construction


class _ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection.  A response goes out as
    # headers then body; with Nagle on, a keep-alive client's delayed
    # ACK holds the body back ~40 ms, far longer than the query takes.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the journal and trace are the record, not stderr

    def _send_json(
        self, status: int, payload: dict, retry_after_s: float | None = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After", f"{retry_after_s:g}")
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up; the outcome is already accounted

    def _read_json(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None
        if length <= 0:
            return None
        try:
            raw = self.rfile.read(length)
            parsed = json.loads(raw)
        except (OSError, ValueError):
            return None
        return parsed if isinstance(parsed, dict) else None

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        server = self.server.repro
        if self.path == "/healthz":
            self._send_json(200, server.healthz())
        elif self.path == "/readyz":
            ready, payload = server.readyz()
            self._send_json(200 if ready else 503, payload)
        elif self.path == "/admin/cache":
            self._send_json(200, server.cache_stats())
        else:
            self._send_json(404, {"error": f"no such path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        server = self.server.repro
        if self.path == "/query":
            payload = self._read_json()
            if payload is None:
                response = ServeResponse(
                    request_id="",
                    outcome="invalid",
                    message="body must be a JSON object",
                )
            else:
                response = server.handle_query(payload)
            self._send_json(
                response.http_status,
                response.to_json(),
                retry_after_s=response.retry_after_s,
            )
        elif self.path == "/admin/chaos":
            payload = self._read_json() or {}
            try:
                result = server.arm_chaos(str(payload.get("spec", "")))
            except FaultError as error:
                self._send_json(400, {"error": str(error)})
                return
            self._send_json(200, result)
        elif self.path == "/admin/cache":
            # Any POST body flushes; {"flush": true} is the idiom.
            flushed = server.flush_cache()
            self._send_json(200, {**flushed, "stats": server.cache_stats()})
        elif self.path == "/admin/epoch":
            self._send_json(200, server.advance_epoch())
        elif self.path == "/admin/drain":
            server.request_stop("admin-drain")
            self._send_json(
                200, {"draining": True, "drain_s": server.config.drain_s}
            )
        else:
            self._send_json(404, {"error": f"no such path {self.path!r}"})
