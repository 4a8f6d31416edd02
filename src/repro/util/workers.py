"""Supervised worker processes: the toolkit's one worker supervisor.

Every worker process the toolkit starts is a :class:`WorkerSlot`: the
experiment workers of ``repro-report --jobs N`` and the query workers
of ``repro-serve`` alike.  A slot owns one forked process and one
pipe.  The supervisor sends a job down the pipe, the worker runs it
through the *handler* the slot was built with and sends the answer
back, and the supervisor turns what it sees into a typed
:class:`WorkerVerdict`:

- ``done`` — the answer arrived;
- ``crashed`` — the pipe hit EOF, so the worker died mid-job;
- ``stalled`` — no answer within the job's budget plus
  :data:`SUPERVISOR_GRACE_S`, e.g. a hang that blocks the worker's own
  ``SIGALRM`` deadline.  The worker is SIGKILLed.

After a crash or a stall the slot has already forked a fresh worker,
so a poisoned job costs exactly one process and the slot serves on.
:meth:`WorkerSlot.submit` and :meth:`WorkerSlot.collect` split one
round-trip so a single thread can supervise many slots with
:func:`multiprocessing.connection.wait`; :meth:`WorkerSlot.run` is the
two back to back.

**Dataset sharing.**  Workers use the ``fork`` start method, so each
inherits the supervisor's loaded dataset copy-on-write and the dataset
never crosses a pickle boundary on the way in.  An arena-backed
(``--mode mmap``) dataset is a read-only memory map that every worker,
forked or replaced, shares page for page.

**Parent death.**  No worker outlives its supervisor, whatever signal
killed it.  A worker may still hold the supervisor's end of some pipe
(every fork copies the open descriptors), so the EOF a worker could
wait for may never come.  Instead, right after the fork the child arms
``prctl(PR_SET_PDEATHSIG, SIGKILL)`` on Linux and then re-checks
``os.getppid()`` against the supervisor's pid, which closes the race
of a parent that died before the ``prctl``.  The idle loop polls the
pipe once a second and repeats the ``getppid()`` check, which works on
every POSIX host.  Note that Linux sends the death signal when the
*thread* that forked the worker exits, not the whole process: a slot
must be closed before the thread that spawned (or replaced) its worker
returns.

**Fork-from-threads hazard.**  A worker forked from a multithreaded
process (a ``repro-serve`` replacement) inherits every lock another
thread held at that moment, held, and can deadlock on it (CPython 3.12+
also warns about this pattern).  Two mitigations keep the window
closed in practice:

- :data:`FORK_LOCK` serialises every fork against the serve daemon's
  journal and trace writes (the server takes the same lock around
  them), so the child can never inherit those locks held;
- :func:`_preload_worker_modules` imports everything the handlers need
  *before* the fork, so the child never enters the import machinery —
  whose per-module locks a concurrently-importing thread could hold —
  for anything but ``sys.modules`` cache hits.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["FORK_LOCK", "SUPERVISOR_GRACE_S", "WorkerSlot", "WorkerVerdict"]

#: Extra seconds the supervisor waits beyond a job's budget before
#: declaring the worker wedged and killing it.
SUPERVISOR_GRACE_S = 2.0

#: Held across every worker fork, and by the serve daemon around its
#: journal and trace writes, so a worker forked from a multithreaded
#: process can never inherit one of those locks in the held state.
FORK_LOCK = threading.Lock()

#: ``<linux/prctl.h>``: deliver a signal when the forking thread exits.
_PR_SET_PDEATHSIG = 1

#: Seconds an idle worker waits on its pipe between parent checks.
_IDLE_POLL_S = 1.0


def _preload_worker_modules() -> None:
    """Import everything the worker handlers lazily import, pre-fork.

    Runs in the *parent* before each fork so the child's imports are
    pure ``sys.modules`` cache hits and never contend on import locks
    a handler thread may hold at fork time.
    """
    import repro.experiments  # noqa: F401
    import repro.experiments.journal  # noqa: F401
    import repro.faults.plan  # noqa: F401


@dataclass(frozen=True)
class WorkerVerdict:
    """How one dispatched job ended, as seen by the supervisor.

    ``kind`` is ``"done"`` (``payload`` holds the handler's answer),
    ``"crashed"`` (the worker died mid-job), or ``"stalled"`` (it
    exceeded budget + grace and was killed).  For the latter two the
    worker has already been replaced by the time the verdict is
    returned.
    """

    kind: str
    payload: Any = None


def _die_with_parent() -> None:
    """Have Linux SIGKILL this process when its forking thread exits."""
    if not sys.platform.startswith("linux"):
        return
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def _worker_main(conn, handler, dataset, parent_pid: int) -> None:
    """Worker process body: answer jobs until told to stop or orphaned."""
    _die_with_parent()
    # A terminal's Ctrl-C reaches the whole process group; the
    # supervisor alone decides when its workers stop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while os.getppid() == parent_pid:
        try:
            if not conn.poll(_IDLE_POLL_S):
                continue
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        try:
            conn.send(handler(job, dataset))
        except (BrokenPipeError, OSError):
            return


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    # fork shares the loaded dataset copy-on-write — one hot copy for
    # every worker, exactly the "hold the dataset hot" design goal.
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerSlot:
    """One supervised worker process, auto-replaced on crash or stall.

    ``handler(job, dataset)`` runs in the worker for every submitted
    job; its return value is the ``done`` verdict's payload.
    """

    def __init__(
        self,
        dataset,
        handler: Callable[[Any, Any], Any],
        epoch: int = 0,
    ):
        self._dataset = dataset
        self._handler = handler
        self._ctx = _pick_context()
        self.replacements = 0
        #: dataset epoch this slot's worker was forked against; the
        #: serve dispatcher rebinds lazily when the server advances.
        self.epoch = epoch
        self.rebinds = 0
        self.busy = False
        self._submitted_at = 0.0  # time.monotonic() of the last submit
        # Guards the (_process, _conn) pair: kill() may race _replace()
        # (drain-deadline kill vs. the dispatcher's crash recovery),
        # and each must atomically take or install the pair so a kill
        # can never dismantle a replacement it did not target.
        self._state_lock = threading.Lock()
        self._process = None
        self._conn = None
        # The pipe the in-flight job was sent on (None: the send failed).
        self._pending = None
        self._spawn()

    def _spawn(self) -> None:
        _preload_worker_modules()
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._handler, self._dataset, os.getpid()),
            daemon=True,
        )
        with FORK_LOCK:
            process.start()
            # Close the child's end before any other fork can copy it,
            # so the worker's death reaches the supervisor as EOF.
            child_conn.close()
        with self._state_lock:
            self._process, self._conn = process, parent_conn

    def _replace(self) -> None:
        self.kill()
        self.replacements += 1
        self._spawn()

    def rebind(self, dataset, epoch: int) -> None:
        """Swap to a new dataset epoch: fork a fresh worker against it.

        Called only by the slot's own dispatcher while the slot is
        idle, so no in-flight job is lost.  Counted separately from
        crash ``replacements`` — a rebind is planned, not a failure.
        """
        self._dataset = dataset
        self.epoch = epoch
        self.kill()
        self.rebinds += 1
        self._spawn()

    @property
    def alive(self) -> bool:
        process = self._process  # snapshot: kill() nulls it concurrently
        return process is not None and process.is_alive()

    @property
    def connection(self):
        """The pipe the in-flight job's answer arrives on, or ``None``
        when the send already failed (:meth:`collect` returns at once)."""
        return self._pending

    def submit(self, job) -> None:
        """Send ``job`` to the worker; :meth:`collect` supervises it."""
        self.busy = True
        self._submitted_at = time.monotonic()
        # Snapshot the pipe once: a concurrent kill() (the drain
        # deadline killing busy workers) nulls self._conn, and the
        # snapshot keeps that from surfacing as an AttributeError
        # mid-poll — the closed pipe raises OSError instead, which
        # lands in the ordinary crash path of collect().
        conn = self._conn
        if conn is not None:
            try:
                conn.send(job)
            except (BrokenPipeError, OSError):
                conn = None
        self._pending = conn

    def stall_at(self, budget_s: float | None) -> float | None:
        """When :meth:`collect` with ``budget_s`` gives up on the
        submitted job (``time.monotonic()``; ``None``: never)."""
        if budget_s is None:
            return None
        return self._submitted_at + max(budget_s, 0.0) + SUPERVISOR_GRACE_S

    def collect(self, budget_s: float | None) -> WorkerVerdict:
        """Wait for the submitted job until :meth:`stall_at`.

        Exactly one of the three verdict kinds comes back, and the
        slot holds a live, idle worker afterwards.
        """
        conn, self._pending = self._pending, None
        try:
            if conn is None:
                self._replace()
                return WorkerVerdict("crashed")
            stall_at = self.stall_at(budget_s)
            wait_s = None
            if stall_at is not None:
                wait_s = max(stall_at - time.monotonic(), 0.0)
            try:
                if not conn.poll(wait_s):
                    self._replace()
                    return WorkerVerdict("stalled")
                payload = conn.recv()
            except (EOFError, OSError):
                self._replace()
                return WorkerVerdict("crashed")
            return WorkerVerdict("done", payload)
        finally:
            self.busy = False

    def run(self, job, budget_s: float | None) -> WorkerVerdict:
        """Dispatch ``job`` and supervise it for ``budget_s`` + grace."""
        self.submit(job)
        return self.collect(budget_s)

    def kill(self) -> None:
        """Forcibly end the worker process and close its pipe.

        Takes ownership of the (process, pipe) pair atomically, so a
        concurrent :meth:`_replace` installing a fresh worker is never
        half-dismantled — whichever caller pops the pair dismantles
        exactly that worker and nothing newer.
        """
        with self._state_lock:
            process, conn = self._process, self._conn
            self._process, self._conn = None, None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def close(self, timeout: float = 1.0) -> None:
        """Ask the worker to exit; escalate to kill after ``timeout``."""
        with self._state_lock:
            process, conn = self._process, self._conn
        if conn is not None:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if process is not None:
            process.join(timeout=timeout)
        self.kill()
