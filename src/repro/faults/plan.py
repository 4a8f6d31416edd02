"""Composable, seeded fault plans — on-disk and process-level.

A :class:`FaultPlan` names an ordered set of faults, a seed, and a
corruption rate; :meth:`FaultPlan.inject` applies them to a dataset
directory in order, threading one seeded RNG through all injectors so
the same plan always produces the same corruption.  That determinism is
what makes chaos drills assertable: a test can corrupt a dataset, run
the lenient pipeline, and check exact quarantine counts.

A :class:`ProcessFaultPlan` is its runtime sibling: instead of
corrupting files it deterministically kills, hangs, or slows the
process running a named experiment, so every supervision path in
:mod:`repro.experiments.engine` (worker-death re-dispatch, in-worker
timeout, supervisor stall recovery) is drivable from a test or from
the ``repro-chaos`` CLI.  Plans travel through the
``REPRO_PROCESS_FAULTS`` environment variable, which forked workers
inherit, encoded as semicolon-separated clauses::

    kill_worker:e03        # SIGKILL the process running e03 (attempt 1)
    kill_worker:e03:2      # kill attempts 1 and 2; attempt 3 survives
    hang:e05:60            # wedge e05 for 60s, immune to SIGALRM
    slow:e07:0.5           # sleep 0.5s before e07 runs
    kill_worker:input-google   # SIGKILL the suite input job for google
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.errors import FaultError

from .injectors import (
    ALL_FAULTS,
    FAULT_INJECTORS,
    PROCESS_FAULTS,
    FaultRecord,
    hang_action,
    kill_worker_action,
    slow_action,
)

__all__ = [
    "FaultPlan",
    "inject_faults",
    "ProcessFaultPlan",
    "PROCESS_FAULT_ENV",
    "active_process_plan",
    "apply_process_faults",
    "process_faults",
]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded, rate-controlled set of faults to inject.

    Parameters
    ----------
    faults:
        Fault names from :data:`~repro.faults.injectors.FAULT_INJECTORS`,
        applied in the given order.
    seed:
        RNG seed; identical plans corrupt identically.
    rate:
        Fraction of data rows each row-level fault touches (at least
        one row per fault).
    """

    faults: tuple[str, ...] = ALL_FAULTS
    seed: int = 0
    rate: float = 0.02

    def __post_init__(self):
        unknown = [name for name in self.faults if name not in FAULT_INJECTORS]
        if unknown:
            raise FaultError(
                f"unknown fault(s) {unknown}; known: {sorted(FAULT_INJECTORS)}"
            )
        if not self.faults:
            raise FaultError("fault plan is empty")
        if not 0.0 < self.rate <= 1.0:
            raise FaultError(f"rate {self.rate} outside (0, 1]")

    def inject(self, directory: str | Path) -> list[FaultRecord]:
        """Corrupt ``directory`` in place; returns one record per fault.

        Raises
        ------
        FaultError
            When the directory does not exist or holds no log files.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise FaultError(f"{directory}: not a dataset directory")
        if not any(directory.glob("*.csv")):
            raise FaultError(f"{directory}: no log files to corrupt")
        rng = np.random.default_rng(self.seed)
        return [
            FAULT_INJECTORS[name](directory, rng, self.rate)
            for name in self.faults
        ]


def inject_faults(
    directory: str | Path,
    faults: tuple[str, ...] | list[str] | None = None,
    seed: int = 0,
    rate: float = 0.02,
) -> list[FaultRecord]:
    """One-call convenience wrapper around :class:`FaultPlan`."""
    plan = FaultPlan(
        faults=tuple(faults) if faults else ALL_FAULTS, seed=seed, rate=rate
    )
    return plan.inject(directory)


# ----------------------------------------------------------------------
# process-level plans
# ----------------------------------------------------------------------

PROCESS_FAULT_ENV = "REPRO_PROCESS_FAULTS"
"""Environment variable carrying the active process-fault spec into
the experiment engine and its workers."""

_DEFAULT_HANG_SECONDS = 3600.0
_DEFAULT_SLOW_SECONDS = 1.0


@dataclass(frozen=True)
class ProcessFaultPlan:
    """Deterministic process-level faults, keyed by experiment ID.

    Parameters
    ----------
    kills:
        Experiment ID → number of leading attempts to SIGKILL.  The
        process running attempt ``n`` of that experiment dies iff
        ``n <= kills[id]``, so a plan with ``{"e03": 1}`` kills the
        first dispatch and lets the retry succeed.
    hangs:
        Experiment ID → seconds to wedge with ``SIGALRM`` blocked
        (immune to the in-worker timeout; drives the supervisor's
        stall detector).
    slows:
        Experiment ID → seconds to sleep, interruptibly, before the
        experiment runs (drives the in-worker timeout when it exceeds
        the configured budget).
    """

    kills: Mapping[str, int] = field(default_factory=dict)
    hangs: Mapping[str, float] = field(default_factory=dict)
    slows: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: str) -> "ProcessFaultPlan":
        """Parse a ``kind:experiment[:amount]`` clause list (``;``-joined).

        Raises
        ------
        FaultError
            On an unknown fault kind or a malformed clause.
        """
        kills: dict[str, int] = {}
        hangs: dict[str, float] = {}
        slows: dict[str, float] = {}
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            parts = clause.split(":")
            if len(parts) not in (2, 3) or not parts[1]:
                raise FaultError(
                    f"malformed process-fault clause {clause!r}; "
                    "expected kind:experiment[:amount]"
                )
            kind, experiment_id = parts[0], parts[1]
            if kind not in PROCESS_FAULTS:
                raise FaultError(
                    f"unknown process fault {kind!r}; known: {list(PROCESS_FAULTS)}"
                )
            amount = parts[2] if len(parts) == 3 else None
            try:
                if kind == "kill_worker":
                    kills[experiment_id] = int(amount) if amount else 1
                elif kind == "hang":
                    hangs[experiment_id] = (
                        float(amount) if amount else _DEFAULT_HANG_SECONDS
                    )
                else:
                    slows[experiment_id] = (
                        float(amount) if amount else _DEFAULT_SLOW_SECONDS
                    )
            except ValueError as error:
                raise FaultError(
                    f"bad amount in process-fault clause {clause!r}: {error}"
                ) from None
        if not (kills or hangs or slows):
            raise FaultError("process-fault spec is empty")
        return cls(kills=kills, hangs=hangs, slows=slows)

    def spec(self) -> str:
        """Canonical spec string; ``parse(plan.spec()) == plan``."""
        clauses = [f"kill_worker:{eid}:{n}" for eid, n in sorted(self.kills.items())]
        clauses += [f"hang:{eid}:{s:g}" for eid, s in sorted(self.hangs.items())]
        clauses += [f"slow:{eid}:{s:g}" for eid, s in sorted(self.slows.items())]
        return ";".join(clauses)

    def apply(self, experiment_id: str, attempt: int = 1) -> None:
        """Fire any faults armed for ``experiment_id`` on this ``attempt``.

        Called by the engine inside the worker immediately before the
        experiment body runs.
        """
        if self.kills.get(experiment_id, 0) >= attempt:
            kill_worker_action()
        if experiment_id in self.hangs:
            hang_action(self.hangs[experiment_id])
        if experiment_id in self.slows:
            slow_action(self.slows[experiment_id])


def active_process_plan() -> ProcessFaultPlan | None:
    """The plan armed via ``REPRO_PROCESS_FAULTS``, or ``None``.

    Raises
    ------
    FaultError
        When the variable is set but unparseable — a misspelled drill
        must fail loudly, not silently run fault-free.
    """
    spec = os.environ.get(PROCESS_FAULT_ENV, "").strip()
    if not spec:
        return None
    return ProcessFaultPlan.parse(spec)


def apply_process_faults(experiment_id: str, attempt: int = 1) -> None:
    """Engine hook: fire the environment-armed faults, if any."""
    plan = active_process_plan()
    if plan is not None:
        plan.apply(experiment_id, attempt)


@contextmanager
def process_faults(spec: str) -> Iterator[ProcessFaultPlan]:
    """Arm a process-fault spec for the duration of a ``with`` block.

    Validates the spec eagerly, exports it through
    ``REPRO_PROCESS_FAULTS`` (so freshly forked workers inherit
    it), and restores the previous value on exit.
    """
    plan = ProcessFaultPlan.parse(spec)
    previous = os.environ.get(PROCESS_FAULT_ENV)
    os.environ[PROCESS_FAULT_ENV] = plan.spec()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(PROCESS_FAULT_ENV, None)
        else:
            os.environ[PROCESS_FAULT_ENV] = previous
