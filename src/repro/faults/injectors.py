"""Deterministic on-disk fault injectors.

Each injector corrupts one aspect of a saved dataset directory the way
2001 days of production logging corrupts real traces: truncated and
garbled CSV lines, out-of-domain severities and message IDs, unsorted
and negative timestamps, duplicated records, and whole-source dropout.
Injectors draw from a caller-supplied :class:`numpy.random.Generator`,
so a :class:`~repro.faults.plan.FaultPlan` replays the exact same
corruption for the same seed — every drill is reproducible in tests.

An injector takes ``(directory, rng, rate)`` and returns a
:class:`FaultRecord` describing what it touched; a missing target file
yields a zero-row record instead of an error so plans compose with the
dropout faults in any order.
"""

from __future__ import annotations

import csv
import io
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "FaultRecord",
    "FAULT_INJECTORS",
    "ALL_FAULTS",
    "PROCESS_FAULTS",
    "kill_worker_action",
    "hang_action",
    "slow_action",
]

_GARBAGE_ALPHABET = list("#@!%&*~?^|;$ ")
_UNKNOWN_SEVERITY = "CATASTROPHIC"
_UNKNOWN_MSG_ID = "FFFFFFFF"  # valid 8-hex shape, absent from every catalog


@dataclass(frozen=True)
class FaultRecord:
    """What one injector did: which file, how many rows, any detail."""

    fault: str
    path: str
    n_rows: int
    detail: str = ""


def _read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _sample_rows(rng: np.random.Generator, n_rows: int, rate: float) -> np.ndarray:
    """Pick ``max(1, rate*n)`` distinct data-row indices, sorted."""
    if n_rows == 0:
        return np.empty(0, dtype=int)
    k = min(n_rows, max(1, int(round(rate * n_rows))))
    return np.sort(rng.choice(n_rows, size=k, replace=False))


def _missing(fault: str, filename: str) -> FaultRecord:
    return FaultRecord(fault, filename, 0, "target missing; skipped")


def _parse_csv(lines: list[str]) -> list[list[str]]:
    return list(csv.reader(lines))


def _format_csv_row(row: list[str]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(row)
    return buffer.getvalue()


def _rewrite_cells(
    fault: str,
    directory: Path,
    rng: np.random.Generator,
    rate: float,
    filename: str,
    mutate: Callable[[list[str], dict[str, int], np.random.Generator], None],
) -> FaultRecord:
    """Apply ``mutate(row, column_index, rng)`` to sampled parsed rows."""
    path = directory / filename
    if not path.exists():
        return _missing(fault, filename)
    lines = _read_lines(path)
    header, *body = lines
    column_index = {name: i for i, name in enumerate(next(csv.reader([header])))}
    picks = _sample_rows(rng, len(body), rate)
    parsed = _parse_csv(body)
    touched = 0
    for i in picks:
        # Rows already mangled by an earlier fault in the plan no longer
        # have the full field set; leave them as they are.
        if len(parsed[i]) != len(column_index):
            continue
        mutate(parsed[i], column_index, rng)
        body[i] = _format_csv_row(parsed[i])
        touched += 1
    _write_lines(path, [header] + body)
    return FaultRecord(fault, filename, touched)


def truncate_rows(directory: Path, rng: np.random.Generator, rate: float) -> FaultRecord:
    """Cut sampled ``ras.csv`` lines off mid-record (lost log tail)."""
    path = directory / "ras.csv"
    if not path.exists():
        return _missing("truncate_rows", "ras.csv")
    lines = _read_lines(path)
    header, *body = lines
    picks = _sample_rows(rng, len(body), rate)
    for i in picks:
        line = body[i]
        last_comma = line.rfind(",")
        if last_comma <= 1:
            continue
        # Cutting before the final separator always changes the field
        # count, so strict parsing fails deterministically.
        body[i] = line[: int(rng.integers(1, last_comma))]
    _write_lines(path, [header] + body)
    return FaultRecord("truncate_rows", "ras.csv", len(picks))


def garble_rows(directory: Path, rng: np.random.Generator, rate: float) -> FaultRecord:
    """Replace sampled ``ras.csv`` lines with separator-free noise."""
    path = directory / "ras.csv"
    if not path.exists():
        return _missing("garble_rows", "ras.csv")
    lines = _read_lines(path)
    header, *body = lines
    picks = _sample_rows(rng, len(body), rate)
    for i in picks:
        length = int(rng.integers(5, 40))
        body[i] = "".join(rng.choice(_GARBAGE_ALPHABET, size=length))
    _write_lines(path, [header] + body)
    return FaultRecord("garble_rows", "ras.csv", len(picks))


def unknown_severity(
    directory: Path, rng: np.random.Generator, rate: float
) -> FaultRecord:
    """Rewrite sampled RAS severities to an out-of-domain token."""

    def mutate(row, column_index, _rng):
        row[column_index["severity"]] = _UNKNOWN_SEVERITY

    return _rewrite_cells(
        "unknown_severity", directory, rng, rate, "ras.csv", mutate
    )


def unknown_msg_id(
    directory: Path, rng: np.random.Generator, rate: float
) -> FaultRecord:
    """Rewrite sampled RAS message IDs to one absent from the catalog."""

    def mutate(row, column_index, _rng):
        row[column_index["msg_id"]] = _UNKNOWN_MSG_ID

    return _rewrite_cells("unknown_msg_id", directory, rng, rate, "ras.csv", mutate)


def shuffle_timestamps(
    directory: Path, rng: np.random.Generator, rate: float
) -> FaultRecord:
    """Swap timestamps of sampled adjacent RAS rows (ordering faults)."""
    path = directory / "ras.csv"
    if not path.exists():
        return _missing("shuffle_timestamps", "ras.csv")
    lines = _read_lines(path)
    header, *body = lines
    column_index = {
        name: i for i, name in enumerate(next(csv.reader([header])))
    }
    ts = column_index["timestamp"]
    parsed = _parse_csv(body)
    picks = _sample_rows(rng, max(len(body) - 1, 0), rate)
    swapped = 0
    for i in picks:
        a, b = parsed[i], parsed[i + 1]
        if len(a) != len(column_index) or len(b) != len(column_index):
            continue
        if a[ts] == b[ts]:
            continue
        a[ts], b[ts] = b[ts], a[ts]
        body[i] = _format_csv_row(a)
        body[i + 1] = _format_csv_row(b)
        swapped += 1
    _write_lines(path, [header] + body)
    return FaultRecord("shuffle_timestamps", "ras.csv", swapped)


def negative_timestamps(
    directory: Path, rng: np.random.Generator, rate: float
) -> FaultRecord:
    """Rewrite sampled RAS timestamps to negative values (clock bugs)."""

    def mutate(row, column_index, rng):
        row[column_index["timestamp"]] = f"-{float(rng.uniform(1.0, 1e6)):.3f}"

    return _rewrite_cells(
        "negative_timestamps", directory, rng, rate, "ras.csv", mutate
    )


def duplicate_rows(
    directory: Path, rng: np.random.Generator, rate: float
) -> FaultRecord:
    """Append duplicates of sampled ``jobs.csv`` rows (double logging)."""
    path = directory / "jobs.csv"
    if not path.exists():
        return _missing("duplicate_rows", "jobs.csv")
    lines = _read_lines(path)
    header, *body = lines
    picks = _sample_rows(rng, len(body), rate)
    body.extend(body[i] for i in picks)
    _write_lines(path, [header] + body)
    return FaultRecord("duplicate_rows", "jobs.csv", len(picks))


def drop_darshan(
    directory: Path, rng: np.random.Generator, rate: float
) -> FaultRecord:
    """Delete the Darshan I/O log entirely (whole-source dropout)."""
    path = directory / "io.csv"
    if not path.exists():
        return _missing("drop_darshan", "io.csv")
    n_rows = max(len(_read_lines(path)) - 1, 0)
    path.unlink()
    return FaultRecord("drop_darshan", "io.csv", n_rows, "file deleted")


def drop_tasks(
    directory: Path, rng: np.random.Generator, rate: float
) -> FaultRecord:
    """Delete the task log entirely (whole-source dropout)."""
    path = directory / "tasks.csv"
    if not path.exists():
        return _missing("drop_tasks", "tasks.csv")
    n_rows = max(len(_read_lines(path)) - 1, 0)
    path.unlink()
    return FaultRecord("drop_tasks", "tasks.csv", n_rows, "file deleted")


# ----------------------------------------------------------------------
# process-level fault actions
# ----------------------------------------------------------------------
#
# Unlike the on-disk injectors above, these act on the *running*
# experiment process, modeling the failure modes a long campaign
# actually dies of: a worker OOM-killed mid-experiment, an experiment
# wedged in an uninterruptible call, and an experiment that is merely
# far slower than budgeted.  They are armed per experiment through a
# :class:`~repro.faults.plan.ProcessFaultPlan` (usually via the
# ``REPRO_PROCESS_FAULTS`` environment variable, which forked
# workers inherit), and are fully deterministic: the same plan kills the
# same experiment on the same attempt every run.


def kill_worker_action() -> None:
    """Die instantly (SIGKILL self), like an OOM-killed worker.

    No Python cleanup runs — the supervisor sees its worker's pipe hit
    EOF exactly as it would for a real worker death.
    """
    os.kill(os.getpid(), signal.SIGKILL)


def hang_action(seconds: float) -> None:
    """Wedge for ``seconds`` with ``SIGALRM`` blocked.

    Blocking the alarm makes the hang immune to the engine's in-worker
    timeout, so it exercises the supervisor-side stall detector (the
    path a worker stuck in uninterruptible C code would take).
    """
    if hasattr(signal, "pthread_sigmask") and hasattr(signal, "SIGALRM"):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        time.sleep(min(1.0, max(deadline - time.monotonic(), 0.0)))


def slow_action(seconds: float) -> None:
    """Sleep ``seconds`` before the experiment runs (interruptible).

    With a ``--timeout`` below ``seconds`` this deterministically
    drives the in-worker timeout path; without one it just paces the
    suite (useful for kill-mid-run drills).
    """
    time.sleep(seconds)


PROCESS_FAULTS: tuple[str, ...] = ("kill_worker", "hang", "slow")
"""Process-level fault kinds accepted by a ``ProcessFaultPlan`` spec."""


FAULT_INJECTORS: dict[str, Callable[[Path, np.random.Generator, float], FaultRecord]] = {
    "truncate_rows": truncate_rows,
    "garble_rows": garble_rows,
    "unknown_severity": unknown_severity,
    "unknown_msg_id": unknown_msg_id,
    "shuffle_timestamps": shuffle_timestamps,
    "negative_timestamps": negative_timestamps,
    "duplicate_rows": duplicate_rows,
    "drop_darshan": drop_darshan,
    "drop_tasks": drop_tasks,
}
"""Registry of fault name → injector."""

ALL_FAULTS: tuple[str, ...] = tuple(FAULT_INJECTORS)
"""Every fault, in registry (application) order — dropouts last."""
