"""Crash-safe run journal: every ``repro-report`` invocation survives a kill.

A *run* is one report invocation.  It owns a directory,
``<runs-root>/<run-id>/``, holding:

- ``journal.jsonl`` — an append-only JSONL journal.  The first record
  (``kind: "run"``) pins the run ID, toolkit version, dataset
  fingerprint, and full config; each completed experiment appends one
  ``kind: "outcome"`` record (including its serialized
  :class:`~repro.experiments.base.ExperimentResult`, so a resumed run
  can re-render the report without re-running anything); a trailing
  ``kind: "end"`` record marks completion.  Every append is flushed
  and fsynced, so a SIGKILL loses at most the experiment in flight —
  never finished work.
- ``report.txt`` — the rendered report, written atomically on
  completion.

Resume (``repro-report --resume <run-id>``) replays the journal: the
dataset fingerprint is validated against the journaled one (a changed
dataset refuses to resume rather than silently mixing results), the
journaled outcomes are rehydrated, and only the missing experiments
run.  Because experiment results are deterministic and the journal
round-trips them exactly (dtype-tagged columns, repr-exact floats),
the resumed report is byte-identical to an uninterrupted run.

A torn final line — the signature of a crash mid-append — is detected
and ignored on replay.
"""

from __future__ import annotations

import itertools
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.errors import JournalError
from repro.table import Table

from .base import ExperimentResult
from .engine import ExperimentOutcome

__all__ = [
    "JOURNAL_SCHEMA",
    "RUNS_DIR_ENV",
    "RunJournal",
    "RunState",
    "default_runs_dir",
    "new_run_id",
    "outcome_to_record",
    "outcome_from_record",
    "result_to_json",
    "result_from_json",
]

#: Bump when the journal record layout changes; resume refuses other
#: versions rather than guessing.
JOURNAL_SCHEMA = 1

#: Environment override for the default runs root (CLI flag wins).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

_DEFAULT_RUNS_DIR = os.path.join("results", "runs")
_JOURNAL_NAME = "journal.jsonl"
_REPORT_NAME = "report.txt"

_KIND_DTYPES = {
    "f": np.float64,
    "i": np.int64,
    "u": np.uint64,
    "b": np.bool_,
}


def default_runs_dir() -> Path:
    """Runs root: ``$REPRO_RUNS_DIR`` or ``results/runs``."""
    return Path(os.environ.get(RUNS_DIR_ENV) or _DEFAULT_RUNS_DIR)


#: Monotonic per-process sequence folded into run IDs; randomness alone
#: (a 24-bit tail) collides with ~11% probability at 2000 IDs/second.
_RUN_ID_SEQUENCE = itertools.count()


def new_run_id() -> str:
    """A sortable, collision-safe run ID.

    UTC timestamp for sortability, then the minting PID and a
    process-local sequence number that make collisions structurally
    impossible rather than merely unlikely: IDs from one process
    differ in the sequence, IDs from concurrent processes differ in
    the PID, and the random tail covers the remaining case of a
    recycled PID landing in the same second.
    """
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    seq = next(_RUN_ID_SEQUENCE)
    return f"{stamp}-p{os.getpid():x}s{seq:x}-{uuid.uuid4().hex[:6]}"


# ----------------------------------------------------------------------
# result serialization (exact round-trip)
# ----------------------------------------------------------------------


def _scalar_to_json(value):
    """Narrow numpy scalars to their Python equivalents for JSON."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        # json round-trips Python floats exactly (shortest-repr), and
        # emits NaN/Infinity tokens the loader accepts.
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _table_to_json(table: Table) -> dict:
    """Serialize a table with dtype kinds so reloads are value-identical."""
    names = table.column_names
    return {
        "names": names,
        "kinds": [table[name].dtype.kind for name in names],
        "values": [table[name].tolist() for name in names],
    }


def _table_from_json(payload: dict) -> Table:
    data: dict[str, np.ndarray] = {}
    for name, kind, values in zip(
        payload["names"], payload["kinds"], payload["values"]
    ):
        if kind == "O":
            data[name] = np.array([str(v) for v in values], dtype=object)
        else:
            data[name] = np.asarray(values, dtype=_KIND_DTYPES.get(kind))
    return Table(data)


def _result_to_json(result: ExperimentResult | None) -> dict | None:
    if result is None:
        return None
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
        "degraded": result.degraded,
        "metrics": {
            key: _scalar_to_json(value) for key, value in result.metrics.items()
        },
        "tables": {
            name: _table_to_json(table) for name, table in result.tables.items()
        },
    }


def _result_from_json(payload: dict | None) -> ExperimentResult | None:
    if payload is None:
        return None
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        notes=payload["notes"],
        degraded=payload["degraded"],
        metrics=dict(payload["metrics"]),
        tables={
            name: _table_from_json(table)
            for name, table in payload["tables"].items()
        },
    )


# Public names for the exact-round-trip result codecs: the query
# server's wire protocol reuses them so a replayed response rehydrates
# into the same ExperimentResult a journal replay would.
def result_to_json(result: ExperimentResult | None) -> dict | None:
    """Serialize an :class:`ExperimentResult` to its journal JSON form."""
    return _result_to_json(result)


def result_from_json(payload: dict | None) -> ExperimentResult | None:
    """Rehydrate a result serialized by :func:`result_to_json`."""
    return _result_from_json(payload)


def outcome_to_record(outcome: ExperimentOutcome) -> dict:
    """Serialize one outcome as a journal record.

    ``rss_scope`` is journaled only when it is not the default
    ``"worker"`` — worker journals keep their pre-scope byte
    layout, and trace spans are never journaled at all (they belong to
    ``trace.jsonl``).
    """
    record = {
        "kind": "outcome",
        "experiment_id": outcome.experiment_id,
        "status": outcome.status,
        "message": outcome.message,
        "seconds": outcome.seconds,
        "max_rss_kb": outcome.max_rss_kb,
        "attempt": outcome.attempt,
    }
    if outcome.rss_scope != "worker":
        record["rss_scope"] = outcome.rss_scope
    record["result"] = _result_to_json(outcome.result)
    return record


def outcome_from_record(record: dict) -> ExperimentOutcome:
    """Rehydrate an outcome journaled by :func:`outcome_to_record`."""
    return ExperimentOutcome(
        experiment_id=record["experiment_id"],
        status=record["status"],
        result=_result_from_json(record.get("result")),
        message=record["message"],
        seconds=record["seconds"],
        max_rss_kb=record["max_rss_kb"],
        attempt=record.get("attempt", 1),
        rss_scope=record.get("rss_scope", "worker"),
    )


# ----------------------------------------------------------------------
# the journal itself
# ----------------------------------------------------------------------


@dataclass
class RunState:
    """A journal replayed into memory (the ``--resume`` input)."""

    run_id: str
    fingerprint: str
    config: dict
    outcomes: dict[str, ExperimentOutcome] = field(default_factory=dict)
    complete: bool = False


class RunJournal:
    """Append-only journal for one run directory.

    Create with :meth:`start` (new run) or :meth:`resume` (existing
    run); both return a journal whose :meth:`append_outcome` /
    :meth:`append_end` flush and fsync each record, so a crash at any
    point loses at most the record being written.
    """

    def __init__(self, directory: str | Path, run_id: str):
        self.directory = Path(directory)
        self.run_id = run_id

    @property
    def path(self) -> Path:
        """The ``journal.jsonl`` path."""
        return self.directory / _JOURNAL_NAME

    @property
    def report_path(self) -> Path:
        """Where the rendered report is stored on completion."""
        return self.directory / _REPORT_NAME

    @classmethod
    def start(
        cls,
        runs_root: str | Path,
        *,
        fingerprint: str,
        config: Mapping,
        run_id: str | None = None,
    ) -> "RunJournal":
        """Create a fresh run directory and write the header record.

        Raises
        ------
        JournalError
            When ``run_id`` is given and that run already exists.
        """
        from repro import __version__

        run_id = run_id or new_run_id()
        journal = cls(Path(runs_root) / run_id, run_id)
        if journal.path.exists():
            raise JournalError(
                f"run {run_id!r} already exists at {journal.path}; "
                "use --resume or pick another --run-id"
            )
        journal.directory.mkdir(parents=True, exist_ok=True)
        journal._append(
            {
                "kind": "run",
                "schema": JOURNAL_SCHEMA,
                "run_id": run_id,
                "toolkit_version": __version__,
                "fingerprint": fingerprint,
                "config": dict(config),
            }
        )
        return journal

    @classmethod
    def resume(
        cls, runs_root: str | Path, run_id: str
    ) -> tuple["RunJournal", RunState]:
        """Replay an existing run's journal.

        Skips undecodable lines (a torn tail from a crash mid-append)
        and deduplicates outcomes by experiment ID (first wins — the
        engine never legitimately journals one twice).

        Raises
        ------
        JournalError
            When the run does not exist, the journal has no valid
            header, or it was written by an incompatible schema.
        """
        journal = cls(Path(runs_root) / run_id, run_id)
        if not journal.path.exists():
            raise JournalError(
                f"no journal for run {run_id!r} under {Path(runs_root)}"
            )
        records: list[dict] = []
        for line in journal.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail from a crash mid-append
        if not records or records[0].get("kind") != "run":
            raise JournalError(f"{journal.path}: not a run journal")
        header = records[0]
        if header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"{journal.path}: journal schema {header.get('schema')!r} != "
                f"{JOURNAL_SCHEMA}"
            )
        state = RunState(
            run_id=run_id,
            fingerprint=header.get("fingerprint", ""),
            config=header.get("config", {}),
        )
        for record in records[1:]:
            kind = record.get("kind")
            if kind == "outcome":
                try:
                    outcome = outcome_from_record(record)
                except (KeyError, TypeError, ValueError):
                    continue  # a damaged record is re-run, not trusted
                state.outcomes.setdefault(outcome.experiment_id, outcome)
            elif kind == "end" and record.get("status") == "complete":
                state.complete = True
        return journal, state

    def append_outcome(self, outcome: ExperimentOutcome) -> None:
        """Journal one completed experiment (flushed + fsynced)."""
        self._append(outcome_to_record(outcome))

    def append_event(self, event: str, **fields) -> None:
        """Journal a labelled lifecycle event (flushed + fsynced).

        Long-lived daemons (``repro-serve``) use these to record
        listening/drain/shutdown milestones.  ``kind: "event"``
        records are ignored by :meth:`resume`, so an event-bearing
        journal stays replayable.
        """
        record: dict = {"kind": "event", "event": event}
        record.update(fields)
        self._append(record)

    def append_end(self, status: str, total_seconds: float) -> None:
        """Journal the run's end (``"complete"`` or ``"interrupted"``)."""
        self._append(
            {
                "kind": "end",
                "status": status,
                "total_seconds": round(total_seconds, 6),
            }
        )

    def _append(self, record: dict) -> None:
        # No sort_keys: dict insertion order IS data here — a result's
        # metrics/tables render in definition order, and a resumed report
        # must reproduce that order byte-for-byte.
        line = json.dumps(record)
        with self.path.open("a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
