"""Content-addressed columnar cache for :class:`~repro.dataset.mira.MiraDataset`.

Parsing the four CSV logs (plus validation) dominates ``repro-report``
wall time; synthesis dominates when no dataset directory is given.
This module caches the fully-assembled dataset as one columnar arena
file (see :mod:`repro.table.arena`) keyed by a *fingerprint*:

- **Directory loads** — SHA-256 over the dataset schema version, the
  toolkit version, and every source file's name, size, and content
  hash.  Any edit to any source file changes the fingerprint, so a
  stale entry can never be served (``touch`` alone does not invalidate:
  the fingerprint is content-addressed, not mtime-addressed).
- **Synthesis** — SHA-256 over the schema version, toolkit version,
  machine-spec fields, ``n_days``, and ``seed``.  Only parameter-free
  syntheses are cached; custom generator params bypass the cache
  entirely rather than risk a collision.

Entries live in ``<dataset_dir>/.repro-cache/`` for directory loads and
in ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) for syntheses.
The access mode decides only how a hit is handed back: ``ram`` copies
every column into plain arrays (:func:`load_cached_bundle`), ``mmap``
attaches shared read-only views (:func:`load_arena`).
Storing is best-effort — a read-only filesystem degrades to uncached
operation, never to an error — and lenient loads that quarantined or
degraded anything are **never** stored, so a damaged dataset cannot
poison the cache for a later repaired load.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.bgq.machine import MIRA, MachineSpec
from repro.errors import ParseError
from repro.obs.trace import add as trace_add
from repro.obs.trace import span as trace_span
from repro.table import Table, attach_arena, read_arena, write_arena

__all__ = [
    "SCHEMA_VERSION",
    "default_cache_dir",
    "fingerprint_directory",
    "fingerprint_synthesis",
    "fingerprint_for_run",
    "dataset_arena_path",
    "synthesis_arena_path",
    "load_cached_bundle",
    "load_arena",
    "store_arena",
]

#: Bump whenever the dataset schemas or the cached-entry layout change;
#: old entries then miss on fingerprint and are pruned on the next store.
#: v2: entry meta carries the trace backend name.
SCHEMA_VERSION = 2

#: Files that participate in a dataset directory's fingerprint (the
#: cache subdirectory itself never does).
FINGERPRINT_FILES = (
    "ras.csv",
    "jobs.csv",
    "tasks.csv",
    "io.csv",
    "meta.jsonl",
    "incidents.jsonl",
)

_CACHE_SUBDIR = ".repro-cache"


def default_cache_dir() -> Path:
    """Cache directory for synthesis entries (``$REPRO_CACHE_DIR`` wins)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _versioned_hasher() -> "hashlib._Hash":
    from repro import __version__

    digest = hashlib.sha256()
    digest.update(f"schema={SCHEMA_VERSION};repro={__version__};".encode())
    return digest


def fingerprint_directory(directory: str | Path) -> str:
    """Content fingerprint of a dataset directory's source files."""
    directory = Path(directory)
    digest = _versioned_hasher()
    for name in FINGERPRINT_FILES:
        path = directory / name
        if not path.exists():
            digest.update(f"{name}=absent;".encode())
            continue
        content = path.read_bytes()
        digest.update(
            f"{name}:{len(content)}:{hashlib.sha256(content).hexdigest()};".encode()
        )
    return digest.hexdigest()


def fingerprint_synthesis(
    spec: MachineSpec,
    n_days: float,
    seed: int,
    scale: float = 1.0,
    backend: str = "mira",
) -> str:
    """Fingerprint of a parameter-free synthesis request.

    ``scale`` is the fleet replication factor and ``backend`` the trace
    backend of :meth:`~repro.dataset.mira.MiraDataset.synthesize`; their
    defaults (``1.0`` / ``"mira"``) are deliberately left out of the
    hash so every fingerprint minted before each knob existed stays
    valid.  ``spec`` is always the *base* machine — the fleet spec is
    derived from ``(spec, scale)``, and a non-mira backend pins its own
    spec.
    """
    digest = _versioned_hasher()
    digest.update(
        (
            f"spec={spec.name}:{spec.rack_rows}:{spec.rack_columns}:"
            f"{spec.midplanes_per_rack}:{spec.node_boards_per_midplane}:"
            f"{spec.nodes_per_node_board}:{spec.cores_per_node};"
            f"n_days={n_days!r};seed={seed};"
        ).encode()
    )
    if scale != 1.0:
        digest.update(f"scale={scale!r};".encode())
    if backend != "mira":
        digest.update(f"backend={backend};".encode())
    return digest.hexdigest()


def fingerprint_for_run(
    dataset_dir: str | Path | None,
    n_days: float,
    seed: int,
    spec: MachineSpec = MIRA,
    scale: float = 1.0,
    backend: str = "mira",
) -> str:
    """Fingerprint identifying a report run's input dataset.

    The run journal pins this at run start and ``--resume`` refuses a
    mismatch, reusing the cache's content-addressed fingerprints: a
    directory load hashes the source files' contents
    (:func:`fingerprint_directory`), a synthesis hashes the generating
    parameters (:func:`fingerprint_synthesis`).  Either way, resumed
    outcomes can only ever be merged with outcomes computed from the
    same data.
    """
    if dataset_dir:
        return fingerprint_directory(dataset_dir)
    if backend != "mira":
        from repro.adapters import get_backend

        spec = get_backend(backend).spec
    return fingerprint_synthesis(spec, n_days, seed, scale, backend)


def dataset_arena_path(directory: str | Path, fingerprint: str) -> Path:
    """Where a directory load's cache entry lives."""
    return Path(directory) / _CACHE_SUBDIR / f"dataset-{fingerprint[:32]}.arena"


def synthesis_arena_path(fingerprint: str) -> Path:
    """Where a synthesis cache entry lives."""
    return default_cache_dir() / f"synth-{fingerprint[:32]}.arena"


def _owned(column: np.ndarray) -> np.ndarray:
    """``column`` detached from the mapping (decoded strings already are)."""
    return np.array(column) if isinstance(column, np.memmap) else column


def _read_in_ram(path: Path, fingerprint: str) -> tuple[dict[str, Table], dict]:
    tables, meta = read_arena(path, expected_fingerprint=fingerprint)
    copied = {
        name: Table({col: _owned(table[col]) for col in table.column_names})
        for name, table in tables.items()
    }
    return copied, meta


def _read_entry(
    path: Path, fingerprint: str, mode: str
) -> tuple[dict[str, Table], dict] | None:
    """Shared reader: a missing, corrupt, or stale entry is a miss.

    A corrupt or fingerprint-mismatched file is deleted on sight so it
    cannot shadow the slot forever.
    """
    try:
        size = path.stat().st_size
    except OSError:
        trace_add("cache.miss")
        return None
    with trace_span("cache.read", file=path.name, bytes=size, mode=mode):
        try:
            if mode == "mmap":
                bundle = attach_arena(path, fingerprint)
            else:
                bundle = _read_in_ram(path, fingerprint)
        except (ParseError, OSError) as error:
            if isinstance(error, ParseError):
                try:
                    path.unlink()
                except OSError:
                    pass
                trace_add("cache.corrupt")
            trace_add("cache.miss")
            return None
    trace_add("cache.hit")
    trace_add("cache.read_bytes", size)
    return bundle


def load_cached_bundle(
    path: Path, fingerprint: str
) -> tuple[dict[str, Table], dict] | None:
    """Read an arena entry into plain in-RAM tables (``mode="ram"``).

    Every column is copied into a writable ``np.ndarray`` and the
    mapping is dropped: the tables carry no arena descriptor, pickle by
    value, and never enter the per-process attachment cache, so no
    mapped pages stay resident.
    """
    return _read_entry(path, fingerprint, "ram")


def load_arena(path: Path, fingerprint: str) -> tuple[dict[str, Table], dict] | None:
    """Attach an arena entry as memory-mapped tables (``mode="mmap"``).

    Attachment goes through the per-process cache
    (:func:`repro.table.attach_arena`), so repeated loads of the same
    entry share one mapping and the returned tables pickle as
    descriptors.
    """
    return _read_entry(path, fingerprint, "mmap")


def store_arena(
    path: Path,
    tables: Mapping[str, Table],
    meta: Mapping,
    fingerprint: str,
    *,
    prune_siblings: bool = False,
) -> bool:
    """Best-effort write of the cache entry keyed by ``fingerprint``.

    The fingerprint is embedded in the arena's meta so a read can
    verify it belongs to the current sources.  ``prune_siblings``
    (per-directory entries, where only the current fingerprint is ever
    valid) removes other ``*.arena`` entries beside ``path`` so an
    edited dataset does not accumulate stale ones; synthesis entries
    are not pruned, since different ``(spec, days, seed)`` keys are all
    simultaneously valid.  Stale ``*.tmp.*`` leftovers from killed
    writers are always pruned by the writer itself.  Returns True when
    the entry was written.
    """
    stored_meta = dict(meta)
    stored_meta["fingerprint"] = fingerprint
    with trace_span("cache.write", file=path.name) as sp:
        try:
            write_arena(path, tables, meta=stored_meta)
            written = path.stat().st_size
        except OSError:
            return False
        sp.note(bytes=written)
    trace_add("cache.store")
    trace_add("cache.write_bytes", written)
    if prune_siblings:
        try:
            for sibling in path.parent.glob("*.arena"):
                if sibling != path:
                    sibling.unlink(missing_ok=True)
        except OSError:
            pass
    return True


# perfbench/layers.py wraps this name; the next benchmark change drops it.
store_bundle = store_arena
