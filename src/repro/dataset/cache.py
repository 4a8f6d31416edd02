"""Content-addressed columnar cache for :class:`~repro.dataset.mira.MiraDataset`.

Parsing the four CSV logs (plus validation) dominates ``repro-report``
wall time; synthesis dominates when no dataset directory is given.
This module caches the fully-assembled dataset as a compressed ``.npz``
bundle (see :mod:`repro.table.npzio`) keyed by a *fingerprint*:

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

from repro.bgq.machine import MIRA, MachineSpec
from repro.errors import ParseError
from repro.obs.trace import add as trace_add
from repro.obs.trace import span as trace_span
from repro.table import Table, attach_arena, read_npz, write_npz
from repro.table.arena import prune_stale_temps, write_arena

__all__ = [
    "SCHEMA_VERSION",
    "default_cache_dir",
    "fingerprint_directory",
    "fingerprint_synthesis",
    "fingerprint_for_run",
    "dataset_cache_path",
    "synthesis_cache_path",
    "dataset_arena_path",
    "synthesis_arena_path",
    "load_cached_bundle",
    "store_bundle",
    "load_arena",
    "store_arena",
]

#: Bump whenever the dataset schemas or the cached-bundle layout change;
#: old entries then miss on fingerprint and are pruned on the next store.
#: v2: bundle meta carries the trace backend name.
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


def dataset_cache_path(directory: str | Path, fingerprint: str) -> Path:
    """Where a directory load's cache entry lives."""
    return Path(directory) / _CACHE_SUBDIR / f"dataset-{fingerprint[:32]}.npz"


def synthesis_cache_path(fingerprint: str) -> Path:
    """Where a synthesis cache entry lives."""
    return default_cache_dir() / f"synth-{fingerprint[:32]}.npz"


def dataset_arena_path(directory: str | Path, fingerprint: str) -> Path:
    """Where a directory load's memory-mapped arena lives.

    Kept beside the ``.npz`` entry under the same content fingerprint:
    the ``.npz`` is the portable/cold format, the arena the hot
    zero-copy one materialized from it on first ``mode="mmap"`` use.
    """
    return Path(directory) / _CACHE_SUBDIR / f"dataset-{fingerprint[:32]}.arena"


def synthesis_arena_path(fingerprint: str) -> Path:
    """Where a synthesis's memory-mapped arena lives."""
    return default_cache_dir() / f"synth-{fingerprint[:32]}.arena"


def load_cached_bundle(path: Path) -> tuple[dict[str, Table], dict] | None:
    """Read a cache entry; a missing or corrupt entry is a miss.

    Corrupt entries are deleted on sight so they cannot shadow the slot
    forever.
    """
    if not path.exists():
        trace_add("cache.miss")
        return None
    size = path.stat().st_size
    with trace_span("cache.read", file=path.name, bytes=size):
        try:
            bundle = read_npz(path)
        except ParseError:
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


def store_bundle(
    path: Path,
    tables: Mapping[str, Table],
    meta: Mapping,
    *,
    prune_siblings: bool = False,
) -> bool:
    """Best-effort write of a cache entry.

    Returns True when the entry was written.  With ``prune_siblings``
    (used for per-directory entries, where only the current fingerprint
    is ever valid) other ``*.npz`` entries beside ``path`` are removed
    so an edited dataset does not accumulate stale bundles.  Synthesis
    entries are not pruned — different ``(spec, days, seed)`` keys are
    all simultaneously valid.
    """
    if path.parent.exists():
        # A SIGKILLed earlier writer may have left *.tmp.<pid> files
        # beside the entry; reclaim any whose writer is dead.
        prune_stale_temps(path.parent)
    with trace_span("cache.write", file=path.name) as sp:
        try:
            write_npz(path, tables, meta=meta)
            written = path.stat().st_size
        except OSError:
            return False
        sp.note(bytes=written)
    trace_add("cache.store")
    trace_add("cache.write_bytes", written)
    if prune_siblings:
        try:
            for sibling in path.parent.glob("*.npz"):
                if sibling != path:
                    sibling.unlink(missing_ok=True)
        except OSError:
            pass
    return True


def load_arena(path: Path, fingerprint: str) -> tuple[dict[str, Table], dict] | None:
    """Attach an arena cache entry; a missing, corrupt, or stale one is a miss.

    Attachment goes through the per-process cache
    (:func:`repro.table.attach_arena`), so repeated loads of the same
    entry share one mapping and the returned tables pickle as
    descriptors.  A corrupt or fingerprint-mismatched file is deleted
    on sight, exactly like a corrupt ``.npz`` entry.
    """
    if not path.exists():
        trace_add("arena.miss")
        return None
    with trace_span("arena.attach", file=path.name, bytes=path.stat().st_size):
        try:
            tables, meta = attach_arena(path, fingerprint)
        except (ParseError, OSError) as error:
            if isinstance(error, ParseError):
                try:
                    path.unlink()
                except OSError:
                    pass
            trace_add("arena.corrupt")
            trace_add("arena.miss")
            return None
    trace_add("arena.hit")
    return tables, meta


def store_arena(
    path: Path,
    tables: Mapping[str, Table],
    meta: Mapping,
    fingerprint: str,
    *,
    prune_siblings: bool = False,
) -> bool:
    """Best-effort write of an arena entry keyed by ``fingerprint``.

    The fingerprint is embedded in the arena's meta so an attach can
    verify it belongs to the current sources.  ``prune_siblings``
    removes other ``*.arena`` entries beside ``path`` (per-directory
    entries: only the current fingerprint is ever valid); stale
    ``*.tmp.*`` leftovers from killed writers are always pruned by the
    writer itself.  Returns True when the entry was written.
    """
    stored_meta = dict(meta)
    stored_meta["fingerprint"] = fingerprint
    with trace_span("arena.write", file=path.name) as sp:
        try:
            write_arena(path, tables, meta=stored_meta)
            written = path.stat().st_size
        except OSError:
            return False
        sp.note(bytes=written)
    trace_add("arena.store")
    trace_add("arena.write_bytes", written)
    if prune_siblings:
        try:
            for sibling in path.parent.glob("*.arena"):
                if sibling != path:
                    sibling.unlink(missing_ok=True)
        except OSError:
            pass
    return True
