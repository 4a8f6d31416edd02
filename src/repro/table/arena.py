"""Memory-mapped columnar arena: zero-copy shared dataset storage.

An *arena* is one flat binary file holding every table of a dataset in
a layout that can be attached with :func:`numpy.memmap` and served as
read-only column views — no parsing, no decompression, no per-process
copy.  It is the toolkit's only on-disk columnar format: the dataset
cache (:mod:`repro.dataset.cache`) stores one arena per entry, and
every process on the machine shares it through the OS page cache.

File layout (all integers little-endian)::

    [ 0: 8)   magic  b"RPRARENA"
    [ 8:16)   uint64 directory offset
    [16:24)   uint64 directory length (bytes)
    [24:64)   reserved (zero)
    [64:...)  column blobs, each aligned to ARENA_ALIGN bytes
    [dir_off: dir_off+dir_len)  JSON directory (UTF-8)

The JSON directory records, per table, the row count and per-column
entries.  Numeric and boolean columns are stored ``raw``: one
contiguous little-endian blob, attached as a zero-copy
``np.memmap`` view, so an untouched column costs no resident memory at
all.  String (object-dtype) columns are dictionary-encoded (``dict``):
an ``int64`` code per row plus an offsets array and a UTF-8 byte pool
over the *distinct* values.  They decode lazily on first access — the
per-process cost is one pointer array plus one ``str`` object per
distinct value, never a copy of the pool per row.

Attachment is cached per process and keyed by ``(realpath,
fingerprint)``: :meth:`repro.table.frame.Table.__reduce__` on an
arena-backed table pickles the descriptor, not the bytes, so shipping
a dataset to a worker costs a few hundred bytes
regardless of trace size.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.errors import ColumnTypeError, ParseError
from repro.util.atomic import atomic_open

from .column import ensure_string_values, factorize
from .frame import Table

__all__ = [
    "ARENA_FORMAT_VERSION",
    "ARENA_ALIGN",
    "write_arena",
    "read_arena",
    "attach_arena",
    "attach_table",
    "detach_all",
    "prune_stale_temps",
]

#: Bump when the arena layout changes; readers reject other versions.
ARENA_FORMAT_VERSION = 1

#: Every blob starts on this alignment so typed views are always
#: element-aligned (64 also keeps them cache-line aligned).
ARENA_ALIGN = 64

_MAGIC = b"RPRARENA"
_HEADER_SIZE = 64
_HEADER = struct.Struct("<8sQQ")

#: Per-process attachment cache: ``(realpath, fingerprint) → (tables,
#: meta, mtime_ns)``.  Worker processes unpickling a table descriptor
#: land here, so N tables of one dataset share a single mapping.
_ATTACHED: dict[tuple[str, str], tuple[dict[str, Table], dict, int]] = {}


def _align(offset: int) -> int:
    return -(-offset // ARENA_ALIGN) * ARENA_ALIGN


def _encode_string_column(arr: np.ndarray, context: str):
    """Dictionary-encode one string column → (codes, offsets, pool)."""
    ensure_string_values(arr, context)
    codes, uniques = factorize(arr)
    encoded = [value.encode("utf-8") for value in uniques.tolist()]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(e) for e in encoded], out=offsets[1:])
    return codes.astype(np.int64, copy=False), offsets, b"".join(encoded)


def prune_stale_temps(directory: str | Path) -> int:
    """Remove ``*.tmp.<pid>`` leftovers whose writer process is dead.

    :func:`repro.util.atomic.atomic_open` names its temp file after the
    writing PID; a SIGKILL mid-write leaves it behind.  Any temp whose
    PID no longer exists is garbage by construction (a live writer
    would still hold its PID).  Returns the number of files removed;
    best-effort — I/O errors are swallowed.
    """
    removed = 0
    try:
        entries = list(Path(directory).glob("*.tmp.*"))
    except OSError:
        return 0
    for entry in entries:
        pid_part = entry.name.rsplit(".", 1)[-1]
        if not pid_part.isdigit():
            continue
        pid = int(pid_part)
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        except (OSError, PermissionError):
            # PID exists (or cannot be probed): leave the file alone.
            continue
    return removed


def write_arena(
    path: str | Path,
    tables: Mapping[str, Table],
    meta: Mapping | None = None,
) -> None:
    """Write named tables (plus JSON-serializable ``meta``) as an arena.

    The write is atomic (sibling temp + rename), so a reader can never
    attach a half-written arena; stale temps from killed writers
    beside ``path`` are pruned first.

    Raises
    ------
    ColumnTypeError
        When an object-dtype column contains non-string values.
    OSError
        On filesystem failure (callers that cache best-effort catch it).
    """
    path = Path(path)
    if path.parent.exists():
        prune_stale_temps(path.parent)
    directory: dict = {
        "format": ARENA_FORMAT_VERSION,
        "meta": dict(meta or {}),
        "tables": {},
    }
    blobs: list[tuple[int, bytes, memoryview]] = []
    cursor = _HEADER_SIZE

    def add_blob(data) -> tuple[int, int]:
        nonlocal cursor
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data)
            buf = data.data.cast("B")
        else:
            buf = memoryview(data)
        offset = _align(cursor)
        nbytes = buf.nbytes
        blobs.append((offset, data, buf))
        cursor = offset + nbytes
        return offset, nbytes

    for table_name, table in tables.items():
        entries = []
        for name in table.column_names:
            arr = table[name]
            if arr.dtype.kind in ("U", "S"):  # pragma: no cover - defensive
                arr = arr.astype(object)
            if arr.dtype.kind == "O":
                codes, offsets, pool = _encode_string_column(
                    arr, f"{table_name}.{name}"
                )
                c_off, c_len = add_blob(codes)
                o_off, o_len = add_blob(offsets)
                p_off, p_len = add_blob(pool)
                entries.append(
                    {
                        "name": name,
                        "repr": "dict",
                        "codes": {"dtype": "<i8", "offset": c_off, "nbytes": c_len},
                        "offsets": {"dtype": "<i8", "offset": o_off, "nbytes": o_len},
                        "pool": {"offset": p_off, "nbytes": p_len},
                    }
                )
            elif arr.dtype.kind in ("b", "i", "u", "f"):
                stored = arr
                if stored.dtype.byteorder == ">":  # pragma: no cover - exotic
                    stored = stored.astype(stored.dtype.newbyteorder("<"))
                offset, nbytes = add_blob(stored)
                entries.append(
                    {
                        "name": name,
                        "repr": "raw",
                        "dtype": stored.dtype.str,
                        "offset": offset,
                        "nbytes": nbytes,
                    }
                )
            else:
                raise ColumnTypeError(
                    f"{table_name}.{name}: cannot store dtype "
                    f"{arr.dtype} in an arena"
                )
        directory["tables"][table_name] = {
            "n_rows": table.n_rows,
            "columns": entries,
        }

    dir_offset = _align(cursor)
    dir_bytes = json.dumps(directory, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, dir_offset, len(dir_bytes)))
        handle.write(b"\x00" * (_HEADER_SIZE - _HEADER.size))
        position = _HEADER_SIZE
        for offset, _data, buf in blobs:
            if offset > position:
                handle.write(b"\x00" * (offset - position))
            handle.write(buf)
            position = offset + buf.nbytes
        if dir_offset > position:
            handle.write(b"\x00" * (dir_offset - position))
        handle.write(dir_bytes)


def _load_directory(path: Path, mm: np.ndarray) -> dict:
    size = mm.size
    if size < _HEADER_SIZE:
        raise ParseError(f"{path}: truncated arena (no header)")
    magic, dir_offset, dir_length = _HEADER.unpack(
        mm[: _HEADER.size].tobytes()
    )
    if magic != _MAGIC:
        raise ParseError(f"{path}: not an arena file (bad magic)")
    if dir_offset + dir_length > size:
        raise ParseError(f"{path}: truncated arena (directory out of bounds)")
    try:
        directory = json.loads(
            mm[dir_offset : dir_offset + dir_length].tobytes().decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ParseError(f"{path}: corrupt arena directory ({error})") from error
    if directory.get("format") != ARENA_FORMAT_VERSION:
        raise ParseError(
            f"{path}: arena format version {directory.get('format')!r} != "
            f"{ARENA_FORMAT_VERSION}"
        )
    return directory


def _raw_view(mm: np.ndarray, spec: dict, path: Path, n_rows: int) -> np.ndarray:
    offset, nbytes = int(spec["offset"]), int(spec["nbytes"])
    if offset + nbytes > mm.size:
        raise ParseError(f"{path}: blob out of bounds at offset {offset}")
    dtype = np.dtype(spec["dtype"])
    if nbytes % dtype.itemsize or nbytes // dtype.itemsize != n_rows:
        raise ParseError(
            f"{path}: blob size {nbytes} inconsistent with "
            f"{n_rows} rows of {dtype}"
        )
    return mm[offset : offset + nbytes].view(dtype)


class _LazyStrings:
    """Deferred decode of one dictionary-encoded string column.

    Holding the memmap slices (not copies) keeps an unattached column
    at zero resident cost; :meth:`load` produces the object array the
    table layer expects, sharing one ``str`` per distinct value.
    """

    __slots__ = ("_codes", "_offsets", "_pool")

    def __init__(self, codes: np.ndarray, offsets: np.ndarray, pool: np.ndarray):
        self._codes = codes
        self._offsets = offsets
        self._pool = pool

    def load(self) -> np.ndarray:
        offsets = self._offsets
        pool = self._pool.tobytes()
        n_unique = len(offsets) - 1
        uniques = np.empty(n_unique, dtype=object)
        for i in range(n_unique):
            uniques[i] = pool[offsets[i] : offsets[i + 1]].decode("utf-8")
        if n_unique == 0:
            return np.empty(len(self._codes), dtype=object)
        return uniques[self._codes]


def read_arena(
    path: str | Path, *, expected_fingerprint: str | None = None
) -> tuple[dict[str, Table], dict]:
    """Attach an arena file as ``(tables, meta)`` of memmap-backed tables.

    Numeric/boolean columns come back as read-only ``np.memmap`` views;
    string columns as lazy loaders that decode on first access.  The
    returned tables carry an arena descriptor, so pickling them ships
    ``(path, table, fingerprint)`` instead of the data.

    Raises
    ------
    ParseError
        If the file is not an arena, is truncated or internally
        inconsistent, or (with ``expected_fingerprint``) was written
        for a different dataset fingerprint.
    FileNotFoundError
        If the file does not exist.
    """
    path = Path(path)
    try:
        mm = np.memmap(path, dtype=np.uint8, mode="r")
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as error:
        raise ParseError(f"{path}: unreadable arena ({error})") from error
    directory = _load_directory(path, mm)
    meta = directory.get("meta", {})
    fingerprint = str(meta.get("fingerprint", ""))
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise ParseError(
            f"{path}: stale arena (fingerprint {fingerprint[:12] or '<none>'}… "
            f"!= expected {expected_fingerprint[:12]}…)"
        )
    tables: dict[str, Table] = {}
    for table_name, entry in directory["tables"].items():
        n_rows = int(entry["n_rows"])
        data: dict[str, np.ndarray] = {}
        lazy: dict[str, _LazyStrings] = {}
        for column in entry["columns"]:
            name = column["name"]
            if column["repr"] == "raw":
                data[name] = _raw_view(mm, column, path, n_rows)
            elif column["repr"] == "dict":
                codes = _raw_view(mm, column["codes"], path, n_rows)
                pool_spec = column["pool"]
                p_off = int(pool_spec["offset"])
                p_len = int(pool_spec["nbytes"])
                if p_off + p_len > mm.size:
                    raise ParseError(
                        f"{path}: blob out of bounds at offset {p_off}"
                    )
                offsets_spec = dict(column["offsets"])
                offsets = mm[
                    int(offsets_spec["offset"]) : int(offsets_spec["offset"])
                    + int(offsets_spec["nbytes"])
                ].view(np.dtype(offsets_spec["dtype"]))
                if len(offsets) == 0 or int(offsets[-1]) != p_len:
                    raise ParseError(
                        f"{path}: string pool inconsistent for "
                        f"{table_name}.{name}"
                    )
                lazy[name] = _LazyStrings(
                    codes, offsets, mm[p_off : p_off + p_len]
                )
                data[name] = None  # type: ignore[assignment] - placeholder
            else:
                raise ParseError(
                    f"{path}: unknown column repr {column['repr']!r}"
                )
        tables[table_name] = Table._from_lazy(data, lazy, n_rows)
    return tables, meta


def _attach_key(path: str | Path, fingerprint: str) -> tuple[str, str]:
    return os.path.realpath(str(path)), fingerprint


def attach_arena(
    path: str | Path, fingerprint: str = ""
) -> tuple[dict[str, Table], dict]:
    """Attach (or reuse this process's attachment of) an arena file.

    The per-process cache is keyed by ``(realpath, fingerprint)`` and
    invalidated when the file's mtime changes, so a rewritten arena is
    re-attached instead of served stale.
    """
    key = _attach_key(path, fingerprint)
    try:
        mtime_ns = os.stat(key[0]).st_mtime_ns
    except OSError:
        mtime_ns = -1
    cached = _ATTACHED.get(key)
    if cached is not None and cached[2] == mtime_ns:
        return cached[0], cached[1]
    tables, meta = read_arena(
        path, expected_fingerprint=fingerprint or None
    )
    for table_name, table in tables.items():
        table._arena = (str(path), table_name, fingerprint)
    _ATTACHED[key] = (tables, meta, mtime_ns)
    return tables, meta


def attach_table(path: str, table_name: str, fingerprint: str) -> Table:
    """Rebuild one table from its arena descriptor (the unpickle hook)."""
    tables, _meta = attach_arena(path, fingerprint)
    try:
        return tables[table_name]
    except KeyError:
        raise ParseError(
            f"{path}: arena has no table {table_name!r}"
        ) from None


def detach_all() -> None:
    """Drop this process's attachment cache (mainly for tests)."""
    _ATTACHED.clear()
