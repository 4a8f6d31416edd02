"""Arena round-trips, lazy decode, descriptor pickling, corruption."""

import os
import pickle

import numpy as np
import pytest

from repro.errors import ColumnTypeError, ParseError
from repro.table import Table
from repro.table.arena import (
    ARENA_ALIGN,
    attach_arena,
    attach_table,
    detach_all,
    prune_stale_temps,
    read_arena,
    write_arena,
)


@pytest.fixture(autouse=True)
def _fresh_attach_cache():
    detach_all()
    yield
    detach_all()


def _sample_tables():
    return {
        "events": Table(
            {
                "timestamp": [1.5, 2.0, float("nan")],
                "count": np.array([1, 2, 3], dtype=np.int64),
                "ok": np.array([True, False, True]),
                "msg_id": ["00010001", "café ☃", ""],
            }
        ),
        "empty": Table({"a": np.empty(0, dtype=np.int64), "b": []}),
        "nothing": Table({}),
    }


class TestRoundTrip:
    def test_tables_and_meta_round_trip(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables(), meta={"fingerprint": "fp1", "k": 2})
        tables, meta = read_arena(path)
        assert meta["fingerprint"] == "fp1"
        assert meta["k"] == 2
        assert set(tables) == {"events", "empty", "nothing"}
        for name, original in _sample_tables().items():
            assert tables[name] == original
            assert tables[name].column_names == original.column_names

    def test_meta_round_trips_verbatim(self, tmp_path):
        path = tmp_path / "data.arena"
        meta = {"n_days": 3.5, "tags": ["x"]}
        write_arena(path, {"t": Table({"a": [1]})}, meta=meta)
        _tables, read_meta = read_arena(path)
        assert read_meta == meta

    def test_dtypes_survive(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables())
        tables, _ = read_arena(path)
        events = tables["events"]
        assert events["timestamp"].dtype == np.float64
        assert events["count"].dtype == np.int64
        assert events["ok"].dtype == np.bool_
        assert events["msg_id"].dtype.kind == "O"
        for name, original in _sample_tables().items():
            for column in original.column_names:
                assert tables[name][column].dtype == original[column].dtype

    def test_all_empty_string_column(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, {"t": Table({"block": ["", "", ""]})})
        tables, _ = read_arena(path)
        assert tables["t"]["block"].tolist() == ["", "", ""]

    def test_zero_row_and_zero_column_tables(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables())
        tables, _ = read_arena(path)
        assert tables["empty"].n_rows == 0
        assert tables["empty"].column_names == ["a", "b"]
        assert tables["empty"]["a"].dtype == np.int64
        assert tables["nothing"].column_names == []
        assert tables["nothing"] == _sample_tables()["nothing"]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables())
        assert [p.name for p in tmp_path.iterdir()] == ["data.arena"]

    def test_numeric_views_are_read_only_memmaps(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables())
        tables, _ = read_arena(path)
        col = tables["events"]["count"]
        assert not col.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            col[0] = 99
        assert col.ctypes.data % np.dtype(np.int64).itemsize == 0

    def test_string_columns_decode_lazily_and_correctly(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables())
        tables, _ = read_arena(path)
        msg = tables["events"]["msg_id"]
        assert msg.dtype.kind == "O"
        assert msg.tolist() == ["00010001", "café ☃", ""]

    def test_blob_alignment(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables())
        raw = path.read_bytes()
        import json
        import struct

        _magic, dir_off, dir_len = struct.unpack("<8sQQ", raw[:24])
        directory = json.loads(raw[dir_off : dir_off + dir_len])
        for entry in directory["tables"].values():
            for column in entry["columns"]:
                if column["repr"] == "raw":
                    assert column["offset"] % ARENA_ALIGN == 0

    def test_object_column_with_non_strings_rejected(self, tmp_path):
        bad = Table({"x": np.array([1.0, 2.0])}).with_column(
            "blob", np.array(["a", {"not": "a str"}], dtype=object)
        )
        with pytest.raises(ColumnTypeError, match="t.blob"):
            write_arena(tmp_path / "bad.arena", {"t": bad})
        assert not (tmp_path / "bad.arena").exists()

    def test_rejected_write_leaves_no_files(self, tmp_path):
        bad = np.empty(2, dtype=object)
        bad[0], bad[1] = "fine", 3.5
        table = Table({"a": [1, 2]}).with_column("label", bad)
        with pytest.raises(ColumnTypeError, match=r"t\.label"):
            write_arena(tmp_path / "bad.arena", {"t": table})
        assert list(tmp_path.iterdir()) == []


class TestAttachCache:
    def test_attach_is_cached_per_process(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables(), meta={"fingerprint": "fp"})
        tables_a, _ = attach_arena(path, "fp")
        tables_b, _ = attach_arena(path, "fp")
        assert tables_a["events"] is tables_b["events"]

    def test_rewrite_invalidates_cached_attachment(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, {"t": Table({"a": [1]})}, meta={"fingerprint": "fp"})
        first, _ = attach_arena(path, "fp")
        os.utime(path, ns=(0, 0))  # force a different mtime_ns
        write_arena(path, {"t": Table({"a": [2]})}, meta={"fingerprint": "fp"})
        second, _ = attach_arena(path, "fp")
        assert first["t"]["a"].tolist() == [1]
        assert second["t"]["a"].tolist() == [2]

    def test_pickle_ships_descriptor_not_data(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables(), meta={"fingerprint": "fp"})
        tables, _ = attach_arena(path, "fp")
        blob = pickle.dumps(tables["events"])
        # A descriptor is a few hundred bytes; the full table would be
        # far larger once every column rides along.
        assert len(blob) < 1024
        restored = pickle.loads(blob)
        assert restored is tables["events"]  # same-process cache hit

    def test_attach_table_unknown_name(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, {"t": Table({"a": [1]})}, meta={"fingerprint": "fp"})
        with pytest.raises(ParseError, match="no table 'zzz'"):
            attach_table(str(path), "zzz", "fp")


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.arena"
        path.write_bytes(b"NOTARENA" + b"\x00" * 64)
        with pytest.raises(ParseError, match="bad magic"):
            read_arena(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.arena"
        path.write_bytes(b"RPRARENA")
        with pytest.raises(ParseError, match="truncated"):
            read_arena(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "cut.arena"
        write_arena(path, _sample_tables())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError):
            read_arena(path)

    def test_stale_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "data.arena"
        write_arena(path, _sample_tables(), meta={"fingerprint": "old"})
        with pytest.raises(ParseError, match="stale arena"):
            read_arena(path, expected_fingerprint="new")

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_arena(tmp_path / "nope.arena")

    def test_attach_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            attach_arena(tmp_path / "nope.arena", "fp")

    def test_garbage_file_raises_parse_error(self, tmp_path):
        path = tmp_path / "bad.arena"
        path.write_bytes(b"not an archive")
        with pytest.raises(ParseError, match="not an arena|truncated"):
            read_arena(path)

    def test_future_format_version_rejected(self, tmp_path, monkeypatch):
        import repro.table.arena as arena_mod

        path = tmp_path / "data.arena"
        monkeypatch.setattr(
            arena_mod, "ARENA_FORMAT_VERSION", arena_mod.ARENA_FORMAT_VERSION + 1
        )
        write_arena(path, {"t": Table({"a": [1]})})
        monkeypatch.undo()
        with pytest.raises(ParseError, match="format version"):
            read_arena(path)


class TestPruneStaleTemps:
    def test_dead_pid_temp_removed_live_pid_kept(self, tmp_path):
        # PID 2**22 + large offset is far above pid_max defaults; our
        # own PID is definitionally alive.
        dead = tmp_path / "data.arena.tmp.4194304"
        dead.write_bytes(b"x")
        mine = tmp_path / f"data.arena.tmp.{os.getpid()}"
        mine.write_bytes(b"x")
        nonpid = tmp_path / "data.arena.tmp.notapid"
        nonpid.write_bytes(b"x")
        removed = prune_stale_temps(tmp_path)
        assert removed == 1
        assert not dead.exists()
        assert mine.exists()
        assert nonpid.exists()
