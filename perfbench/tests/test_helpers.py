"""Tests for the benchmark's own helpers.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os

import pytest

import loadgen
from common import percentile, samples_beyond, tail_percentile
from spans import SpanRecorder, covered, merge_span_files, self_times, wrap_targets, Target


# -- percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time -------------------------------------------------------------


def _span(sid, parent, start, end, name="x", pid=1):
    return {"id": sid, "parent": parent, "name": name, "pid": pid,
            "start": start, "end": end}


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span("a", None, 0.0, 10.0),
        _span("b", "a", 1.0, 4.0),
        _span("c", "b", 2.0, 3.0),  # grandchild: inside b, not charged to a twice
        _span("d", "a", 6.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs["a"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs["b"] == pytest.approx(2.0)
    assert selfs["c"] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        _span("suite", None, 0.0, 10.0),
        _span("w1", "suite", 1.0, 6.0, pid=2),  # two pool workers in parallel
        _span("w2", "suite", 4.0, 8.0, pid=3),
        _span("w3", "suite", 9.0, 12.0, pid=2),  # sticks out of the parent
    ]
    assert self_times(spans)["suite"] == pytest.approx(10.0 - 7.0 - 1.0)
    assert covered([(1, 6), (4, 8), (9, 12)]) == pytest.approx(10.0)


# -- span files across processes ----------------------------------------------


def test_forked_child_writes_its_own_file_and_links_to_its_parent(tmp_path):
    recorder = SpanRecorder(tmp_path)
    outer = recorder.begin("suite")
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 0
        try:
            child = recorder.begin("experiment")
            recorder.end(child)  # outermost in the child: flushed now
        except BaseException:
            code = 1
        os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    recorder.end(outer)
    recorder.write()
    files = sorted(p.name for p in tmp_path.glob("spans-*.jsonl"))
    assert files == sorted([f"spans-{os.getpid()}.jsonl", f"spans-{pid}.jsonl"])
    spans = merge_span_files(tmp_path)
    by_name = {s["name"]: s for s in spans}
    assert by_name["experiment"]["parent"] == by_name["suite"]["id"]
    assert by_name["experiment"]["pid"] == pid
    assert [s["start"] for s in spans] == sorted(s["start"] for s in spans)


def test_merge_refuses_duplicate_ids_and_dangling_parents(tmp_path):
    span = _span("1:1", None, 0.0, 1.0)
    (tmp_path / "spans-1.jsonl").write_text(json.dumps(span) + "\n")
    (tmp_path / "spans-2.jsonl").write_text(json.dumps(span) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        merge_span_files(tmp_path)
    (tmp_path / "spans-2.jsonl").write_text(
        json.dumps(_span("2:1", "9:9", 0.0, 1.0)) + "\n"
    )
    with pytest.raises(ValueError, match="unknown parent"):
        merge_span_files(tmp_path)


def test_wrap_targets_reaches_aliases_and_restores(tmp_path):
    import repro.stats
    import repro.stats.bootstrap as bootstrap

    original = bootstrap.bootstrap_ci
    recorder = SpanRecorder(tmp_path)
    restore = wrap_targets(
        recorder, [Target("repro.stats.bootstrap", "bootstrap_ci", "stats.bootstrap_ci")]
    )
    try:
        assert repro.stats.bootstrap_ci is bootstrap.bootstrap_ci is not original
        repro.stats.bootstrap_ci([1.0, 2.0, 3.0, 4.0], lambda x: x.mean(), n_resamples=10)
    finally:
        restore()
    assert repro.stats.bootstrap_ci is original and bootstrap.bootstrap_ci is original
    assert [s["name"] for s in recorder.spans] == ["stats.bootstrap_ci"]


# -- seeded inputs -----------------------------------------------------------


def test_request_sequence_is_fixed_by_seed():
    first = loadgen.request_sequence(7, 2000)
    assert first == loadgen.request_sequence(7, 2000)
    assert first != loadgen.request_sequence(8, 2000)


def test_request_blocks_follow_zipf_and_hold_every_mode():
    counts = loadgen.block_counts()
    assert sum(counts.values()) == loadgen.FLUSH_EVERY
    assert min(counts.values()) >= 1
    ranked = [counts[mode] for mode in loadgen.MODES]
    assert ranked == sorted(ranked, reverse=True)
    sequence = loadgen.request_sequence(3, 5 * loadgen.FLUSH_EVERY)
    for start in range(0, len(sequence), loadgen.FLUSH_EVERY):
        block = sequence[start:start + loadgen.FLUSH_EVERY]
        assert {m: sum(1 for x, _ in block if x == m) for m in counts} == counts
        assert sum(p == "batch" for _, p in block) == 25


def _feed_bytes(directory):
    return {
        path.name: path.read_bytes()
        for path in sorted((directory / "feed").iterdir())
        if path.is_file()
    }


def test_stream_feed_is_fixed_by_seed(tmp_path, monkeypatch):
    import gen

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.make_stream(tmp_path / name, 3.0, seed, backlog=1000)
    a, b, c = (_feed_bytes(tmp_path / n) for n in "abc")
    assert a == b
    assert a != c
    assert (tmp_path / "a" / "checkpoint" / "checkpoint.json").exists()


# -- BENCHMARK.json agrees with the code -----------------------------------------


def test_benchmark_json_matches_the_metrics_the_code_prints():
    from pathlib import Path

    import layers
    import run

    root = Path(__file__).resolve().parents[2]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    rationale = json.loads((root / "perfbench" / "rationale.json").read_text())
    documented = set(rationale["per_layer"])
    for name, _, _ in layers.PER_LAYER:
        assert name in documented or name.startswith("experiments.e"), name
    for metric in run.END_TO_END_UNITS:
        assert set(rationale["end_to_end"][metric]) == set(run.WORKLOADS)
