"""Core tracing: nesting, metrics, serialization, absorb, no-op cost."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import trace
from repro.obs.schema import TraceSchemaError, validate_file, validate_lines


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    """Tracing must be off before and after every test here."""
    assert trace.active() is None
    yield
    trace.uninstall()


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        with trace.recording() as recorder:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
                with trace.span("sibling"):
                    pass
        outer, inner, sibling = recorder.spans
        assert outer["parent"] is None and outer["depth"] == 0
        assert inner["parent"] == outer["id"] and inner["depth"] == 1
        assert sibling["parent"] == outer["id"] and sibling["depth"] == 1

    def test_durations_are_monotonic_and_nested(self):
        with trace.recording() as recorder:
            with trace.span("outer"):
                with trace.span("inner"):
                    time.sleep(0.002)
        outer, inner = recorder.spans
        assert inner["seconds"] >= 0.002
        assert outer["seconds"] >= inner["seconds"]
        assert outer["start"] <= inner["start"]

    def test_note_attaches_attrs_mid_span(self):
        with trace.recording() as recorder:
            with trace.span("csv.tokenize", file="jobs.csv") as sp:
                sp.note(rows=42, fields=7)
        (span,) = recorder.spans
        assert span["attrs"] == {"file": "jobs.csv", "rows": 42, "fields": 7}

    def test_exception_closes_span_and_records_error_class(self):
        with trace.recording() as recorder:
            with pytest.raises(ValueError):
                with trace.span("doomed"):
                    raise ValueError("boom")
            # The stack unwound: new spans are roots again.
            with trace.span("after"):
                pass
        doomed, after = recorder.spans
        assert doomed["attrs"]["error"] == "ValueError"
        assert after["parent"] is None

    def test_counters_accumulate_and_gauges_overwrite(self):
        with trace.recording() as recorder:
            trace.add("csv.rows", 10)
            trace.add("csv.rows", 5)
            trace.set_gauge("cache.entries", 3)
            trace.set_gauge("cache.entries", 9)
        assert recorder.counters == {"csv.rows": 15}
        assert recorder.gauges == {"cache.entries": 9}


class TestDisabled:
    def test_span_is_shared_noop_when_off(self):
        first = trace.span("anything", rows=1)
        second = trace.span("else")
        assert first is second  # the shared _NULL_SPAN, no allocation
        with first as sp:
            sp.note(rows=2)  # discards silently
        trace.add("counter")
        trace.set_gauge("gauge", 1.0)  # no recorder: both no-ops

    def test_recording_restores_previous_recorder(self):
        outer = trace.install(trace.TraceRecorder())
        try:
            with trace.recording() as inner:
                assert trace.active() is inner
            assert trace.active() is outer
        finally:
            trace.uninstall()

    def test_disabled_span_costs_under_a_microsecond(self):
        """The acceptance guard: one global load + `is None` per span."""
        n = 20_000

        def timed_once() -> float:
            t0 = time.perf_counter()
            for _ in range(n):
                with trace.span("hot"):
                    pass
            return (time.perf_counter() - t0) / n
        # min-of-repeats filters scheduler noise; the true cost is ~50 ns.
        assert min(timed_once() for _ in range(5)) < 1e-6


class TestSerialization:
    def test_write_produces_schema_valid_jsonl(self, tmp_path):
        with trace.recording() as recorder:
            with trace.span("outer", label="x"):
                with trace.span("inner"):
                    pass
            trace.add("rows", 3)
            trace.set_gauge("level", 0.5)
        path = recorder.write(tmp_path / "trace.jsonl", run_id="r1")
        validate_file(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["kind"] == "trace" and records[0]["run_id"] == "r1"
        kinds = [r["kind"] for r in records[1:]]
        assert kinds == ["span", "span", "counter", "gauge"]

    def test_absorb_rebases_ids_and_keeps_batch_parent_links(self):
        with trace.recording() as shipped_rec:
            with trace.span("experiment", id="e01"):
                with trace.span("kernel.bootstrap"):
                    pass
        shipped = tuple(shipped_rec.spans)
        trace.uninstall()

        with trace.recording() as supervisor:
            with trace.span("supervisor.local"):
                pass
            supervisor.absorb(shipped, counters={"resamples": 100})
        local, experiment, kernel = supervisor.spans
        assert experiment["id"] == local["id"] + 1
        assert experiment["parent"] is None  # batch roots stay roots
        assert kernel["parent"] == experiment["id"]
        assert supervisor.counters == {"resamples": 100}

    def test_absorb_copies_records(self):
        """Shipped dicts are not aliased into the supervisor's trace."""
        shipped = (
            {
                "kind": "span", "id": 0, "parent": None, "name": "experiment",
                "start": 0.0, "seconds": 1.0, "depth": 0, "pid": 1,
                "attrs": {"id": "e01"},
            },
        )
        recorder = trace.TraceRecorder()
        recorder.absorb(shipped)
        recorder.spans[0]["attrs"]["mutated"] = True
        assert "mutated" not in shipped[0]["attrs"]


on_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="process start from /proc"
)


class TestProcessStart:
    @on_linux
    def test_fresh_interpreter_age_is_its_start_up(self):
        # A wrong /proc field or clock would be off by the machine's
        # uptime, not by the tenths of a second start-up takes.
        probe = (
            "import time\n"
            "from repro.obs.trace import process_start\n"
            "main_at = time.perf_counter()\n"
            "print(main_at - process_start(main_at))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert 0.0 <= float(out) < 10.0

    @on_linux
    def test_span_opens_the_trace_and_rebases_its_clock(self, tmp_path):
        main_at = time.perf_counter()
        recorder = trace.TraceRecorder()
        recorder.mark_process_start(main_at)
        with trace.recording(recorder):
            with trace.span("work"):
                pass
        first, work = recorder.spans
        assert first["name"] == "process.start"
        assert first["id"] == 0 and first["parent"] is None
        assert first["start"] == 0.0 and first["seconds"] > 0.0
        assert work["start"] >= first["seconds"]
        validate_file(recorder.write(tmp_path / "trace.jsonl"))

    def test_omitted_where_the_start_is_unknown(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert trace.process_start(time.perf_counter()) is None
        recorder = trace.TraceRecorder()
        recorder.mark_process_start(time.perf_counter())
        assert recorder.spans == []


class TestSchemaValidation:
    def _valid_lines(self):
        with trace.recording() as recorder:
            with trace.span("a"):
                pass
        return [
            json.dumps(record) for record in recorder.records(run_id="r1")
        ]

    def test_rejects_missing_header(self):
        lines = self._valid_lines()[1:]
        with pytest.raises(TraceSchemaError, match="header"):
            validate_lines(lines, where="t")

    def test_rejects_unknown_parent(self):
        lines = self._valid_lines()
        record = json.loads(lines[1])
        record["parent"] = 99
        with pytest.raises(TraceSchemaError, match="parent"):
            validate_lines([lines[0], json.dumps(record)], where="t")

    def test_rejects_bool_where_number_expected(self):
        lines = self._valid_lines()
        record = json.loads(lines[1])
        record["seconds"] = True
        with pytest.raises(TraceSchemaError):
            validate_lines([lines[0], json.dumps(record)], where="t")
