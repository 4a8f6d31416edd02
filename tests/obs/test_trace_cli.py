"""End-to-end tracing: ``repro-report --trace`` + the ``repro-trace`` CLI."""

import json
import sys

import pytest

from repro.cli import main_report
from repro.obs import trace
from repro.obs.cli import main_trace
from repro.obs.schema import validate_file


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced report run (worker pool), shared by the read-only tests."""
    runs_root = tmp_path_factory.mktemp("runs")
    # A cold cache of its own, so e22's comparison traces run as input jobs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        rc = main_report(
            [
                "--days", "6", "--seed", "7", "--jobs", "2",
                "--run-id", "traced", "--no-cache", "--trace",
                "--run-dir", str(runs_root),
            ]
        )
    assert rc == 0
    return runs_root


class TestReportTrace:
    def test_trace_jsonl_is_schema_valid(self, traced_run):
        validate_file(traced_run / "traced" / "trace.jsonl")

    def test_spans_cover_synthesis_kernels_and_every_experiment(
        self, traced_run
    ):
        from repro.experiments import all_experiments

        records = validate_file(traced_run / "traced" / "trace.jsonl")
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert {
            "dataset.synthesize", "synth.ras", "synth.workload",
            "synth.scheduler", "synth.tasks", "synth.io", "synth.annotate",
        } <= names
        # The vectorized kernels that run on a 6-day trace.
        assert {"kernel.attribution", "kernel.bootstrap", "kernel.groupby"} <= names
        traced_experiments = {
            r["attrs"]["id"]
            for r in records
            if r["kind"] == "span" and r["name"] == "experiment"
        }
        assert traced_experiments == set(all_experiments())

    def test_worker_spans_keep_their_parent_links(self, traced_run):
        # Kernel spans shipped from workers must stay nested under their
        # "experiment" root after the supervisor re-bases their ids.
        # (Kernels also run under dataset.synthesize in the supervisor,
        # so only the experiment-rooted chains prove the worker path.)
        records = validate_file(traced_run / "traced" / "trace.jsonl")
        spans = {r["id"]: r for r in records if r["kind"] == "span"}

        def root(span):
            while span["parent"] is not None:
                span = spans[span["parent"]]
            return span

        worker_kernels = [
            s for s in spans.values()
            if s["name"].startswith("kernel.")
            and root(s)["name"] == "experiment"
        ]
        assert worker_kernels, "no kernel spans survived the worker boundary"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="process start from /proc"
    )
    def test_process_start_span_precedes_the_supervisor_spans(self, traced_run):
        records = validate_file(traced_run / "traced" / "trace.jsonl")
        spans = [r for r in records if r["kind"] == "span"]
        first = spans[0]
        assert first["name"] == "process.start" and first["start"] == 0.0
        assert [s["name"] for s in spans].count("process.start") == 1
        # Worker spans keep their own clocks; the supervisor's follow main.
        assert all(
            s["start"] >= first["seconds"]
            for s in spans[1:]
            if s["pid"] == first["pid"]
        )

    def test_input_jobs_ship_their_spans(self, traced_run):
        records = validate_file(traced_run / "traced" / "trace.jsonl")
        spans = {r["id"]: r for r in records if r["kind"] == "span"}
        inputs = [s for s in spans.values() if s["name"] == "suite.input"]
        assert sorted(s["attrs"]["backend"] for s in inputs) == [
            "google", "mistral", "mlcluster"
        ]
        supervisor = next(iter(spans.values()))["pid"]
        for root in inputs:
            assert root["parent"] is None and root["pid"] != supervisor
            children = {s["name"] for s in spans.values() if s["parent"] == root["id"]}
            assert "dataset.synthesize" in children
        report = (traced_run / "traced" / "report.txt").read_text()
        assert "input google: " in report.split("== TIMINGS ==")[1]

    def test_trace_implies_timings_section(self, traced_run):
        report = (traced_run / "traced" / "report.txt").read_text()
        assert "TIMINGS" in report

    def test_journal_carries_no_spans(self, traced_run):
        journal = traced_run / "traced" / "journal.jsonl"
        for line in journal.read_text().splitlines():
            assert "spans" not in json.loads(line)

    def test_recorder_uninstalled_after_run(self, traced_run):
        assert trace.active() is None

    def test_trace_conflicts_with_no_journal(self):
        with pytest.raises(SystemExit) as excinfo:
            main_report(["--trace", "--no-journal"])
        assert excinfo.value.code == 2


class TestIngestSpans:
    def test_saved_dataset_load_traces_csv_and_cache(self, tmp_path, capsys):
        """csv.* spans and cache miss/store counters from a real load."""
        from repro.dataset import MiraDataset

        dataset_dir = tmp_path / "ds"
        MiraDataset.synthesize(n_days=5, seed=3, cache=False).save(dataset_dir)
        with trace.recording() as recorder:
            MiraDataset.load(dataset_dir, cache=True)
        names = {s["name"] for s in recorder.spans}
        assert "dataset.load" in names
        assert {"csv.read", "csv.scan", "csv.tokenize", "csv.infer"} <= names
        assert recorder.counters["cache.miss"] >= 1
        assert recorder.counters["cache.store"] >= 1
        assert recorder.counters["csv.rows"] > 0

        with trace.recording() as warm:
            MiraDataset.load(dataset_dir, cache=True)
        assert warm.counters["cache.hit"] >= 1
        assert "cache.read" in {s["name"] for s in warm.spans}


class TestTraceCli:
    def test_validate_subcommand(self, traced_run, capsys):
        rc = main_trace(["--run-dir", str(traced_run), "validate", "traced"])
        assert rc == 0
        assert "OK:" in capsys.readouterr().out

    def test_summarize_subcommand(self, traced_run, capsys):
        rc = main_trace(
            ["--run-dir", str(traced_run), "summarize", "traced", "--top", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "span" in out and "self s" in out
        assert "experiment" in out
        assert "suite.input google: " in out
        if sys.platform.startswith("linux"):
            assert "process.start" in out  # shown whatever its rank

    def test_diff_self_is_flat(self, traced_run, capsys):
        rc = main_trace(
            [
                "--run-dir", str(traced_run),
                "diff", "traced", "traced", "--fail-above", "1.5",
            ]
        )
        assert rc == 0
        assert "1.00" in capsys.readouterr().out

    def test_diff_fail_above_gates_regressions(self, tmp_path, capsys):
        def write_trace(path, seconds):
            with trace.recording() as recorder:
                with trace.span("kernel.hot"):
                    pass
            recorder.spans[0]["seconds"] = seconds
            recorder.write(path, run_id="r")

        write_trace(tmp_path / "a.jsonl", 0.1)
        write_trace(tmp_path / "b.jsonl", 0.5)
        rc = main_trace(
            [
                "diff",
                str(tmp_path / "a.jsonl"),
                str(tmp_path / "b.jsonl"),
                "--fail-above", "1.5",
            ]
        )
        assert rc == 1
        assert "regression" in capsys.readouterr().err

    def test_missing_run_exits_1(self, tmp_path, capsys):
        rc = main_trace(["--run-dir", str(tmp_path), "summarize", "nope"])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().err
