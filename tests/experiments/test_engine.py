"""Parallel experiment engine: ordering, isolation, parity, timings."""

import json

import pytest

from repro.core.report import render_report
from repro.dataset import MiraDataset
from repro.experiments import run_suite
from repro.experiments.base import _REGISTRY, register
from repro.experiments.engine import bench_record, timing_lines, write_bench_json
from repro.faults import process_faults


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    import os

    os.environ.setdefault(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("engine-cache"))
    )
    return MiraDataset.synthesize(n_days=5.0, seed=42)


@pytest.fixture()
def crashing_experiment():
    """Temporarily register an experiment that always crashes."""

    @register("zz_crash", "always crashes")
    def _run(dataset):
        raise RuntimeError("kaboom")

    yield "zz_crash"
    _REGISTRY.pop("zz_crash")


@pytest.fixture()
def starved_experiment():
    """Temporarily register an experiment that raises an expected error."""

    @register("zz_starved", "always starved")
    def _run(dataset):
        raise ValueError("not enough samples")

    yield "zz_starved"
    _REGISTRY.pop("zz_starved")


class TestOrderingAndIsolation:
    def test_outcomes_preserve_requested_order(self, dataset):
        ids = ["e05", "e01", "e03"]
        suite = run_suite(dataset, ids, jobs=2)
        assert [o.experiment_id for o in suite.outcomes] == ids

    def test_crash_is_isolated(self, dataset, crashing_experiment):
        suite = run_suite(dataset, ["e01", crashing_experiment, "e02"], jobs=1)
        statuses = {o.experiment_id: o.status for o in suite.outcomes}
        assert statuses == {"e01": "ok", crashing_experiment: "error", "e02": "ok"}
        crashed = suite.outcome(crashing_experiment)
        assert crashed.message == "RuntimeError('kaboom')"
        assert crashed.result is None

    def test_expected_errors_become_skips(self, dataset, starved_experiment):
        suite = run_suite(dataset, [starved_experiment], jobs=1)
        outcome = suite.outcomes[0]
        assert outcome.status == "skipped"
        assert outcome.message == "not enough samples"

    def test_unknown_experiment_is_isolated_too(self, dataset):
        suite = run_suite(dataset, ["e01", "nope"], jobs=1)
        assert suite.outcome("nope").status == "error"
        assert suite.outcome("e01").status == "ok"

    def test_jobs_validation(self, dataset):
        with pytest.raises(ValueError, match="jobs must be"):
            run_suite(dataset, ["e01"], jobs=0)

    def test_duplicate_ids_rejected(self, dataset):
        with pytest.raises(ValueError, match="duplicate experiment id"):
            run_suite(dataset, ["e01", "e02", "e01"], jobs=1)

    def test_retries_validation(self, dataset):
        with pytest.raises(ValueError, match="retries must be"):
            run_suite(dataset, ["e01"], jobs=1, retries=-1)

    def test_outcome_lookup(self, dataset):
        suite = run_suite(dataset, ["e01", "e02"], jobs=1)
        assert suite.outcome("e02").experiment_id == "e02"
        with pytest.raises(KeyError, match="no outcome"):
            suite.outcome("e99")


class TestSupervision:
    """Timeout, worker-death re-dispatch, and replay — driven by the
    deterministic process-fault injectors."""

    def test_timeout_becomes_error_in_process(self, dataset):
        with process_faults("slow:e01:30"):
            suite = run_suite(dataset, ["e01"], jobs=1, timeout=0.5)
        outcome = suite.outcome("e01")
        assert outcome.status == "error"
        assert outcome.message == "timeout: exceeded 0.5s"
        assert not suite.interrupted

    def test_timeout_becomes_error_in_pool(self, dataset):
        with process_faults("slow:e01:30"):
            suite = run_suite(
                dataset, ["e01", "e02"], jobs=2, timeout=0.5, backoff=0.01
            )
        assert suite.outcome("e01").status == "error"
        assert "timeout" in suite.outcome("e01").message
        assert suite.outcome("e02").status == "ok"

    def test_worker_kill_redispatches_only_lost_work(self, dataset):
        journaled = []
        with process_faults("kill_worker:e03"):
            suite = run_suite(
                dataset,
                ["e01", "e03"],
                jobs=2,
                retries=2,
                backoff=0.01,
                on_outcome=journaled.append,
            )
        outcome = suite.outcome("e03")
        assert outcome.status == "ok"
        assert outcome.attempt == 2  # first dispatch died, retry survived
        assert suite.outcome("e01").status == "ok"
        # each experiment produced exactly one outcome — no full rerun
        ids = [o.experiment_id for o in journaled]
        assert sorted(ids) == ["e01", "e03"]

    def test_retry_budget_exhaustion_is_an_error_outcome(self, dataset):
        with process_faults("kill_worker:e03:9"):
            suite = run_suite(
                dataset, ["e01", "e03"], jobs=2, retries=1, backoff=0.01
            )
        outcome = suite.outcome("e03")
        assert outcome.status == "error"
        assert "worker lost" in outcome.message
        assert outcome.attempt == 2  # 1 + retries dispatches, all died
        assert suite.outcome("e01").status == "ok"

    def test_hang_trips_stall_detector_then_exhausts(self, dataset):
        # A hang blocks SIGALRM, so only the supervisor-side stall
        # detector can reclaim the worker.
        with process_faults("hang:e01:120"):
            suite = run_suite(
                dataset,
                ["e01", "e02"],
                jobs=2,
                timeout=0.3,
                retries=1,
                backoff=0.01,
            )
        outcome = suite.outcome("e01")
        assert outcome.status == "error"
        assert "worker lost" in outcome.message
        assert suite.outcome("e02").status == "ok"

    def test_completed_outcomes_replay_without_rerun(self, dataset):
        first = run_suite(dataset, ["e01", "e02"], jobs=1)
        fresh = []
        replayed = run_suite(
            dataset,
            ["e01", "e02"],
            jobs=1,
            completed={o.experiment_id: o for o in first.outcomes},
            on_outcome=fresh.append,
        )
        assert fresh == []  # nothing recomputed
        assert [o.experiment_id for o in replayed.outcomes] == ["e01", "e02"]
        assert replayed.outcome("e01") is first.outcome("e01")

    def test_partial_replay_runs_only_missing(self, dataset):
        first = run_suite(dataset, ["e01"], jobs=1)
        fresh = []
        suite = run_suite(
            dataset,
            ["e01", "e02"],
            jobs=1,
            completed={o.experiment_id: o for o in first.outcomes},
            on_outcome=fresh.append,
        )
        assert [o.experiment_id for o in fresh] == ["e02"]
        assert [o.experiment_id for o in suite.outcomes] == ["e01", "e02"]


class TestParallelParity:
    def test_parallel_report_text_is_byte_identical(self, dataset):
        ids = ["e01", "e02", "e03", "e04", "e05"]
        sequential = render_report(dataset, suite=run_suite(dataset, ids, jobs=1))
        parallel = render_report(dataset, suite=run_suite(dataset, ids, jobs=3))
        assert sequential == parallel

    def test_parallel_crash_parity(self, dataset, crashing_experiment):
        ids = ["e01", crashing_experiment, "e02"]
        sequential = render_report(dataset, suite=run_suite(dataset, ids, jobs=1))
        parallel = render_report(dataset, suite=run_suite(dataset, ids, jobs=2))
        assert sequential == parallel
        assert "failed experiment zz_crash: error: RuntimeError('kaboom')" in parallel

    def test_render_report_default_matches_engine_path(self, dataset):
        ids = ["e01", "e13"]
        assert render_report(dataset, experiment_ids=ids) == render_report(
            dataset, suite=run_suite(dataset, ids, jobs=1)
        )


class TestTimingsAndBench:
    def test_outcomes_carry_timings(self, dataset):
        suite = run_suite(dataset, ["e01", "e02"], jobs=1)
        for outcome in suite.outcomes:
            assert outcome.seconds >= 0.0
            assert outcome.max_rss_kb > 0
        assert suite.total_seconds >= sum(o.seconds for o in suite.outcomes) * 0.5

    def test_timings_section_is_flag_gated(self, dataset):
        suite = run_suite(dataset, ["e01"], jobs=1)
        plain = render_report(dataset, suite=suite)
        timed = render_report(dataset, suite=suite, timings=True)
        assert "== TIMINGS ==" not in plain
        assert "== TIMINGS ==" in timed
        assert "e01:" in "\n".join(timing_lines(suite))

    def test_bench_record_and_json_round_trip(self, dataset, tmp_path):
        suite = run_suite(dataset, ["e01", "e02"], jobs=2)
        record = bench_record(
            suite, dataset, stages={"load_cold_s": 1.5, "load_warm_s": 0.1}
        )
        path = write_bench_json(tmp_path / "BENCH_pipeline.json", record)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == 1
        assert loaded["suite"]["jobs"] == 2
        assert loaded["dataset"]["n_jobs"] == dataset.jobs.n_rows
        assert loaded["stages"]["load_cold_s"] == 1.5
        assert [e["id"] for e in loaded["experiments"]] == ["e01", "e02"]
        assert all(e["status"] == "ok" for e in loaded["experiments"])


@pytest.fixture()
def counting_experiment():
    """Temporarily register an experiment that bumps a trace counter."""
    from repro.obs import trace

    @register("zz_count", "bumps a counter")
    def _run(dataset):
        trace.add("zz.worker_counter", 3)
        raise ValueError("counted, nothing to report")

    yield "zz_count"
    _REGISTRY.pop("zz_count")


class TestWorkerTrace:
    def test_worker_spans_and_counters_reach_the_supervisor(
        self, dataset, counting_experiment
    ):
        from repro.obs import trace

        with trace.recording() as recorder:
            suite = run_suite(
                dataset, ["e01", counting_experiment], jobs=2, trace=True
            )
        assert suite.outcome(counting_experiment).rss_scope == "worker"
        assert recorder.counters.get("zz.worker_counter") == 3
        experiments = {
            span["attrs"]["id"]
            for span in recorder.spans
            if span["name"] == "experiment"
        }
        assert experiments == {"e01", counting_experiment}
