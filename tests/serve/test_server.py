"""End-to-end tests of the repro-serve daemon.

Most tests drive :meth:`ReproServer.handle_query` directly — the full
admission → dispatch → worker → response path minus the HTTP socket —
and a couple go through the real HTTP front.  The SIGTERM drill runs
the actual ``repro-serve`` CLI in a subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dataset import MiraDataset
from repro.serve.server import ReproServer, ServeConfig

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def dataset():
    return MiraDataset.synthesize(n_days=2.0, seed=3)


@pytest.fixture()
def server(dataset):
    srv = ReproServer(
        dataset,
        fingerprint="test-fp",
        config=ServeConfig(workers=2, drain_s=3.0),
    )
    srv.start()
    yield srv
    srv.drain_and_stop("test-teardown")


def query(srv, **payload):
    payload.setdefault("schema", 1)
    return srv.handle_query(payload)


class TestHappyPath:
    def test_ping_round_trips_through_a_worker(self, server):
        response = query(server, mode="ping", request_id="p1")
        assert response.outcome == "ok"
        assert response.request_id == "p1"
        assert response.http_status == 200

    def test_summary_returns_dataset_counts(self, server, dataset):
        response = query(server, mode="summary")
        assert response.outcome == "ok"
        assert response.result["summary"]["n_jobs"] == dataset.jobs.n_rows

    def test_experiment_returns_journal_form_result(self, server):
        response = query(server, mode="experiment", experiment="e01")
        assert response.outcome == "ok"
        from repro.experiments.journal import result_from_json

        result = result_from_json(response.result)
        assert result.experiment_id == "e01"

    def test_request_ids_are_assigned_when_missing(self, server):
        response = query(server, mode="ping")
        assert response.request_id.startswith("srv-")

    def test_unknown_experiment_is_invalid_without_a_worker(self, server):
        response = query(server, mode="experiment", experiment="e99")
        assert response.outcome == "invalid"
        assert "unknown experiment" in response.message

    def test_malformed_payload_is_invalid(self, server):
        response = query(server, mode="teleport")
        assert response.outcome == "invalid"
        assert response.http_status == 400


class TestDeadlines:
    def test_sleep_past_deadline_is_cancelled_in_worker(self, server):
        started = time.monotonic()
        response = query(
            server, mode="sleep", seconds=30.0, deadline_ms=300
        )
        assert response.outcome == "deadline_exceeded"
        assert response.http_status == 504
        # The in-worker SIGALRM cancels promptly: nowhere near the
        # 30s sleep, and well under the supervisor's grace backstop.
        assert time.monotonic() - started < 5.0

    def test_worker_survives_a_cancelled_request(self, server):
        query(server, mode="sleep", seconds=30.0, deadline_ms=200)
        assert server.workers_replaced() == 0
        assert query(server, mode="ping").outcome == "ok"


class TestChaos:
    def test_kill_worker_is_isolated_and_replaced(self, server):
        server.arm_chaos("kill_worker:ping:1")
        try:
            response = query(server, mode="ping", request_id="doomed")
        finally:
            server.arm_chaos("")
        assert response.outcome == "error"
        assert "worker process died" in response.message
        assert server.workers_replaced() >= 1
        # The replacement worker serves the next request.
        assert query(server, mode="ping").outcome == "ok"

    def test_hang_trips_the_supervisor_stall_kill(self, server):
        server.arm_chaos("hang:ping:60")
        try:
            started = time.monotonic()
            response = query(server, mode="ping", deadline_ms=300)
        finally:
            server.arm_chaos("")
        assert response.outcome == "deadline_exceeded"
        assert "killed" in response.message
        # Deadline + supervisor grace, not the 60s hang.
        assert time.monotonic() - started < 10.0
        assert server.workers_replaced() >= 1

    def test_bad_spec_is_refused_eagerly(self, server):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            server.arm_chaos("explode:everything")

    def test_arming_affects_only_requests_admitted_while_armed(self, server):
        assert query(server, mode="ping").outcome == "ok"
        server.arm_chaos("kill_worker:ping:1")
        server.arm_chaos("")
        assert query(server, mode="ping").outcome == "ok"


class TestBreaker:
    @pytest.fixture()
    def flaky_server(self, dataset):
        srv = ReproServer(
            dataset,
            config=ServeConfig(
                workers=1,
                drain_s=2.0,
                breaker_threshold=2,
                breaker_cooldown_s=0.4,
            ),
        )
        srv.start()
        yield srv
        srv.drain_and_stop("test-teardown")

    def test_trip_refuse_and_recover(self, flaky_server):
        srv = flaky_server
        srv.arm_chaos("kill_worker:e01:1")
        for _ in range(2):
            assert (
                query(srv, mode="experiment", experiment="e01").outcome
                == "error"
            )
        # Tripped: refused without touching a worker.
        replaced_before = srv.workers_replaced()
        refused = query(srv, mode="experiment", experiment="e01")
        assert refused.outcome == "breaker_open"
        assert refused.http_status == 503
        assert refused.retry_after_s is not None
        assert refused.breaker["state"] == "open"
        assert srv.workers_replaced() == replaced_before
        # Heal the source, wait out the cooldown: the half-open probe
        # closes the breaker again.
        srv.arm_chaos("")
        time.sleep(0.5)
        recovered = query(srv, mode="experiment", experiment="e01")
        assert recovered.outcome == "ok"
        assert recovered.breaker["state"] == "closed"
        assert (
            query(srv, mode="experiment", experiment="e01").outcome == "ok"
        )

    def test_other_experiments_unaffected_by_a_tripped_breaker(
        self, flaky_server
    ):
        srv = flaky_server
        srv.arm_chaos("kill_worker:e01:1")
        for _ in range(2):
            query(srv, mode="experiment", experiment="e01")
        srv.arm_chaos("")
        assert (
            query(srv, mode="experiment", experiment="e02").outcome == "ok"
        )

    def test_probe_expiring_in_queue_releases_the_half_open_slot(
        self, flaky_server
    ):
        # Regression: a half-open probe whose deadline expired while
        # queued used to keep the probe slot reserved forever, so every
        # later request answered breaker_open until a restart.
        srv = flaky_server
        srv.arm_chaos("kill_worker:e01:1")
        for _ in range(2):
            assert (
                query(srv, mode="experiment", experiment="e01").outcome
                == "error"
            )
        srv.arm_chaos("")
        # Occupy the only worker so the probe has to sit in queue.
        blocker = threading.Thread(
            target=lambda: query(srv, mode="sleep", seconds=1.2),
            daemon=True,
        )
        blocker.start()
        time.sleep(0.6)  # worker busy, breaker cooldown (0.4s) elapsed
        probe = query(
            srv, mode="experiment", experiment="e01", deadline_ms=200
        )
        assert probe.outcome == "deadline_exceeded"
        blocker.join(timeout=10.0)
        # The slot was released: the next request is admitted as the
        # new probe, succeeds, and closes the breaker.
        recovered = query(srv, mode="experiment", experiment="e01")
        assert recovered.outcome == "ok"
        assert recovered.breaker["state"] == "closed"


class TestOverload:
    """Satellite: a full queue sheds with a typed response + retry hint."""

    @pytest.fixture()
    def tiny_server(self, dataset):
        srv = ReproServer(
            dataset,
            config=ServeConfig(
                workers=1,
                interactive_capacity=1,
                batch_capacity=1,
                drain_s=4.0,
            ),
        )
        srv.start()
        yield srv
        srv.drain_and_stop("test-teardown")

    def test_full_lane_sheds_with_retry_after(self, tiny_server):
        srv = tiny_server
        background = []

        def fire(seconds):
            thread = threading.Thread(
                target=lambda: background.append(
                    query(srv, mode="sleep", seconds=seconds)
                ),
                daemon=True,
            )
            thread.start()
            return thread

        threads = [fire(0.8)]  # occupies the only worker
        time.sleep(0.3)  # let the dispatcher take it off the queue
        threads.append(fire(0.8))  # fills the 1-deep interactive lane
        time.sleep(0.1)
        shed = query(srv, mode="ping", request_id="overflow")
        assert shed.outcome == "shed"
        assert shed.http_status == 503
        assert shed.retry_after_s is not None and shed.retry_after_s > 0
        assert "queue full" in shed.message
        # The batch lane still has room — priorities shed independently.
        assert query(
            srv, mode="ping", priority="batch"
        ).outcome in ("ok", "shed")
        for thread in threads:
            thread.join(timeout=10.0)
        assert [r.outcome for r in background] == ["ok", "ok"]


class TestGracefulDrain:
    """Satellite: drain finishes in-flight work and journals shutdown."""

    def _journal(self, tmp_path):
        from repro.experiments.journal import RunJournal

        return RunJournal.start(
            tmp_path / "runs",
            fingerprint="drain-fp",
            config={"serve": True},
            run_id="drain-test",
        )

    def _events(self, journal):
        lines = (journal.directory / "journal.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]

    def test_drain_finishes_in_flight_and_journals(self, dataset, tmp_path):
        journal = self._journal(tmp_path)
        srv = ReproServer(
            dataset,
            fingerprint="drain-fp",
            config=ServeConfig(workers=1, drain_s=5.0),
            journal=journal,
        )
        srv.start()
        in_flight = {}

        def slow_request():
            in_flight["response"] = query(
                srv, mode="sleep", seconds=0.6, request_id="inflight"
            )

        thread = threading.Thread(target=slow_request, daemon=True)
        thread.start()
        time.sleep(0.25)  # request is running on the worker
        srv.drain_and_stop("test-sigterm")
        thread.join(timeout=10.0)
        # The in-flight request finished normally within the budget.
        assert in_flight["response"].outcome == "ok"
        events = {
            r["event"]: r for r in self._events(journal) if "event" in r
        }
        assert events["drain-start"]["reason"] == "test-sigterm"
        shutdown = events["shutdown"]
        assert shutdown["drained_in_time"] is True
        assert shutdown["outcomes"].get("ok", 0) >= 1

    def test_requests_during_drain_get_typed_draining(self, dataset):
        srv = ReproServer(dataset, config=ServeConfig(workers=1, drain_s=1.0))
        srv.start()
        srv.request_stop("test")
        response = query(srv, mode="ping")
        assert response.outcome == "draining"
        assert response.http_status == 503
        assert response.retry_after_s is not None
        srv.run_until_stopped()

    def test_overrunning_work_is_killed_and_answered_draining(
        self, dataset
    ):
        srv = ReproServer(
            dataset, config=ServeConfig(workers=1, drain_s=0.3)
        )
        srv.start()
        outcome = {}

        def never_finishes():
            outcome["response"] = query(
                srv, mode="sleep", seconds=60.0, deadline_ms=50_000
            )

        thread = threading.Thread(target=never_finishes, daemon=True)
        thread.start()
        time.sleep(0.2)
        started = time.monotonic()
        srv.drain_and_stop("budget-blown")
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        # Still a typed outcome — the request was not dropped.
        assert outcome["response"].outcome == "draining"
        assert time.monotonic() - started < 12.0


class TestHealth:
    def test_healthz_reports_fleet_state(self, server):
        query(server, mode="ping")
        payload = server.healthz()
        assert payload["status"] == "ok"
        assert payload["dataset"]["fingerprint"] == "test-fp"
        assert payload["workers"]["slots"] == 2
        assert payload["workers"]["alive"] == 2
        assert payload["requests"].get("ok", 0) >= 1
        assert "interactive" in payload["queue"]

    def test_readyz_flips_on_drain(self, dataset):
        srv = ReproServer(dataset, config=ServeConfig(workers=1, drain_s=0.5))
        srv.start()
        assert srv.readyz()[0] is True
        srv.request_stop("test")
        ready, payload = srv.readyz()
        assert ready is False
        assert payload["reason"] == "draining"
        srv.run_until_stopped()


class TestTrace:
    def test_trace_opens_with_process_start_then_requests(
        self, dataset, tmp_path
    ):
        from repro.experiments.journal import RunJournal
        from repro.obs.schema import validate_file

        journal = RunJournal.start(
            tmp_path / "runs", fingerprint="trace-fp",
            config={"serve": True}, run_id="trace-test",
        )
        srv = ReproServer(
            dataset, fingerprint="trace-fp",
            config=ServeConfig(workers=1, trace=True), journal=journal,
            main_at=time.monotonic(),
        )
        srv.start()
        assert query(srv, mode="ping").outcome == "ok"
        srv.drain_and_stop("test")
        records = validate_file(journal.directory / "trace.jsonl")
        spans = [r for r in records if r["kind"] == "span"]
        names = [s["name"] for s in spans]
        assert "serve.request" in names
        if not sys.platform.startswith("linux"):
            assert "process.start" not in names
            return
        first = spans[0]
        assert first["name"] == "process.start" and first["start"] == 0.0
        assert all(s["start"] >= first["seconds"] for s in spans[1:])


class TestHTTPFront:
    def test_query_health_and_errors_over_real_http(self, server):
        from repro.serve.replay import _http_json

        url = f"http://127.0.0.1:{server.port}"
        status, body = _http_json(
            url, "POST", "/query", {"schema": 1, "mode": "ping"}
        )
        assert status == 200 and body["outcome"] == "ok"
        status, body = _http_json(url, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = _http_json(url, "GET", "/readyz")
        assert status == 200 and body["ready"] is True
        status, body = _http_json(url, "POST", "/query", None)
        assert status == 400 and body["outcome"] == "invalid"
        status, body = _http_json(url, "GET", "/nope")
        assert status == 404

    def test_keep_alive_round_trips_beat_the_delayed_ack_floor(self, server):
        # Headers and body leave in two writes; with Nagle on, the body
        # waits for the client's delayed ACK (~40 ms) on a reused
        # connection.  Half that floor is far above a ping's real cost.
        import http.client
        import statistics

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        body = json.dumps({"schema": 1, "mode": "ping"}).encode()
        round_trips = []
        try:
            for index in range(31):
                started = time.perf_counter()
                conn.request(
                    "POST", "/query", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert payload["outcome"] == "ok"
                if index:  # the first request warms connection and worker
                    round_trips.append(time.perf_counter() - started)
        finally:
            conn.close()
        assert statistics.median(round_trips) < 0.020


class TestSigtermDrill:
    """Satellite: SIGTERM mid-request → in-flight completes, clean exit."""

    def test_sigterm_drains_gracefully(self, tmp_path):
        runs_root = tmp_path / "runs"
        env = dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_RUNS_DIR=str(runs_root),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.serve.cli import main_serve; import sys; "
                "sys.exit(main_serve(["
                "'--days','2','--seed','3','--workers','1',"
                "'--run-id','drill','--no-cache','--drain-seconds','6']))",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        endpoint_file = runs_root / "drill" / "endpoint.json"
        try:
            for _ in range(200):
                if endpoint_file.exists():
                    break
                assert child.poll() is None, child.communicate()[1]
                time.sleep(0.1)
            else:
                pytest.fail("server never wrote endpoint.json")
            url = json.loads(endpoint_file.read_text())["url"]

            from repro.serve.replay import _http_json

            answer = {}

            def in_flight():
                answer["status"], answer["body"] = _http_json(
                    url,
                    "POST",
                    "/query",
                    {"schema": 1, "mode": "sleep", "seconds": 1.0,
                     "request_id": "mid-sigterm", "deadline_ms": 20_000},
                    timeout=30.0,
                )

            thread = threading.Thread(target=in_flight, daemon=True)
            thread.start()
            time.sleep(0.4)  # the sleep is running on the worker
            child.send_signal(signal.SIGTERM)
            thread.join(timeout=30.0)
            stdout, stderr = child.communicate(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, stderr
        # The in-flight request completed normally despite the SIGTERM.
        assert answer["status"] == 200
        assert answer["body"]["outcome"] == "ok"
        assert answer["body"]["request_id"] == "mid-sigterm"
        # The shutdown was journaled as a graceful drain.
        records = [
            json.loads(line)
            for line in (runs_root / "drill" / "journal.jsonl")
            .read_text()
            .splitlines()
        ]
        shutdown = [r for r in records if r.get("event") == "shutdown"]
        assert len(shutdown) == 1
        assert shutdown[0]["reason"] == "SIGTERM"
        assert shutdown[0]["drained_in_time"] is True
        ends = [r for r in records if r.get("kind") == "end"]
        assert ends and ends[0]["status"] == "complete"
