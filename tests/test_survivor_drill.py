"""Survivor drill: no worker outlives a SIGKILLed parent.

``repro-report --jobs N`` and ``repro-serve`` both run their work in
forked worker processes.  A supervisor killed outright (SIGKILL, the
OOM killer) gets no chance to clean up, so each worker must notice the
death on its own: busy or idle, every one must be gone within seconds.
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

from repro.faults import PROCESS_FAULT_ENV
from tests.proctree import descendants, needs_proc, survivors

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _spawn(tmp_path: Path, code: str, **env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env=dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_RUNS_DIR=str(tmp_path / "runs"),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
            **env,
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _kill_and_count_survivors(child: subprocess.Popen, workers: int) -> set:
    """Wait for ``workers`` descendants, SIGKILL ``child``, return the
    descendants still alive 5 s later (each killed before returning)."""
    deadline = time.monotonic() + 120.0
    try:
        while len(descendants(child.pid)) < workers:
            assert child.poll() is None, "parent exited before the kill"
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.1)
        time.sleep(0.5)  # let the workers take up their jobs
        tree = descendants(child.pid)
    finally:
        child.kill()
        child.wait()
    left = survivors(tree, within_s=5.0)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


@needs_proc
class TestSurvivorDrill:
    def test_report_workers_die_with_their_parent(self, tmp_path):
        argv = [
            "--days", "4", "--seed", "9", "--jobs", "2", "--no-journal",
            "--experiments", "e01", "e02",
        ]
        child = _spawn(
            tmp_path,
            f"import sys\nfrom repro.cli import main_report\n"
            f"sys.exit(main_report({argv!r}))",
            **{PROCESS_FAULT_ENV: "slow:e01:120;slow:e02:120"},
        )
        assert _kill_and_count_survivors(child, workers=2) == set()

    def test_serve_workers_die_with_their_parent(self, tmp_path):
        child = _spawn(
            tmp_path,
            "import sys\nfrom repro.serve.cli import main_serve\n"
            "sys.exit(main_serve(['--days', '2', '--seed', '3', "
            "'--workers', '2', '--run-id', 'drill', '--no-cache']))",
        )
        endpoint = tmp_path / "runs" / "drill" / "endpoint.json"
        deadline = time.monotonic() + 120.0
        while not endpoint.exists():
            assert child.poll() is None, "server exited before the kill"
            if time.monotonic() > deadline:
                child.kill()
                pytest.fail("server never wrote endpoint.json")
            time.sleep(0.1)
        url = json.loads(endpoint.read_text())["url"]

        from repro.serve.replay import _http_json

        def busy_one_worker():
            try:
                _http_json(
                    url, "POST", "/query",
                    {"schema": 1, "mode": "sleep", "seconds": 60.0,
                     "deadline_ms": 60_000},
                    timeout=70.0,
                )
            except OSError:
                pass  # the server is killed mid-request

        # One worker busy, the other idle: both must die.
        threading.Thread(target=busy_one_worker, daemon=True).start()
        assert _kill_and_count_survivors(child, workers=2) == set()
