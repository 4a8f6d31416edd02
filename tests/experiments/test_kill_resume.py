"""End-to-end crash drill: SIGKILL a journaled run, resume, compare bytes.

The PR's acceptance scenario: a parallel ``repro-report`` run killed
mid-suite must resume from its journal without re-running finished
experiments, and the resumed report must be byte-identical to an
uninterrupted run over the same dataset.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main_report
from repro.faults import PROCESS_FAULT_ENV
from tests.proctree import descendants, survivors

IDS = ["e01", "e02", "e03", "e05"]
DAYS, SEED = "4", "9"

_CHILD = """
import sys
from repro.cli import main_report
sys.exit(main_report({argv!r}))
"""


def _count_outcomes(journal_path: Path) -> int:
    if not journal_path.exists():
        return 0
    n = 0
    for line in journal_path.read_text().splitlines():
        try:
            n += json.loads(line).get("kind") == "outcome"
        except json.JSONDecodeError:
            continue
    return n


@pytest.fixture()
def runs_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # conftest already points REPRO_RUNS_DIR at tmp_path / "runs"
    return Path(os.environ["REPRO_RUNS_DIR"])


class TestKillResume:
    def test_sigkilled_run_resumes_byte_identical(self, runs_root, capsys):
        # 1. the reference: an uninterrupted run
        argv = ["--days", DAYS, "--seed", SEED, "--jobs", "2", "--experiments"]
        assert main_report(argv + IDS + ["--run-id", "clean"]) == 0
        capsys.readouterr()
        clean_report = (runs_root / "clean" / "report.txt").read_bytes()

        # 2. the drill: same run, slowed on its last experiment and
        #    SIGKILLed once most of the suite is journaled
        env = dict(os.environ)
        env[PROCESS_FAULT_ENV] = "slow:e05:120"
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD.format(
                    argv=argv + IDS + ["--run-id", "drill", "--timeout", "300"]
                ),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal_path = runs_root / "drill" / "journal.jsonl"
        deadline = time.monotonic() + 120.0
        workers: set = set()
        try:
            while _count_outcomes(journal_path) < len(IDS) - 1:
                assert child.poll() is None, "drill run exited before the kill"
                assert time.monotonic() < deadline, "drill never journaled outcomes"
                time.sleep(0.1)
            if sys.platform.startswith("linux"):
                workers = descendants(child.pid)
        finally:
            child.kill()
            child.wait()
        # No worker outlives the SIGKILLed supervisor.
        assert survivors(workers, within_s=5.0) == set()

        journaled_before = _count_outcomes(journal_path)
        assert journaled_before == len(IDS) - 1

        # 3. resume (faults disarmed): only the lost experiment reruns
        assert main_report(["--resume", "drill"]) == 0
        capsys.readouterr()
        assert _count_outcomes(journal_path) == len(IDS)

        drill_report = (runs_root / "drill" / "report.txt").read_bytes()
        assert drill_report == clean_report

    def test_resume_of_complete_run_recomputes_nothing(self, runs_root, capsys):
        argv = [
            "--days", DAYS, "--seed", SEED, "--jobs", "1",
            "--experiments", "e01", "--run-id", "done",
        ]
        assert main_report(argv) == 0
        journal_path = runs_root / "done" / "journal.jsonl"
        assert _count_outcomes(journal_path) == 1
        capsys.readouterr()
        assert main_report(["--resume", "done"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out
        assert _count_outcomes(journal_path) == 1  # replayed, not re-run
