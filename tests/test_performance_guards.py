"""Coarse performance regression guards.

Not micro-benchmarks (those live in benchmarks/): these assert the
complexity class stays sane so a full 2001-day analysis keeps finishing
in minutes.  Bounds are several times above current timings to stay
robust on slow CI machines.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import default_pipeline, map_events_to_jobs
from repro.dataset import MiraDataset
from repro.scheduler import CobaltScheduler, WorkloadModel
from repro.table import Table


@pytest.fixture(scope="module")
def dataset():
    return MiraDataset.synthesize(n_days=120.0, seed=121)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


class TestThroughput:
    def test_scheduler_sim_rate(self):
        intents = WorkloadModel(seed=7).generate(90.0)
        _, seconds = _timed(lambda: CobaltScheduler().run(intents, horizon_days=90.0))
        # ~12k jobs; current ~1.5 s. Bound: 60 s.
        assert seconds < 60.0

    def test_event_job_join_rate(self, dataset):
        _, seconds = _timed(
            lambda: map_events_to_jobs(dataset.ras, dataset.jobs, dataset.spec)
        )
        # ~47k events vs ~16k jobs; current well under a second. Bound: 30 s.
        assert seconds < 30.0

    def test_filtering_rate(self, dataset):
        _, seconds = _timed(
            lambda: default_pipeline(spec=dataset.spec).run(dataset.fatal_events())
        )
        assert seconds < 30.0

    def test_groupby_scales_linearish(self):
        import numpy as np

        rng = np.random.default_rng(0)
        big = Table(
            {
                "k": rng.integers(0, 5000, 500_000),
                "v": rng.random(500_000),
            }
        )
        _, seconds = _timed(lambda: big.group_by("k").agg(v="sum"))
        assert seconds < 10.0


class TestStartUp:
    def test_entry_points_do_not_import_scipy(self):
        # scipy.stats alone costs most of a second and ~70 MiB per
        # process; the toolkit imports it where a fit or a p-value
        # needs it, never at start-up.
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            "import sys\n"
            "import repro, repro.cli, repro.serve.cli, repro.stream\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
