"""The fork invariant of :mod:`repro.util.workers`.

A worker forked from a multithreaded process must never enter the
import machinery for anything but a ``sys.modules`` hit.  The toolkit
imports scipy only at its call sites, so the supervisor has to import
it before every fork.  Run in a fresh interpreter: the test process
itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

SCRIPT = r"""
import json
import sys

from repro.dataset import MiraDataset
from repro.experiments import run_experiment
from repro.stats import chi_square_independence
from repro.util.workers import WorkerSlot


def handler(job, dataset):
    before = set(sys.modules)
    fits = run_experiment("e04", dataset, min_sample=8)  # scipy fits + KS
    run_experiment("e15", dataset)  # ks_2samp
    chi_square_independence(
        dataset.jobs["queue"], dataset.jobs["exit_status"] != 0
    )
    return {
        "fitted_families": fits.tables["fits"].n_rows,
        "imported_in_job": sorted(set(sys.modules) - before),
    }


dataset = MiraDataset.synthesize(n_days=4.0, seed=3, cache=False)
scipy_before_spawn = "scipy.stats" in sys.modules
slot = WorkerSlot(dataset, handler)
try:
    verdict = slot.run("job", budget_s=120.0)
finally:
    slot.close()
print(json.dumps({
    "scipy_before_spawn": scipy_before_spawn,
    "scipy_after_spawn": "scipy.stats" in sys.modules,
    "kind": verdict.kind,
    "payload": verdict.payload,
}))
"""


def test_worker_jobs_import_nothing_the_supervisor_did_not_preload():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    assert outcome["scipy_before_spawn"] is False
    assert outcome["scipy_after_spawn"] is True
    assert outcome["kind"] == "done"
    assert outcome["payload"]["fitted_families"] > 0
    assert outcome["payload"]["imported_in_job"] == []
