"""Experiment suite: one module per reconstructed paper table/figure.

Importing this package registers all experiments; run one with::

    from repro.experiments import run_experiment
    result = run_experiment("e13", dataset)
"""

from . import (  # noqa: F401  (import for registration side effect)
    e01_overview,
    e02_exit_status,
    e03_attribution,
    e04_distributions,
    e05_scale,
    e06_corehours,
    e07_users,
    e08_structure,
    e09_ras_breakdown,
    e10_temporal,
    e11_locality,
    e12_filtering,
    e13_mtti,
    e14_ras_correlation,
    e15_io,
    e16_takeaways,
    e17_lifetime,
    e18_prediction,
    e19_intervals,
    e20_user_behavior,
    e21_precursors,
    e22_cross_system,
)
from .base import (
    ExperimentResult,
    all_experiments,
    experiment_entry,
    get_experiment,
    missing_sources,
)
from .engine import ExperimentOutcome, SuiteResult, run_suite, write_bench_json
from .export import export_all, export_result, result_to_markdown
from .journal import RunJournal, RunState, default_runs_dir, new_run_id

__all__ = [
    "ExperimentResult",
    "ExperimentOutcome",
    "SuiteResult",
    "RunJournal",
    "RunState",
    "all_experiments",
    "get_experiment",
    "experiment_entry",
    "run_experiment",
    "run_suite",
    "write_bench_json",
    "default_runs_dir",
    "new_run_id",
    "result_to_markdown",
    "export_result",
    "export_all",
]


def run_experiment(experiment_id: str, dataset, **params) -> ExperimentResult:
    """Run one experiment by ID against a dataset.

    When a source the experiment requires (declared via
    ``register(..., requires=...)``) is missing or empty — e.g. a
    lenient load degraded the Darshan log — a stub result with
    ``degraded=True`` and an explanatory note is returned instead of
    crashing the experiment.
    """
    title, func, requires, _ = experiment_entry(experiment_id)
    missing = missing_sources(dataset, requires)
    if missing:
        return ExperimentResult(
            experiment_id=experiment_id,
            title=title,
            tables={},
            metrics={},
            notes=(
                f"DEGRADED: required source(s) {', '.join(missing)} missing "
                "or empty; analysis skipped."
            ),
            degraded=True,
        )
    return func(dataset, **params)
