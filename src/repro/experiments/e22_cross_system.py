"""E22 — Cross-system comparison: do the Mira findings transfer?

Extension beyond the paper.  The paper's headline results — 99.4% of
failed jobs are user-caused, job-interruption MTTI ≈ 3.5 days, failure
rate grows with job scale — are measured on one machine.  This
experiment synthesizes a matched-span trace from every registered
trace backend (:mod:`repro.adapters`), runs the *same* attribution,
filtering, and MTTI kernels on each, and renders a side-by-side table
with a per-finding verdict.

Expected picture: the user-dominance finding transfers to the other
CPU systems (Google cells and Mistral both report >95% job-level
causes) but *not* to GPU training clusters, where hardware is the
dominant interrupter again; the multi-day MTTI is Mira-specific — it
shrinks with machine failure intensity; the scale correlation is the
most portable finding of the three.
"""

from __future__ import annotations

import numpy as np

from repro.core.attribution import attribute_failures, attribution_summary
from repro.core.exitcodes import classify_exit_status
from repro.core.filtering import default_pipeline
from repro.core.reliability import job_interruption_mtti
from repro.dataset import MiraDataset
from repro.table import Table

from .base import ExperimentResult, register

__all__ = ["comparison_traces", "run"]

PAPER_USER_SHARE = 0.994
PAPER_MTTI_DAYS = 3.5

#: A backend "reproduces" the user-dominance finding when user causes
#: still account for at least this share of failed jobs.
USER_DOMINANCE_THRESHOLD = 0.9
#: The multi-day-MTTI finding transfers when the measured MTTI is
#: within this factor of the paper's 3.5 days.
MTTI_TRANSFER_FACTOR = 2.0
#: Size-ladder rungs with fewer jobs than this are too noisy to enter
#: the scale correlation.
MIN_JOBS_PER_RUNG = 30


def _scale_correlation(jobs: Table) -> float:
    """Pearson correlation of log2(job size) vs per-size failure rate."""
    if jobs.n_rows == 0:
        return float("nan")
    nodes = np.asarray(jobs["allocated_nodes"], dtype=np.float64)
    failed = np.asarray(jobs["exit_status"]) != 0
    sizes, rates = [], []
    for size in np.unique(nodes):
        mask = nodes == size
        if int(mask.sum()) < MIN_JOBS_PER_RUNG:
            continue
        sizes.append(np.log2(size))
        rates.append(float(failed[mask].mean()))
    if len(sizes) < 3 or len(set(rates)) == 1:
        return float("nan")
    return float(np.corrcoef(sizes, rates)[0, 1])


def _dominant_family(jobs: Table) -> tuple[str, float]:
    """Most common exit family among user-caused failures, with share."""
    failed = jobs.filter(jobs["exit_status"] != 0)
    user = failed.filter(failed["origin"] == "user")
    if user.n_rows == 0:
        return "none", float("nan")
    counts: dict[str, int] = {}
    for status in user["exit_status"].tolist():
        family = classify_exit_status(int(status)).name
        counts[family] = counts.get(family, 0) + 1
    family, count = max(counts.items(), key=lambda kv: kv[1])
    return family, count / user.n_rows


def _measure(dataset: MiraDataset) -> dict:
    """One backend's row of the comparison table."""
    jobs = dataset.jobs
    summary = attribution_summary(
        attribute_failures(jobs, dataset.fatal_events(), dataset.spec)
    )
    clusters = default_pipeline(spec=dataset.spec).run(dataset.fatal_events()).clusters
    jobwise = job_interruption_mtti(
        clusters, jobs, dataset.n_days, dataset.spec
    )
    n_failed = int((jobs["exit_status"] != 0).sum()) if jobs.n_rows else 0
    family, family_share = _dominant_family(jobs)
    return {
        "n_jobs": jobs.n_rows,
        "failure_rate": n_failed / jobs.n_rows if jobs.n_rows else float("nan"),
        "user_share": summary["user_share"],
        "system_share": summary["system_share"],
        "job_mtti_days": jobwise.mtti_days,
        "dominant_family": family,
        "dominant_family_share": family_share,
        "scale_correlation": _scale_correlation(jobs),
    }


def _comparison_span(
    dataset: MiraDataset,
    comparison_days: float | None = None,
    backends: tuple[str, ...] | None = None,
) -> tuple[float, int, tuple[str, ...]]:
    """The matched span, seed and backend names of the comparison."""
    from repro.adapters import all_backend_names

    days = comparison_days if comparison_days else min(dataset.n_days, 60.0)
    seed = dataset.seed if dataset.seed >= 0 else 0
    names = tuple(backends) if backends else all_backend_names()
    return days, seed, names


def comparison_traces(
    dataset: MiraDataset,
    comparison_days: float | None = None,
    backends: tuple[str, ...] | None = None,
) -> list[tuple[str, float, int]]:
    """The ``(backend, days, seed)`` traces :func:`run` synthesizes.

    Every compared backend at the matched span and seed, except the
    input dataset's own backend when the dataset already is that trace.
    """
    days, seed, names = _comparison_span(dataset, comparison_days, backends)
    return [
        (name, days, seed)
        for name in names
        if not (
            name == dataset.backend
            and dataset.n_days == days
            and dataset.seed == seed
        )
    ]


@register(
    "e22",
    "Cross-system comparison of the Mira findings",
    requires=("ras",),
    inputs=comparison_traces,
)
def run(
    dataset: MiraDataset,
    comparison_days: float | None = None,
    backends: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Measure the Mira findings on every trace backend, side by side.

    The input dataset fixes the comparison span (capped at 60 days to
    keep the sweep cheap) and seed; each backend is synthesized at that
    matched span so rates and MTTIs are comparable.  The input
    dataset's own backend reuses it directly when the spans line up,
    so ``repro-report --backend google`` does not synthesize google
    twice.  :func:`comparison_traces` lists the syntheses, so a
    parallel suite can run them ahead of this experiment.
    """
    from repro.adapters import get_backend

    days, seed, names = _comparison_span(dataset, comparison_days, backends)
    traces = {
        name: (trace_days, trace_seed)
        for name, trace_days, trace_seed in comparison_traces(
            dataset, comparison_days, backends
        )
    }

    columns: dict[str, list] = {
        "backend": [],
        "machine": [],
        "n_jobs": [],
        "failure_rate": [],
        "user_share": [],
        "published_user_share": [],
        "job_mtti_days": [],
        "published_mtti_days": [],
        "dominant_family": [],
        "scale_correlation": [],
    }
    verdict_cols: dict[str, list] = {
        "backend": [],
        "user_dominance_transfers": [],
        "multiday_mtti_transfers": [],
        "scale_correlation_transfers": [],
    }
    measured: dict[str, dict] = {}
    for name in names:
        backend = get_backend(name)
        if name in traces:
            trace_days, trace_seed = traces[name]
            source = MiraDataset.synthesize(trace_days, seed=trace_seed, backend=name)
        else:
            source = dataset
        row = _measure(source)
        measured[name] = row
        columns["backend"].append(name)
        columns["machine"].append(backend.spec.name)
        columns["n_jobs"].append(row["n_jobs"])
        columns["failure_rate"].append(row["failure_rate"])
        columns["user_share"].append(row["user_share"])
        columns["published_user_share"].append(backend.published.user_share)
        columns["job_mtti_days"].append(row["job_mtti_days"])
        columns["published_mtti_days"].append(backend.published.mtti_days)
        columns["dominant_family"].append(row["dominant_family"])
        columns["scale_correlation"].append(row["scale_correlation"])

        mtti = row["job_mtti_days"]
        verdict_cols["backend"].append(name)
        verdict_cols["user_dominance_transfers"].append(
            "yes" if row["user_share"] >= USER_DOMINANCE_THRESHOLD else "no"
        )
        verdict_cols["multiday_mtti_transfers"].append(
            "yes"
            if np.isfinite(mtti)
            and PAPER_MTTI_DAYS / MTTI_TRANSFER_FACTOR
            <= mtti
            <= PAPER_MTTI_DAYS * MTTI_TRANSFER_FACTOR
            else "no"
        )
        verdict_cols["scale_correlation_transfers"].append(
            "yes" if row["scale_correlation"] > 0 else "no"
        )

    transfers_user = [
        n for n in names if measured[n]["user_share"] >= USER_DOMINANCE_THRESHOLD
    ]
    notes = (
        f"Matched {days:.0f}-day traces, seed {seed}. "
        f"User dominance (paper: {PAPER_USER_SHARE:.1%}) holds on "
        f"{len(transfers_user)}/{len(names)} systems "
        f"({', '.join(transfers_user) or 'none'}); "
        f"the multi-day MTTI (paper: {PAPER_MTTI_DAYS} d) is machine-"
        "specific — it tracks failure intensity, not a universal constant."
    )
    metrics: dict[str, float] = {
        "n_backends": float(len(names)),
        "n_user_dominant": float(len(transfers_user)),
    }
    for name in names:
        metrics[f"{name}_user_share"] = measured[name]["user_share"]
        metrics[f"{name}_job_mtti_days"] = measured[name]["job_mtti_days"]
    return ExperimentResult(
        experiment_id="e22",
        title="Cross-system comparison of the Mira findings",
        tables={
            "cross_system": Table(columns),
            "verdicts": Table(verdict_cols),
        },
        metrics=metrics,
        notes=notes,
    )
