"""I/O behaviour of failed versus successful jobs (E15).

Joins the Darshan-style I/O log with job outcomes and contrasts the two
populations: volume per core-hour (failed jobs die before writing their
output), I/O intensity, and a KS test on the write-volume
distributions.
"""

from __future__ import annotations

import numpy as np

from repro.table import Table

__all__ = ["io_by_outcome", "io_volume_vs_corehours", "io_throughput_by_scale"]


def io_by_outcome(io: Table, jobs: Table) -> tuple[Table, dict[str, float]]:
    """Per-outcome I/O summary plus a two-sample KS test.

    Returns a table ``(outcome, n, median_read, median_written,
    median_write_per_ch, median_io_intensity)`` and a dict with the KS
    statistic/p-value comparing write-per-core-hour of failed vs
    successful jobs.

    Raises
    ------
    ValueError
        When the join yields no profiles for either outcome.
    """
    from scipy import stats as sps

    joined = io.join(
        jobs.select(["job_id", "exit_status", "core_hours"]), on="job_id"
    )
    if joined.n_rows == 0:
        raise ValueError("no I/O profiles match the job log")
    write_per_ch = joined["bytes_written"] / np.maximum(joined["core_hours"], 1e-9)
    intensity = joined["io_time"] / np.maximum(joined["runtime"], 1e-9)
    annotated = joined.with_column("write_per_ch", write_per_ch).with_column(
        "io_intensity", intensity
    )
    rows = {
        "outcome": [], "n": [], "median_read": [], "median_written": [],
        "median_write_per_ch": [], "median_io_intensity": [],
    }
    samples: dict[str, np.ndarray] = {}
    for label, mask in (
        ("success", annotated["exit_status"] == 0),
        ("failed", annotated["exit_status"] != 0),
    ):
        sub = annotated.filter(mask)
        if sub.n_rows == 0:
            raise ValueError(f"no I/O profiles for {label} jobs")
        samples[label] = sub["write_per_ch"]
        rows["outcome"].append(label)
        rows["n"].append(sub.n_rows)
        rows["median_read"].append(float(np.median(sub["bytes_read"])))
        rows["median_written"].append(float(np.median(sub["bytes_written"])))
        rows["median_write_per_ch"].append(float(np.median(sub["write_per_ch"])))
        rows["median_io_intensity"].append(float(np.median(sub["io_intensity"])))
    ks = sps.ks_2samp(samples["success"], samples["failed"])
    return Table(rows), {"ks_statistic": float(ks.statistic), "p_value": float(ks.pvalue)}


def io_throughput_by_scale(io: Table, jobs: Table) -> Table:
    """Median aggregate I/O throughput per job-size rung.

    Throughput is total transferred bytes over the time spent in I/O —
    the paper's I/O characterization angle of whether larger jobs move
    data proportionally faster.  Returns ``(allocated_nodes, n,
    median_throughput_mbs, median_bytes_per_node)``.
    """
    joined = io.join(jobs.select(["job_id", "allocated_nodes"]), on="job_id")
    if joined.n_rows == 0:
        raise ValueError("no I/O profiles match the job log")
    total = joined["bytes_read"] + joined["bytes_written"]
    throughput = total / np.maximum(joined["io_time"], 1.0) / 1e6  # MB/s
    per_node = total / np.maximum(joined["allocated_nodes"], 1)
    annotated = joined.with_column("throughput", throughput).with_column(
        "bytes_per_node", per_node
    )
    rows = {"allocated_nodes": [], "n": [], "median_throughput_mbs": [],
            "median_bytes_per_node": []}
    for size in sorted(set(annotated["allocated_nodes"].tolist())):
        sub = annotated.filter(annotated["allocated_nodes"] == size)
        rows["allocated_nodes"].append(size)
        rows["n"].append(sub.n_rows)
        rows["median_throughput_mbs"].append(float(np.median(sub["throughput"])))
        rows["median_bytes_per_node"].append(float(np.median(sub["bytes_per_node"])))
    return Table(rows)


def io_volume_vs_corehours(io: Table, jobs: Table, n_bins: int = 6) -> Table:
    """Median total I/O volume across log-spaced core-hour bins."""
    joined = io.join(jobs.select(["job_id", "core_hours"]), on="job_id")
    if joined.n_rows == 0:
        raise ValueError("no I/O profiles match the job log")
    core_hours = np.asarray(joined["core_hours"], dtype=np.float64)
    volume = joined["bytes_read"] + joined["bytes_written"]
    low = core_hours.min() * (1 - 1e-9)
    high = core_hours.max() * (1 + 1e-9)
    edges = np.logspace(np.log10(max(low, 1e-9)), np.log10(high), n_bins + 1)
    indices = np.clip(np.digitize(core_hours, edges) - 1, 0, n_bins - 1)
    rows = {"ch_low": [], "ch_high": [], "n": [], "median_bytes": []}
    for b in range(n_bins):
        mask = indices == b
        if not mask.any():
            continue
        rows["ch_low"].append(float(edges[b]))
        rows["ch_high"].append(float(edges[b + 1]))
        rows["n"].append(int(mask.sum()))
        rows["median_bytes"].append(float(np.median(volume[mask])))
    return Table(rows)
