"""Mean-shift changepoint detection for rate series.

Used by the machine-lifetime analysis (:mod:`repro.core.lifetime`) to
find regime changes in monthly failure/event rates over the machine's
2001-day life.  Implements binary segmentation with a CUSUM statistic
and a permutation-style significance threshold — numpy only, no
external dependencies.

Both the per-split scan and the permutation null are vectorized: the
CUSUM statistic for every candidate split comes from one prefix-sum
expression, and all permutation replicates evaluate as a single 2-D
computation.  Permutations are still drawn one ``rng.permutation`` at a
time so the random stream — and therefore every detection decision —
matches the original scalar implementation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.trace import span as trace_span


__all__ = ["Changepoint", "cusum_statistic", "detect_changepoints"]


@dataclass(frozen=True)
class Changepoint:
    """A detected mean shift at ``index`` (first point of the new regime)."""

    index: int
    statistic: float
    mean_before: float
    mean_after: float

    @property
    def shift(self) -> float:
        """Signed magnitude of the mean shift."""
        return self.mean_after - self.mean_before


def _cusum_stats_matrix(rows: np.ndarray) -> np.ndarray:
    """CUSUM statistic at every split for every row of ``rows``.

    ``rows`` is ``(k, n)``; the result is ``(k, n - 3)`` covering splits
    ``2 .. n-2`` (the same candidate range the scalar scan used).  Rows
    with zero variance get all-zero statistics.
    """
    k, n = rows.shape
    splits = np.arange(2, n - 1, dtype=np.float64)
    cumulative = np.cumsum(rows, axis=1)
    # Pairwise row sum, not cumulative[:, -1:] — the scalar scan used
    # x.sum(), and the two differ in the last ulp on long series.
    total = rows.sum(axis=1, keepdims=True)
    left_sum = cumulative[:, 1:n - 2]
    left_mean = left_sum / splits
    right_mean = (total - left_sum) / (n - splits)
    std = rows.std(axis=1, ddof=1, keepdims=True)
    pooled = std * np.sqrt(1.0 / splits + 1.0 / (n - splits))
    with np.errstate(invalid="ignore", divide="ignore"):
        stats = np.abs(left_mean - right_mean) / pooled
    return np.where(std > 0, stats, 0.0)


def cusum_statistic(series: np.ndarray) -> tuple[int, float]:
    """Best split point and its normalized CUSUM statistic.

    The statistic is ``|mean_left - mean_right|`` scaled by the pooled
    standard error; the split index is the start of the right segment.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 points, got {n}")
    if x.std(ddof=1) == 0:
        return n // 2, 0.0
    stats = _cusum_stats_matrix(x[None, :])[0]
    best = int(np.argmax(stats))
    best_stat = float(stats[best])
    if not best_stat > 0.0:
        return -1, 0.0
    return best + 2, best_stat


def _significant(series: np.ndarray, stat: float, n_permutations: int, seed: int,
                 alpha: float) -> bool:
    rng = np.random.default_rng(seed)
    permuted = np.stack([rng.permutation(series) for _ in range(n_permutations)])
    null_stats = _cusum_stats_matrix(permuted).max(axis=1)
    exceed = int((null_stats >= stat).sum())
    return exceed / n_permutations < alpha


def detect_changepoints(
    series,
    max_changepoints: int = 3,
    alpha: float = 0.01,
    n_permutations: int = 200,
    min_segment: int = 4,
    seed: int = 0,
) -> list[Changepoint]:
    """Binary-segmentation changepoint detection.

    Recursively splits the series at the most significant CUSUM point
    until no split passes the permutation test at level ``alpha`` or
    ``max_changepoints`` is reached.  Returns changepoints sorted by
    index.
    """
    x = np.asarray(series, dtype=np.float64)
    found: list[Changepoint] = []
    segments: list[tuple[int, int]] = [(0, x.size)]
    with trace_span(
        "kernel.changepoint", n=int(x.size), n_permutations=n_permutations
    ):
        while segments and len(found) < max_changepoints:
            # Pick the segment whose best split is strongest.
            best = None
            for start, end in segments:
                if end - start < 2 * min_segment:
                    continue
                split, stat = cusum_statistic(x[start:end])
                if best is None or stat > best[3]:
                    best = (start, end, start + split, stat)
            if best is None:
                break
            start, end, index, stat = best
            segments.remove((start, end))
            if not _significant(x[start:end], stat, n_permutations, seed, alpha):
                continue
            found.append(
                Changepoint(
                    index=index,
                    statistic=stat,
                    mean_before=float(x[start:index].mean()),
                    mean_after=float(x[index:end].mean()),
                )
            )
            segments.append((start, index))
            segments.append((index, end))
        return sorted(found, key=lambda c: c.index)
