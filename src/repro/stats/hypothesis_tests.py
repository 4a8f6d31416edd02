"""Hypothesis tests used in distribution fitting and independence checks.

The Kolmogorov–Smirnov statistic drives the paper's "best-fitting
distribution" selection, and the chi-square test backs categorical
independence claims.  The statistics are computed directly on numpy;
scipy supplies only the two p-values, from the asymptotic Kolmogorov
distribution (``kstwobign.sf``, which has no simple closed form) and
the chi-square survival function (``chi2.sf``).  It is imported at
those call sites, so importing this module does not import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["KsResult", "ks_statistic", "ks_test", "chi_square_independence"]


@dataclass(frozen=True)
class KsResult:
    """Outcome of a one-sample KS test against a fitted CDF."""

    statistic: float
    p_value: float
    n: int

    def rejects(self, alpha: float = 0.05) -> bool:
        """True when the null (sample drawn from the CDF) is rejected."""
        return self.p_value < alpha


def ks_statistic(sample, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov–Smirnov statistic ``sup_x |F_n(x) - F(x)|``.

    ``cdf`` is evaluated vectorized at the sorted sample points and the
    supremum is taken over both one-sided deviations, per the standard
    construction.
    """
    arr = np.sort(np.asarray(sample, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise ValueError("ks_statistic requires a non-empty sample")
    theoretical = np.asarray(cdf(arr), dtype=np.float64)
    if theoretical.shape != arr.shape:
        raise ValueError("cdf must return one value per sample point")
    upper = np.arange(1, n + 1) / n - theoretical
    lower = theoretical - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def ks_test(sample, cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """One-sample KS test with the asymptotic Kolmogorov p-value."""
    from scipy import stats as sps

    arr = np.asarray(sample, dtype=np.float64)
    d = ks_statistic(arr, cdf)
    n = arr.size
    # Asymptotic Kolmogorov distribution, standard sqrt(n) scaling.
    p = float(sps.kstwobign.sf(d * np.sqrt(n))) if n > 0 else 1.0
    return KsResult(statistic=d, p_value=min(max(p, 0.0), 1.0), n=n)


def chi_square_independence(a, b) -> tuple[float, float, int]:
    """Chi-square test of independence for two categorical columns.

    Returns ``(chi2, p_value, dof)``.  Cells with zero expected count are
    excluded (their categories contribute no information).
    """
    from scipy import stats as sps

    from repro.table.column import factorize

    codes_a, uniques_a = factorize(np.asarray(a, dtype=object))
    codes_b, uniques_b = factorize(np.asarray(b, dtype=object))
    if len(codes_a) != len(codes_b):
        raise ValueError("inputs must have equal length")
    n = len(codes_a)
    r, c = len(uniques_a), len(uniques_b)
    if n == 0 or r < 2 or c < 2:
        raise ValueError("chi-square needs >=2 categories on both sides")
    observed = np.zeros((r, c), dtype=np.float64)
    np.add.at(observed, (codes_a, codes_b), 1.0)
    expected = observed.sum(axis=1, keepdims=True) @ observed.sum(axis=0, keepdims=True) / n
    mask = expected > 0
    chi2 = float((((observed - expected) ** 2)[mask] / expected[mask]).sum())
    dof = (r - 1) * (c - 1)
    p = float(sps.chi2.sf(chi2, dof))
    return chi2, p, dof
