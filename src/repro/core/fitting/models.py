"""Candidate distribution models for execution-length fitting.

The paper reports that the best-fitting distribution of a failed job's
execution length depends on the exit code: Weibull, Pareto, inverse
Gaussian, and Erlang/exponential all win for some family.  This module
wraps those candidates (plus lognormal and gamma as controls) behind a
uniform MLE-fit interface on top of scipy, with location pinned to zero
— execution lengths are positive durations.  Each model names its
``scipy.stats`` distribution and resolves it on first use, so importing
the toolkit does not import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FitError

__all__ = ["FittedModel", "DistributionModel", "CANDIDATE_MODELS", "get_model"]


@dataclass(frozen=True)
class FittedModel:
    """A distribution fitted to one sample."""

    name: str
    params: tuple[float, ...]
    n_params: int
    log_likelihood: float
    cdf: Callable[[np.ndarray], np.ndarray]
    pdf: Callable[[np.ndarray], np.ndarray]

    def aic(self) -> float:
        """Akaike information criterion (lower is better)."""
        return 2.0 * self.n_params - 2.0 * self.log_likelihood

    def bic(self, n: int) -> float:
        """Bayesian information criterion for sample size ``n``."""
        return self.n_params * np.log(n) - 2.0 * self.log_likelihood


@dataclass(frozen=True)
class DistributionModel:
    """A fittable distribution family."""

    name: str
    scipy_name: str  # attribute of scipy.stats
    n_params: int  # free parameters under floc=0
    fit_kwargs: dict

    @property
    def dist(self):
        """The ``scipy.stats`` distribution (an ``rv_continuous``)."""
        from scipy import stats as sps

        return getattr(sps, self.scipy_name)

    def fit(self, sample: np.ndarray) -> FittedModel:
        """Maximum-likelihood fit with location pinned at zero.

        Raises
        ------
        FitError
            For samples that are empty, too small (< 8 points), or not
            strictly positive, and for non-finite fit outcomes.
        """
        arr = np.asarray(sample, dtype=np.float64)
        if arr.size < 8:
            raise FitError(
                f"{self.name}: need at least 8 observations, got {arr.size}"
            )
        if (arr <= 0).any():
            raise FitError(f"{self.name}: sample must be strictly positive")
        dist = self.dist
        try:
            params = dist.fit(arr, **self.fit_kwargs)
        except Exception as exc:  # scipy raises a zoo of exception types
            raise FitError(f"{self.name}: fit failed: {exc}") from exc
        frozen = dist(*params)
        with np.errstate(divide="ignore"):
            log_pdf = frozen.logpdf(arr)
        log_likelihood = float(np.sum(log_pdf))
        if not np.isfinite(log_likelihood):
            raise FitError(f"{self.name}: non-finite log-likelihood")
        return FittedModel(
            name=self.name,
            params=tuple(float(p) for p in params),
            n_params=self.n_params,
            log_likelihood=log_likelihood,
            cdf=frozen.cdf,
            pdf=frozen.pdf,
        )


CANDIDATE_MODELS: tuple[DistributionModel, ...] = (
    DistributionModel("weibull", "weibull_min", 2, {"floc": 0}),
    DistributionModel("pareto", "pareto", 2, {"floc": 0}),
    DistributionModel("invgauss", "invgauss", 2, {"floc": 0}),
    DistributionModel("exponential", "expon", 1, {"floc": 0}),
    DistributionModel("erlang", "gamma", 2, {"floc": 0}),
    DistributionModel("lognormal", "lognorm", 2, {"floc": 0}),
)
"""The candidate set used by the E04 experiment.

``erlang`` is fitted as a gamma with free (real) shape — the standard
continuous relaxation; the paper's "Erlang/exponential" family
corresponds to small integer shapes, and ``exponential`` covers the
shape-1 case exactly.
"""


def get_model(name: str) -> DistributionModel:
    """Look up a candidate model by name.

    Raises
    ------
    FitError
        For unknown names.
    """
    for model in CANDIDATE_MODELS:
        if model.name == name:
            return model
    raise FitError(
        f"unknown model {name!r}; candidates: {[m.name for m in CANDIDATE_MODELS]}"
    )
