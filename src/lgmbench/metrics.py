"""Accuracy metrics, model comparison, and effect-size summaries.

Conventions:

* ``percent_error`` measures the disagreement between a fast
  approximation and a reference sampler in units of the reference
  posterior spread: ``100 * (approx_mean - ref_mean) / ref_sd``.
  Absolute values up to 20 are labeled Acceptable, values in (20, 30]
  Borderline, and anything larger Problematic.
* ``percent_change`` measures recovery of a known generating value:
  ``100 * (estimate - generating_value) / generating_value``.
* ``waic`` is the one and only widely-applicable information criterion
  implementation in the package; both engines must call it so that
  model comparisons never mix two definitions.  It accepts an S x n
  matrix of pointwise log likelihoods and optional nonnegative row
  weights; omitting the weights means equal weighting.  The penalty
  uses the weighted (population) variance so that the unweighted call
  and an explicit uniform-weight call agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .posterior import PosteriorMarginal

__all__ = [
    "percent_error",
    "classify_percent_error",
    "percent_change",
    "WaicResult",
    "waic",
    "SelectionResult",
    "select_model",
    "RateRatioResult",
    "rate_ratio",
]

PE_ACCEPTABLE = 20.0
PE_BORDERLINE = 30.0


def percent_error(approx_mean, ref_mean, ref_sd):
    """Discrepancy in percent of the reference posterior deviation."""
    approx_mean = np.asarray(approx_mean, dtype=float)
    ref_mean = np.asarray(ref_mean, dtype=float)
    ref_sd = np.asarray(ref_sd, dtype=float)
    if np.any(ref_sd <= 0.0) or not np.all(np.isfinite(ref_sd)):
        raise ValueError("reference standard deviation must be finite and positive")
    out = 100.0 * (approx_mean - ref_mean) / ref_sd
    return float(out) if out.ndim == 0 else out


def classify_percent_error(pe: float) -> str:
    a = abs(float(pe))
    if not math.isfinite(a):
        raise ValueError("percent error must be finite")
    if a <= PE_ACCEPTABLE:
        return "Acceptable"
    if a <= PE_BORDERLINE:
        return "Borderline"
    return "Problematic"


def percent_change(estimate, generating_value):
    """Relative bias of an estimate against the known generating value."""
    estimate = np.asarray(estimate, dtype=float)
    generating_value = np.asarray(generating_value, dtype=float)
    if np.any(generating_value == 0.0):
        raise ValueError("generating value must be nonzero")
    out = 100.0 * (estimate - generating_value) / generating_value
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WaicResult:
    waic: float
    lppd: float
    p_waic: float
    pointwise_lppd: np.ndarray
    pointwise_p_waic: np.ndarray


def waic(loglik: np.ndarray, weights: np.ndarray | None = None) -> WaicResult:
    """Widely applicable information criterion from pointwise log likelihoods.

    ``loglik`` has one row per posterior draw (or per quadrature point)
    and one column per observation.  ``weights`` are nonnegative row
    weights; when omitted, rows are weighted equally and at least two
    rows are required for the variance penalty to be meaningful.
    """
    ll = np.asarray(loglik, dtype=float)
    if ll.ndim != 2 or ll.shape[1] == 0:
        raise ValueError("loglik must be a 2-d matrix with at least one column")
    if not np.all(np.isfinite(ll)):
        raise ValueError("loglik contains non-finite entries")
    s = ll.shape[0]
    if weights is None:
        if s < 2:
            raise ValueError("need at least two equally weighted rows")
        w = np.full(s, 1.0 / s)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (s,):
            raise ValueError("weights length must match the number of rows")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        total = float(np.add.reduce(w))
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        w = w / total
    pointwise_lppd = logsumexp(ll, axis=0, b=w[:, None])
    mean_ll = w @ ll
    pointwise_p = w @ (ll - mean_ll) ** 2
    lppd = float(np.add.reduce(pointwise_lppd))
    p_waic = float(np.add.reduce(pointwise_p))
    return WaicResult(
        waic=-2.0 * (lppd - p_waic),
        lppd=lppd,
        p_waic=p_waic,
        pointwise_lppd=pointwise_lppd,
        pointwise_p_waic=pointwise_p,
    )


@dataclass(frozen=True)
class SelectionResult:
    best: str
    waic_by_model: dict
    margin: float
    tie: bool


def select_model(waic_by_model: dict) -> SelectionResult:
    """Pick the lowest-criterion model; names break exact ties."""
    if not waic_by_model:
        raise ValueError("nothing to select from")
    for name, value in waic_by_model.items():
        if not math.isfinite(value):
            raise ValueError(f"model {name!r} has a non-finite criterion value")
    ordered = sorted(waic_by_model.items(), key=lambda kv: (kv[1], kv[0]))
    best, best_value = ordered[0]
    tie = len(ordered) > 1 and ordered[1][1] == best_value
    margin = ordered[1][1] - best_value if len(ordered) > 1 else math.inf
    return SelectionResult(best=best, waic_by_model=dict(waic_by_model), margin=margin, tie=tie)


@dataclass(frozen=True)
class RateRatioResult:
    """Multiplicative effect of an interquartile covariate shift."""

    estimate: float  # posterior median
    mean: float
    lower: float
    upper: float
    significant: bool
    iqr: float


def rate_ratio(beta, iqr: float) -> RateRatioResult:
    """Posterior of exp(beta * iqr) from draws or a marginal density.

    The point estimate is the posterior median; the mean is reported
    alongside because the two can differ noticeably after the
    exponential map.  The effect is flagged significant when the
    central 95% interval excludes one.
    """
    iqr = float(iqr)
    if not math.isfinite(iqr) or iqr <= 0.0:
        raise ValueError("iqr must be finite and positive")
    if isinstance(beta, PosteriorMarginal):
        ratio = beta.transformed(lambda b: np.exp(b * iqr), lambda b: iqr * np.exp(b * iqr))
        lower, upper = ratio.interval()
        est = ratio.quantile(0.5)
        mean = ratio.mean
    else:
        draws = np.asarray(beta, dtype=float)
        if draws.ndim != 1 or draws.size < 2:
            raise ValueError("need a vector of draws")
        ratio_draws = np.exp(draws * iqr)
        lower, upper = np.quantile(ratio_draws, [0.025, 0.975])
        est = float(np.quantile(ratio_draws, 0.5))
        mean = float(np.mean(ratio_draws))
    significant = bool(lower > 1.0 or upper < 1.0)
    return RateRatioResult(
        estimate=float(est),
        mean=float(mean),
        lower=float(lower),
        upper=float(upper),
        significant=significant,
        iqr=iqr,
    )
