"""Reference copies of the ZINB kernel constants and the eta derivatives, kept as a test oracle.

``_zinb_params``, ``_zinb_constants`` and ``_eta_derivatives`` below are
the versions that returned all three eta derivatives from every call and
kept one entry of ZINB constants, keyed by ``(logit p_zero, size)``.
``lgmbench.models`` now returns the first two from ``eta_derivatives``
and the third from ``eta_third_derivative``, and builds the constants
in parts split by what they depend on (``models.bind``), with no cache
on the dataset.  Both must match these copies bit for bit.  ``eta_derivatives`` here is the public entry point of that
version; it gives a dataset the single-entry cache the copies read.

``_check_eta`` is the predictor check whose fast path took the maximum
and the minimum of eta; ``lgmbench.models._check_eta`` now takes one
maximum of |eta|.  Both must pass or raise alike, with the same index
and value.
"""
from __future__ import annotations

import numpy as np
from scipy import special as sps

from lgmbench import models as mdl
from lgmbench.models import ETA_OVERFLOW, Dataset, Family, LikelihoodOverflowError, ModelSpec


def _check_eta(eta: np.ndarray) -> None:
    # Fast path for the common in-range case; both comparisons are false
    # for NaN, so non-finite values always reach the indexed checks.
    if eta.max() <= ETA_OVERFLOW and eta.min() >= -ETA_OVERFLOW:
        return
    bad = ~np.isfinite(eta)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise LikelihoodOverflowError(i, eta[i])
    big = np.abs(eta) > ETA_OVERFLOW
    if np.any(big):
        i = int(np.flatnonzero(big)[0])
        raise LikelihoodOverflowError(i, eta[i])


def eta_derivatives(spec: ModelSpec, eta: np.ndarray, hyper: np.ndarray, data: Dataset):
    """(dl/deta, -d2l/deta2, d3l/deta3) per observation, eta precomputed."""
    if not hasattr(data, "_zinb_cache"):
        object.__setattr__(data, "_zinb_cache", None)
    mdl._check_eta(eta)
    return _eta_derivatives(spec, eta, hyper, data)


def _zinb_params(spec: ModelSpec, hyper: np.ndarray) -> tuple[float, float]:
    """(logit p_zero, dispersion n) from the hyper vector."""
    theta1 = float(hyper[0])
    size = float(np.exp(hyper[1]))
    if not (size > 0.0 and np.isfinite(size)):
        raise LikelihoodOverflowError(-1, size)
    return theta1, size


def _zinb_constants(data: Dataset, theta1: float, size: float) -> dict:
    """The parts of the ZINB kernels that depend only on y and (theta1, size).

    Each is computed with the same operations, in the same order, as the
    full expression it was taken from, so the kernels keep every bit.
    The dataset holds one entry of read-only arrays, keyed by the exact
    floats: every Newton iteration at one hyperparameter point reuses
    it, and a new point replaces it.  The entry is replaced as one
    tuple, so callers at different points never see a mixed entry.
    """
    key = (theta1, size)
    cached = data._zinb_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    y = data._y_float
    zero = data.y == 0
    consts = {
        "log_pz": sps.log_expit(theta1),
        "log_1mpz": sps.log_expit(-theta1),
        "log_size": np.log(size),
        "log_nb_const": sps.gammaln(y + size) - sps.gammaln(size) - data._log_y_factorial,
        "size_plus_y": size + y,
        # -(size + y) * size, the leading factor of the second and third derivatives
        "a": -(size + y) * size,
        "zero": zero,
        "any_zero": bool(np.any(zero)),
    }
    for value in consts.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    object.__setattr__(data, "_zinb_cache", (key, consts))
    return consts


def _eta_derivatives(spec: ModelSpec, eta: np.ndarray, hyper: np.ndarray, data: Dataset):
    """(dl/deta, -d2l/deta2, d3l/deta3) per observation."""
    y = data._y_float
    if spec.family is Family.POISSON:
        lam = np.exp(eta)
        return y - lam, lam, -lam
    if spec.family is Family.GAUSSIAN:
        kappa = spec.gaussian_obs_precision
        return kappa * (y - eta), np.full(eta.shape, kappa), np.zeros(eta.shape)
    theta1, size = _zinb_params(spec, hyper)
    c = _zinb_constants(data, theta1, size)
    mu = np.exp(eta)
    denom = size + mu
    # Negative binomial component derivatives in eta:
    #   l' = y - mu (size + y) / (size + mu)
    #   l'' = -(size + y) size mu / (size + mu)^2
    #   l''' = -(size + y) size mu (size - mu) / (size + mu)^3
    g1 = y - mu * c["size_plus_y"] / denom
    g2 = c["a"] * mu / denom**2
    g3 = c["a"] * mu * (size - mu) / denom**3
    if c["any_zero"]:
        zero = c["zero"]
        # Mixture at y=0: l = log(p_z + (1-p_z) f), f = (size/(size+mu))^size.
        # With w = (1-p_z) f / (p_z + (1-p_z) f) and s = dlog f/deta = -size mu/(size+mu):
        #   l'   = w s
        #   l''  = w (1-w) s^2 + w s'
        #   l''' = w(1-w)(1-2w) s^3 + 3 w(1-w) s s' + w s''
        mz = mu[zero]
        dz = denom[zero]
        log_f1mpz = c["log_1mpz"] + size * (c["log_size"] - np.log(dz))
        w = np.exp(log_f1mpz - np.logaddexp(c["log_pz"], log_f1mpz))
        s = -size * mz / dz
        s1 = -(size**2) * mz / dz**2
        s2 = -(size**2) * mz * (size - mz) / dz**3
        g1[zero] = w * s
        g2[zero] = w * (1.0 - w) * s * s + w * s1
        g3[zero] = w * (1.0 - w) * (1.0 - 2.0 * w) * s**3 + 3.0 * w * (1.0 - w) * s * s1 + w * s2
    return g1, -g2, g3
