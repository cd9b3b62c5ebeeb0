"""Model specifications, likelihoods, priors, and dataset ingestion.

Likelihood values are checked against scipy.stats log-pmf/pdf oracles
and closed-form expressions; every analytic derivative is checked
against central finite differences computed here.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import oracle_models
import pytest
import scipy.special as sps
import scipy.stats as st_dist
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmbench import models as mdl
from lgmbench.gmrf import Constraint, graph_laplacian, lattice_graph


def toy_dataset(n=8, seed=0, graph=None):
    g = np.random.default_rng(seed)
    return mdl.Dataset(
        y=g.poisson(5.0, n),
        covariates={"x": g.uniform(0, 2, n)},
        offset=g.uniform(1, 10, n),
        graph=graph,
    )


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        up, dn = x.copy(), x.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (f(up) - f(dn)) / (2.0 * step)
    return out


# ---------------------------------------------------------------------------
# Spec construction and layout


def test_poisson_spec_layout():
    spec = mdl.poisson_spec()
    data = toy_dataset(n=5)
    assert mdl.latent_dim(spec, 5) == 2 + 5
    assert mdl.latent_names(spec, 2) == ["intercept", "beta_x", "iid_0", "iid_1"]
    assert mdl.hyper_names(spec) == ["log_precision_iid"]
    assert mdl.natural_hyper_names(spec) == ["precision_iid"]
    sl = mdl.latent_slices(spec, 5)
    assert sl["beta"] == slice(0, 2) and sl["iid"] == slice(2, 7)
    x = mdl.design_matrix(spec, data)
    np.testing.assert_array_equal(x[:, 0], np.ones(5))
    np.testing.assert_array_equal(x[:, 1], data.covariates["x"])


def test_bym_spec_layout():
    spec = mdl.bym_spec()
    assert spec.include_intercept is False
    assert mdl.latent_dim(spec, 4) == 1 + 4 + 4
    assert mdl.hyper_names(spec) == ["log_precision_iid", "log_precision_icar"]


def test_zinb_spec_layout():
    spec = mdl.zinb_spec(covariates=("a", "b"))
    assert mdl.latent_dim(spec, 9) == 3
    assert mdl.hyper_names(spec) == ["logit_p_zero", "log_dispersion"]
    assert mdl.natural_hyper_names(spec) == ["p_zero", "dispersion"]


def test_unconstrained_icar_with_intercept_is_rejected():
    with pytest.raises(ValueError, match="unidentified"):
        mdl.bym_spec(include_intercept=True, constraint=Constraint.NONE)
    # but allowed when explicitly requested, or when constrained
    mdl.bym_spec(include_intercept=True, constraint=Constraint.NONE, allow_improper=True)
    mdl.bym_spec(include_intercept=True, constraint=Constraint.SUM_TO_ZERO_KRIGING)


def test_gaussian_family_needs_observation_precision():
    with pytest.raises(ValueError, match="precision"):
        mdl.ModelSpec(family=mdl.Family.GAUSSIAN)
    spec = mdl.ModelSpec(family=mdl.Family.GAUSSIAN, gaussian_obs_precision=2.0)
    assert spec.n_fixed == 1


def test_fixed_prior_pins_hyperparameter():
    spec = mdl.poisson_spec(iid_prior=mdl.FixedPrior(math.log(4.0)))
    assert mdl.hyper_names(spec) == []
    assert mdl.hyper_dim(spec) == 0


def test_to_natural_hyper():
    assert mdl.to_natural_hyper("log_precision_iid", 0.0) == 1.0
    assert mdl.to_natural_hyper("logit_p_zero", 0.0) == 0.5
    assert mdl.to_natural_hyper("log_dispersion", np.log(2.0)) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Priors


def test_normal_prior_matches_scipy():
    p = mdl.NormalPrior(0.5, 2.0)
    assert p.logpdf(1.3) == pytest.approx(st_dist.norm.logpdf(1.3, 0.5, 2.0), rel=1e-12)
    assert mdl.NormalPrior.from_precision(0.0, 4.0).sd == 0.5


def test_log_gamma_prior_matches_change_of_variables():
    # exp(t) ~ Gamma(a, rate): density in t is Gamma pdf times exp(t).
    p = mdl.LogGammaPrior(1.0, 5e-5)
    for t in (-2.0, 0.0, 3.0):
        oracle = st_dist.gamma.logpdf(np.exp(t), a=1.0, scale=1 / 5e-5) + t
        assert p.logpdf(t) == pytest.approx(oracle, rel=1e-12)
    scale_form = mdl.LogGammaPrior(2.0, 10.0, scale_is_rate=False)
    assert scale_form.rate == pytest.approx(0.1)
    oracle = st_dist.gamma.logpdf(np.exp(0.3), a=2.0, scale=10.0) + 0.3
    assert scale_form.logpdf(0.3) == pytest.approx(oracle, rel=1e-12)


def test_log_prior_hyper_sums_components():
    spec = mdl.bym_spec()
    hyper = np.array([0.3, -0.2])
    expected = spec.priors.log_precision_priors["iid"].logpdf(0.3)
    expected += spec.priors.log_precision_priors["icar"].logpdf(-0.2)
    assert mdl.log_prior_hyper(spec, hyper) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        mdl.log_prior_hyper(spec, np.zeros(3))


def test_hyper_priors_follow_hyper_names():
    spec = mdl.bym_spec(iid_prior=mdl.FixedPrior(0.0), icar_prior=mdl.LogGammaPrior(2.0, 1.0))
    assert mdl.hyper_priors(spec) == [mdl.LogGammaPrior(2.0, 1.0)]
    zinb = mdl.zinb_spec(covariates=("a",))
    assert mdl.hyper_priors(zinb) == [zinb.priors.logit_zero_prior, zinb.priors.log_dispersion_prior]
    assert len(mdl.hyper_priors(zinb)) == len(mdl.hyper_names(zinb))


# ---------------------------------------------------------------------------
# Pointwise likelihoods against scipy oracles


def test_poisson_loglik_matches_scipy():
    spec = mdl.poisson_spec()
    data = toy_dataset(n=10, seed=1)
    latent = np.random.default_rng(2).normal(0, 0.3, mdl.latent_dim(spec, 10))
    eta = mdl.linear_predictor(spec, latent, data)
    ours = mdl.pointwise_loglik(spec, latent, np.zeros(1), data)
    oracle = st_dist.poisson.logpmf(data.y, np.exp(eta))
    np.testing.assert_allclose(ours, oracle, rtol=1e-10)


def test_gaussian_loglik_matches_scipy():
    spec = mdl.ModelSpec(
        family=mdl.Family.GAUSSIAN, fixed_effects=("x",), gaussian_obs_precision=2.5
    )
    g = np.random.default_rng(3)
    data = mdl.Dataset(y=g.normal(0, 1, 6), covariates={"x": g.uniform(-1, 1, 6)})
    latent = np.array([0.2, -0.4])
    eta = mdl.linear_predictor(spec, latent, data)
    ours = mdl.pointwise_loglik(spec, latent, np.zeros(0), data)
    oracle = st_dist.norm.logpdf(data.y, eta, 1 / np.sqrt(2.5))
    np.testing.assert_allclose(ours, oracle, rtol=1e-10)


def zinb_logpmf_oracle(y, mu, size, p_zero):
    """Direct mixture evaluation via scipy's negative binomial."""
    nb = st_dist.nbinom.logpmf(y, size, size / (size + mu))
    out = np.log1p(-p_zero) + nb
    if np.ndim(y) == 0:
        if y == 0:
            return np.logaddexp(np.log(p_zero), out)
        return out
    zero = np.asarray(y) == 0
    out[zero] = np.logaddexp(np.log(p_zero), out[zero])
    return out


def test_zinb_loglik_matches_scipy_mixture():
    spec = mdl.zinb_spec(covariates=("x",))
    g = np.random.default_rng(4)
    y = g.poisson(2.0, 12)
    y[:4] = 0  # force zeros through both mixture branches
    data = mdl.Dataset(y=y, covariates={"x": g.uniform(-1, 1, 12)}, offset=g.uniform(1, 5, 12))
    latent = np.array([0.3, 0.7])
    hyper = np.array([sps.logit(0.25), np.log(1.7)])
    eta = mdl.linear_predictor(spec, latent, data)
    ours = mdl.pointwise_loglik(spec, latent, hyper, data)
    oracle = zinb_logpmf_oracle(data.y, np.exp(eta), 1.7, 0.25)
    np.testing.assert_allclose(ours, oracle, rtol=1e-10)


def test_zinb_zero_probability_closed_form():
    # P(0) = p_z + (1 - p_z) (size / (size + mu))^size
    spec = mdl.zinb_spec(covariates=(), offset=None)
    data = mdl.Dataset(y=np.array([0]), covariates={})
    mu, size, pz = 3.0, 2.0, 0.4
    hyper = np.array([sps.logit(pz), np.log(size)])
    ll = mdl.pointwise_loglik(spec, np.array([np.log(mu)]), hyper, data)
    expected = pz + (1 - pz) * (size / (size + mu)) ** size
    assert ll[0] == pytest.approx(np.log(expected), rel=1e-12)


def test_zinb_without_inflation_reduces_to_negative_binomial():
    spec = mdl.zinb_spec(covariates=("x",), offset=None)
    g = np.random.default_rng(5)
    y = g.poisson(2.0, 10)
    y[0] = 0
    data = mdl.Dataset(y=y, covariates={"x": g.uniform(-1, 1, 10)})
    latent = np.array([0.1, 0.2])
    hyper = np.array([-40.0, np.log(2.0)])  # logit -40: p_zero ~ 4e-18
    eta = mdl.linear_predictor(spec, latent, data)
    ours = mdl.pointwise_loglik(spec, latent, hyper, data)
    nb = st_dist.nbinom.logpmf(data.y, 2.0, 2.0 / (2.0 + np.exp(eta)))
    np.testing.assert_allclose(ours, nb, rtol=1e-9)


def test_negative_binomial_approaches_poisson_at_large_dispersion():
    spec = mdl.zinb_spec(covariates=(), offset=None)
    data = mdl.Dataset(y=np.array([0, 1, 4, 9]), covariates={})
    latent = np.array([np.log(3.0)])
    hyper = np.array([-40.0, np.log(1e7)])
    ours = mdl.pointwise_loglik(spec, latent, hyper, data)
    poisson = st_dist.poisson.logpmf(data.y, 3.0)
    np.testing.assert_allclose(ours, poisson, rtol=1e-5)


def test_offset_enters_linear_predictor_logarithmically():
    spec = mdl.poisson_spec()
    data = toy_dataset(n=4, seed=6)
    latent = np.zeros(mdl.latent_dim(spec, 4))
    latent[0] = 0.3
    eta = mdl.linear_predictor(spec, latent, data)
    np.testing.assert_allclose(eta, 0.3 + np.log(data.offset), rtol=1e-15)


def test_log_likelihood_is_sum_of_pointwise():
    spec = mdl.poisson_spec()
    data = toy_dataset(n=9, seed=7)
    latent = np.random.default_rng(8).normal(0, 0.2, mdl.latent_dim(spec, 9))
    hyper = np.zeros(1)
    total = mdl.log_likelihood(spec, latent, hyper, data)
    assert total == pytest.approx(mdl.pointwise_loglik(spec, latent, hyper, data).sum())


def test_eta_overflow_raises_not_nan():
    spec = mdl.poisson_spec()
    data = toy_dataset(n=3, seed=9)
    latent = np.zeros(mdl.latent_dim(spec, 3))
    latent[0] = 1e4
    with pytest.raises(mdl.LikelihoodOverflowError, match="observation 0"):
        mdl.pointwise_loglik(spec, latent, np.zeros(1), data)


def test_check_eta_limit_is_inclusive():
    mdl._check_eta(np.array([0.0, mdl.ETA_OVERFLOW, -mdl.ETA_OVERFLOW, 3.0]))


@pytest.mark.parametrize(
    "values, index",
    [
        ([0.0, np.nextafter(mdl.ETA_OVERFLOW, np.inf), 1.0], 1),
        ([0.0, 1.0, -np.nextafter(mdl.ETA_OVERFLOW, np.inf)], 2),
        ([np.nan, 0.0], 0),
        ([0.0, np.inf], 1),
        ([0.0, 1.0, -np.inf, 2.0], 2),
        # Non-finite values are reported before any finite over-limit
        # value, even when the over-limit value comes first.
        ([0.0, 800.0, np.nan], 2),
        ([-900.0, 0.0, np.inf, np.nan], 2),
    ],
)
def test_check_eta_reports_the_first_offending_index(values, index):
    eta = np.array(values)
    with pytest.raises(mdl.LikelihoodOverflowError) as info:
        mdl._check_eta(eta)
    assert info.value.index == index
    assert info.value.value == eta[index] or (np.isnan(eta[index]) and np.isnan(info.value.value))


_LIMIT_PAST = np.nextafter(mdl.ETA_OVERFLOW, np.inf)
_SPECIAL_ETA = [np.nan, np.inf, -np.inf, mdl.ETA_OVERFLOW, -mdl.ETA_OVERFLOW, _LIMIT_PAST, -_LIMIT_PAST, -0.0]


@given(
    st.lists(st.floats(-720.0, 720.0), min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(0, 39), st.sampled_from(_SPECIAL_ETA)), max_size=4),
)
def test_check_eta_matches_the_two_reduction_version(values, specials):
    eta = np.array(values)
    for pos, value in specials:
        eta[pos % eta.size] = value

    def outcome(check):
        try:
            check(eta)
        except mdl.LikelihoodOverflowError as exc:
            return exc.index, np.float64(exc.value).tobytes()
        return None

    assert outcome(mdl._check_eta) == outcome(oracle_models._check_eta)


@pytest.mark.parametrize("family", ["poisson", "gaussian", "zinb"])
def test_likelihood_kernels_match_the_uncached_expressions(family):
    # Dataset caches y as floats and gammaln(y + 1); the kernels must
    # give the same bits as computing both on every call.
    g = np.random.default_rng(12)
    n = 9
    y = g.poisson(6.0, n)
    y[:2] = 0
    eta = g.uniform(-1.0, 2.5, n)
    if family == "poisson":
        spec, hyper = mdl.poisson_spec(covariates=(), offset=None), np.zeros(1)
    elif family == "gaussian":
        spec = mdl.ModelSpec(family=mdl.Family.GAUSSIAN, gaussian_obs_precision=1.5)
        y, hyper = g.normal(0, 1, n), np.zeros(0)
    else:
        spec, hyper = mdl.zinb_spec(covariates=(), offset=None), np.array([sps.logit(0.3), np.log(1.5)])
    data = mdl.Dataset(y=y, covariates={})
    yf = y.astype(np.float64)
    if family == "poisson":
        want = yf * eta - np.exp(eta) - sps.gammaln(yf + 1.0)
        lam = np.exp(eta)
        want_d = (yf - lam, lam, -lam)
    elif family == "gaussian":
        r = yf - eta
        want = 0.5 * np.log(1.5 / (2.0 * np.pi)) - 0.5 * 1.5 * r * r
        want_d = (1.5 * (yf - eta), np.full(n, 1.5), np.zeros(n))
    else:
        size = float(np.exp(hyper[1]))
        mu = np.exp(eta)
        log_nb = (
            sps.gammaln(yf + size)
            - sps.gammaln(size)
            - sps.gammaln(yf + 1.0)
            + size * (np.log(size) - np.log(size + mu))
            + yf * (eta - np.log(size + mu))
        )
        want = sps.log_expit(-hyper[0]) + log_nb
        want[y == 0] = np.logaddexp(sps.log_expit(hyper[0]), sps.log_expit(-hyper[0]) + log_nb[y == 0])
        want_d = None
    got = mdl.pointwise_loglik_from_eta(spec, eta, hyper, data)
    assert got.tobytes() == want.tobytes()
    if want_d is not None:
        got_d = (*mdl.eta_derivatives(spec, eta, hyper, data), mdl.eta_third_derivative(spec, eta, hyper, data))
        assert [a.tobytes() for a in got_d] == [b.tobytes() for b in want_d]
    # The cached arrays are not dataclass fields, so equality and repr
    # see the data alone.
    names = [f.name for f in dataclasses.fields(mdl.Dataset)]
    assert names == ["y", "covariates", "offset", "graph", "generating_values"]


def zinb_loglik_oracle(eta, hyper, y):
    """The ZINB pointwise log likelihood as computed before its constants
    were cached on the dataset, expression for expression."""
    theta1, size = float(hyper[0]), float(np.exp(hyper[1]))
    yf = y.astype(np.float64)
    log_pz = sps.log_expit(theta1)
    log_1mpz = sps.log_expit(-theta1)
    mu = np.exp(eta)
    log_nb = (
        sps.gammaln(yf + size)
        - sps.gammaln(size)
        - sps.gammaln(yf + 1.0)
        + size * (np.log(size) - np.log(size + mu))
        + yf * (eta - np.log(size + mu))
    )
    out = log_1mpz + log_nb
    zero = y == 0
    if np.any(zero):
        out = out.copy()
        out[zero] = np.logaddexp(log_pz, log_1mpz + log_nb[zero])
    return out


def zinb_derivatives_oracle(eta, hyper, y):
    """The ZINB eta derivatives as computed before their constants were
    cached on the dataset, expression for expression."""
    theta1, size = float(hyper[0]), float(np.exp(hyper[1]))
    yf = y.astype(np.float64)
    mu = np.exp(eta)
    denom = size + mu
    g1 = yf - mu * (size + yf) / denom
    g2 = -(size + yf) * size * mu / denom**2
    g3 = -(size + yf) * size * mu * (size - mu) / denom**3
    zero = y == 0
    if np.any(zero):
        mz = mu[zero]
        dz = denom[zero]
        log_pz = sps.log_expit(theta1)
        log_f1mpz = sps.log_expit(-theta1) + size * (np.log(size) - np.log(dz))
        w = np.exp(log_f1mpz - np.logaddexp(log_pz, log_f1mpz))
        s = -size * mz / dz
        s1 = -(size**2) * mz / dz**2
        s2 = -(size**2) * mz * (size - mz) / dz**3
        g1 = g1.copy()
        g2 = g2.copy()
        g3 = g3.copy()
        g1[zero] = w * s
        g2[zero] = w * (1.0 - w) * s * s + w * s1
        g3[zero] = w * (1.0 - w) * (1.0 - 2.0 * w) * s**3 + 3.0 * w * (1.0 - w) * s * s1 + w * s2
    return g1, -g2, g3


@pytest.mark.parametrize("zeros", ["some", "all", "none"])
def test_zinb_kernels_match_the_uncached_expressions(zeros):
    # The dataset keeps the two latest entries of each part of the ZINB
    # constants; the kernels must give the oracle's bits whether an entry
    # is fresh, reused, or replaced by alternating hyperparameters.
    g = np.random.default_rng(21)
    n = 40
    y = g.poisson(4.0, n) + (zeros == "none")
    if zeros == "some":
        y[::3] = 0
    elif zeros == "all":
        y[:] = 0
    assert (np.any(y == 0), np.all(y == 0)) == {"some": (True, False), "all": (True, True), "none": (False, False)}[zeros]
    data = mdl.Dataset(y=y, covariates={})
    spec = mdl.zinb_spec(covariates=(), offset=None)
    hypers = [np.array([sps.logit(0.3), np.log(1.5)]), np.array([-2.0, 3.0]), np.array([0.0, -1.25])]
    for step in range(7):
        hyper = hypers[[0, 1, 0, 0, 2, 1, 2][step]]
        eta = g.uniform(-3.0, 4.0, n)
        got = mdl.pointwise_loglik_from_eta(spec, eta, hyper, data)
        assert got.tobytes() == zinb_loglik_oracle(eta, hyper, y).tobytes()
        want_d = zinb_derivatives_oracle(eta, hyper, y)
        got_d = (*mdl.eta_derivatives(spec, eta, hyper, data), mdl.eta_third_derivative(spec, eta, hyper, data))
        assert [a.tobytes() for a in got_d] == [b.tobytes() for b in want_d]
        # The cached constants are read-only, and writing into a returned
        # array must not reach them.
        arrays = [data._zero] + [v for _, c in data._zinb_size_cache for v in c.values() if isinstance(v, np.ndarray)]
        assert len(arrays) > 1 and not any(a.flags.writeable for a in arrays)
        assert all(isinstance(v, float) for _, log_p in data._zinb_pz_cache for v in log_p)
        got[:] = np.nan
        again = mdl.pointwise_loglik_from_eta(spec, eta, hyper, data)
        assert again.tobytes() == zinb_loglik_oracle(eta, hyper, y).tobytes()


def test_zinb_kernels_raise_at_the_same_index():
    data = mdl.Dataset(y=np.array([0, 3, 1, 0, 5]), covariates={})
    spec = mdl.zinb_spec(covariates=(), offset=None)
    hyper = np.array([-1.0, 0.5])
    eta = np.array([0.1, 0.2, 701.0, np.nan, 0.0])
    for kernel in (mdl.pointwise_loglik_from_eta, mdl.eta_derivatives, mdl.eta_third_derivative):
        with pytest.raises(mdl.LikelihoodOverflowError) as info:
            kernel(spec, eta, hyper, data)
        assert info.value.index == 3  # non-finite values are reported first
        # An overflowing dispersion is refused before any constant is built.
        with pytest.raises(mdl.LikelihoodOverflowError) as info, np.errstate(over="ignore"):
            kernel(spec, np.zeros(5), np.array([-1.0, 800.0]), data)
        assert info.value.index == -1


# Hyperparameter indices (logit p_zero, log dispersion) that change one
# coordinate at a time and return to earlier values, so each two-entry
# cache is hit at its first and second entry, fills, and evicts.
CACHE_WALK = [(0, 0), (1, 0), (0, 0), (0, 1), (0, 0), (2, 0), (2, 1), (2, 0), (1, 0), (1, 2), (1, 1), (0, 1), (0, 2), (0, 0), (2, 0)]


@pytest.mark.parametrize("case", ["poisson", "gaussian", "zinb_zeros", "zinb_no_zeros", "zinb_all_zeros"])
def test_split_derivative_kernels_match_the_three_derivative_oracle(case):
    g = np.random.default_rng(31)
    n = 25
    y = g.poisson(5.0, n)
    if case == "zinb_zeros":
        y[::4] = 0
    elif case == "zinb_no_zeros":
        y += 1
    elif case == "zinb_all_zeros":
        y[:] = 0
    if case == "poisson":
        spec = mdl.poisson_spec(covariates=(), offset=None)
        hypers = [np.array([v]) for v in (0.0, 1.5, -2.0)]
    elif case == "gaussian":
        spec = mdl.ModelSpec(family=mdl.Family.GAUSSIAN, gaussian_obs_precision=1.5)
        y, hypers = g.normal(0, 1, n), [np.zeros(0)] * 3
    else:
        spec = mdl.zinb_spec(covariates=(), offset=None)
        hypers = [np.array([a, b]) for a, b in zip((sps.logit(0.3), -2.0, 0.75), (np.log(1.5), 3.0, -1.25))]
    data = mdl.Dataset(y=y, covariates={})
    oracle_data = mdl.Dataset(y=y, covariates={})
    for i, j in CACHE_WALK:
        hyper = np.array([hypers[i][0], hypers[j][1]]) if case.startswith("zinb") else hypers[i]
        # Wide enough that mu runs from tiny to far above the dispersion.
        eta = g.uniform(-6.0, 9.0, n)
        want = oracle_models.eta_derivatives(spec, eta, hyper, oracle_data)
        got = mdl.eta_derivatives(spec, eta, hyper, data)
        assert len(got) == 2
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want[:2]]
        assert mdl.eta_third_derivative(spec, eta, hyper, data).tobytes() == want[2].tobytes()
        if case.startswith("zinb"):
            # The current point's entries are the most recent ones.
            assert data._zinb_pz_cache[0][0] == hyper[0]
            assert data._zinb_size_cache[0][0] == float(np.exp(hyper[1]))
            for cache in (data._zinb_pz_cache, data._zinb_size_cache):
                assert 1 <= len(cache) <= 2 and len({key for key, _ in cache}) == len(cache)


def test_zinb_proposals_keep_the_current_constants_cached():
    # Each sweep the sampler tries a proposal that moves one
    # hyperparameter and returns to the current point: neither the
    # current point's constants nor the part a proposal leaves alone is
    # rebuilt, also after a proposal at a third value of the same part.
    data = mdl.Dataset(y=np.array([0, 3, 1, 0, 5, 2]), covariates={})
    spec = mdl.zinb_spec(covariates=(), offset=None)
    eta = np.linspace(-1.0, 2.0, 6)
    current = np.array([-1.0, 0.5])
    mdl.eta_derivatives(spec, eta, current, data)
    log_p, dispersion = data._zinb_pz_cache[0][1], data._zinb_size_cache[0][1]
    for i, value in [(0, -0.4), (1, 0.9), (0, 0.3), (1, -0.2)]:
        proposal = current.copy()
        proposal[i] = value
        mdl.pointwise_loglik_from_eta(spec, eta, proposal, data)
        other_cache, other_part = (data._zinb_size_cache, dispersion) if i == 0 else (data._zinb_pz_cache, log_p)
        assert other_cache[0][1] is other_part
        mdl.eta_derivatives(spec, eta, current, data)
        assert data._zinb_pz_cache[0][1] is log_p and data._zinb_size_cache[0][1] is dispersion


# ---------------------------------------------------------------------------
# Stacked kernels: a (k, n) predictor with a (k, m) hyperparameter block


def _stacked_case(case, n=30, k=7):
    """(spec, data, etas, hypers) with per-row hyperparameters, some rows
    sharing theirs, and predictors wide enough that mu runs from tiny to
    far above the dispersion."""
    g = np.random.default_rng(41)
    y = g.poisson(5.0, n)
    if case == "zinb_some_zeros":
        y[::3] = 0
    elif case == "zinb_all_zeros":
        y[:] = 0
    elif case == "zinb_no_zeros":
        y += 1
    if case == "poisson":
        spec = mdl.poisson_spec(covariates=(), offset=None)
        hypers = g.normal(0.0, 1.0, (k, 1))
    elif case == "gaussian":
        spec = mdl.ModelSpec(family=mdl.Family.GAUSSIAN, gaussian_obs_precision=1.5)
        y, hypers = g.normal(0, 1, n), np.zeros((k, 0))
    else:
        spec = mdl.zinb_spec(covariates=(), offset=None)
        hypers = np.column_stack([g.normal(-1.0, 1.0, k), g.normal(0.5, 1.0, k)])
        hypers[3] = hypers[1]
    return spec, mdl.Dataset(y=y, covariates={}), g.uniform(-6.0, 9.0, (k, n)), hypers


STACKED_CASES = ["poisson", "gaussian", "zinb_some_zeros", "zinb_all_zeros", "zinb_no_zeros"]


@pytest.mark.parametrize("case", STACKED_CASES)
def test_each_row_of_a_stacked_kernel_call_has_the_bits_of_the_one_row_call(case):
    spec, data, etas, hypers = _stacked_case(case)
    one_row = mdl.Dataset(y=data.y, covariates={})
    stacked = [
        mdl.pointwise_loglik_from_eta(spec, etas, hypers, data),
        *mdl.eta_derivatives(spec, etas, hypers, data),
        mdl.eta_third_derivative(spec, etas, hypers, data),
    ]
    for r in range(len(etas)):
        want = [
            mdl.pointwise_loglik_from_eta(spec, etas[r], hypers[r], one_row),
            *mdl.eta_derivatives(spec, etas[r], hypers[r], one_row),
            mdl.eta_third_derivative(spec, etas[r], hypers[r], one_row),
        ]
        assert [a[r].tobytes() for a in stacked] == [b.tobytes() for b in want]
    # A stack of one row, and a stack whose rows share their
    # hyperparameters, are the same code too.
    assert mdl.eta_derivatives(spec, etas[:1], hypers[:1], data)[1][0].tobytes() == stacked[2][0].tobytes()
    shared = np.repeat(hypers[:1], len(etas), axis=0)
    rows = mdl.pointwise_loglik_from_eta(spec, etas, shared, data)
    for r in range(len(etas)):
        assert rows[r].tobytes() == mdl.pointwise_loglik_from_eta(spec, etas[r], hypers[0], one_row).tobytes()


def test_a_stacked_zinb_call_builds_each_distinct_rows_constants_once(monkeypatch):
    spec, data, etas, hypers = _stacked_case("zinb_some_zeros")
    built = []
    dispersion_constants = mdl._dispersion_constants

    def counted(data, size):
        built.append(size)
        return dispersion_constants(data, size)

    monkeypatch.setattr(mdl, "_dispersion_constants", counted)
    for _ in range(3):
        mdl.eta_derivatives(spec, etas, hypers, data)
        mdl.pointwise_loglik_from_eta(spec, etas[2:], hypers[2:], data)
    assert sorted(built) == sorted({float(np.exp(h)) for h in hypers[:, 1]})
    assert len(data._zinb_size_cache) == len(built)
    # A one-row call that builds an entry brings the cache back to two.
    mdl.eta_derivatives(spec, etas[0], hypers[0] + 1.0, data)
    assert [len(c) for c in (data._zinb_pz_cache, data._zinb_size_cache)] == [2, 2]
    assert data._zinb_size_cache[0][0] == float(np.exp(hypers[0, 1] + 1.0))


def test_a_stacked_call_raises_if_any_row_is_out_of_range():
    spec, data, etas, hypers = _stacked_case("zinb_some_zeros")
    etas[4, 7] = 701.0
    for kernel in (mdl.pointwise_loglik_from_eta, mdl.eta_derivatives, mdl.eta_third_derivative):
        with pytest.raises(mdl.LikelihoodOverflowError) as info:
            kernel(spec, etas, hypers, data)
        assert (info.value.index, info.value.value) == (7, 701.0)
    assert mdl.eta_in_range(etas).tolist() == [r != 4 for r in range(len(etas))]


@given(
    st.lists(st.lists(st.floats(-720.0, 720.0), min_size=6, max_size=6), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.sampled_from(_SPECIAL_ETA)), max_size=6),
)
def test_eta_in_range_flags_exactly_the_rows_check_eta_raises_on(rows, specials):
    eta = np.array(rows)
    for r, c, value in specials:
        eta[r % len(eta), c] = value

    def raises(row):
        try:
            mdl._check_eta(row)
        except mdl.LikelihoodOverflowError:
            return True
        return False

    assert mdl.eta_in_range(eta).tolist() == [not raises(row) for row in eta]


# ---------------------------------------------------------------------------
# Derivatives against finite differences


@pytest.mark.parametrize("family", ["poisson", "gaussian", "zinb"])
def test_gradient_matches_finite_differences(family):
    g = np.random.default_rng(10)
    n = 6
    if family == "poisson":
        spec = mdl.poisson_spec()
        hyper = np.array([0.4])
    elif family == "gaussian":
        spec = mdl.ModelSpec(
            family=mdl.Family.GAUSSIAN,
            fixed_effects=("x",),
            random_effects=(mdl.IidTerm(),),
            priors=mdl.PriorSet(log_precision_priors={"iid": mdl.LogGammaPrior(1.0, 1.0)}),
            gaussian_obs_precision=1.5,
        )
        hyper = np.array([0.0])
    else:
        spec = mdl.zinb_spec(covariates=("x",))
        hyper = np.array([sps.logit(0.3), np.log(1.5)])
    y = g.poisson(4.0, n)
    y[0] = 0
    data = mdl.Dataset(
        y=y if family != "gaussian" else g.normal(0, 1, n),
        covariates={"x": g.uniform(-1, 1, n)},
        offset=g.uniform(1, 5, n) if family != "gaussian" else None,
    )
    latent = g.normal(0, 0.3, mdl.latent_dim(spec, n))
    # Chain rule through the latent-to-eta map J: gradient = J' dl/deta.
    sl = mdl.latent_slices(spec, n)
    j = np.zeros((n, mdl.latent_dim(spec, n)))
    j[:, sl["beta"]] = mdl.design_matrix(spec, data)
    if "iid" in sl:
        j[:, sl["iid"]] = np.eye(n)
    g1 = mdl.eta_derivatives(spec, mdl.linear_predictor(spec, latent, data), hyper, data)[0]
    grad = j.T @ g1
    oracle = fd_gradient(lambda v: mdl.log_likelihood(spec, v, hyper, data), latent)
    np.testing.assert_allclose(grad, oracle, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("family", ["poisson", "zinb"])
def test_eta_curvature_and_third_derivative_match_finite_differences(family):
    g = np.random.default_rng(11)
    n = 7
    if family == "poisson":
        spec = mdl.poisson_spec(covariates=(), offset=None)
        hyper = np.array([0.0])
    else:
        spec = mdl.zinb_spec(covariates=(), offset=None)
        hyper = np.array([sps.logit(0.35), np.log(2.2)])
    y = g.poisson(3.0, n)
    y[:3] = 0
    data = mdl.Dataset(y=y, covariates={})
    eta = g.uniform(-0.5, 1.5, n)

    def pointwise(e):
        return mdl.pointwise_loglik_from_eta(spec, e, hyper, data)

    h = 1e-4
    g1, neg_g2 = mdl.eta_derivatives(spec, eta, hyper, data)
    g3 = mdl.eta_third_derivative(spec, eta, hyper, data)
    for i in range(n):
        up, dn = eta.copy(), eta.copy()
        up[i] += h
        dn[i] -= h
        f0, fu, fd = pointwise(eta)[i], pointwise(up)[i], pointwise(dn)[i]
        assert g1[i] == pytest.approx((fu - fd) / (2 * h), rel=1e-6, abs=1e-6)
        assert -neg_g2[i] == pytest.approx((fu - 2 * f0 + fd) / h**2, rel=1e-4, abs=1e-4)
        # Third difference divides by 2 h^3; a wider step keeps the
        # roundoff term (machine epsilon / h^3) below the tolerance.
        h3 = 1e-3
        pts = []
        for k in (2, 1, -1, -2):
            shifted = eta.copy()
            shifted[i] += k * h3
            pts.append(pointwise(shifted)[i])
        d3 = (pts[0] - 2 * pts[1] + 2 * pts[2] - pts[3]) / (2 * h3**3)
        assert g3[i] == pytest.approx(d3, rel=5e-4, abs=5e-4)


# ---------------------------------------------------------------------------
# Latent prior and precision


def test_latent_log_prior_matches_direct_formula():
    graph = lattice_graph(2, 3)
    spec = mdl.bym_spec()
    g = np.random.default_rng(12)
    data = mdl.Dataset(
        y=g.poisson(3.0, 6),
        covariates={"x": g.uniform(0, 1, 6)},
        offset=g.uniform(1, 4, 6),
        graph=graph,
    )
    latent = g.normal(0, 0.5, mdl.latent_dim(spec, 6))
    hyper = np.array([0.2, -0.3])
    sl = mdl.latent_slices(spec, 6)
    beta, eps, mu = latent[sl["beta"]], latent[sl["iid"]], latent[sl["icar"]]
    expected = st_dist.norm.logpdf(beta, 0.0, 1000.0).sum()
    expected += st_dist.norm.logpdf(eps, 0.0, np.exp(-0.1)).sum()
    tau = np.exp(-0.3)
    q = graph_laplacian(graph)
    expected += (6 - 1) * np.log(tau) - 0.5 * tau * mu @ q @ mu
    assert mdl.latent_log_prior(spec, latent, hyper, data) == pytest.approx(expected, rel=1e-10)


def test_latent_prior_precision_blocks():
    graph = lattice_graph(2, 2)
    spec = mdl.bym_spec()
    g = np.random.default_rng(13)
    data = mdl.Dataset(
        y=g.poisson(3.0, 4),
        covariates={"x": g.uniform(0, 1, 4)},
        offset=g.uniform(1, 4, 4),
        graph=graph,
    )
    hyper = np.array([np.log(2.0), np.log(3.0)])
    dense = mdl.latent_prior_precision(spec, hyper, data)
    assert dense.shape == (9, 9)
    assert dense[0, 0] == pytest.approx(1e-6)  # 1 / 1000^2
    np.testing.assert_allclose(dense[1:5, 1:5], 2.0 * np.eye(4))
    np.testing.assert_allclose(dense[5:, 5:], 3.0 * graph_laplacian(graph))


def test_constraint_rows_cover_icar_block_only():
    graph = lattice_graph(2, 2)
    spec = mdl.bym_spec(constraint=Constraint.SUM_TO_ZERO_KRIGING)
    g = np.random.default_rng(14)
    data = mdl.Dataset(
        y=g.poisson(3.0, 4),
        covariates={"x": g.uniform(0, 1, 4)},
        offset=g.uniform(1, 4, 4),
        graph=graph,
    )
    rows = mdl.constraint_rows(spec, data)
    assert rows.shape == (1, 9)
    np.testing.assert_array_equal(rows[0, :5], np.zeros(5))
    np.testing.assert_array_equal(rows[0, 5:], np.ones(4))
    assert mdl.constraint_rows(mdl.bym_spec(), data) is None
    # Centring is the same constraint, imposed another way by the sampler.
    centring = mdl.bym_spec(constraint=Constraint.SUM_TO_ZERO_CENTERING)
    np.testing.assert_array_equal(mdl.constraint_rows(centring, data), rows)


# ---------------------------------------------------------------------------
# Dataset validation and CSV round trip


def test_dataset_validation():
    with pytest.raises(ValueError, match="nonempty"):
        mdl.Dataset(y=np.array([]), covariates={})
    with pytest.raises(ValueError, match="length mismatch"):
        mdl.Dataset(y=np.array([1, 2]), covariates={"x": np.array([1.0])})
    with pytest.raises(ValueError, match="positive"):
        mdl.Dataset(y=np.array([1]), covariates={}, offset=np.array([0.0]))
    with pytest.raises(ValueError, match="node count"):
        mdl.Dataset(y=np.array([1, 2]), covariates={}, graph=lattice_graph(1, 3))


def test_csv_round_trip(tmp_path):
    data = toy_dataset(n=11, seed=15)
    path = tmp_path / "data.csv"
    mdl.dataset_to_csv(data, path)
    back = mdl.dataset_from_csv(path)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.offset, data.offset)
    assert set(back.covariates) == {"x"}
    np.testing.assert_array_equal(back.covariates["x"], data.covariates["x"])


def test_csv_missing_columns_raise(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x\n1,0.5\n")
    with pytest.raises(ValueError, match="missing covariate"):
        mdl.dataset_from_csv(path, covariate_names=("z",))
    with pytest.raises(ValueError, match="missing response"):
        mdl.dataset_from_csv(path, y_name="count")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="missing response"):
        mdl.dataset_from_csv(empty)


def test_csv_with_a_repeated_column_raises(tmp_path):
    # Both "y" columns would otherwise be read as six sites from three rows.
    path = tmp_path / "data.csv"
    path.write_text("y,y\n1,100\n2,200\n3,300\n")
    with pytest.raises(ValueError, match="repeats column 'y'"):
        mdl.dataset_from_csv(path, offset_name=None)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_csv_round_trip_preserves_floats_exactly(seed):
    import tempfile

    g = np.random.default_rng(seed)
    data = mdl.Dataset(
        y=g.poisson(4.0, 5),
        covariates={"x": g.standard_normal(5)},
        offset=g.uniform(0.5, 2.0, 5),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/d.csv"
        mdl.dataset_to_csv(data, path)
        back = mdl.dataset_from_csv(path)
    np.testing.assert_array_equal(back.covariates["x"], data.covariates["x"])
    np.testing.assert_array_equal(back.offset, data.offset)
