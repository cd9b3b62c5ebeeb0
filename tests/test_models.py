"""Model specifications, likelihoods, priors, and dataset ingestion.

Likelihood values are checked against scipy.stats log-pmf/pdf oracles
and closed-form expressions; every analytic derivative is checked
against central finite differences computed here.
"""
from __future__ import annotations

import dataclasses
import math
import pickle

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
    # The kernels must give the oracle's bits whether they bind the
    # hyperparameters on the spot or are handed a binding, also one that
    # alternating hyperparameters reuse parts of.
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
    bound = None
    for step in range(7):
        hyper = hypers[[0, 1, 0, 0, 2, 1, 2][step]]
        bound = mdl.bind(spec, hyper, data, like=bound)
        eta = g.uniform(-3.0, 4.0, n)
        for h in (hyper, bound):
            got = mdl.pointwise_loglik_from_eta(spec, eta, h, data)
            assert got.tobytes() == zinb_loglik_oracle(eta, hyper, y).tobytes()
            want_d = zinb_derivatives_oracle(eta, hyper, y)
            got_d = (*mdl.eta_derivatives(spec, eta, h, data), mdl.eta_third_derivative(spec, eta, h, data))
            assert [a.tobytes() for a in got_d] == [b.tobytes() for b in want_d]
        # The bound constants are read-only, and writing into a returned
        # array must not reach them.
        arrays = [data._zero] + [v for v in bound.parts[4].values() if isinstance(v, np.ndarray)]
        assert len(arrays) > 1 and not any(a.flags.writeable for a in arrays)
        assert all(isinstance(v, float) for v in bound.parts[:4])
        got[:] = np.nan
        again = mdl.pointwise_loglik_from_eta(spec, eta, bound, data)
        assert again.tobytes() == zinb_loglik_oracle(eta, hyper, y).tobytes()


@pytest.mark.parametrize("case", ["poisson", "gaussian", "zinb"])
def test_kernel_calls_leave_the_dataset_as_it_was(case):
    # A dataset holds no cache: its attributes and its pickle are the
    # same before and after any number of kernel calls, bound or not.
    g = np.random.default_rng(22)
    y = g.poisson(3.0, 12)
    y[::4] = 0
    spec, hypers = {
        "poisson": (mdl.poisson_spec(covariates=(), offset=None), [np.zeros(0)]),
        "gaussian": (mdl.ModelSpec(family=mdl.Family.GAUSSIAN, gaussian_obs_precision=2.0), [np.zeros(0)]),
        "zinb": (mdl.zinb_spec(covariates=(), offset=None), [np.array([-1.0, 0.5]), np.array([0.2, -0.3])]),
    }[case]
    data = mdl.Dataset(y=y, covariates={})
    names, before = sorted(vars(data)), pickle.dumps(data)
    fields = ["y", "covariates", "offset", "graph", "generating_values"]
    assert names == sorted(fields + ["_y_float", "_log_y_factorial", "_zero", "_any_zero"])
    for hyper in hypers + [np.array(hypers * 2)]:
        eta = g.uniform(-2.0, 2.0, (4, 12) if hyper.ndim == 2 else 12)
        for h in (hyper, mdl.bind(spec, hyper, data)):
            mdl.pointwise_loglik_from_eta(spec, eta, h, data)
            mdl.eta_derivatives(spec, eta, h, data)
            mdl.eta_third_derivative(spec, eta, h, data)
        if hyper.ndim == 1:
            latent = np.full(mdl.latent_dim(spec, data.n), 0.3)
            mdl.log_likelihood(spec, latent, mdl.bind(spec, hyper, data), data)
    assert sorted(vars(data)) == names and pickle.dumps(data) == before


def test_poisson_and_gaussian_bindings_are_the_hyperparameters_themselves():
    data = mdl.Dataset(y=np.array([0, 2, 5]), covariates={})
    gaussian = mdl.ModelSpec(family=mdl.Family.GAUSSIAN, gaussian_obs_precision=1.0)
    for spec in (mdl.poisson_spec(covariates=(), offset=None), gaussian):
        for hyper in (np.zeros(1), np.zeros((3, 1))):
            assert mdl.bind(spec, hyper, data) is hyper
    spec = mdl.zinb_spec(covariates=(), offset=None)
    bound = mdl.bind(spec, np.array([0.1, 0.2]), data)
    assert isinstance(bound, mdl.ZinbConstants) and mdl.bind(spec, bound, data) is bound


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
# coordinate at a time and return to earlier values, so a binding made
# like the previous one reuses either part, both or neither.
BIND_WALK = [(0, 0), (1, 0), (0, 0), (0, 1), (0, 0), (2, 0), (2, 1), (2, 0), (1, 0), (1, 2), (1, 1), (0, 1), (0, 2), (0, 0), (2, 0)]


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
    bound = None
    for i, j in BIND_WALK:
        hyper = np.array([hypers[i][0], hypers[j][1]]) if case.startswith("zinb") else hypers[i]
        # Wide enough that mu runs from tiny to far above the dispersion.
        eta = g.uniform(-6.0, 9.0, n)
        want = oracle_models.eta_derivatives(spec, eta, hyper, oracle_data)
        got = mdl.eta_derivatives(spec, eta, hyper, data)
        assert len(got) == 2
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want[:2]]
        assert mdl.eta_third_derivative(spec, eta, hyper, data).tobytes() == want[2].tobytes()
        # The binding made like the previous point's gives the same bits.
        bound = mdl.bind(spec, hyper, data, like=bound if case.startswith("zinb") else None)
        assert [a.tobytes() for a in mdl.eta_derivatives(spec, eta, bound, data)] == [b.tobytes() for b in want[:2]]
        assert mdl.eta_third_derivative(spec, eta, bound, data).tobytes() == want[2].tobytes()


def test_a_proposal_bound_like_the_current_point_rebuilds_only_the_part_it_moves(dispersion_builds):
    # Each sweep the sampler tries proposals that move one hyperparameter
    # each: a proposal's binding takes the part it leaves alone from the
    # current point's binding, and builds only the moved one.
    data = mdl.Dataset(y=np.array([0, 3, 1, 0, 5, 2]), covariates={})
    spec = mdl.zinb_spec(covariates=(), offset=None)
    built = dispersion_builds
    current = np.array([-1.0, 0.5])
    bound = mdl.bind(spec, current, data)
    assert built == [float(np.exp(0.5))]
    for i, value in [(0, -0.4), (1, 0.9), (0, 0.3), (1, -0.2)]:
        proposal = current.copy()
        proposal[i] = value
        before = len(built)
        moved = mdl.bind(spec, proposal, data, like=bound)
        assert built[before:] == ([] if i == 0 else [float(np.exp(value))])
        if i == 0:
            assert moved.parts[4] is bound.parts[4] and moved.parts[:2] != bound.parts[:2]
        else:
            assert moved.parts[:2] == bound.parts[:2] and moved.parts[4] is not bound.parts[4]
        fresh = mdl.bind(spec, proposal, data)
        eta = np.linspace(-1.0, 2.0, 6)
        assert [a.tobytes() for a in mdl.eta_derivatives(spec, eta, moved, data)] == [
            a.tobytes() for a in mdl.eta_derivatives(spec, eta, fresh, data)
        ]


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


def test_a_stacked_zinb_call_builds_each_distinct_rows_constants_once(dispersion_builds):
    spec, data, etas, hypers = _stacked_case("zinb_some_zeros")
    distinct = sorted({float(np.exp(h)) for h in hypers[:, 1]})
    assert len(distinct) == len(hypers) - 1  # rows 1 and 3 share theirs
    built = dispersion_builds
    # An unbound call binds on the spot, once per call.
    for _ in range(2):
        mdl.eta_derivatives(spec, etas, hypers, data)
    assert sorted(built) == sorted(distinct * 2)
    built.clear()
    bound = mdl.bind(spec, hypers, data)
    assert sorted(built) == distinct
    # A bound call, and any selection of its rows, builds nothing.
    for at in (np.arange(7) != 2, 4, np.array([1, 3]), slice(2, None)):
        part = bound[at]
        mdl.pointwise_loglik_from_eta(spec, etas[at], part, data)
        mdl.eta_derivatives(spec, etas[at], part, data)
    assert sorted(built) == distinct
    # One row, or rows that share one, select the one-row form.
    assert bound[4] is bound.rows[4] and bound[4].rows is None
    assert bound[np.array([1, 3])] is bound[1] is bound[3]
    assert bound[0].parts[2] == float(np.exp(hypers[0, 1]))
    # A line search selects the rows still searching, also none of them.
    assert bound[np.zeros(7, dtype=bool)].parts[4]["a"].shape == (0, data.n)


def _all_kernels(spec, eta, hyper, data) -> list:
    return [
        mdl.pointwise_loglik_from_eta(spec, eta, hyper, data),
        *mdl.eta_derivatives(spec, eta, hyper, data),
        mdl.eta_third_derivative(spec, eta, hyper, data),
    ]


@given(
    st.sampled_from(["zinb_some_zeros", "zinb_all_zeros", "zinb_no_zeros"]),
    st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=7),
    st.lists(st.booleans(), min_size=7, max_size=7),
)
@settings(max_examples=60, deadline=None)
def test_a_bound_call_has_the_bits_of_the_unbound_call(case, logits, log_sizes, picks, keep):
    # Blocks whose rows repeat, share one hyperparameter or none, on data
    # with some, all and no zero counts: bound and unbound calls, and any
    # selection of a binding's rows, give the same bits.
    spec, data, etas, _ = _stacked_case(case)
    hypers = np.array([[logits[i], log_sizes[j]] for i, j in picks])
    etas = etas[: len(hypers)]
    bound = mdl.bind(spec, hypers, data)
    want = _all_kernels(spec, etas, hypers, data)
    assert [a.tobytes() for a in _all_kernels(spec, etas, bound, data)] == [b.tobytes() for b in want]
    for r in range(len(hypers)):
        one = _all_kernels(spec, etas[r], bound[r], data)
        assert [a.tobytes() for a in one] == [b[r].tobytes() for b in want]
        assert [a.tobytes() for a in one] == [b.tobytes() for b in _all_kernels(spec, etas[r], hypers[r], data)]
    mask = np.array(keep[: len(hypers)])
    if mask.any():
        got = _all_kernels(spec, etas[mask], bound[mask], data)
        assert [a.tobytes() for a in got] == [b[mask].tobytes() for b in want]


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
