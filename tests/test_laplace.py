"""Deterministic nested-Laplace engine.

Oracles: conjugate-Gaussian linear algebra, dense one-dimensional
quadrature of exact unnormalized posteriors, scipy root finding for
posterior modes, and closed-form Gaussian evidence.  None of them call
into the approximation code they are checking.
"""
from __future__ import annotations

import functools
import json
import math
import tracemalloc
import types

import numpy as np
import oracle_laplace
import oracle_prior
import pytest
import scipy.optimize

from lgmbench import harness, laplace
from lgmbench import models as mdl
from lgmbench.gmrf import AdjacencyGraph, Constraint, Factor, lattice_graph
from lgmbench.laplace import FitFailure, Strategy


# ---------------------------------------------------------------------------
# Model builders


def conjugate_gaussian_model(n=50, seed=42, kappa=2.0, prec_eps=4.0, prior_sd=10.0):
    """Intercept + iid field, Gaussian likelihood, all precisions fixed."""
    g = np.random.default_rng(seed)
    y = g.normal(1.0, 1.0, n)
    data = mdl.Dataset(y=y, covariates={})
    spec = mdl.ModelSpec(
        family=mdl.Family.GAUSSIAN,
        include_intercept=True,
        random_effects=(mdl.IidTerm(),),
        priors=mdl.PriorSet(
            fixed_effect=mdl.NormalPrior(0.0, prior_sd),
            log_precision_priors={"iid": mdl.FixedPrior(np.log(prec_eps))},
        ),
        gaussian_obs_precision=kappa,
    )
    return spec, data


def conjugate_posterior_oracle(spec, data):
    """Exact joint Gaussian posterior mean and per-component sd."""
    n = data.n
    kappa = spec.gaussian_obs_precision
    j = np.hstack([np.ones((n, 1)), np.eye(n)])
    prec_eps = np.exp(spec.priors.log_precision_priors["iid"].log_value)
    p = np.diag([spec.priors.fixed_effect.sd ** -2] + [prec_eps] * n)
    h = j.T @ (kappa * j) + p
    mean = np.linalg.solve(h, j.T @ (kappa * data.y))
    sd = np.sqrt(np.diag(np.linalg.inv(h)))
    return mean, sd


def intercept_poisson_model(y, log_offset=0.0, prior_sd=1.0):
    """Single-latent Poisson: the whole posterior is one dimensional."""
    y = np.atleast_1d(np.asarray(y))
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        include_intercept=True,
        offset="t",
        priors=mdl.PriorSet(fixed_effect=mdl.NormalPrior(0.0, prior_sd)),
    )
    data = mdl.Dataset(
        y=y, covariates={}, offset=np.full(y.size, np.exp(log_offset))
    )
    return spec, data


def quadrature_oracle(y, log_offset=0.0, prior_sd=1.0, width=12.0, points=40001):
    """Dense-grid normalization of the exact intercept-only posterior."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    total = y.sum()
    n = y.size
    b = np.linspace(-width, width, points)
    logpost = total * (b + log_offset) - n * np.exp(b + log_offset) - 0.5 * (b / prior_sd) ** 2
    logpost -= logpost.max()
    dens = np.exp(logpost)
    z = np.trapezoid(dens, b)
    mean = np.trapezoid(b * dens, b) / z
    var = np.trapezoid((b - mean) ** 2 * dens, b) / z
    return mean, np.sqrt(var)


# ---------------------------------------------------------------------------
# Exactness on the conjugate Gaussian model


@pytest.mark.parametrize("strategy", list(Strategy))
def test_conjugate_gaussian_model_is_exact(strategy):
    spec, data = conjugate_gaussian_model()
    mean_exact, sd_exact = conjugate_posterior_oracle(spec, data)
    res = laplace.fit(spec, data, strategy=strategy)
    means = np.array([m.mean for m in res.latent_marginals])
    sds = np.array([m.sd for m in res.latent_marginals])
    scale = np.maximum(np.abs(mean_exact), sd_exact)
    assert np.max(np.abs(means - mean_exact) / scale) < 1e-6
    assert np.max(np.abs(sds - sd_exact) / sd_exact) < 1e-6
    assert res.diagnostics.grid_size == 1
    assert res.diagnostics.newton_converged
    np.testing.assert_allclose(res.grid_weights, [1.0])


def test_gaussian_approx_matches_conjugate_precision():
    spec, data = conjugate_gaussian_model(n=20)
    mean_exact, _ = conjugate_posterior_oracle(spec, data)
    approx = laplace.gaussian_approx_latent(spec, np.zeros(0), data)
    np.testing.assert_allclose(approx.mode, mean_exact, rtol=1e-9, atol=1e-12)
    assert not approx.curvature_clipped
    n = data.n
    kappa = spec.gaussian_obs_precision
    j = np.hstack([np.ones((n, 1)), np.eye(n)])
    p = np.diag([spec.priors.fixed_effect.sd ** -2] + [4.0] * n)
    np.testing.assert_allclose(
        approx.precision, j.T @ (kappa * j) + p, rtol=1e-12, atol=1e-12
    )


# ---------------------------------------------------------------------------
# Mode finding against root-finding oracles


def test_poisson_mode_matches_root_oracle():
    # Stationarity: y - e^b - b / prior_sd^2 = 0 for a single count.
    spec, data = intercept_poisson_model([3])
    approx = laplace.gaussian_approx_latent(spec, np.zeros(0), data)
    root = scipy.optimize.brentq(lambda b: 3 - np.exp(b) - b, -5, 5, xtol=1e-14)
    assert approx.mode[0] == pytest.approx(root, abs=1e-8)
    assert root == pytest.approx(0.792059, abs=1e-6)  # frozen
    # curvature at the mode: e^b + 1
    assert approx.precision[0, 0] == pytest.approx(np.exp(root) + 1.0, rel=1e-8)


def test_poisson_mode_unit_count_is_zero():
    # y=1, unit offset, N(0,1) prior: 1 - e^0 - 0 = 0 exactly.
    spec, data = intercept_poisson_model([1])
    approx = laplace.gaussian_approx_latent(spec, np.zeros(0), data)
    assert approx.mode[0] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# One-dimensional posteriors against dense quadrature


def marginal_errors(res, mean_o, sd_o):
    m = res.latent_marginals[0]
    return abs(m.mean - mean_o) / sd_o + abs(m.sd - sd_o) / sd_o


def test_skewed_posterior_strategy_accuracy():
    # A single small count gives a clearly skewed posterior.
    mean_o, sd_o = quadrature_oracle([2])
    spec, data = intercept_poisson_model([2])
    errs = {}
    for strat in Strategy:
        res = laplace.fit(spec, data, strategy=strat)
        errs[strat] = marginal_errors(res, mean_o, sd_o)
    assert errs[Strategy.FULL_LAPLACE] < 2e-3
    assert errs[Strategy.FULL_LAPLACE] <= errs[Strategy.SIMPLIFIED_LAPLACE]
    assert errs[Strategy.SIMPLIFIED_LAPLACE] <= errs[Strategy.GAUSSIAN]
    assert errs[Strategy.GAUSSIAN] > 0.01  # the gap is real, not vacuous


def test_strategy_ordering_across_seeded_instances():
    # Over many randomized skewed instances the three strategies should
    # rank by accuracy (full <= simplified <= plain Gaussian) nearly
    # always; ties get a small slack.
    rng = np.random.default_rng(2024)
    fl_wins = sla_wins = 0
    trials = 50
    for _ in range(trials):
        y = [int(rng.integers(0, 7))]
        log_off = float(rng.uniform(-1.0, 1.0))
        mean_o, sd_o = quadrature_oracle(y, log_off)
        spec, data = intercept_poisson_model(y, log_off)
        errs = {}
        for strat in Strategy:
            res = laplace.fit(spec, data, strategy=strat)
            errs[strat] = marginal_errors(res, mean_o, sd_o)
        slack = 1e-6
        fl_wins += errs[Strategy.FULL_LAPLACE] <= errs[Strategy.SIMPLIFIED_LAPLACE] + slack
        sla_wins += errs[Strategy.SIMPLIFIED_LAPLACE] <= errs[Strategy.GAUSSIAN] + slack
    assert fl_wins >= 0.9 * trials
    assert sla_wins >= 0.9 * trials


# ---------------------------------------------------------------------------
# Hyperparameter marginals against closed-form Gaussian evidence


def variance_component_model(n=12, seed=7, kappa=4.0):
    """Gaussian observations riding on an iid field with free precision."""
    g = np.random.default_rng(seed)
    y = g.normal(0.0, np.sqrt(1.0 + 1.0 / kappa), n)
    data = mdl.Dataset(y=y, covariates={})
    spec = mdl.ModelSpec(
        family=mdl.Family.GAUSSIAN,
        include_intercept=False,
        random_effects=(mdl.IidTerm(),),
        priors=mdl.PriorSet(log_precision_priors={"iid": mdl.LogGammaPrior(2.0, 1.0)}),
        gaussian_obs_precision=kappa,
    )
    return spec, data


def evidence_oracle(spec, data, theta):
    """log p(y | theta) + log p(theta), exact for the Gaussian family."""
    kappa = spec.gaussian_obs_precision
    var = np.exp(-theta) + 1.0 / kappa
    loglik = -0.5 * np.sum(np.log(2 * np.pi * var) + data.y**2 / var)
    return loglik + spec.priors.log_precision_priors["iid"].logpdf(theta)


def test_theta_log_posterior_matches_closed_form_evidence():
    # For a Gaussian likelihood the nested approximation of the
    # hyperparameter posterior is exact up to an additive constant, so
    # differences across grid points must match the closed form.
    spec, data = variance_component_model()
    grid = laplace.explore_theta(spec, data)
    assert len(grid.points) >= 7
    lp = np.array([p.log_post for p in grid.points])
    oracle = np.array([evidence_oracle(spec, data, float(p.theta[0])) for p in grid.points])
    diff = lp - oracle
    assert np.max(diff) - np.min(diff) < 1e-7
    np.testing.assert_allclose(grid.weights.sum(), 1.0, rtol=0, atol=1e-12)


def test_hyper_marginal_matches_quadrature_of_evidence():
    spec, data = variance_component_model()
    res = laplace.fit(spec, data)
    # Dense quadrature over theta of the exact evidence.
    t = np.linspace(-6, 6, 4001)
    lp = np.array([evidence_oracle(spec, data, ti) for ti in t])
    dens = np.exp(lp - lp.max())
    z = np.trapezoid(dens, t)
    mean_t = np.trapezoid(t * dens, t) / z
    sd_t = np.sqrt(np.trapezoid((t - mean_t) ** 2 * dens, t) / z)
    hm = res.hyper_marginal("precision_iid")
    assert hm.name == "log_precision_iid"
    # The coarse integration grid resolves moments to a few percent.
    assert hm.internal.mean == pytest.approx(mean_t, abs=0.10 * sd_t)
    assert hm.internal.sd == pytest.approx(sd_t, rel=0.10)
    mean_nat = np.trapezoid(np.exp(t) * dens, t) / z
    assert hm.natural.mean == pytest.approx(mean_nat, rel=0.05)


# ---------------------------------------------------------------------------
# Strategy/constraint interactions and refusals


def small_spatial_dataset(seed=3, tau=1.0, constraint=Constraint.NONE):
    g = np.random.default_rng(seed)
    graph = lattice_graph(3, 3)
    eta = g.normal(0.0, 0.5, 9)
    data = mdl.Dataset(
        y=g.poisson(np.exp(1.0 + eta)),
        covariates={"x": g.uniform(0, 1, 9)},
        offset=np.full(9, 3.0),
        graph=graph,
    )
    spec = mdl.bym_spec(constraint=constraint)
    return spec, data


def test_full_laplace_refuses_kriging_constraint(monkeypatch):
    # The refusal is known from the spec alone, so no theta point is
    # evaluated before it.
    spec, data = small_spatial_dataset(constraint=Constraint.SUM_TO_ZERO_KRIGING)
    calls = []
    log_posterior_theta = laplace._log_posterior_theta

    def counted(ctx, theta, cache, cold=False):
        calls.append(theta)
        return log_posterior_theta(ctx, theta, cache, cold)

    monkeypatch.setattr(laplace, "_log_posterior_theta", counted)
    with pytest.raises(FitFailure) as err:
        laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE)
    assert err.value.cause == "strategy_unsupported"
    assert err.value.detail == "full Laplace is not available with sum-to-zero constraints"
    assert calls == []
    laplace.fit(spec, data, strategy=Strategy.GAUSSIAN, latents=[])
    assert len(calls) > 100  # the counter sees a fit that is not refused


@pytest.mark.parametrize("latents", [[], ["beta_x"]])
def test_full_laplace_refuses_kriging_constraint_whatever_is_requested(latents):
    # An empty request must not turn the refusal into a passing fit.
    spec, data = small_spatial_dataset(constraint=Constraint.SUM_TO_ZERO_KRIGING)
    with pytest.raises(FitFailure) as err:
        laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, latents=latents)
    assert err.value.cause == "strategy_unsupported"


def test_simplified_laplace_supports_kriging_constraint():
    spec, data = small_spatial_dataset(constraint=Constraint.SUM_TO_ZERO_KRIGING)
    res = laplace.fit(spec, data, strategy=Strategy.SIMPLIFIED_LAPLACE)
    assert res.diagnostics.constrained_reduction
    sds = np.array([m.sd for m in res.latent_marginals])
    assert np.all(np.isfinite(sds)) and np.all(sds > 0)
    # spatial sites honor the sum-to-zero constraint in the mixture mean
    icar_means = [res.latent_marginal(f"icar_{i}").mean for i in range(9)]
    assert abs(sum(icar_means)) < 0.02


def test_both_sum_to_zero_spellings_give_the_same_fit():
    # Kriging and centring name one constrained posterior; they differ
    # only in how the sampler imposes it, so the Laplace fit is the same.
    _, data = small_spatial_dataset()
    fits = [
        laplace.fit(mdl.bym_spec(include_intercept=True, constraint=c), data, strategy=Strategy.GAUSSIAN).to_json()
        for c in (Constraint.SUM_TO_ZERO_KRIGING, Constraint.SUM_TO_ZERO_CENTERING)
    ]
    assert fits[0] == fits[1]
    assert json.loads(fits[1])["diagnostics"]["constrained_reduction"]


def improper_level_model(seed=5):
    """Flat intercept prior + unconstrained intrinsic field.

    Raising the intercept by c and lowering the whole field by c leaves
    both the likelihood and every prior term unchanged, so the posterior
    has an exactly flat direction.
    """
    g = np.random.default_rng(seed)
    graph = lattice_graph(2, 3)
    data = mdl.Dataset(
        y=g.poisson(3.0, 6),
        covariates={"x": g.uniform(0, 1, 6)},
        offset=np.full(6, 2.0),
        graph=graph,
    )
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        fixed_effects=("x",),
        offset="total",
        include_intercept=True,
        random_effects=(mdl.IidTerm(), mdl.IcarTerm()),
        priors=mdl.PriorSet(
            fixed_effect=mdl.FlatPrior(),
            log_precision_priors={
                "iid": mdl.LogGammaPrior(1.0, 5e-4),
                "icar": mdl.LogGammaPrior(1.0, 5e-4),
            },
        ),
        allow_improper=True,
    )
    return spec, data


def test_rank_deficient_model_is_refused():
    spec, data = improper_level_model()
    with pytest.raises(FitFailure) as err:
        laplace.fit(spec, data)
    assert err.value.cause == "rank_deficient"
    assert err.value.info["deficiency"] >= 1


def test_flat_fixed_prior_alone_is_accepted():
    # The flat prior itself is fine when the likelihood identifies the
    # coefficients; only the level-redundant combination is refused.
    spec, data = intercept_poisson_model([4, 2, 5])
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        include_intercept=True,
        offset="t",
        priors=mdl.PriorSet(fixed_effect=mdl.FlatPrior()),
    )
    res = laplace.fit(spec, data)
    assert res.diagnostics.propriety == "Proper"


# ---------------------------------------------------------------------------
# Integration grids


def test_dense_grid_and_ccd_agree_on_two_hypers():
    spec, data = small_spatial_dataset()
    res_grid = laplace.fit(spec, data, int_strategy="grid")
    res_ccd = laplace.fit(spec, data, int_strategy="ccd")
    assert res_ccd.diagnostics.grid_size == 9  # centre + 4 corners + 4 axial
    assert res_grid.diagnostics.grid_size > 9
    for g_size in (res_grid, res_ccd):
        np.testing.assert_allclose(g_size.grid_weights.sum(), 1.0, atol=1e-12)
    # same posterior to grid resolution
    for name in ("beta_x",):
        a = res_grid.latent_marginal(name)
        b = res_ccd.latent_marginal(name)
        assert abs(a.mean - b.mean) < 0.2 * a.sd
        assert abs(a.sd - b.sd) / a.sd < 0.2


def test_auto_strategy_uses_ccd_for_three_hypers():
    # A zero-inflated model with an iid block carries three internal
    # hyperparameters, which flips the automatic rule over to the
    # composite design.
    g = np.random.default_rng(11)
    n = 30
    lam = np.exp(0.5 + g.normal(0, 0.3, n))
    y = g.poisson(lam)
    y[g.uniform(size=n) < 0.2] = 0
    data = mdl.Dataset(y=y, covariates={"x": g.uniform(-1, 1, n)})
    spec = mdl.ModelSpec(
        family=mdl.Family.ZERO_INFLATED_NEG_BINOMIAL,
        fixed_effects=("x",),
        include_intercept=True,
        random_effects=(mdl.IidTerm(),),
        priors=mdl.PriorSet(
            log_precision_priors={"iid": mdl.LogGammaPrior(1.0, 5e-3)},
            log_dispersion_prior=mdl.NormalPrior(0.0, 2.0),
        ),
    )
    assert mdl.hyper_dim(spec) == 3
    res = laplace.fit(spec, data)
    assert res.diagnostics.grid_size == 1 + 8 + 6  # centre + corners + axial
    np.testing.assert_allclose(res.grid_weights.sum(), 1.0, atol=1e-12)


def test_full_laplace_weight_floor_skips_low_mass_points(monkeypatch):
    spec, data = small_spatial_dataset()
    monkeypatch.setattr(laplace, "FL_MIN_WEIGHT", 0.0)
    full = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, int_strategy="ccd")
    monkeypatch.setattr(laplace, "FL_MIN_WEIGHT", 0.5)
    floored = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, int_strategy="ccd")
    assert full.diagnostics.fl_scanned_points == full.diagnostics.grid_size
    assert floored.diagnostics.fl_scanned_points < floored.diagnostics.grid_size
    for a, b in zip(full.latent_marginals, floored.latent_marginals):
        assert abs(a.mean - b.mean) < 0.05 * a.sd
        assert abs(a.sd - b.sd) / a.sd < 0.05


# ---------------------------------------------------------------------------
# Fit results: marginal invariants, determinism, serialization


def test_marginals_integrate_to_one_with_monotone_quantiles():
    spec, data = small_spatial_dataset()
    res = laplace.fit(spec, data, strategy=Strategy.SIMPLIFIED_LAPLACE)
    for m in res.latent_marginals:
        total = np.trapezoid(m.density, m.values)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert m.quantiles[0.025] <= m.quantiles[0.5] <= m.quantiles[0.975]
    for hm in res.hyper_marginals:
        nat = hm.natural
        total = np.trapezoid(nat.density, nat.values)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_fit_is_deterministic():
    spec, data = small_spatial_dataset()
    a = laplace.fit(spec, data, strategy=Strategy.SIMPLIFIED_LAPLACE).to_json()
    b = laplace.fit(spec, data, strategy=Strategy.SIMPLIFIED_LAPLACE).to_json()
    assert a == b


def test_fit_result_serialization_structure(tmp_path):
    spec, data = intercept_poisson_model([2, 4, 1])
    res = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE)
    path = tmp_path / "fit.json"
    text = res.to_json(path)
    loaded = json.loads(path.read_text())
    assert json.dumps(loaded, sort_keys=True) == text
    assert loaded["engine"] == "laplace"
    # The engine draws nothing, so a fit records no seed.
    assert "seed" not in loaded
    assert loaded["latent_names"] == ["intercept"]
    assert loaded["diagnostics"]["strategy"] == "full_laplace"
    assert loaded["int_strategy"] == "auto"
    assert "config" not in loaded
    g = len(loaded["grid_weights"])
    assert np.asarray(loaded["pointwise_loglik"]).shape == (g, 3)
    with pytest.raises(KeyError):
        res.hyper_marginal("nope")
    with pytest.raises(ValueError):
        res.latent_marginal("nope")


def test_pointwise_loglik_mixture_is_finite():
    spec, data = small_spatial_dataset()
    res = laplace.fit(spec, data)
    assert res.pointwise_loglik.shape == (res.diagnostics.grid_size, data.n)
    assert np.all(np.isfinite(res.pointwise_loglik))


def test_config_validation():
    spec, data = intercept_poisson_model([2, 4, 1])
    with pytest.raises(ValueError, match="int_strategy"):
        laplace.fit(spec, data, int_strategy="fancy")


# ---------------------------------------------------------------------------
# Latent requests: the all-latents fit is the oracle


def small_poisson_model(n=6, seed=4):
    """Intercept, slope and an iid block: eight latents, one hyperparameter."""
    g = np.random.default_rng(seed)
    x = g.uniform(0, 1, n)
    data = mdl.Dataset(
        y=g.poisson(np.exp(1.0 + x + g.normal(0.0, 0.3, n))),
        covariates={"x": x},
        offset=np.full(n, 2.0),
    )
    return mdl.poisson_spec(covariates=("x",)), data


@pytest.mark.parametrize(
    "strategy, model, subset",
    [
        (Strategy.FULL_LAPLACE, small_poisson_model, ["iid_3", "beta_x"]),
        (Strategy.SIMPLIFIED_LAPLACE, small_spatial_dataset, ["icar_4", "beta_x", "icar_4"]),
        (
            Strategy.SIMPLIFIED_LAPLACE,
            functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_KRIGING),
            ["icar_0", "iid_8"],
        ),
        (Strategy.GAUSSIAN, small_spatial_dataset, ["iid_0"]),
        # Indices 15 and 16: the last latent of one solve block and the
        # first of the next.
        (Strategy.SIMPLIFIED_LAPLACE, small_spatial_dataset, ["icar_5", "icar_6"]),
    ],
)
def test_requested_latents_are_bit_identical_to_the_all_latents_fit(strategy, model, subset):
    spec, data = model()
    full = laplace.fit(spec, data, strategy=strategy)
    part = laplace.fit(spec, data, strategy=strategy, latents=subset)
    assert part.latent_names == [name for name in full.latent_names if name in subset]
    assert len(part.latent_marginals) == len(part.latent_names)
    for name in subset:
        a, b = part.latent_marginal(name), full.latent_marginal(name)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.density, b.density)
        assert a.to_dict() == b.to_dict()
    requested = [full.latent_names.index(name) for name in subset]
    if subset == ["icar_5", "icar_6"]:
        assert [i // laplace.MARGINAL_BLOCK for i in requested] == [0, 1]
    assert part.diagnostics.unreliable_latents == [i for i in full.diagnostics.unreliable_latents if i in requested]
    assert part.diagnostics.fl_scanned_points == full.diagnostics.fl_scanned_points
    assert part.diagnostics.newton_iters == full.diagnostics.newton_iters


def test_empty_latent_request_keeps_grid_hypers_and_pointwise_loglik(monkeypatch):
    spec, data = small_poisson_model()
    full = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE)

    def unused(*args):
        raise AssertionError("computed for a fit that requests no latent marginal")

    # Nothing rebuilds a grid point's curvature or skewness coefficients.
    monkeypatch.setattr(laplace, "_point_curvature", unused)
    monkeypatch.setattr(laplace, "_sla_coefficients", unused)
    bare = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, latents=[])
    assert bare.latent_names == [] and bare.latent_marginals == []
    assert np.array_equal(bare.pointwise_loglik, full.pointwise_loglik)
    assert np.array_equal(bare.grid_weights, full.grid_weights)
    assert bare.theta_grid.to_dict() == full.theta_grid.to_dict()
    assert len(bare.hyper_marginals) == len(full.hyper_marginals) == 1
    for a, b in zip(bare.hyper_marginals, full.hyper_marginals):
        assert (a.name, a.natural_name) == (b.name, b.natural_name)
        assert a.internal.to_dict() == b.internal.to_dict()
        assert a.natural.to_dict() == b.natural.to_dict()
    assert bare.diagnostics.fl_scanned_points == full.diagnostics.fl_scanned_points
    assert bare.diagnostics.unreliable_latents == []


def test_unrequested_or_unknown_latent_raises():
    spec, data = small_poisson_model()
    res = laplace.fit(spec, data, latents=["beta_x"])
    assert res.latent_names == ["beta_x"]
    for name in ("intercept", "iid_0", "nope"):
        with pytest.raises(ValueError):
            res.latent_marginal(name)
    with pytest.raises(ValueError, match="unknown latent components"):
        laplace.fit(spec, data, latents=["beta_x", "gamma"])


# ---------------------------------------------------------------------------
# Theta-invariant structure: the sparse prior builder is the oracle


def old_prior_precision_u(ctx, theta):
    """The prior precision as the sparse COO builder made it."""
    p = oracle_prior.latent_prior_precision(ctx.spec, theta, ctx.data).to_dense()
    if ctx.basis is not None:
        p = ctx.basis.T @ p @ ctx.basis
    return p


def small_zinb_model(n=25, seed=9):
    g = np.random.default_rng(seed)
    x = g.uniform(-1.0, 1.0, n)
    y = g.poisson(np.exp(0.8 + 0.5 * x))
    y[g.uniform(size=n) < 0.3] = 0
    data = mdl.Dataset(y=y, covariates={"x": x}, offset=np.full(n, 2.0))
    return mdl.zinb_spec(covariates=("x",)), data


def isolated_node_bym_model():
    # Nodes 3 and 4 have no neighbour: no Laplacian entry at all.
    graph = AdjacencyGraph(5, ((0, 1), (1, 2)))
    data = mdl.Dataset(y=np.array([3, 0, 4, 2, 7]), covariates={"x": np.linspace(0, 1, 5)}, graph=graph)
    return mdl.bym_spec(offset=None), data


FLAT_FIXED_EFFECT_SPEC = mdl.ModelSpec(
    family=mdl.Family.POISSON,
    fixed_effects=("x",),
    random_effects=(mdl.IidTerm(),),
    priors=mdl.PriorSet(
        fixed_effect=mdl.FlatPrior(),
        log_precision_priors={"iid": mdl.LogGammaPrior(1.0, 1.0)},
    ),
)


@pytest.mark.parametrize(
    "model",
    [
        small_poisson_model,
        small_spatial_dataset,
        functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_CENTERING),
        functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_KRIGING),
        isolated_node_bym_model,
        small_zinb_model,
        # Fixed precisions and a flat fixed-effect prior.
        lambda: (mdl.poisson_spec(iid_prior=mdl.FixedPrior(math.log(2.5))), small_poisson_model()[1]),
        lambda: (FLAT_FIXED_EFFECT_SPEC, small_poisson_model()[1]),
        lambda: (mdl.bym_spec(icar_prior=mdl.FixedPrior(-0.7)), small_spatial_dataset()[1]),
        lambda: (
            mdl.bym_spec(iid_prior=mdl.FixedPrior(1.1), icar_prior=mdl.FixedPrior(-0.7)),
            small_spatial_dataset()[1],
        ),
    ],
)
def test_cached_prior_matches_the_sparse_prior_bit_for_bit(model):
    spec, data = model()
    ctx = laplace._Context(spec, data)
    m = mdl.hyper_dim(spec)
    g = np.random.default_rng(5)
    # -800 underflows exp() to zero, where the sparse prior drops every
    # entry of the block and leaves +0.0 behind.
    thetas = [np.zeros(m), g.normal(0.0, 2.0, m), g.normal(0.0, 2.0, m), np.full(m, -800.0)]
    for theta in thetas:
        assert ctx.prior_precision_u(theta).tobytes() == old_prior_precision_u(ctx, theta).tobytes()
    if any(name.startswith("log_precision") for name in mdl.hyper_names(spec)):
        for build in (ctx.prior_precision_u, functools.partial(old_prior_precision_u, ctx)):
            with pytest.raises(OverflowError):
                build(np.full(m, 800.0))


@pytest.mark.parametrize(
    "model, strategy, int_strategy",
    [
        (small_poisson_model, Strategy.FULL_LAPLACE, "auto"),
        (small_spatial_dataset, Strategy.GAUSSIAN, "auto"),
        (
            functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_KRIGING),
            Strategy.SIMPLIFIED_LAPLACE,
            "ccd",
        ),
        (small_zinb_model, Strategy.FULL_LAPLACE, "ccd"),
    ],
)
def test_fit_with_cached_prior_is_bit_identical_to_the_uncached_fit(monkeypatch, model, strategy, int_strategy):
    spec, data = model()
    new = laplace.fit(spec, data, strategy=strategy, int_strategy=int_strategy).to_json()
    monkeypatch.setattr(laplace._Context, "prior_precision_u", old_prior_precision_u)
    old = laplace.fit(spec, data, strategy=strategy, int_strategy=int_strategy).to_json()
    assert new == old


def test_full_laplace_computes_skew_coefficients_only_where_read(monkeypatch):
    spec, data = small_spatial_dataset()
    monkeypatch.setattr(laplace, "FL_MIN_WEIGHT", 0.5)
    sla = laplace._sla_coefficients
    calls = []

    def counted(ctx, theta, *rest):
        calls.append(theta.tobytes())
        return sla(ctx, theta, *rest)

    monkeypatch.setattr(laplace, "_sla_coefficients", counted)
    res = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, int_strategy="ccd", latents=["beta_x"])
    light = res.grid_weights < laplace.FL_MIN_WEIGHT * res.grid_weights.max()
    assert 0 < res.diagnostics.fl_scanned_points < res.diagnostics.grid_size
    assert calls == [p.theta.tobytes() for p, skip in zip(res.theta_grid.points, light) if skip]
    calls.clear()
    laplace.fit(spec, data, strategy=Strategy.SIMPLIFIED_LAPLACE, int_strategy="ccd", latents=["beta_x"])
    assert len(calls) == res.diagnostics.grid_size


# ---------------------------------------------------------------------------
# One Newton routine: the two loops it replaced are the oracle


@pytest.mark.parametrize("strategy", [Strategy.GAUSSIAN, Strategy.SIMPLIFIED_LAPLACE])
@pytest.mark.parametrize(
    "model, int_strategy",
    [
        (small_poisson_model, "auto"),
        (small_spatial_dataset, "auto"),
        (functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_CENTERING), "auto"),
        (functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_KRIGING), "auto"),
        (small_zinb_model, "ccd"),
    ],
)
def test_gaussian_and_sla_fits_are_bit_identical_to_the_two_loop_oracle(monkeypatch, model, int_strategy, strategy):
    assert_bit_identical_to_the_cache_everything_oracle(monkeypatch, model, int_strategy, strategy)


@pytest.mark.parametrize(
    "model, int_strategy",
    [
        (small_poisson_model, "auto"),
        (small_zinb_model, "ccd"),
        # Defined below with the other pool-dataset tests.
        (lambda: _pool_dataset(seed=0, index=5), "auto"),
    ],
)
def test_full_laplace_fits_are_bit_identical_to_the_cache_everything_oracle(monkeypatch, model, int_strategy):
    assert_bit_identical_to_the_cache_everything_oracle(monkeypatch, model, int_strategy, Strategy.FULL_LAPLACE)


def assert_bit_identical_to_the_cache_everything_oracle(monkeypatch, model, int_strategy, strategy):
    """The fit against the theta cache that kept every evaluation's
    curvature, fed by the two-loop Newton solver, whose marginals read the
    LU inverse of each grid point's factor.  What theta exploration yields
    (grid, weights, log densities, latent modes, Newton iterations),
    ``pointwise_loglik``, the hyperparameter marginals and the diagnostics
    keep every byte; the latent marginals, from triangular solves with
    each factor, agree to rounding: 1e-12 relative, and 1e-9 under
    FULL_LAPLACE, whose profile scans start from covariance columns that
    differ by rounding."""
    spec, data = model()

    def fit_and_modes():
        modes, mix = [], laplace._mix_marginals

        def recorded(ctx, grid, approxes, *rest):
            modes.extend(a.mode_u.tobytes() for a in approxes)
            return mix(ctx, grid, approxes, *rest)

        monkeypatch.setattr(laplace, "_mix_marginals", recorded)
        res = laplace.fit(spec, data, strategy=strategy, int_strategy=int_strategy)
        monkeypatch.setattr(laplace, "_mix_marginals", mix)
        return res.to_dict(), modes

    new, new_modes = fit_and_modes()
    monkeypatch.setattr(laplace, "_newton", oracle_laplace._newton)
    monkeypatch.setattr(laplace, "_log_posterior_theta", oracle_laplace._log_posterior_theta)
    monkeypatch.setattr(laplace, "_mix_marginals", oracle_laplace._mix_marginals)
    old, old_modes = fit_and_modes()
    assert new_modes == old_modes
    new_latents, old_latents = new.pop("latent_marginals"), old.pop("latent_marginals")
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)
    rtol = 1e-9 if strategy is Strategy.FULL_LAPLACE else 1e-12
    assert len(new_latents) == len(old_latents) == len(new["latent_names"])
    for a, b in zip(new_latents, old_latents):
        assert a["quantiles"].keys() == b["quantiles"].keys()
        # Relative to each quantity's scale: a location (the value grid,
        # the mean, the quantiles) to the grid's magnitude, a density to
        # its peak, so that a value near zero is not held to its own size.
        span = np.abs(b["values"]).max()
        for key, scale in [("values", span), ("mean", span), ("sd", 0.0), ("density", max(b["density"]))]:
            np.testing.assert_allclose(a[key], b[key], rtol=rtol, atol=rtol * scale, err_msg=key)
        np.testing.assert_allclose(
            list(a["quantiles"].values()), list(b["quantiles"].values()), rtol=rtol, atol=rtol * span
        )


@pytest.mark.parametrize(
    "model, strategies, int_strategy",
    [
        (small_poisson_model, [Strategy.SIMPLIFIED_LAPLACE, Strategy.FULL_LAPLACE], "auto"),
        (small_spatial_dataset, [Strategy.SIMPLIFIED_LAPLACE, Strategy.FULL_LAPLACE], "auto"),
        (
            functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_CENTERING),
            [Strategy.SIMPLIFIED_LAPLACE],
            "auto",
        ),
        (
            functools.partial(small_spatial_dataset, constraint=Constraint.SUM_TO_ZERO_KRIGING),
            [Strategy.SIMPLIFIED_LAPLACE],
            "auto",
        ),
        (small_zinb_model, [Strategy.SIMPLIFIED_LAPLACE, Strategy.FULL_LAPLACE], "ccd"),
    ],
)
def test_grid_point_moments_match_the_lu_inverse_oracle(monkeypatch, model, strategies, int_strategy):
    # Each grid point's sds, skew coefficients and covariance columns, from
    # triangular solves, against the same moments read from the LU inverse
    # of the same factor (the oracle's ``_Approx.cov``).  The moments are
    # compared on every latent, so on both solve blocks of the BYM model.
    # No solve has more right-hand sides than a block, but J'; nothing
    # solves against an identity or inverts a matrix.
    spec, data = model()
    moments, forward_rhs, point_moments, forward = [], [], laplace._point_moments, Factor.forward

    def refused(*args, **kwargs):
        pytest.fail("a fit called np.linalg.solve or np.linalg.inv")

    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(np.linalg, "inv", refused)

    def recorded(ctx, theta, approx, at, skew, columns):
        start = len(forward_rhs)
        out = point_moments(ctx, theta, approx, at, skew, columns)
        moments.append((ctx, theta, approx, at, skew, columns, out, forward_rhs[start:]))
        return out

    def recorded_forward(self, b):
        forward_rhs.append(b)
        return forward(self, b)

    monkeypatch.setattr(laplace, "_point_moments", recorded)
    monkeypatch.setattr(Factor, "forward", recorded_forward)
    for strategy in strategies:
        laplace.fit(spec, data, strategy=strategy, int_strategy=int_strategy)
    monkeypatch.undo()
    assert {skew for *_, skew, _, _, _ in moments} == {True, False} or strategies == [Strategy.SIMPLIFIED_LAPLACE]
    read = {"sds": 0, "skew": 0, "columns": 0}
    for ctx, theta, approx, at, skew, columns, (sds, sla, cols), rhs in moments:
        indices = [b * laplace.MARGINAL_BLOCK + c for b, c in at]
        assert indices == list(range(ctx.dim_x))
        blocks = sorted({b for b, _ in at})
        # One solve per block of at most MARGINAL_BLOCK latents, and one
        # with J' where skew coefficients are read.  Up to d = 16 latents
        # the one block is the identity; above, no solve takes d columns.
        width = laplace.MARGINAL_BLOCK
        assert len(rhs) == len(blocks) + skew
        assert [b.shape[1] for b in rhs[: len(blocks)]] == [len(indices[b * width : (b + 1) * width]) for b in blocks]
        if skew:
            assert rhs[-1].tobytes() == ctx.j.T.tobytes()
        if ctx.dim_u > width:
            assert not any(b.shape == (ctx.dim_u, ctx.dim_u) for b in rhs)
        hess, factor = laplace._point_curvature(ctx, theta, approx.eta)
        lu = oracle_laplace._Approx(approx.mode_u, hess, factor.lower, approx.log_det_half, approx.iters, True, False)
        cov = lu.cov
        ref_sds = np.sqrt(np.einsum("ij,jk,ik->i", ctx.basis, cov, ctx.basis)) if ctx.basis is not None else np.sqrt(np.diag(cov))
        np.testing.assert_allclose(sds, ref_sds, rtol=1e-12, atol=0.0)
        read["sds"] += 1
        assert (sla is not None) == skew and (cols is not None) == columns
        if skew:
            gamma1, gamma3 = oracle_laplace._sla_coefficients(ctx, theta, lu)
            # Relative to the largest coefficient of the grid point, so
            # that one near zero is not held to its own size.  On the
            # constrained BYM model the grid reaches icar precisions near
            # exp(10.2), where both ways of forming gamma1 carry ~2e-9
            # relative error against a 40-digit computation, and the two
            # differ by up to 3e-12 of the largest coefficient.
            atol = 1e-12 if ctx.basis is None else 1e-11
            for got, ref in ((sla[:, 0], gamma1), (sla[:, 1], gamma3)):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=atol * np.abs(ref).max())
            read["skew"] += 1
        if columns:
            # Column by column, relative to the column's largest entry.
            ref_cols = cov.T
            assert (np.abs(cols - ref_cols) <= 1e-12 * np.abs(ref_cols).max(axis=1, keepdims=True)).all()
            read["columns"] += 1
    assert read["sds"] == len(moments) and read["skew"] > 0
    assert read["columns"] > 0 or Strategy.FULL_LAPLACE not in strategies


def test_theta_cache_keeps_no_array_longer_than_the_latent_mode_or_predictor(monkeypatch):
    spec, data = small_spatial_dataset()
    caches = []
    log_posterior_theta = laplace._log_posterior_theta

    def recorded(ctx, theta, cache, cold=False):
        caches.append((ctx, cache))
        return log_posterior_theta(ctx, theta, cache, cold)

    monkeypatch.setattr(laplace, "_log_posterior_theta", recorded)
    laplace.fit(spec, data, strategy=Strategy.SIMPLIFIED_LAPLACE)
    ctx, cache = caches[-1]
    assert len(cache) > 100
    for key, entry in cache.items():
        arrays = [entry] if key == "_warm" else [v for v in vars(entry[1]).values() if isinstance(v, np.ndarray)]
        assert all(a.ndim == 1 and a.size in (ctx.dim_u, ctx.n) for a in arrays)


def traced_peak_mib_of_a_bym_gaussian_fit(n_areas):
    """tracemalloc peak, in MiB, of a Gaussian fit of the slope on dataset
    0 of a BYM study of ``n_areas`` areas."""
    config = harness.study_config("bym", n_areas=n_areas, n_datasets=1, strategy="gaussian")
    data = harness.generate_datasets(config)[0]
    spec = mdl.bym_spec(covariates=("x",))
    tracemalloc.start()
    try:
        laplace.fit(spec, data, strategy=Strategy.GAUSSIAN, int_strategy=config.int_strategy, latents=["beta_x"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_bym_fit_memory_does_not_grow_with_the_theta_evaluations():
    # A cache of every evaluation's d x d curvature peaked at 58.7 MiB here.
    assert traced_peak_mib_of_a_bym_gaussian_fit(64) <= 8.0


@pytest.mark.slow
def test_paper_size_bym_fit_memory_does_not_grow_with_the_theta_evaluations():
    # A cache of every evaluation's d x d curvature peaked at 1,117 MiB here.
    assert traced_peak_mib_of_a_bym_gaussian_fit(296) <= 100.0


def as_two_loop_args(ctx, theta, mode_u, cov_col, index, v_grid):
    """The profile scan's arguments as the two-loop oracle takes them: an
    approximation whose covariance column ``index`` is ``cov_col``."""
    cov = np.zeros((mode_u.size, mode_u.size))
    cov[:, index] = cov_col
    return ctx, theta, types.SimpleNamespace(mode_u=mode_u, cov=cov), index, v_grid


def exact_profile_point(ctx, theta, mode_u, cov_col, index, v):
    """Full-Laplace log density of one component at ``v`` after 30 plain
    Newton steps from the Gaussian conditional mean (log-concave
    likelihoods only), with the log determinant from ``slogdet``."""
    p = ctx.prior_precision_u(theta)
    keep = np.array([k for k in range(ctx.dim_u) if k != index])
    j, p_keep = ctx.j[:, keep], p[np.ix_(keep, keep)]
    u = mode_u + cov_col / cov_col[index] * (v - mode_u[index])
    u[index] = v
    for _ in range(30):
        g1, w = mdl.eta_derivatives(ctx.spec, ctx.eta(u), theta, ctx.data)
        u[keep] += np.linalg.solve(j.T @ (w[:, None] * j) + p_keep, j.T @ g1 - (p @ u)[keep])
    eta = ctx.eta(u)
    w = mdl.eta_derivatives(ctx.spec, eta, theta, ctx.data)[1]
    f = mdl.pointwise_loglik_from_eta(ctx.spec, eta, theta, ctx.data).sum() - 0.5 * u @ p @ u
    return f - 0.5 * np.linalg.slogdet(j.T @ (w[:, None] * j) + p_keep)[1]


# Fits whose profile scans the oracle tests below compare: all latents
# of two pool datasets and of the ZINB model (on its dense grid, and on
# a CCD design), and of the small BYM model the ones whose profiles
# disagree with the two-loop scan.  Each fit runs its scans at several
# grid points in one lockstep run.
ORACLE_FL_FITS = [
    (lambda: _pool_dataset(seed=0, index=5), None, "auto"),
    (lambda: _pool_dataset(seed=258543359, index=10), None, "auto"),
    (small_spatial_dataset, ["beta_x", "icar_0", "icar_3", "icar_6"], "auto"),
    (small_zinb_model, None, "auto"),
    (small_zinb_model, None, "ccd"),
]


@pytest.fixture(scope="module")
def recorded_fl_scans():
    """Every profile scan of ``ORACLE_FL_FITS`` as ``(args, (logd,
    unconverged))``, with ``args`` the one-scan call ``(ctx, theta, mode_u,
    cov_col, index, v_grid)``."""
    fl = laplace._fl_profiles
    scans = []

    def recorded(ctx, batch):
        out = fl(ctx, batch)
        scans.extend(((ctx, *scan), result) for scan, result in zip(batch, out))
        return out

    laplace._fl_profiles = recorded
    try:
        for model, latents, int_strategy in ORACLE_FL_FITS:
            spec, data = model()
            laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, latents=latents, int_strategy=int_strategy)
    finally:
        laplace._fl_profiles = fl
    return scans


def test_lockstep_profiles_are_bit_identical_to_the_sequential_scans(recorded_fl_scans):
    # Every profile value and unconverged count of the lockstep run is the
    # scan-at-a-time oracle's, bit for bit.
    for args, (logd, unconverged) in recorded_fl_scans:
        ref, ref_unconverged = oracle_laplace._sequential_fl_conditional_logdens(*args)
        assert logd.tobytes() == ref.tobytes()
        assert unconverged == ref_unconverged
    zinb = mdl.Family.ZERO_INFLATED_NEG_BINOMIAL
    thetas = {args[1].tobytes() for args, _ in recorded_fl_scans if args[0].spec.family is zinb}
    assert len(thetas) > 1
    assert sum(unconverged for _, (_, unconverged) in recorded_fl_scans) > 0


def test_full_laplace_profiles_match_the_two_loop_oracle(recorded_fl_scans):
    flagged = flagged_oracle = compared = 0
    for args, (logd, unconverged) in recorded_fl_scans:
        ref, ref_unconverged = oracle_laplace._fl_conditional_logdens(*as_two_loop_args(*args))
        flagged += unconverged
        flagged_oracle += ref_unconverged
        if ref_unconverged:
            continue
        compared += 1
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(logd), finite)
        scale = np.maximum(1.0, np.abs(ref))
        off = np.flatnonzero(finite & (np.abs(logd - ref) > 1e-8 * scale))
        # Where the two disagree (the small BYM model, whose icar
        # precision near 1.4e4 puts the objective's rounding above the
        # decrement test), the scan either flags its stop or is right.
        if off.size and not unconverged:
            assert args[0].spec.family is not mdl.Family.ZERO_INFLATED_NEG_BINOMIAL
            exact = np.array([exact_profile_point(*args[:5], args[5][g]) for g in off])
            np.testing.assert_allclose(logd[off], exact, rtol=1e-8, atol=1e-8)
    assert compared > 0.8 * len(recorded_fl_scans)
    # The oracle's scan stops short on both pool datasets.
    assert 0 < flagged <= flagged_oracle


@pytest.mark.parametrize(
    "model, int_strategy", [(small_zinb_model, "ccd"), (lambda: _pool_dataset(seed=0, index=5), "auto")]
)
def test_full_laplace_fit_does_not_depend_on_the_chunk_size(monkeypatch, model, int_strategy):
    spec, data = model()
    chunks = []
    fl_chunk = laplace._fl_chunk

    def recorded(ctx, scans):
        chunks.append(len(scans))
        return fl_chunk(ctx, scans)

    monkeypatch.setattr(laplace, "_fl_chunk", recorded)
    fits = []
    for budget in (1, 2**60):
        monkeypatch.setattr(laplace, "FL_CHUNK_BYTES", budget)
        fits.append(laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, int_strategy=int_strategy).to_json())
    assert fits[0] == fits[1]
    # One member per chunk, then every scan in one chunk.
    assert len(chunks) == chunks[-1] + 1 and set(chunks[:-1]) == {1} and chunks[-1] > 1


def _calls_with_builds(monkeypatch, built, module, name) -> list:
    """Wrap ``module.name``: one record per call, with the call's first
    argument after the context, the entries added to ``built`` during
    the call, and whether it returned."""
    calls, inner = [], getattr(module, name)

    def wrapped(ctx, first, *args, **kwargs):
        record, start = {"arg": first, "returned": False}, len(built)
        calls.append(record)
        try:
            out = inner(ctx, first, *args, **kwargs)
            record["returned"] = True
            return out
        finally:
            record["built"] = built[start:]

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_a_lockstep_run_builds_the_zinb_constants_once_per_grid_point(monkeypatch, dispersion_builds):
    # Each chunk of profile scans binds its grid points once for all its
    # scanned values: one build per distinct theta of the chunk, with one
    # scan per chunk and with every scan in one chunk.
    spec, data = small_zinb_model()
    chunks = _calls_with_builds(monkeypatch, dispersion_builds, laplace, "_fl_chunk")
    for budget in (1, 2**60):
        monkeypatch.setattr(laplace, "FL_CHUNK_BYTES", budget)
        chunks.clear()
        laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, int_strategy="ccd")
        assert len(chunks) > 1 if budget == 1 else len(chunks) == 1
        thetas = set()
        for chunk in chunks:
            assert sorted(chunk["built"]) == sorted({float(np.exp(scan[0][1])) for scan in chunk["arg"]})
            thetas.update(scan[0].tobytes() for scan in chunk["arg"])
        assert len(thetas) > 1


def test_each_theta_evaluation_builds_the_zinb_constants_once(monkeypatch, dispersion_builds):
    # A theta evaluation binds once for its Newton solve and its
    # likelihood, also one that fails; one read from the cache builds
    # nothing.
    spec, data = small_zinb_model()
    evaluations = _calls_with_builds(monkeypatch, dispersion_builds, laplace, "_log_posterior_theta")
    laplace.explore_theta(spec, data, int_strategy="ccd")
    cached = set()
    assert len(evaluations) > 10 and not all(e["returned"] for e in evaluations)
    for e in evaluations:
        key = np.asarray(e["arg"], dtype=float).tobytes()
        assert e["built"] == ([] if key in cached else [float(np.exp(e["arg"][1]))])
        if e["returned"]:
            cached.add(key)


def covariance_column(ctx, theta, approx, index):
    """Column ``index`` of the covariance of the Gaussian approximation at
    ``theta``: H^{-1} e_index from its factor, as the engine takes it."""
    factor = laplace._point_curvature(ctx, theta, approx.eta)[1]
    return factor.sample(factor.forward(np.eye(ctx.dim_u)[:, index]))


def test_a_one_latent_model_scans_with_nothing_free():
    # The profile of the only latent is its exact unnormalized log
    # posterior: no component is re-maximized and no log determinant
    # enters.
    g = np.random.default_rng(5)
    data = mdl.Dataset(y=g.poisson(3.0, 12), covariates={}, offset=np.full(12, 2.0))
    prior = mdl.PriorSet(fixed_effect=mdl.NormalPrior(0.0, 2.0))
    spec = mdl.ModelSpec(family=mdl.Family.POISSON, offset="offset", priors=prior)
    ctx = laplace._Context(spec, data)
    theta = np.zeros(0)
    approx = laplace._newton(ctx, theta)
    cov_col = covariance_column(ctx, theta, approx, 0)
    v_grid = approx.mode_u[0] + np.linspace(-1.0, 1.0, 5)
    [(logd, unconverged)] = laplace._fl_profiles(ctx, [(theta, approx.mode_u, cov_col, 0, v_grid)])
    ref, ref_unconverged = oracle_laplace._sequential_fl_conditional_logdens(
        ctx, theta, approx.mode_u, cov_col, 0, v_grid
    )
    assert (logd.tobytes(), unconverged) == (ref.tobytes(), ref_unconverged) and unconverged == 0
    exact = [mdl.log_likelihood(spec, np.array([v]), theta, data) - 0.5 * v * v / 4.0 for v in v_grid]
    np.testing.assert_allclose(logd, exact, rtol=1e-12)
    res = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE)
    assert res.diagnostics.fl_scanned_points == 1 and res.diagnostics.unreliable_latents == []


# ---------------------------------------------------------------------------
# Diagnostics of early stops and dropped points


def _pool_dataset(seed, index):
    """One dataset of a 16-area Poisson study pool."""
    config = harness.study_config("poisson", seed=seed, n_areas=16, n_datasets=index + 1)
    data = harness.generate_poisson_data(config)[index]
    return mdl.poisson_spec(covariates=("x",)), data


def test_unconverged_profile_points_flag_their_latent():
    # On this dataset the profile ascent of iid_6 stops short at some
    # scan points, while the profile of iid_8 converges everywhere.
    spec, data = _pool_dataset(seed=258543359, index=2)
    res = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, latents=["iid_6", "iid_8"])
    diag = res.diagnostics
    assert diag.fl_unconverged_points > 0
    assert diag.unreliable_latents == [mdl.latent_names(spec, data.n).index("iid_6")]
    other = laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, latents=["iid_8"])
    assert other.diagnostics.fl_unconverged_points == 0
    assert other.diagnostics.unreliable_latents == []
    assert other.latent_marginal("iid_8").to_dict() == res.latent_marginal("iid_8").to_dict()


def test_profile_point_with_non_pd_clipped_curvature_is_dropped(monkeypatch):
    # Under a flat fixed-effect prior the clipped curvature has nothing
    # on the intercept once every likelihood weight is clipped to zero.
    # Four scans run in one lockstep run; the last, of beta_x at its own
    # theta so that a patched kernel can find its rows, fails at its
    # fourth value, and a fifth, a copy of the first, overflows at its
    # first.
    spec, data = FLAT_FIXED_EFFECT_SPEC, small_poisson_model()[1]
    ctx = laplace._Context(spec, data)
    names = mdl.latent_names(spec, data.n)
    scans = []
    for name, value in [("beta_x", 0.0), ("iid_2", 0.0), ("intercept", 0.0), ("beta_x", 0.25)]:
        theta = np.array([value])
        approx = laplace._newton(ctx, theta)
        index = names.index(name)
        cov_col = covariance_column(ctx, theta, approx, index)
        v_grid = approx.mode_u[index] + math.sqrt(cov_col[index]) * np.linspace(-3.0, 3.0, 7)
        scans.append((theta, approx.mode_u, cov_col, index, v_grid))
    theta, mode_u, cov_col, index, v_grid = scans[0]
    v_grid = v_grid.copy()
    v_grid[0] = 1e4
    start = mode_u + cov_col / cov_col[index] * (v_grid[0] - mode_u[index])
    start[index] = v_grid[0]
    assert not mdl.eta_in_range(ctx.eta(start[None]))[0]
    scans.append((theta, mode_u, cov_col, index, v_grid))
    clean = laplace._fl_profiles(ctx, scans[:4])
    assert all(np.isfinite(logd).all() and unconverged == 0 for logd, unconverged in clean)

    bad_theta, bad_index, bad_v = scans[3][0], scans[3][3], scans[3][4][3]
    at_bad_point, causes = [False], []
    ascend, sequential_ascend = laplace._ascend, oracle_laplace._sequential_ascend
    eta_derivatives = mdl.eta_derivatives

    def traced_ascend(ctx, thetas, p_mats, u, free=None):
        rows = (thetas == bad_theta).all(axis=1) & (u[:, bad_index] == bad_v)
        at_bad_point[0] = rows.any()
        out = ascend(ctx, thetas, p_mats, u, free)
        causes.extend(getattr(o, "cause", type(o).__name__) for o in out[5] if not isinstance(o, str))
        return out

    def traced_sequential_ascend(ctx, theta, p_mat, u, free=None):
        at_bad_point[0] = (theta == bad_theta).all() and u[bad_index] == bad_v
        return sequential_ascend(ctx, theta, p_mat, u, free)

    def negative_curvature(spec, eta, hyper, data):
        g1, w = eta_derivatives(spec, eta, hyper, data)
        if at_bad_point[0]:
            w = np.where((hyper == bad_theta).all(axis=-1)[..., None], -w, w)
        return g1, w

    monkeypatch.setattr(laplace, "_ascend", traced_ascend)
    monkeypatch.setattr(oracle_laplace, "_sequential_ascend", traced_sequential_ascend)
    monkeypatch.setattr(mdl, "eta_derivatives", negative_curvature)
    got = laplace._fl_profiles(ctx, scans)
    assert sorted(causes) == ["LikelihoodOverflowError", "hessian_not_pd"]
    # Each scan, the two failing ones included, is the sequential scan's.
    for (logd, unconverged), scan in zip(got, scans):
        ref, ref_unconverged = oracle_laplace._sequential_fl_conditional_logdens(ctx, *scan)
        assert (logd.tobytes(), unconverged) == (ref.tobytes(), ref_unconverged)
    # Only the failing (scan, value) pairs are lost; the other scans keep
    # every bit.
    assert [logd.tobytes() for logd, _ in got[:3]] == [logd.tobytes() for logd, _ in clean[:3]]
    logd, unconverged = got[3]
    assert unconverged == 0 and logd[3] == -np.inf
    assert logd[:3].tobytes() == clean[3][0][:3].tobytes()
    # The later points start from the third point's mode instead of the
    # fourth's, which moves where the ascent stops within its tolerance.
    np.testing.assert_allclose(logd[4:], clean[3][0][4:], rtol=1e-6)
    assert np.flatnonzero(~np.isfinite(got[4][0])).tolist() == [0]


def _failing_newton(bad_theta: bytes, cold_too: bool):
    """``_newton`` that fails at one theta: from a warm start, or always."""
    newton = laplace._newton

    def patched(ctx, theta, u0=None, bound=None):
        if theta.tobytes() == bad_theta and (cold_too or u0 is not None):
            raise FitFailure("newton_nonconvergence", "forced")
        return newton(ctx, theta, u0, bound)

    return patched


def test_dropped_theta_points_are_counted(monkeypatch):
    spec, data = _pool_dataset(seed=0, index=0)
    clean = laplace.fit(spec, data, latents=[])
    assert clean.diagnostics.grid_size > 1
    assert clean.diagnostics.theta_points_retried == clean.diagnostics.theta_points_failed == 0
    # The outermost grid point on one side fails its warm start and its
    # cold retry: the axis scan stops short of it and the grid loses it.
    edge = clean.theta_grid.thetas[np.argmax(clean.theta_grid.thetas[:, 0])]
    monkeypatch.setattr(laplace, "_newton", _failing_newton(edge.tobytes(), cold_too=True))
    res = laplace.fit(spec, data, latents=[])
    assert res.diagnostics.grid_size == clean.diagnostics.grid_size - 1
    assert (res.diagnostics.theta_points_retried, res.diagnostics.theta_points_failed) == (1, 1)
    # A warm-start failure alone is mended by the retry.
    monkeypatch.undo()
    monkeypatch.setattr(laplace, "_newton", _failing_newton(edge.tobytes(), cold_too=False))
    res = laplace.fit(spec, data, latents=[])
    assert res.diagnostics.grid_size == clean.diagnostics.grid_size
    assert (res.diagnostics.theta_points_retried, res.diagnostics.theta_points_failed) == (1, 0)
    assert json.loads(res.to_json())["diagnostics"]["theta_points_retried"] == 1


def test_ccd_design_points_are_retried_then_dropped(monkeypatch):
    spec, data = small_spatial_dataset()
    clean = laplace.fit(spec, data, int_strategy="ccd", latents=[])
    assert clean.diagnostics.grid_size == 9
    corner = clean.theta_grid.thetas[1]
    monkeypatch.setattr(laplace, "_newton", _failing_newton(corner.tobytes(), cold_too=True))
    res = laplace.fit(spec, data, int_strategy="ccd", latents=[])
    assert res.diagnostics.grid_size == 8
    assert (res.diagnostics.theta_points_retried, res.diagnostics.theta_points_failed) == (1, 1)
    np.testing.assert_allclose(res.grid_weights.sum(), 1.0, atol=1e-12)


def test_collapsed_theta_grid_is_recovered_by_a_cold_retry():
    # Both grid neighbours of the mode fail their warm-started Newton
    # solve on this dataset (one area has a count above 1e5); started
    # from zero they converge, so the grid no longer collapses to the
    # mode and the iid standard deviation keeps a positive spread.
    spec, data = _pool_dataset(seed=258543359, index=10)
    assert data.y.max() > 1e5
    res = laplace.fit(spec, data, latents=[])
    assert res.diagnostics.grid_size > 1
    assert res.diagnostics.theta_points_failed == 0
    assert res.diagnostics.theta_points_retried >= 1
    _, sd_iid_sd = harness._laplace_summary(res, "sd_iid")
    assert sd_iid_sd > 0.0


def test_theta_mode_search_failure_is_recorded(monkeypatch):
    spec, data = conjugate_gaussian_model(n=10)
    assert laplace.fit(spec, data).diagnostics.theta_mode_converged  # no hyperparameters

    def stopped_early(*args, **kwargs):
        res = scipy.optimize.minimize(*args, **kwargs)
        res.success = False
        return res

    spec, data = variance_component_model()
    monkeypatch.setattr(laplace, "optimize", types.SimpleNamespace(minimize=stopped_early))
    res = laplace.fit(spec, data, latents=[])
    assert res.diagnostics.theta_mode_converged is False
    assert json.loads(res.to_json())["diagnostics"]["theta_mode_converged"] is False


def test_failed_theta_mode_evaluations_are_counted(monkeypatch):
    spec, data = _pool_dataset(seed=0, index=0)
    newton, visited = laplace._newton, []

    def recorded(ctx, theta, u0=None, bound=None):
        visited.append(theta.tobytes())
        return newton(ctx, theta, u0, bound)

    monkeypatch.setattr(laplace, "_newton", recorded)
    clean = laplace.fit(spec, data, latents=[])
    assert clean.diagnostics.theta_mode_failed_evals == 0
    # The first two evaluations are the start and its finite-difference
    # neighbour; the third is BFGS's first line-search trial.
    assert visited[2] != visited[0]
    monkeypatch.setattr(laplace, "_newton", _failing_newton(visited[2], cold_too=True))
    res = laplace.fit(spec, data, latents=[])
    assert res.diagnostics.theta_mode_failed_evals == 1
    assert json.loads(res.to_json())["diagnostics"]["theta_mode_failed_evals"] == 1


def test_theta_mode_evals_equal_the_objective_calls_bfgs_makes(monkeypatch):
    spec, data = _pool_dataset(seed=0, index=0)
    calls = []

    def counted(fun, x0, **kwargs):
        def wrapped(th):
            calls.append(th.tobytes())
            return fun(th)

        return scipy.optimize.minimize(wrapped, x0, **kwargs)

    monkeypatch.setattr(laplace, "optimize", types.SimpleNamespace(minimize=counted))
    res = laplace.fit(spec, data, latents=[])
    assert len(calls) > 1
    assert res.diagnostics.theta_mode_evals == len(calls)


def test_theta_mode_search_fails_when_every_evaluation_fails(monkeypatch):
    spec, data = _pool_dataset(seed=0, index=0)

    def failing(ctx, theta, u0=None, bound=None):
        raise FitFailure("newton_nonconvergence", "forced")

    monkeypatch.setattr(laplace, "_newton", failing)
    with pytest.raises(FitFailure) as info:
        laplace.fit(spec, data, latents=[])
    assert info.value.cause == "theta_mode_search"


# ---------------------------------------------------------------------------
# Curvature from the design's blocks


def block_model(p, effects, n, seed=11):
    """A Poisson model of ``n`` lattice areas with ``p`` fixed effects (an
    intercept from two on, then covariates) and the random-effect blocks
    ``effects``."""
    g = np.random.default_rng(seed)
    data = mdl.Dataset(
        y=g.poisson(4.0, n),
        covariates={f"x{c}": g.normal(0.0, 1.0, n) for c in range(2)},
        offset=g.uniform(1.0, 3.0, n),
        graph=harness.default_lattice(n),
    )
    terms = {"iid": mdl.IidTerm(), "icar": mdl.IcarTerm()}
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        fixed_effects=tuple(f"x{c}" for c in range(p - (p >= 2))),
        offset="offset",
        include_intercept=p >= 2,
        random_effects=tuple(terms[e] for e in effects),
        priors=mdl.PriorSet(
            fixed_effect=mdl.NormalPrior(0.0, 10.0),
            log_precision_priors={e: mdl.LogGammaPrior(1.0, 5e-4) for e in effects},
        ),
        allow_improper=True,
    )
    return spec, data


def assert_same_curvature(got, ref):
    """Two ``_curvature`` results agree bit for bit."""
    (g1, hess, factor, clipped, failed), (ref_g1, ref_hess, ref_factor, ref_clipped, ref_failed) = got, ref
    assert g1.tobytes() == ref_g1.tobytes() and hess.tobytes() == ref_hess.tobytes()
    assert (clipped.tolist(), failed.tolist()) == (ref_clipped.tolist(), ref_failed.tolist())
    assert factor.lower.tobytes() == ref_factor.lower.tobytes()
    if hess.ndim == 3:
        assert factor.ok.tolist() == ref_factor.ok.tolist()


@pytest.mark.parametrize("n", [9, 64, 296])
@pytest.mark.parametrize("effects", [("iid",), ("icar",), ("iid", "icar")])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_block_curvature_is_bit_identical_to_the_dense_product(monkeypatch, p, effects, n):
    spec, data = block_model(p, effects, n)
    ctx = laplace._Context(spec, data)
    assert ctx.blocks is not None
    g = np.random.default_rng(100 * n + p)
    d = ctx.dim_u
    # Free sets that each drop one coordinate: the last fixed effect
    # (or, without one, the last latent), and an iid and an icar one.
    sl = mdl.latent_slices(spec, n)
    drops = [p - 1 if p else d - 1] + [sl[e].start + n // 2 for e in effects]
    k = len(drops)
    thetas = g.uniform(-1.0, 2.0, (k, mdl.hyper_dim(spec)))
    eta = ctx.log_off + g.normal(0.0, 1.0, (k, n))
    p_mats = np.array([ctx.prior_precision_u(th) for th in thetas])
    free = np.array([[c for c in range(d) if c != i] for i in drops])
    at = laplace._at(free)
    # Each free set as the engine forms it: rows of J' and of P.
    problems = [
        (thetas[0], eta[0], ctx.j.T, p_mats[0], ctx.blocks),
        (thetas, eta, ctx.j.T, p_mats, ctx.blocks.restrict(np.broadcast_to(np.arange(d), (k, d)))),
        (thetas[0], eta[0], ctx.j.T[free[0]], p_mats[0][free[0]][:, free[0]], ctx.blocks.restrict(free[0])),
        (
            thetas,
            eta,
            ctx.j.T[free],
            np.ascontiguousarray(p_mats[at].swapaxes(-1, -2)[at].swapaxes(-1, -2)),
            ctx.blocks.restrict(free),
        ),
    ]
    for th, et, jt, pf, blocks in problems:
        got = laplace._curvature(ctx, th, et, jt, pf.copy(), blocks)
        assert_same_curvature(got, oracle_laplace._dense_curvature(ctx, th, et, jt, pf.copy()))
        assert not got[3].size

    # Negative weights at a third of the sites of the first member make
    # its curvature indefinite, so it is rebuilt from clipped weights.
    eta_derivatives = mdl.eta_derivatives

    def negative_first_member(spec, eta, hyper, data):
        g1, w = eta_derivatives(spec, eta, hyper, data)
        w = w.copy()
        w[..., : n // 3] *= np.where(np.arange(w.size // n) == 0, -1e3, 1.0).reshape(w.shape[:-1] + (1,))
        return g1, w

    monkeypatch.setattr(mdl, "eta_derivatives", negative_first_member)
    for th, et, jt, pf, blocks in problems:
        got = laplace._curvature(ctx, th, et, jt, pf.copy(), blocks)
        assert_same_curvature(got, oracle_laplace._dense_curvature(ctx, th, et, jt, pf.copy()))
        assert got[3].tolist() == [0]


def test_a_constrained_or_fixed_effect_only_design_takes_the_dense_product(monkeypatch):
    # Under a sum-to-zero constraint J = J_full B is one dense block, and
    # without random effects J is X alone: neither has blocks to build
    # from.  An unconstrained spatial fit builds every curvature from them.
    calls = []
    plus = laplace._Blocks.plus

    def counted(self, w, p_free):
        calls.append(w.shape)
        return plus(self, w, p_free)

    monkeypatch.setattr(laplace._Blocks, "plus", counted)
    for spec, data in (small_spatial_dataset(constraint=Constraint.SUM_TO_ZERO_KRIGING), small_zinb_model()):
        assert laplace._Context(spec, data).blocks is None
        laplace.fit(spec, data, strategy=Strategy.SIMPLIFIED_LAPLACE)
    assert calls == []
    spec, data = small_spatial_dataset()
    assert laplace._Context(spec, data).blocks is not None
    laplace.fit(spec, data, strategy=Strategy.FULL_LAPLACE, latents=["beta_x"])
    assert {len(shape) for shape in calls} == {1, 2}
