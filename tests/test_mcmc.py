"""Adaptive Metropolis-within-Gibbs sampler and its diagnostics.

Oracles: closed-form conjugate posteriors (Normal-Normal and the
Gamma posterior of a Poisson rate under a flat log-rate prior), a
dense joint-Gaussian solve, AR(1) effective-sample-size theory, and
direct recomputation of recorded quantities.  Every chain is seeded,
so each assertion is deterministic once it has been observed to hold.
"""
from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
import scipy.special

from lgmbench import mcmc
from lgmbench import models as mdl
from lgmbench import streams
from lgmbench.gmrf import AdjacencyGraph, Constraint, component_labels, lattice_graph
from lgmbench.mcmc import ChainAbort, ChainConfig, ChainOutput


# ---------------------------------------------------------------------------
# Model builders


def normal_normal_model(n=40, seed=11, kappa=2.0, prior_sd=1.5):
    """Known-precision Gaussian observations with one Gaussian mean."""
    g = np.random.default_rng(seed)
    y = g.normal(1.0, 0.7, n)
    spec = mdl.ModelSpec(
        family=mdl.Family.GAUSSIAN,
        include_intercept=True,
        priors=mdl.PriorSet(fixed_effect=mdl.NormalPrior(0.0, prior_sd)),
        gaussian_obs_precision=kappa,
    )
    return spec, mdl.Dataset(y=y, covariates={})


def normal_normal_oracle(spec, data):
    kappa = spec.gaussian_obs_precision
    prec = data.n * kappa + spec.priors.fixed_effect.sd ** -2
    mean = kappa * data.y.sum() / prec
    return mean, math.sqrt(1.0 / prec)


def gamma_poisson_model(n=25, seed=13, rate=3.0):
    """Poisson counts with exposures and a flat prior on the log rate.

    A flat prior on the log rate makes the exposure-weighted rate
    posterior an exact Gamma(sum y, sum E) distribution.
    """
    g = np.random.default_rng(seed)
    exposure = g.uniform(0.5, 2.0, n)
    y = g.poisson(rate * exposure)
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        include_intercept=True,
        offset="total",
        priors=mdl.PriorSet(fixed_effect=mdl.FlatPrior()),
    )
    data = mdl.Dataset(y=y, covariates={}, offset=exposure)
    assert y.sum() > 0
    return spec, data


def conjugate_field_model(n=20, seed=42, kappa=2.0, prec_eps=4.0, prior_sd=10.0):
    """Intercept + iid field, Gaussian likelihood, all precisions fixed."""
    g = np.random.default_rng(seed)
    y = g.normal(1.0, 1.0, n)
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
    return spec, mdl.Dataset(y=y, covariates={})


def conjugate_field_oracle(spec, data):
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


def spatial_model(seed=3):
    """Small spatial count model with both iid and intrinsic blocks."""
    g = np.random.default_rng(seed)
    graph = lattice_graph(3, 3)
    eta = g.normal(0.0, 0.5, 9)
    data = mdl.Dataset(
        y=g.poisson(np.exp(1.0 + eta)),
        covariates={"x": g.uniform(0, 1, 9)},
        offset=np.full(9, 3.0),
        graph=graph,
    )
    return mdl.bym_spec(), data


def improper_level_model(seed=5):
    """Flat intercept prior + unconstrained intrinsic field.

    Raising the intercept by c and lowering the whole field by c leaves
    both the likelihood and every prior term unchanged, so the chain
    random-walks along an exactly flat posterior direction.
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


def mcse_of(x):
    return np.std(x, ddof=1) / math.sqrt(mcmc.ess_ips(x))


# ---------------------------------------------------------------------------
# Conjugate correctness


def test_normal_normal_recovers_analytic_posterior():
    spec, data = normal_normal_model()
    mean_exact, sd_exact = normal_normal_oracle(spec, data)
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=20_000, burn_in=2_000, thin=1, seed=101))
    x = out.column("intercept")
    assert abs(x.mean() - mean_exact) < 3.0 * mcse_of(x)
    assert abs(np.std(x, ddof=1) - sd_exact) / sd_exact < 0.05


def test_gamma_poisson_recovers_analytic_posterior():
    spec, data = gamma_poisson_model()
    a = float(data.y.sum())
    b = float(data.offset.sum())
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=20_000, burn_in=2_000, thin=1, seed=103))
    log_rate = out.column("intercept")
    rate = np.exp(log_rate)
    # Rate posterior is Gamma(a, b); log-rate mean is digamma(a) - log(b).
    assert abs(rate.mean() - a / b) < 3.0 * mcse_of(rate)
    assert abs(log_rate.mean() - (scipy.special.digamma(a) - math.log(b))) < 3.0 * mcse_of(log_rate)
    assert abs(np.std(rate, ddof=1) - math.sqrt(a) / b) / (math.sqrt(a) / b) < 0.1


def test_conjugate_field_matches_dense_oracle():
    spec, data = conjugate_field_model()
    mean_exact, sd_exact = conjugate_field_oracle(spec, data)
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=30_000, burn_in=3_000, thin=1, seed=107))
    names = mdl.latent_names(spec, data.n)
    for j, name in enumerate(names):
        x = out.column(name)
        assert abs(x.mean() - mean_exact[j]) < 4.0 * mcse_of(x), name
        assert abs(np.std(x, ddof=1) - sd_exact[j]) / sd_exact[j] < 0.1, name


def test_pointwise_loglik_matches_recomputation():
    spec, data = spatial_model()
    cfg = ChainConfig(iterations=3_000, burn_in=500, thin=5, seed=109)
    out = mcmc.run_chain(spec, data, cfg)
    assert out.pointwise_loglik.shape == (cfg.n_kept, data.n)
    slices = mdl.latent_slices(spec, data.n)
    dim_x = mdl.latent_dim(spec, data.n)
    design = mdl.design_matrix(spec, data)
    for k in (0, out.n_kept // 2, out.n_kept - 1):
        row = out.draws[k]
        eta = (
            design @ row[slices["beta"]]
            + np.log(data.offset)
            + row[slices["iid"]]
            + row[slices["icar"]]
        )
        ll = mdl.pointwise_loglik_from_eta(spec, eta, row[dim_x:], data)
        np.testing.assert_allclose(out.pointwise_loglik[k], ll, rtol=1e-9, atol=1e-8)


def test_record_pointwise_can_be_disabled():
    spec, data = normal_normal_model(n=10)
    out = mcmc.run_chain(
        spec, data, ChainConfig(iterations=500, burn_in=100, thin=1, seed=1, record_pointwise=False)
    )
    assert out.pointwise_loglik is None


# ---------------------------------------------------------------------------
# Effective sample size


def test_ess_white_noise_near_series_length():
    g = np.random.default_rng(0)
    x = g.standard_normal(20_000)
    ess = mcmc.ess_ips(x)
    assert 0.6 * x.size <= ess <= x.size


def test_ess_ar1_matches_theory():
    rho = 0.8
    n = 100_000
    g = np.random.default_rng(1)
    innov = g.standard_normal(n) * math.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = g.standard_normal()
    for i in range(1, n):
        x[i] = rho * x[i - 1] + innov[i]
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert abs(mcmc.ess_ips(x) - expected) / expected < 0.25


def test_ess_orders_by_autocorrelation():
    g = np.random.default_rng(2)
    white = g.standard_normal(20_000)
    slow = np.cumsum(g.standard_normal(20_000)) * 0.01 + white * 0.1
    assert mcmc.ess_ips(slow) < 0.5 * mcmc.ess_ips(white)


def test_ess_degenerate_inputs():
    assert mcmc.ess_ips(np.array([1.0, 2.0])) == 2.0
    assert mcmc.ess_ips(np.full(50, 2.0)) == 50.0


# ---------------------------------------------------------------------------
# Stationarity screens


def test_geweke_z_on_stationary_and_drifting_series():
    g = np.random.default_rng(3)
    assert abs(mcmc.geweke_z(g.standard_normal(5_000))) < 3.0
    drift = np.linspace(0.0, 3.0, 5_000) + g.standard_normal(5_000)
    assert abs(mcmc.geweke_z(drift)) > 4.0


def test_split_rhat_on_stationary_and_shifted_series():
    g = np.random.default_rng(4)
    assert mcmc.split_rhat(g.standard_normal(2_000)) < 1.02
    shifted = np.concatenate([g.standard_normal(1_000), g.standard_normal(1_000) + 3.0])
    assert mcmc.split_rhat(shifted) > 1.1


def test_trace_slope_z_on_stationary_and_drifting_series():
    g = np.random.default_rng(5)
    assert abs(mcmc.trace_slope_z(g.standard_normal(5_000))) < 4.0
    # The effective-size adjustment forgives trends that look like slow
    # mixing, so only a trend that dominates the noise must be flagged.
    drift = np.linspace(0.0, 3.0, 5_000) + 0.1 * g.standard_normal(5_000)
    assert abs(mcmc.trace_slope_z(drift)) > 4.0


def _fake_output(columns, draws):
    return ChainOutput(
        columns=columns,
        draws=np.column_stack(draws),
        pointwise_loglik=None,
        acceptance={},
        final_scales={},
        config=ChainConfig(iterations=2, burn_in=1, thin=1),
        runtime_s=0.0,
    )


def test_diagnose_passes_stationary_chain():
    g = np.random.default_rng(6)
    out = _fake_output(["a", "b"], [g.standard_normal(4_000), g.standard_normal(4_000)])
    diag = mcmc.diagnose(out)
    assert diag.verdict == "Pass"
    assert diag.reasons == []
    assert set(diag.per_column) == {"a", "b"}
    assert diag.per_column["a"]["ess"] > 1_000


def test_diagnose_warns_on_degenerate_column():
    g = np.random.default_rng(7)
    # 3.14 has a non-exact sample mean, so this also pins down that
    # stuck-column detection does not depend on summation roundoff.
    out = _fake_output(["a", "c"], [g.standard_normal(4_000), np.full(4_000, 3.14)])
    diag = mcmc.diagnose(out)
    assert diag.verdict == "Warn"
    assert any("zero variance" in r for r in diag.reasons)
    assert diag.per_column["c"]["degenerate"]


def test_diagnose_fails_on_drifting_column():
    g = np.random.default_rng(8)
    drift = np.linspace(0.0, 5.0, 4_000) + g.standard_normal(4_000)
    out = _fake_output(["a", "d"], [g.standard_normal(4_000), drift])
    diag = mcmc.diagnose(out)
    assert diag.verdict == "Fail"
    assert any(r.startswith("d:") for r in diag.reasons)


def test_diagnose_warns_on_short_chain():
    g = np.random.default_rng(9)
    diag = mcmc.diagnose(_fake_output(["a"], [g.standard_normal(500)]))
    assert diag.verdict == "Warn"
    assert any("low-powered" in r for r in diag.reasons)


def test_diagnose_round_trips_to_dict():
    g = np.random.default_rng(10)
    diag = mcmc.diagnose(_fake_output(["a"], [g.standard_normal(2_000)]))
    d = diag.to_dict()
    assert d["verdict"] == diag.verdict
    assert json.loads(json.dumps(d)) == d


def _float_bits(per_column: dict) -> dict:
    """``per_column`` with every float as its exact hex form (NaN included)."""
    return {name: {k: v.hex() if isinstance(v, float) else v for k, v in entry.items()} for name, entry in per_column.items()}


def _assert_diagnose_matches_the_column_loop(out):
    # The column loop warns on series too short for a statistic (split
    # R-hat below four draws); the diagnostics under test must not warn.
    import oracle_mcmc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = oracle_mcmc.diagnose(out)
        ref = {}
        for j, name in enumerate(out.columns):
            x = out.draws[:, j]
            ref[name] = (oracle_mcmc.ess_ips(x), oracle_mcmc.geweke_z(x), oracle_mcmc.split_rhat(x), oracle_mcmc.trace_slope_z(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mcmc.diagnose(out)
        assert _float_bits(got.per_column) == _float_bits(want.per_column)
        assert (got.verdict, got.reasons) == (want.verdict, want.reasons)
        # The one-series functions are the same code, as a stack of one, on
        # a column of the draws as it is (strided) or copied.
        for j, name in enumerate(out.columns):
            if want.per_column[name]["degenerate"]:
                continue
            for x in (out.draws[:, j], out.draws[:, j].copy()):
                mine = (mcmc.ess_ips(x), mcmc.geweke_z(x), mcmc.split_rhat(x), mcmc.trace_slope_z(x))
                assert [a.hex() for a in mine] == [b.hex() for b in ref[name]]


@pytest.mark.parametrize("n", [3, 4, 5, 200, 1001, 9000])
def test_diagnose_per_column_is_bit_identical_to_the_column_loop(n, monkeypatch):
    g = np.random.default_rng(n)
    slow = np.empty(n)
    slow[0] = 0.0
    for i in range(1, n):
        slow[i] = 0.995 * slow[i - 1] + g.standard_normal()
    columns = {
        "white": g.standard_normal(n),
        "stuck": np.full(n, 3.14),
        "slow": slow,
        "drift": np.linspace(0.0, 5.0, n) + g.standard_normal(n),
        "step": np.where(np.arange(n) < n // 2, 0.0, 1.0),
        "wide": 1e6 + g.standard_normal(n) * 1e-3,
    }
    # Enough columns that a chunk's vectorised passes cross rows.
    for c in range(40):
        columns[f"walk{c}"] = np.cumsum(g.standard_normal(n)) * 0.01 + g.standard_normal(n)
    out = _fake_output(list(columns), list(columns.values()))
    _assert_diagnose_matches_the_column_loop(out)
    # One column per chunk, as on a long chain.
    monkeypatch.setattr(mcmc, "DIAGNOSE_CHUNK_BYTES", 1)
    _assert_diagnose_matches_the_column_loop(out)


def test_diagnose_of_a_chain_is_bit_identical_to_the_column_loop():
    # The second chain keeps three draws: too few for split R-hat, NaN.
    spec, data = _two_component_bym(81)
    for iterations, burn_in, thin in ((1_100, 400, 3), (130, 100, 10)):
        out = mcmc.run_chain(spec, data, ChainConfig(iterations=iterations, burn_in=burn_in, thin=thin, seed=97))
        assert out.draws.shape[1] > 20
        _assert_diagnose_matches_the_column_loop(out)
    assert out.n_kept == 3
    assert all(math.isnan(c["split_rhat"]) for c in mcmc.diagnose(out).per_column.values() if not c["degenerate"])


# ---------------------------------------------------------------------------
# An improper posterior is flagged, not silently summarized


def test_improper_level_model_is_flagged_fail():
    spec, data = improper_level_model()
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=20_000, burn_in=2_000, thin=2, seed=111))
    diag = mcmc.diagnose(out)
    assert diag.verdict == "Fail"
    flagged = {r.split(":")[0] for r in diag.reasons if ":" in r}
    assert flagged & ({"intercept"} | {f"icar_{i}" for i in range(6)})


# ---------------------------------------------------------------------------
# Configuration and bookkeeping


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        ChainConfig(iterations=100, burn_in=10, thin=0)
    # A window of 0 raised ZeroDivisionError in the first burn-in sweep;
    # a negative window or burn-in ran.
    for window in (0, -1):
        with pytest.raises(ValueError, match="adaptation_window"):
            ChainConfig(iterations=100, burn_in=10, adaptation_window=window)
    with pytest.raises(ValueError, match="burn_in"):
        ChainConfig(iterations=100, burn_in=-5)
    assert ChainConfig(iterations=1_000, burn_in=100, thin=9).n_kept == 100
    assert ChainConfig(iterations=100, burn_in=0, adaptation_window=1).n_kept == 10


@pytest.mark.parametrize("model", [spatial_model, gamma_poisson_model])
def test_a_chain_without_burn_in_keeps_its_starting_scales(model):
    # Adaptation used to freeze at the end of sweep burn_in, which a
    # chain without burn-in never reaches, so its kept draws came from
    # kernels that went on adapting.
    spec, data = model()
    start = mcmc.run_chain(spec, data, ChainConfig(iterations=2, burn_in=0, thin=1, seed=3))
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=300, burn_in=0, thin=1, seed=3, adaptation_window=10))
    assert out.final_scales == start.final_scales
    adapted = mcmc.run_chain(spec, data, ChainConfig(iterations=300, burn_in=100, thin=1, seed=3, adaptation_window=10))
    assert adapted.final_scales != start.final_scales


def test_nonzero_mean_fixed_effect_prior_is_refused():
    # Neither engine reads a prior mean, so the spec refuses one.
    with pytest.raises(ValueError, match="zero-mean"):
        mdl.ModelSpec(
            family=mdl.Family.GAUSSIAN,
            include_intercept=True,
            priors=mdl.PriorSet(fixed_effect=mdl.NormalPrior(0.5, 1.0)),
            gaussian_obs_precision=2.0,
        )


def test_greedy_coloring_is_proper(lattice_5x4, two_component_graph):
    for graph, expect_max in ((lattice_5x4, 2), (two_component_graph, 3)):
        classes = mcmc.greedy_coloring(graph)
        nodes = np.sort(np.concatenate(classes))
        np.testing.assert_array_equal(nodes, np.arange(graph.n_nodes))
        color = np.empty(graph.n_nodes, dtype=int)
        for c, cls in enumerate(classes):
            color[cls] = c
        ia, ib = graph.edge_arrays()
        assert np.all(color[ia] != color[ib])
        assert len(classes) <= expect_max


def test_chain_is_deterministic_in_seed():
    spec, data = spatial_model()
    cfg = ChainConfig(iterations=2_000, burn_in=500, thin=1, seed=5)
    out1 = mcmc.run_chain(spec, data, cfg)
    out2 = mcmc.run_chain(spec, data, cfg)
    assert np.array_equal(out1.draws, out2.draws)
    assert out1.acceptance == out2.acceptance
    out3 = mcmc.run_chain(spec, data, ChainConfig(iterations=2_000, burn_in=500, thin=1, seed=6))
    assert not np.array_equal(out1.draws, out3.draws)


def test_chain_output_csv_round_trip(tmp_path):
    spec, data = normal_normal_model(n=8)
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=600, burn_in=100, thin=5, seed=2))
    path = tmp_path / "draws.csv"
    out.to_csv(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == out.columns
    back = np.loadtxt(path, delimiter=",", skiprows=1).reshape(out.draws.shape)
    assert np.array_equal(back, out.draws)


def test_chain_abort_on_overflowing_state():
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        include_intercept=True,
        offset="total",
        priors=mdl.PriorSet(fixed_effect=mdl.NormalPrior(0.0, 10.0)),
    )
    data = mdl.Dataset(y=np.array([1, 2, 3]), covariates={}, offset=np.full(3, np.exp(709.0)))
    with pytest.raises(ChainAbort) as err:
        mcmc.run_chain(spec, data, ChainConfig(iterations=100, burn_in=10, thin=1))
    assert err.value.iteration == 0


def test_acceptance_rates_near_adaptation_targets():
    spec, data = conjugate_field_model()
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=10_000, burn_in=2_000, thin=1, seed=17))
    assert set(out.acceptance) == set(out.final_scales) == {"beta", "shift", "iid"}
    for name, rate in out.acceptance.items():
        assert 0.2 < rate < 0.7, (name, rate)


def test_adaptation_keeps_its_scales_equal_to_the_exp_of_the_log_scales():
    # The samplers read the stored scales; each window update must
    # refresh them, and a bool accept vector counts like 0.0 / 1.0.
    g = np.random.default_rng(5)
    scalar = mcmc._Adapt(0.5, 0.44, 3)
    vector, floats = (mcmc._VectorAdapt(np.full(4, 2.4), 0.44, 3) for _ in range(2))
    for _ in range(10):
        scalar.record(float(g.random() < 0.3))
        accept = g.random(4) < 0.6
        vector.record(accept)
        floats.record(accept.astype(float))
        assert scalar.scale == math.exp(scalar.log_scale)
        assert vector.scales.tobytes() == np.exp(vector.log_scales).tobytes()
        assert vector.scales.tobytes() == floats.scales.tobytes()
    assert scalar.window_index == vector.window_index == 3
    assert vector.rate() == floats.rate()


# ---------------------------------------------------------------------------
# Constraint handling on the intrinsic block


def test_a_constrained_spec_constrains_the_chain_without_any_chain_setting():
    # The spec is the one place the constraint is set: a default
    # ChainConfig must not let the constrained field's level drift.
    spec, data = _two_component_bym(83, True, Constraint.SUM_TO_ZERO_KRIGING)
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=1_100, burn_in=400, thin=3, seed=97))
    labels = component_labels(data.graph)
    icar = out.draws[:, mdl.latent_slices(spec, data.n)["icar"]]
    for c in range(int(labels.max()) + 1):
        assert np.max(np.abs(icar[:, labels == c].sum(axis=1))) <= 1e-9
    assert "swap" not in out.acceptance


def test_unconstrained_mode_lets_the_level_float():
    spec, data = spatial_model()
    cfg = ChainConfig(iterations=4_000, burn_in=1_000, thin=1, seed=23)
    out = mcmc.run_chain(spec, data, cfg)
    sums = sum(out.column(f"icar_{i}") for i in range(9))
    assert np.std(sums) > 0.01


# ---------------------------------------------------------------------------
# Posterior summaries


def test_posterior_summary_structure_and_natural_scales():
    spec, data = spatial_model()
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=4_000, burn_in=1_000, thin=1, seed=29))
    summary = mcmc.posterior_summary(out)
    expected_keys = {"mean", "sd", "q025", "median", "q975", "ess", "mcse"}
    for name in ("beta_x", "log_precision_iid", "precision_iid", "sd_iid", "precision_icar"):
        assert set(summary[name]) == expected_keys, name
    draws = out.column("log_precision_iid")
    assert summary["precision_iid"]["mean"] == pytest.approx(np.exp(draws).mean(), rel=1e-12)
    assert summary["sd_iid"]["mean"] == pytest.approx(np.exp(-0.5 * draws).mean(), rel=1e-12)
    s = summary["beta_x"]
    assert s["mcse"] == pytest.approx(s["sd"] / math.sqrt(s["ess"]), rel=1e-12)
    assert s["q025"] <= s["median"] <= s["q975"]


def test_output_to_dict_is_json_ready():
    spec, data = normal_normal_model(n=10)
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=1_500, burn_in=300, thin=1, seed=37))
    d = out.to_dict()
    assert d["engine"] == "mcmc"
    assert d["columns"] == ["intercept"]
    assert d["n_kept"] == out.n_kept
    json.dumps(d)


# ---------------------------------------------------------------------------
# Bit-identity against the reference sampler kept in tests/oracle_mcmc.py


def _two_component_bym(seed, include_intercept=False, constraint=None, half_exponent=False):
    """BYM data on a 3x3 lattice plus a separate 3-path (two components)."""
    g = np.random.default_rng(seed)
    edges = list(lattice_graph(3, 3).edges) + [(9, 10), (10, 11)]
    graph = AdjacencyGraph(12, edges)
    data = mdl.Dataset(
        y=g.poisson(np.exp(1.5 + g.normal(0.0, 0.5, 12))),
        covariates={"x": g.uniform(0, 1, 12)},
        offset=np.full(12, 2.0),
        graph=graph,
    )
    kwargs = {"include_intercept": include_intercept, "half_exponent": half_exponent}
    if constraint is not None:
        kwargs["constraint"] = constraint
    return mdl.bym_spec(**kwargs), data


def _oracle_poisson():
    g = np.random.default_rng(71)
    data = mdl.Dataset(
        y=g.poisson(20.0, 15),
        covariates={"x": g.uniform(-1, 1, 15)},
        offset=g.uniform(0.5, 2.0, 15),
    )
    return mdl.poisson_spec(), data


def _oracle_poisson_fixed_iid():
    spec, data = _oracle_poisson()
    return mdl.poisson_spec(iid_prior=mdl.FixedPrior(math.log(3.0))), data


def _oracle_zinb():
    g = np.random.default_rng(73)
    y = g.poisson(4.0, 20)
    y[g.uniform(size=20) < 0.3] = 0
    data = mdl.Dataset(
        y=y,
        covariates={"x": g.uniform(-1, 1, 20), "z": g.normal(0, 1, 20)},
        offset=g.uniform(50, 150, 20),
    )
    return mdl.zinb_spec(covariates=("x", "z")), data


def _oracle_zinb_no_zeros():
    spec, data = _oracle_zinb()
    return spec, mdl.Dataset(y=data.y + 1, covariates=data.covariates, offset=data.offset)


ORACLE_CASES = {
    # case: (build, record_pointwise); the spec carries the constraint.
    "poisson": (_oracle_poisson, True),
    "poisson-fixed-iid": (_oracle_poisson_fixed_iid, True),
    "poisson-no-pointwise": (_oracle_poisson, False),
    "bym-none": (lambda: _two_component_bym(81), True),
    "bym-kriging": (lambda: _two_component_bym(83, True, Constraint.SUM_TO_ZERO_KRIGING), True),
    # R-INLA's (n - k) / 2 coefficient of log tau in the icar hyper move.
    "bym-half": (lambda: _two_component_bym(85, True, Constraint.SUM_TO_ZERO_KRIGING, half_exponent=True), True),
    "bym-no-pointwise": (lambda: _two_component_bym(84), False),
    "zinb": (_oracle_zinb, True),
    "zinb-no-zeros": (_oracle_zinb_no_zeros, True),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_run_chain_bit_identical_to_oracle(case, monkeypatch):
    # 1,100 sweeps cross adaptation windows, the end of burn-in and the
    # icar quadratic-form refresh at sweep 1,000.  The oracle builds a
    # generator per (block, sweep): one-sweep chunks.
    from oracle_mcmc import run_chain as oracle_run_chain

    monkeypatch.setattr(mcmc, "RNG_CHUNK", 1)
    build, record = ORACLE_CASES[case]
    spec, data = build()
    cfg = ChainConfig(iterations=1_100, burn_in=400, thin=3, seed=97, record_pointwise=record)
    new = mcmc.run_chain(spec, data, cfg)
    ref = oracle_run_chain(spec, data, cfg)
    assert new.columns == ref.columns
    assert new.draws.tobytes() == ref.draws.tobytes()
    if record:
        assert new.pointwise_loglik.tobytes() == ref.pointwise_loglik.tobytes()
    else:
        assert new.pointwise_loglik is None and ref.pointwise_loglik is None
    assert new.acceptance == ref.acceptance
    assert new.final_scales == ref.final_scales


def _chunk_addressed_stream(k):
    """A stand-in for the oracle's ``CounterStream`` whose ``at(s)`` hands
    out row ``(s - 1) mod k`` of a chunk of k sweeps: the normals, then the
    uniforms, of a freshly built Philox at the chunk's first sweep."""

    class Stream:
        def __init__(self, seed, *path):
            self.key = streams.derive_key(seed, *path)
            self.start = None

        def at(self, sweep):
            self.row = (sweep - 1) % k
            if sweep - self.row != self.start:
                self.start = sweep - self.row
                self.g = np.random.Generator(np.random.Philox(counter=[0, 0, 0, self.start], key=self.key))
                self.normals = self.uniforms = None
            return self

        def standard_normal(self, m):
            if self.normals is None:
                self.normals = self.g.standard_normal((k, m))
            return self.normals[self.row]

        def random(self, m=None):
            if self.uniforms is None:
                self.uniforms = self.g.random((k, 1 if m is None else m))
            row = self.uniforms[self.row]
            return float(row[0]) if m is None else row

    return Stream


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_chunked_run_chain_is_the_oracle_on_chunk_addressed_draws(case, monkeypatch):
    # 1,100 sweeps end part-way into a chunk of 64, and burn-in ends
    # part-way into another.
    import oracle_mcmc

    chunk = 64
    monkeypatch.setattr(mcmc, "RNG_CHUNK", chunk)
    build, record = ORACLE_CASES[case]
    spec, data = build()
    cfg = ChainConfig(iterations=1_100, burn_in=400, thin=3, seed=97, record_pointwise=record)
    new = mcmc.run_chain(spec, data, cfg)
    monkeypatch.setattr(oracle_mcmc, "CounterStream", _chunk_addressed_stream(chunk))
    ref = oracle_mcmc.run_chain(spec, data, cfg)
    assert new.draws.tobytes() == ref.draws.tobytes()
    if record:
        assert new.pointwise_loglik.tobytes() == ref.pointwise_loglik.tobytes()
    assert new.acceptance == ref.acceptance
    assert new.final_scales == ref.final_scales
    # Another layout is another chain.
    monkeypatch.setattr(mcmc, "RNG_CHUNK", 1)
    assert new.draws.tobytes() != mcmc.run_chain(spec, data, cfg).draws.tobytes()


def test_a_chunked_chain_is_a_prefix_of_a_longer_one(monkeypatch):
    # Adaptation freezes at burn-in and sweep s reads its draws from its
    # chunk's counter alone, so running on changes no earlier draw.
    monkeypatch.setattr(mcmc, "RNG_CHUNK", 64)
    spec, data = _two_component_bym(81)
    short, long = (
        mcmc.run_chain(spec, data, ChainConfig(iterations=sweeps, burn_in=400, thin=3, seed=97))
        for sweeps in (1_100, 1_500)
    )
    assert short.n_kept < long.n_kept
    assert short.draws.tobytes() == long.draws[: short.n_kept].tobytes()
    assert short.pointwise_loglik.tobytes() == long.pointwise_loglik[: short.n_kept].tobytes()


def test_a_zinb_chain_builds_the_dispersion_constants_once_per_size_proposal(dispersion_builds):
    # The sampler holds the binding of its current state: one build at
    # the start, then one per log-dispersion proposal, which is made
    # every sweep; a logit p_zero proposal takes the current dispersion
    # part, and no other block binds anything.
    spec, data = _oracle_zinb()
    built = dispersion_builds
    sweeps = 150
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=sweeps, burn_in=50, thin=1, seed=5))
    assert len(built) == 1 + sweeps and built[0] == 1.0
    # Every kept draw's dispersion was built when it was proposed.
    assert set(np.exp(out.column("log_dispersion")).tolist()) <= set(built)


def test_a_zinb_chain_with_a_site_block_is_the_oracle(monkeypatch):
    # The iid block moves eta at the sites, so the chain drops the exp(eta)
    # and NB term it holds and the hyper block rebuilds them: the draws
    # keep the bits of the oracle, which evaluates every kernel whole.
    from oracle_mcmc import run_chain as oracle_run_chain

    monkeypatch.setattr(mcmc, "RNG_CHUNK", 1)
    _, data = _oracle_zinb()
    spec = mdl.ModelSpec(
        family=mdl.Family.ZERO_INFLATED_NEG_BINOMIAL,
        fixed_effects=("x",),
        offset="population",
        random_effects=(mdl.IidTerm(),),
        priors=mdl.PriorSet(log_precision_priors={"iid": mdl.LogGammaPrior(1.0, 5e-4)}),
    )
    cfg = ChainConfig(iterations=600, burn_in=200, thin=3, seed=97)
    new, ref = mcmc.run_chain(spec, data, cfg), oracle_run_chain(spec, data, cfg)
    assert new.draws.tobytes() == ref.draws.tobytes()
    assert new.pointwise_loglik.tobytes() == ref.pointwise_loglik.tobytes()
    assert new.acceptance == ref.acceptance


# Per-sweep work: the counts a benchmark reads as draws per sweep and
# likelihood calls per sweep.  Each block draws once per chunk of
# sweeps, so the draws per sweep are those of one-sweep chunks.  Blocks:
# beta (fixed effects), shift (with an iid block), iid, icar (one likelihood call for every colour class,
# with or without a constraint), swap (with both site blocks) and hyper
# (one likelihood call per hyperparameter that is not a log precision).
# A recentring's own call is made only when the field moved, so it
# depends on the draws and is not counted here.  A ZINB chain calls the two halves of its kernel, the
# NB term and the zero-inflation mixture, in place of the whole: each
# sweep's calls are listed in order, "nb" building exp(eta) and
# "nb(mu)" reusing the one it holds.
ZINB_SWEEP = ("nb", "mixture", "mixture", "nb(mu)", "mixture")  # beta; logit_p_zero; log_dispersion
CALL_CASES = {
    # case: (build, streams drawn per chunk, likelihood calls per sweep)
    "poisson": (_oracle_poisson, 4, 2),  # beta shift iid hyper; beta iid
    "poisson-fixed-iid": (_oracle_poisson_fixed_iid, 3, 2),  # no hyper block
    "bym": (lambda: _two_component_bym(81), 6, 3),  # beta shift iid icar swap hyper; beta iid icar
    # beta shift iid icar hyper (no swap); beta iid icar
    "bym-kriging": (lambda: _two_component_bym(83, True, Constraint.SUM_TO_ZERO_KRIGING), 5, 3),
    "zinb": (_oracle_zinb, 2, ZINB_SWEEP),  # beta hyper
}


@pytest.mark.parametrize("case", sorted(CALL_CASES))
def test_each_block_draws_once_and_calls_the_likelihood_as_its_structure_says(case, monkeypatch):
    build, draws_per_sweep, calls_per_sweep = CALL_CASES[case]
    spec, data = build()
    counts = {"at": 0, "loglik": 0}
    calls = []
    at, loglik = streams.CounterStream.at, mdl.pointwise_loglik_from_eta
    nb_term, mixture = mdl.zinb_nb_term, mdl.zinb_mixture

    def counted_at(self, counter):
        counts["at"] += 1
        return at(self, counter)

    def counted_loglik(*args):
        counts["loglik"] += 1
        return loglik(*args)

    def logged_nb_term(spec, eta, hyper, data, mu=None):
        calls.append("nb" if mu is None else "nb(mu)")
        return nb_term(spec, eta, hyper, data, mu)

    def logged_mixture(*args):
        calls.append("mixture")
        return mixture(*args)

    recentre = mcmc._recentre

    def uncounted_recentre(*args):
        before = counts["loglik"]
        out = recentre(*args)
        counts["loglik"] = before
        return out

    monkeypatch.setattr(streams.CounterStream, "at", counted_at)
    monkeypatch.setattr(mdl, "pointwise_loglik_from_eta", counted_loglik)
    monkeypatch.setattr(mdl, "zinb_nb_term", logged_nb_term)
    monkeypatch.setattr(mdl, "zinb_mixture", logged_mixture)
    monkeypatch.setattr(mcmc, "_recentre", uncounted_recentre)
    sweeps = 60
    # 60 sweeps are 9 chunks of 7, the last drawn whole and read in part.
    for chunk, chunks in ((1, 60), (7, 9)):
        monkeypatch.setattr(mcmc, "RNG_CHUNK", chunk)
        counts.update(at=0, loglik=0)
        calls.clear()
        mcmc.run_chain(spec, data, ChainConfig(iterations=sweeps, burn_in=20, thin=2, seed=3))
        assert counts["at"] == draws_per_sweep * chunks
        # One more call (or pair of calls) builds the initial state.
        if isinstance(calls_per_sweep, tuple):
            assert counts["loglik"] == 0
            assert calls == ["nb", "mixture"] + list(calls_per_sweep) * sweeps
        else:
            assert calls == []
            assert counts["loglik"] == calls_per_sweep * sweeps + 1


def test_a_chain_of_a_bare_config_draws_in_chunks_of_64_sweeps(monkeypatch):
    # No config sets the chunk, so every chain draws as a study chain
    # does: 130 sweeps are three chunks of 64, the last read in part.
    spec, data = _oracle_poisson()
    counts = {"at": 0}
    at = streams.CounterStream.at

    def counted_at(self, counter):
        counts["at"] += 1
        return at(self, counter)

    monkeypatch.setattr(streams.CounterStream, "at", counted_at)
    mcmc.run_chain(spec, data, ChainConfig(iterations=130, burn_in=20, thin=2, seed=3))
    assert counts["at"] == CALL_CASES["poisson"][1] * 3
