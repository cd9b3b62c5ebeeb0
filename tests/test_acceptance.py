"""Acceptance gate: nine numbered end-to-end criteria.

Each criterion is one test, so a verbose run prints exactly one
pass/fail line per criterion.  Tolerances and runtime budgets are
asserted inside the tests; a printed summary line carries the measured
numbers.  Oracles are independent of the code under test: dense linear
algebra, closed-form conjugate posteriors, pure-Python formula loops,
and re-derivation from emitted CSV bytes.
"""
from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
import pytest
import scipy.special

from lgmbench import harness, laplace, mcmc, metrics
from lgmbench import models as mdl
from lgmbench.gmrf import lattice_graph, sample_icar_kriging
from lgmbench.laplace import FitFailure, Strategy
from lgmbench.mcmc import ChainConfig
from lgmbench.posterior import PosteriorMarginal


def _pass(num: int, label: str, detail: str) -> None:
    print(f"acceptance criterion {num} ({label}): PASS ({detail})")


# ---------------------------------------------------------------------------
# Shared model builders


def conjugate_gaussian_model(n=50, seed=42, kappa=2.0, prec_eps=4.0, prior_sd=10.0):
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
    n = data.n
    kappa = spec.gaussian_obs_precision
    j = np.hstack([np.ones((n, 1)), np.eye(n)])
    prec_eps = np.exp(spec.priors.log_precision_priors["iid"].log_value)
    p = np.diag([spec.priors.fixed_effect.sd ** -2] + [prec_eps] * n)
    h = j.T @ (kappa * j) + p
    mean = np.linalg.solve(h, j.T @ (kappa * data.y))
    sd = np.sqrt(np.diag(np.linalg.inv(h)))
    return mean, sd


def improper_level_model(seed=5):
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


# ---------------------------------------------------------------------------
# 1. Every deterministic strategy is exact on a conjugate Gaussian model


def test_criterion_1_conjugate_gaussian_exactness():
    spec, data = conjugate_gaussian_model(n=50)
    mean_exact, sd_exact = conjugate_posterior_oracle(spec, data)
    t0 = time.perf_counter()
    worst = 0.0
    for strategy in Strategy:
        res = laplace.fit(spec, data, strategy=strategy)
        means = np.array([m.mean for m in res.latent_marginals])
        sds = np.array([m.sd for m in res.latent_marginals])
        scale = np.maximum(np.abs(mean_exact), sd_exact)
        err = max(
            float(np.max(np.abs(means - mean_exact) / scale)),
            float(np.max(np.abs(sds - sd_exact) / sd_exact)),
        )
        worst = max(worst, err)
        assert err < 1e-6, (strategy, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    _pass(1, "conjugate Gaussian exactness", f"max rel err {worst:.2e}, {elapsed:.2f}s for all strategies")


# ---------------------------------------------------------------------------
# 2. The sampling engine recovers two conjugate toys at 100k iterations


@pytest.mark.slow
def test_criterion_2_conjugate_sampler_correctness():
    # Normal likelihood, Normal mean prior: posterior is Normal.
    g = np.random.default_rng(11)
    y = g.normal(1.0, 0.7, 40)
    kappa, prior_sd = 2.0, 1.5
    spec = mdl.ModelSpec(
        family=mdl.Family.GAUSSIAN,
        include_intercept=True,
        priors=mdl.PriorSet(fixed_effect=mdl.NormalPrior(0.0, prior_sd)),
        gaussian_obs_precision=kappa,
    )
    data = mdl.Dataset(y=y, covariates={})
    prec = data.n * kappa + prior_sd ** -2
    exact_mean = kappa * y.sum() / prec
    t0 = time.perf_counter()
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=100_000, burn_in=10_000, thin=1, seed=201))
    t_normal = time.perf_counter() - t0
    x = out.column("intercept")
    mcse = np.std(x, ddof=1) / math.sqrt(mcmc.ess_ips(x))
    err_normal = abs(x.mean() - exact_mean)
    assert err_normal < 3.0 * mcse, (err_normal, mcse)
    assert t_normal < 60.0, t_normal

    # Poisson counts with exposures and a flat prior on the log rate:
    # the rate posterior is Gamma(sum y, sum exposure).
    g = np.random.default_rng(13)
    exposure = g.uniform(0.5, 2.0, 25)
    y = g.poisson(3.0 * exposure)
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        include_intercept=True,
        offset="total",
        priors=mdl.PriorSet(fixed_effect=mdl.FlatPrior()),
    )
    data = mdl.Dataset(y=y, covariates={}, offset=exposure)
    a, b = float(y.sum()), float(exposure.sum())
    t0 = time.perf_counter()
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=100_000, burn_in=10_000, thin=1, seed=202))
    t_gamma = time.perf_counter() - t0
    rate = np.exp(out.column("intercept"))
    mcse_rate = np.std(rate, ddof=1) / math.sqrt(mcmc.ess_ips(rate))
    err_gamma = abs(rate.mean() - a / b)
    assert err_gamma < 3.0 * mcse_rate, (err_gamma, mcse_rate)
    log_rate = out.column("intercept")
    mcse_log = np.std(log_rate, ddof=1) / math.sqrt(mcmc.ess_ips(log_rate))
    assert abs(log_rate.mean() - (scipy.special.digamma(a) - math.log(b))) < 3.0 * mcse_log
    assert t_gamma < 60.0, t_gamma
    _pass(
        2,
        "conjugate sampler correctness",
        f"normal {err_normal / mcse:.2f} mcse in {t_normal:.1f}s; gamma {err_gamma / mcse_rate:.2f} mcse in {t_gamma:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Constrained intrinsic-field sampling matches the dense oracle


def test_criterion_3_constrained_icar_sampler_fidelity():
    graph = lattice_graph(2, 5)
    tau = 1.3
    t0 = time.perf_counter()
    draws = sample_icar_kriging(graph, tau, np.random.default_rng(301), size=100_000)
    elapsed = time.perf_counter() - t0
    sums = np.abs(draws.sum(axis=1))
    assert sums.max() < 1e-10, sums.max()
    # Dense pseudo-inverse oracle built edge by edge.
    n = graph.n_nodes
    lap_dense = np.zeros((n, n))
    for i, k in graph.edges:
        lap_dense[i, i] += 1.0
        lap_dense[k, k] += 1.0
        lap_dense[i, k] -= 1.0
        lap_dense[k, i] -= 1.0
    w, v = np.linalg.eigh(tau * lap_dense)
    keep = w > 1e-9 * w.max()
    cov_oracle = (v[:, keep] / w[keep]) @ v[:, keep].T
    emp = np.cov(draws.T, ddof=1)
    rel_frob = np.linalg.norm(emp - cov_oracle) / np.linalg.norm(cov_oracle)
    assert rel_frob < 0.02, rel_frob
    assert elapsed < 30.0, elapsed
    _pass(
        3,
        "constrained intrinsic sampler",
        f"rel Frobenius {rel_frob:.4f}, max |sum| {sums.max():.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Paired count study at protocol scale


@pytest.mark.slow
def test_criterion_4_poisson_study_at_protocol_scale():
    config = harness.study_config("poisson", seed=0)
    assert (config.n_datasets, config.n_areas) == (20, 50)
    assert (config.mcmc_iterations, config.mcmc_burn_in) == (100_000, 10_000)
    assert config.strategy == "full_laplace"
    t0 = time.perf_counter()
    report = harness.run_paired_study(config, workers=4)
    elapsed = time.perf_counter() - t0
    assert report.table("failures").rows == []
    pe = {"sd_iid": [], "beta_x": []}
    for row in report.table("results").rows:
        pe[row["parameter"]].append(abs(row["pe"]))
    assert len(pe["sd_iid"]) == 20 and len(pe["beta_x"]) == 20
    med_sd = float(np.median(pe["sd_iid"]))
    med_beta = float(np.median(pe["beta_x"]))
    assert med_sd < 5.0, med_sd
    assert med_beta < 20.0, med_beta
    assert elapsed < 1800.0, elapsed
    _pass(
        4,
        "count study, protocol scale",
        f"median |PE| sd {med_sd:.2f} / slope {med_beta:.2f}, {elapsed / 60:.1f} min",
    )


# ---------------------------------------------------------------------------
# 5. Both engines share one information-criterion definition


def test_criterion_5_shared_information_criterion():
    # (a) Same matrix through the sampling-engine call (implicit equal
    # weights) and the deterministic-engine call (explicit grid weights).
    g = np.random.default_rng(50)
    ll = g.uniform(-4.0, -0.5, (64, 9))
    via_sampling = metrics.waic(ll)
    via_grid = metrics.waic(ll, np.full(64, 1.0))
    gap = abs(via_sampling.waic - via_grid.waic)
    assert gap < 1e-12, gap
    assert abs(via_sampling.lppd - via_grid.lppd) < 1e-12
    assert abs(via_sampling.p_waic - via_grid.p_waic) < 1e-12

    # (b) A genuinely degenerate single-point grid from a fixed-hyper
    # fit agrees with the sampling path fed the same (replicated) row.
    spec, data = conjugate_gaussian_model(n=12)
    fit = laplace.fit(spec, data)
    assert fit.pointwise_loglik.shape[0] == 1
    np.testing.assert_array_equal(fit.grid_weights, [1.0])
    lap_waic = metrics.waic(fit.pointwise_loglik, fit.grid_weights).waic
    mcmc_waic = metrics.waic(np.repeat(fit.pointwise_loglik, 2, axis=0)).waic
    gap_degenerate = abs(lap_waic - mcmc_waic)
    assert gap_degenerate < 1e-12, gap_degenerate

    # (c) Toy matrix against a pure-Python evaluation of the formula.
    toy = [[-1.0, -0.4, -2.2], [-1.3, -0.9, -0.3]]
    lppd = 0.0
    p_waic = 0.0
    for i in range(3):
        lppd += math.log(sum(math.exp(row[i]) for row in toy) / 2.0)
        mean_l = sum(row[i] for row in toy) / 2.0
        p_waic += sum((row[i] - mean_l) ** 2 for row in toy) / 2.0
    direct = -2.0 * (lppd - p_waic)
    res = metrics.waic(np.array(toy))
    gap_toy = abs(res.waic - direct)
    assert gap_toy < 1e-12, gap_toy
    _pass(
        5,
        "shared criterion definition",
        f"path gap {gap:.1e}, degenerate gap {gap_degenerate:.1e}, toy gap {gap_toy:.1e}",
    )


# ---------------------------------------------------------------------------
# 6. Selection records survive independent re-derivation from CSV bytes


def _rederive_selection_csv(text: str, model_names, generating_family):
    """Re-derive selected/correct/tie from the numeric columns alone."""
    rows = list(csv.DictReader(io.StringIO(text)))
    checked = 0
    for row in rows:
        per_model = {m: float(row[f"waic_{m}"]) for m in model_names}
        expected = min(sorted(per_model), key=lambda m: (per_model[m], m))
        values = sorted(per_model.values())
        assert row["selected"] == expected, row
        assert row["correct"] == ("true" if expected == generating_family else "false"), row
        assert row["tie"] == ("true" if values[0] == values[1] else "false"), row
        checked += 1
    return rows, checked


@pytest.mark.slow
def test_criterion_6_selection_bookkeeping(tmp_path):
    t0 = time.perf_counter()
    totals = {}
    for family in ("poisson", "bym"):
        config = harness.study_config(
            "selection",
            seed=1,
            selection_family=family,
            mcmc_iterations=3_000,
            mcmc_burn_in=600,
            mcmc_thin=2,
            strategy="simplified_laplace",
            int_strategy="ccd",
        )
        assert config.n_datasets == 20 and config.n_areas == 50
        report = harness.run_selection_study(config, workers=4)
        out = tmp_path / family
        harness.emit_report(report, out)
        text = (out / "selection.csv").read_text(encoding="utf-8")
        rows, checked = _rederive_selection_csv(text, ("bym", "poisson"), family)
        assert checked == 40  # 20 datasets x 2 engines
        datasets = {r["dataset"] for r in rows}
        assert len(datasets) == 20
        for r in rows:
            assert r["engine"] in ("laplace", "mcmc")
        diff_rows = list(csv.DictReader(io.StringIO((out / "waic_diff.csv").read_text(encoding="utf-8"))))
        for r in diff_rows:
            assert float(r["diff"]) == float(r["waic_laplace"]) - float(r["waic_mcmc"])
        totals[family] = sum(r["correct"] == "true" for r in rows) / len(rows)
    elapsed = time.perf_counter() - t0
    _pass(
        6,
        "selection bookkeeping",
        f"correct-pick fraction poisson {totals['poisson']:.2f} / bym {totals['bym']:.2f}, {elapsed / 60:.1f} min",
    )


# ---------------------------------------------------------------------------
# 7. The improper model is refused, not silently summarized


def test_criterion_7_improper_posterior_is_caught():
    spec, data = improper_level_model()
    with pytest.raises(FitFailure) as err:
        laplace.fit(spec, data)
    assert err.value.cause == "rank_deficient"
    assert err.value.info["deficiency"] >= 1
    out = mcmc.run_chain(spec, data, ChainConfig(iterations=20_000, burn_in=2_000, thin=2, seed=701))
    diag = mcmc.diagnose(out)
    assert diag.verdict == "Fail", diag.reasons
    _pass(
        7,
        "improper posterior caught",
        f"deterministic refusal cause={err.value.cause}, sampler verdict={diag.verdict}",
    )


# ---------------------------------------------------------------------------
# 8. Byte-identical pipeline across worker counts; injected drift caught


@pytest.mark.slow
def test_criterion_8_reproducibility_audit(inject_drift):
    config = harness.study_config(
        "poisson", seed=2, n_datasets=6, n_areas=25,
        mcmc_iterations=4_000, mcmc_burn_in=800, mcmc_thin=4,
    )
    t0 = time.perf_counter()
    audit = harness.reproducibility_audit(config, worker_counts=(1, 4))
    elapsed = time.perf_counter() - t0
    assert audit.passed, audit.first_diff
    assert audit.first_diff is None
    assert len(audit.runs) == 4
    digests = [run["sha256"] for run in audit.runs]
    assert all(d == digests[0] for d in digests[1:])

    inject_drift()
    bad = harness.reproducibility_audit(config, worker_counts=(1,))
    assert not bad.passed
    assert bad.first_diff is not None
    assert bad.first_diff["file"] and bad.first_diff["line"] >= 1
    _pass(
        8,
        "reproducibility audit",
        f"4 runs byte-identical in {elapsed:.0f}s; injected drift at "
        f"{bad.first_diff['file']}:{bad.first_diff['line']}",
    )


# ---------------------------------------------------------------------------
# 9. Metric formulas: unit values exact, algebraic identities on random input


def test_criterion_9_metric_formula_suite():
    # Percent-error unit examples: bit-identical to the written formula.
    assert metrics.percent_error(1.2, 1.0, 0.5) == 100.0 * (1.2 - 1.0) / 0.5
    assert metrics.percent_error(1.2, 1.0, 0.5) == pytest.approx(40.0, rel=1e-14, abs=0.0)
    assert metrics.classify_percent_error(metrics.percent_error(1.2, 1.0, 0.5)) == "Problematic"
    assert metrics.percent_error(0.9, 0.9, 0.3) == 0.0
    assert metrics.classify_percent_error(0.0) == "Acceptable"
    assert metrics.percent_error(1.05, 1.0, 0.2) == pytest.approx(25.0, rel=1e-14, abs=0.0)
    assert metrics.classify_percent_error(metrics.percent_error(1.05, 1.0, 0.2)) == "Borderline"
    # Percent-change unit examples.
    assert metrics.percent_change(0.06, 0.05) == pytest.approx(20.0, rel=1e-14, abs=0.0)
    assert metrics.percent_change(1.0, 1.0) == 0.0
    assert metrics.percent_change(0.5, 1.0) == -50.0
    # Selection unit examples.
    assert metrics.select_model({"A": 100.0, "B": 101.0}).best == "A"
    assert metrics.select_model({"A": 101.0, "B": 100.0}).best == "B"
    tie = metrics.select_model({"A": 100.0, "B": 100.0})
    assert tie.best == "A" and tie.tie
    # Rate-ratio unit examples.
    point = metrics.rate_ratio(
        PosteriorMarginal.from_weighted_points(np.array([0.1]), np.array([1.0])), 2.0
    )
    assert point.estimate == math.exp(0.2)
    assert point.lower == point.upper == point.estimate
    grid = np.linspace(-2.0, 2.0, 4001)
    symmetric = PosteriorMarginal.from_unnormalized(grid, np.exp(-0.5 * (grid / 0.3) ** 2))
    assert not metrics.rate_ratio(symmetric, 1.5).significant
    mean, sd, iqr = 0.1, 0.02, 2.0
    b = np.linspace(mean - 8 * sd, mean + 8 * sd, 3001)
    normal = PosteriorMarginal.from_unnormalized(b, np.exp(-0.5 * ((b - mean) / sd) ** 2))
    rr = metrics.rate_ratio(normal, iqr)
    z = 1.959963984540054
    assert rr.lower == pytest.approx(math.exp(mean * iqr - z * sd * iqr), rel=1e-5)
    assert rr.upper == pytest.approx(math.exp(mean * iqr + z * sd * iqr), rel=1e-5)
    # Identities on 1000 seeded random inputs each.
    g = np.random.default_rng(900)
    for _ in range(1_000):
        a, bb = g.uniform(-50.0, 50.0, 2)
        s = g.uniform(1e-3, 10.0)
        assert metrics.percent_error(a, bb, s) == -metrics.percent_error(bb, a, s)
    for _ in range(1_000):
        gv = g.uniform(1e-3, 100.0) * g.choice([-1.0, 1.0])
        assert metrics.percent_change(gv, gv) == 0.0
    _pass(9, "metric formula suite", "unit examples exact; 2x1000 random identities hold")
