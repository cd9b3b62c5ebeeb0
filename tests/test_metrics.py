"""Accuracy metrics, information criterion, and effect summaries.

Oracles: pure-Python loop evaluation of the criterion formula with
``math`` scalars, closed-form lognormal quantiles for the rate ratio,
and literal re-evaluation of the percent formulas.  The random-input
property checks run over seeded draws so they are deterministic.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from lgmbench import metrics
from lgmbench.posterior import PosteriorMarginal


# ---------------------------------------------------------------------------
# Percent error


def test_percent_error_unit_values():
    cases = [
        (1.2, 1.0, 0.5, 40.0, "Problematic"),
        (0.73, 0.73, 0.2, 0.0, "Acceptable"),
        (1.05, 1.0, 0.2, 25.0, "Borderline"),
    ]
    for approx_mean, ref_mean, ref_sd, target, label in cases:
        pe = metrics.percent_error(approx_mean, ref_mean, ref_sd)
        # Bit-identical to the formula as written, and equal to the
        # real-number value up to one rounding of each operation.
        assert pe == 100.0 * (approx_mean - ref_mean) / ref_sd
        assert pe == pytest.approx(target, rel=1e-14, abs=0.0)
        assert metrics.classify_percent_error(pe) == label


def test_percent_error_is_antisymmetric_on_random_inputs():
    g = np.random.default_rng(90)
    for _ in range(1_000):
        a, b = g.uniform(-50.0, 50.0, 2)
        s = g.uniform(1e-3, 10.0)
        assert metrics.percent_error(a, b, s) == -metrics.percent_error(b, a, s)


def test_percent_error_rejects_bad_reference_sd():
    for sd in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            metrics.percent_error(1.0, 1.0, sd)


def test_percent_error_vectorizes():
    out = metrics.percent_error([1.2, 0.8], [1.0, 1.0], [0.5, 0.5])
    np.testing.assert_array_equal(out, [100.0 * (1.2 - 1.0) / 0.5, 100.0 * (0.8 - 1.0) / 0.5])


def test_classification_thresholds():
    assert metrics.classify_percent_error(20.0) == "Acceptable"
    assert metrics.classify_percent_error(-20.0) == "Acceptable"
    assert metrics.classify_percent_error(20.5) == "Borderline"
    assert metrics.classify_percent_error(30.0) == "Borderline"
    assert metrics.classify_percent_error(-31.0) == "Problematic"
    with pytest.raises(ValueError):
        metrics.classify_percent_error(math.nan)


# ---------------------------------------------------------------------------
# Percent change


def test_percent_change_unit_values():
    assert metrics.percent_change(0.06, 0.05) == 100.0 * (0.06 - 0.05) / 0.05
    assert metrics.percent_change(0.06, 0.05) == pytest.approx(20.0, rel=1e-14, abs=0.0)
    assert metrics.percent_change(1.0, 1.0) == 0.0
    assert metrics.percent_change(0.5, 1.0) == -50.0


def test_percent_change_identity_on_random_inputs():
    g = np.random.default_rng(91)
    for _ in range(1_000):
        gv = g.uniform(1e-3, 100.0) * g.choice([-1.0, 1.0])
        assert metrics.percent_change(gv, gv) == 0.0


def test_percent_change_rejects_zero_generating_value():
    with pytest.raises(ValueError):
        metrics.percent_change(1.0, 0.0)
    with pytest.raises(ValueError):
        metrics.percent_change([1.0, 1.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# Information criterion


def waic_oracle(rows, weights=None):
    """Loop-and-scalar evaluation of the criterion formula."""
    s = len(rows)
    n = len(rows[0])
    if weights is None:
        weights = [1.0 / s] * s
    else:
        total = sum(weights)
        weights = [w / total for w in weights]
    lppd = 0.0
    p_waic = 0.0
    for i in range(n):
        lppd += math.log(sum(w * math.exp(r[i]) for w, r in zip(weights, rows)))
        mean_l = sum(w * r[i] for w, r in zip(weights, rows))
        p_waic += sum(w * (r[i] - mean_l) ** 2 for w, r in zip(weights, rows))
    return -2.0 * (lppd - p_waic), lppd, p_waic


TOY_2X3 = [[-1.0, -0.4, -2.2], [-1.3, -0.9, -0.3]]


def test_waic_matches_direct_formula_on_toy_matrix():
    res = metrics.waic(np.array(TOY_2X3))
    w_expect, lppd_expect, p_expect = waic_oracle(TOY_2X3)
    assert res.waic == pytest.approx(w_expect, abs=1e-12)
    assert res.lppd == pytest.approx(lppd_expect, abs=1e-12)
    assert res.p_waic == pytest.approx(p_expect, abs=1e-12)
    assert res.waic == -2.0 * (res.lppd - res.p_waic)
    assert res.p_waic >= 0.0
    assert res.pointwise_lppd.shape == (3,)
    assert res.pointwise_p_waic.shape == (3,)


def test_waic_matches_direct_formula_on_random_matrices():
    g = np.random.default_rng(92)
    for _ in range(20):
        s, n = g.integers(2, 9), g.integers(1, 7)
        ll = g.uniform(-4.0, 0.0, (s, n))
        weights = g.uniform(0.1, 2.0, s) if g.random() < 0.5 else None
        res = metrics.waic(ll, weights)
        w_expect, lppd_expect, p_expect = waic_oracle(ll.tolist(), None if weights is None else weights.tolist())
        assert res.waic == pytest.approx(w_expect, abs=1e-10)
        assert res.lppd == pytest.approx(lppd_expect, abs=1e-10)
        assert res.p_waic == pytest.approx(p_expect, abs=1e-10)


def test_waic_zero_variance_rows():
    d = -1.7
    res = metrics.waic(np.full((3, 1), d))
    assert res.lppd == pytest.approx(d, abs=1e-13)
    assert res.p_waic == pytest.approx(0.0, abs=1e-13)
    assert res.waic == pytest.approx(-2.0 * d, abs=1e-12)


def test_waic_single_weighted_row_has_no_penalty():
    ll = np.array([[-0.4, -1.1, -0.9]])
    res = metrics.waic(ll, np.array([1.0]))
    assert res.p_waic == 0.0
    assert res.waic == pytest.approx(-2.0 * ll.sum(), abs=1e-12)


def test_waic_equal_weights_match_unweighted_path():
    # The sampling engine omits weights; the deterministic engine always
    # passes its grid weights.  Both routes must agree on shared input.
    g = np.random.default_rng(93)
    ll = g.uniform(-3.0, 0.0, (40, 6))
    implicit = metrics.waic(ll)
    explicit = metrics.waic(ll, np.full(40, 1.0))
    scaled = metrics.waic(ll, np.full(40, 0.37))
    assert implicit.waic == pytest.approx(explicit.waic, abs=1e-12)
    assert implicit.lppd == pytest.approx(explicit.lppd, abs=1e-12)
    assert implicit.p_waic == pytest.approx(explicit.p_waic, abs=1e-12)
    assert explicit.waic == pytest.approx(scaled.waic, abs=1e-12)


def test_waic_duplicate_row_equals_doubled_weight():
    rows = np.array(TOY_2X3)
    duplicated = metrics.waic(np.vstack([rows, rows[1:]]))
    reweighted = metrics.waic(rows, np.array([1.0, 2.0]))
    assert duplicated.waic == pytest.approx(reweighted.waic, abs=1e-12)
    assert duplicated.p_waic == pytest.approx(reweighted.p_waic, abs=1e-12)


def test_waic_input_validation():
    ll = np.array(TOY_2X3)
    with pytest.raises(ValueError):
        metrics.waic(ll[0])
    with pytest.raises(ValueError):
        metrics.waic(np.empty((3, 0)))
    with pytest.raises(ValueError):
        metrics.waic(ll[:1])  # one unweighted row
    with pytest.raises(ValueError):
        metrics.waic(np.array([[0.0, -np.inf, -1.0], [-1.0, -1.0, -1.0]]))
    with pytest.raises(ValueError):
        metrics.waic(ll, np.array([1.0]))
    with pytest.raises(ValueError):
        metrics.waic(ll, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        metrics.waic(ll, np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# Model selection


def test_select_model_prefers_lower_criterion():
    res = metrics.select_model({"A": 100.0, "B": 101.0})
    assert (res.best, res.margin, res.tie) == ("A", 1.0, False)
    res = metrics.select_model({"A": 101.0, "B": 100.0})
    assert (res.best, res.margin, res.tie) == ("B", 1.0, False)


def test_select_model_breaks_exact_tie_by_name():
    res = metrics.select_model({"B": 100.0, "A": 100.0})
    assert res.best == "A"
    assert res.tie
    assert res.margin == 0.0


def test_select_model_single_and_invalid_inputs():
    res = metrics.select_model({"only": 5.0})
    assert res.best == "only" and res.margin == math.inf and not res.tie
    with pytest.raises(ValueError):
        metrics.select_model({})
    with pytest.raises(ValueError, match="bad"):
        metrics.select_model({"ok": 1.0, "bad": math.nan})


# ---------------------------------------------------------------------------
# Rate ratios


def normal_marginal(mean, sd, points=3001, width=8.0):
    b = np.linspace(mean - width * sd, mean + width * sd, points)
    dens = np.exp(-0.5 * ((b - mean) / sd) ** 2)
    return PosteriorMarginal.from_unnormalized(b, dens)


def test_rate_ratio_point_mass():
    marg = PosteriorMarginal.from_weighted_points(np.array([0.1]), np.array([1.0]))
    res = metrics.rate_ratio(marg, 2.0)
    assert res.estimate == math.exp(0.2)
    assert res.lower == res.upper == res.estimate
    assert res.significant


def test_rate_ratio_matches_lognormal_oracle_on_marginal():
    mean, sd, iqr = 0.1, 0.02, 2.0
    res = metrics.rate_ratio(normal_marginal(mean, sd), iqr)
    z = 1.959963984540054
    assert res.estimate == pytest.approx(math.exp(mean * iqr), rel=1e-6)
    assert res.lower == pytest.approx(math.exp(mean * iqr - z * sd * iqr), rel=1e-5)
    assert res.upper == pytest.approx(math.exp(mean * iqr + z * sd * iqr), rel=1e-5)
    assert res.mean == pytest.approx(math.exp(mean * iqr + 0.5 * (sd * iqr) ** 2), rel=1e-6)
    assert res.significant


def test_rate_ratio_matches_lognormal_oracle_on_draws():
    g = np.random.default_rng(94)
    mean, sd, iqr = 0.1, 0.02, 2.0
    draws = g.normal(mean, sd, 400_000)
    res = metrics.rate_ratio(draws, iqr)
    z = 1.959963984540054
    assert res.estimate == pytest.approx(math.exp(mean * iqr), rel=2e-4)
    assert res.lower == pytest.approx(math.exp(mean * iqr - z * sd * iqr), rel=2e-3)
    assert res.upper == pytest.approx(math.exp(mean * iqr + z * sd * iqr), rel=2e-3)
    assert res.significant


def test_rate_ratio_symmetric_posterior_is_not_significant():
    res = metrics.rate_ratio(normal_marginal(0.0, 0.3), 1.5)
    assert res.lower < 1.0 < res.upper
    assert not res.significant
    g = np.random.default_rng(95)
    res = metrics.rate_ratio(g.normal(0.0, 0.3, 50_000), 1.5)
    assert not res.significant


def test_rate_ratio_significance_survives_regridding():
    # The same posterior represented on a uniform and on a warped grid
    # must produce the same significance call.
    mean, sd = 0.08, 0.03
    uniform = normal_marginal(mean, sd)
    t = np.tanh(np.linspace(-2.5, 2.5, 4001))
    warped_values = mean + 8.0 * sd * t / math.tanh(2.5)
    warped = PosteriorMarginal.from_unnormalized(
        warped_values, np.exp(-0.5 * ((warped_values - mean) / sd) ** 2)
    )
    for iqr in (0.5, 2.0, 5.0):
        a = metrics.rate_ratio(uniform, iqr)
        b = metrics.rate_ratio(warped, iqr)
        assert a.significant == b.significant, iqr
        assert a.estimate == pytest.approx(b.estimate, rel=1e-4)


def test_rate_ratio_input_validation():
    g = np.random.default_rng(96)
    draws = g.normal(0.0, 1.0, 100)
    for iqr in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            metrics.rate_ratio(draws, iqr)
    with pytest.raises(ValueError):
        metrics.rate_ratio(draws[:1], 1.0)
    with pytest.raises(ValueError):
        metrics.rate_ratio(draws.reshape(10, 10), 1.0)
