"""Reference copies of the sampler's hot path, kept as a test oracle.

``run_chain`` and ``CounterStream.at`` below are the versions that
built a fresh Philox generator for every (block, sweep) pair, refactored
the shift metric every sweep and looked each precision up per block.
``_VectorAdapt`` is the version that added every acceptance vector to
both of its counters, and ``_Welford`` the one that called ``np.outer``.
The sampler in ``lgmbench.mcmc`` must reproduce their draws, acceptance
rates and scales bit for bit.

``ess_ips``, ``geweke_z``, ``split_rhat``, ``trace_slope_z`` and
``diagnose`` at the end are the versions that looped over the columns
of a chain one at a time in Python; ``lgmbench.mcmc.diagnose`` runs
them over all columns at once and must give the same ``per_column``
values bit for bit.  The helpers they share with the sampler
(scalar adaptation, colouring, the likelihood wrapper) are imported,
not copied.
"""
from __future__ import annotations

import math
import time

import numpy as np

from lgmbench import models as mdl
from lgmbench.gmrf import Constraint, component_labels, icar_quadratic_form
from lgmbench.mcmc import (
    RIDGE,
    TARGET_JOINT,
    TARGET_SCALAR,
    ChainAbort,
    ChainConfig,
    ChainDiagnostics,
    ChainOutput,
    _Adapt,
    _loglik_vec,
    greedy_coloring,
)
from lgmbench.streams import derive_key


class _VectorAdapt:
    """Per-site windowed adaptation sharing one window counter."""

    def __init__(self, scales: np.ndarray, target: float, window: int):
        self.log_scales = np.log(scales)
        self.scales = np.exp(self.log_scales)
        self.target = target
        self.window = window
        self.window_index = 0
        self.acc = np.zeros_like(scales)
        self.tries = 0
        self.total_acc = np.zeros_like(scales)
        self.total_tries = 0
        self.frozen = False

    def record(self, accepted: np.ndarray) -> None:
        self.acc += accepted
        self.tries += 1
        self.total_acc += accepted
        self.total_tries += 1
        if not self.frozen and self.tries >= self.window:
            self.window_index += 1
            gain = 1.0 / math.sqrt(self.window_index)
            self.log_scales += gain * (self.acc / self.tries - self.target)
            self.scales = np.exp(self.log_scales)
            self.acc[:] = 0.0
            self.tries = 0

    def rate(self) -> float:
        return float(np.mean(self.total_acc / self.total_tries)) if self.total_tries else float("nan")


class _Welford:
    """Running mean and covariance of the fixed-effect draws."""

    def __init__(self, dim: int):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)

    def cov(self) -> np.ndarray | None:
        if self.count < 2:
            return None
        return self.m2 / (self.count - 1)


class CounterStream:
    """A fresh Generator per counter value."""

    def __init__(self, seed: int, *path):
        self._key = derive_key(seed, *path)

    def at(self, counter: int) -> np.random.Generator:
        bg = np.random.Philox(counter=[0, 0, 0, int(counter)], key=self._key)
        return np.random.Generator(bg)


def run_chain(spec: mdl.ModelSpec, data: mdl.Dataset, config: ChainConfig) -> ChainOutput:
    """Run one adaptive Metropolis-within-Gibbs chain."""
    t_start = time.perf_counter()
    n = data.n
    slices = mdl.latent_slices(spec, n)
    dim_x = mdl.latent_dim(spec, n)
    names = mdl.latent_names(spec, n) + mdl.hyper_names(spec)
    hyper_list = mdl.hyper_names(spec)
    n_hyper = len(hyper_list)
    design = mdl.design_matrix(spec, data)
    p_beta = design.shape[1]
    has_iid = "iid" in slices
    has_icar = "icar" in slices
    log_off = np.log(data.offset) if spec.offset is not None else np.zeros(n)

    if has_icar:
        graph = data.graph
        classes = greedy_coloring(graph)
        degrees = graph.degrees().astype(float)
        labels = component_labels(graph)
        n_comp = int(labels.max()) + 1
        icar_term = next(t for t in spec.random_effects if t.kind == "icar")
        if icar_term.half_exponent:
            icar_coef = 0.5 * (n - n_comp)
        else:
            icar_coef = float(n - n_comp)
        comp_masks = [np.flatnonzero(labels == c) for c in range(n_comp)]
        # Dense adjacency rows let each color class compute its neighbor
        # sums in a single matrix-vector product.
        adj = np.zeros((n, n))
        ia, ib = graph.edge_arrays()
        adj[ia, ib] = 1.0
        adj[ib, ia] = 1.0
        class_adj = [adj[cls] for cls in classes]
    constraint = spec.icar_term.constraint if has_icar else Constraint.NONE
    free_kinds = [h.replace("log_precision_", "") for h in hyper_list if h.startswith("log_precision_")]

    # --- state ----------------------------------------------------------
    x = np.zeros(dim_x)
    hyper = np.zeros(n_hyper)
    beta = x[slices["beta"]] if p_beta else np.zeros(0)
    eps = x[slices["iid"]] if has_iid else None
    mu = x[slices["icar"]] if has_icar else None
    eta = design @ beta + log_off
    if has_iid:
        eta = eta + eps
    if has_icar:
        eta = eta + mu
    ll = _loglik_vec(spec, eta, hyper, data)
    if ll is None:
        raise ChainAbort(0, "initial state has non-finite likelihood")
    sum_eps2 = 0.0
    icar_quad = 0.0

    def hyper_value(name):
        return hyper[hyper_list.index(name)]

    def fixed_or_free_precision(kind):
        prior = spec.priors.log_precision_priors[kind]
        if isinstance(prior, mdl.FixedPrior):
            return math.exp(prior.log_value)
        return math.exp(hyper_value(f"log_precision_{kind}"))

    beta_prior_prec = np.full(p_beta, mdl.fixed_effect_precision(spec))

    # --- informed initial proposal scales -------------------------------
    w0 = np.maximum(mdl.eta_derivatives(spec, eta, hyper, data)[1], 1e-3)
    adapt = {}
    has_shift = bool(p_beta) and has_iid
    has_swap = has_iid and has_icar and constraint is Constraint.NONE
    if p_beta:
        target_b = TARGET_JOINT if p_beta > 1 else TARGET_SCALAR
        adapt["beta"] = _Adapt(2.4 / math.sqrt(p_beta), target_b, config.adaptation_window)
        cov0 = np.linalg.inv(design.T @ (w0[:, None] * design) + np.diag(beta_prior_prec))
        prop_chol = np.linalg.cholesky(cov0 + RIDGE * np.eye(p_beta))
        welford = _Welford(p_beta)
    if has_shift:
        adapt["shift"] = _Adapt(
            2.4 / math.sqrt(p_beta), TARGET_JOINT if p_beta > 1 else TARGET_SCALAR, config.adaptation_window
        )
        design_gram = design.T @ design
    if has_iid:
        adapt["iid"] = _VectorAdapt(2.4 / np.sqrt(1.0 + w0), TARGET_SCALAR, config.adaptation_window)
    if has_icar:
        tau0 = fixed_or_free_precision("icar")
        adapt["icar"] = _VectorAdapt(
            2.4 / np.sqrt(1.0 + w0 + tau0 * degrees), TARGET_SCALAR, config.adaptation_window
        )
    if has_swap:
        adapt["swap"] = _VectorAdapt(np.full(n_comp, 2.4), TARGET_SCALAR, config.adaptation_window)
    for h in hyper_list:
        adapt[h] = _Adapt(0.5, TARGET_SCALAR, config.adaptation_window)

    # --- recorders ------------------------------------------------------
    n_kept = config.n_kept
    draws = np.empty((n_kept, dim_x + n_hyper))
    pw = np.empty((n_kept, n)) if config.record_pointwise else None
    kept = 0

    sb = CounterStream(config.seed, "mcmc", "beta")
    ss = CounterStream(config.seed, "mcmc", "shift")
    si = CounterStream(config.seed, "mcmc", "iid")
    sc = CounterStream(config.seed, "mcmc", "icar")
    sw = CounterStream(config.seed, "mcmc", "swap")
    sh = CounterStream(config.seed, "mcmc", "hyper")

    def log_prior_hyper_at(idx, value):
        name = hyper_list[idx]
        if name == "logit_p_zero":
            return spec.priors.logit_zero_prior.logpdf(value)
        if name == "log_dispersion":
            return spec.priors.log_dispersion_prior.logpdf(value)
        kind = name.replace("log_precision_", "")
        return spec.priors.log_precision_priors[kind].logpdf(value)

    for sweep in range(1, config.iterations + 1):
        in_burn = sweep <= config.burn_in

        # ----- fixed effects -------------------------------------------
        if p_beta:
            g = sb.at(sweep)
            z = g.standard_normal(p_beta)
            u_acc = g.random()
            step = adapt["beta"].scale * (prop_chol @ z)
            beta_new = beta + step
            eta_new = eta + design @ step
            ll_new = _loglik_vec(spec, eta_new, hyper, data)
            if ll_new is None:
                accept = False
            else:
                d_prior = -0.5 * float(beta_prior_prec @ (beta_new**2 - beta**2))
                d = float(np.add.reduce(ll_new - ll)) + d_prior
                accept = math.log(u_acc) < d if u_acc > 0.0 else True
            if accept:
                beta, eta, ll = beta_new, eta_new, ll_new
            adapt["beta"].record(1.0 if accept else 0.0)
            if in_burn:
                welford.update(beta)
                if sweep % config.adaptation_window == 0:
                    cov = welford.cov()
                    if cov is not None:
                        try:
                            prop_chol = np.linalg.cholesky(cov + RIDGE * np.eye(p_beta))
                        except np.linalg.LinAlgError:
                            pass

        # ----- predictor-preserving shift beta <-> sites ---------------
        if has_shift:
            g = ss.at(sweep)
            z = g.standard_normal(p_beta)
            u_acc = g.random()
            sigma = fixed_or_free_precision("iid")
            # The log ratio is quadratic in delta with curvature
            # sigma X'X + prior, so propose with its inverse as metric.
            metric_chol = np.linalg.cholesky(sigma * design_gram + np.diag(beta_prior_prec))
            delta = adapt["shift"].scale * np.linalg.solve(metric_chol.T, z)
            beta_new = beta + delta
            eps_new = eps - design @ delta
            d = -0.5 * float(beta_prior_prec @ (beta_new**2 - beta**2))
            d += -0.5 * sigma * float(eps_new @ eps_new - eps @ eps)
            accept = math.log(u_acc) < d if u_acc > 0.0 else True
            if accept:
                beta, eps = beta_new, eps_new
                sum_eps2 = float(eps @ eps)
            adapt["shift"].record(1.0 if accept else 0.0)

        # ----- exchangeable sites --------------------------------------
        if has_iid:
            g = si.at(sweep)
            z = g.standard_normal(n)
            u_acc = g.random(n)
            sigma = fixed_or_free_precision("iid")
            delta = adapt["iid"].scales * z
            eta_new = eta + delta
            ll_new = _loglik_vec(spec, eta_new, hyper, data)
            if ll_new is None:
                ok = np.abs(eta_new) <= mdl.ETA_OVERFLOW
                safe_eta = np.where(ok, eta_new, 0.0)
                ll_new = mdl.pointwise_loglik_from_eta(spec, safe_eta, hyper, data)
                ll_new = np.where(ok, ll_new, -np.inf)
            eps_new = eps + delta
            d_site = (ll_new - ll) - 0.5 * sigma * (eps_new**2 - eps**2)
            with np.errstate(divide="ignore"):
                accept = np.log(u_acc) < d_site
            if np.any(accept):
                eps = np.where(accept, eps_new, eps)
                eta = np.where(accept, eta_new, eta)
                ll = np.where(accept, ll_new, ll)
            adapt["iid"].record(accept.astype(float))
            sum_eps2 = float(eps @ eps)

        # ----- intrinsic CAR sites -------------------------------------
        if has_icar:
            g = sc.at(sweep)
            z = g.standard_normal(n)
            u_acc = g.random(n)
            tau = fixed_or_free_precision("icar")
            scales = adapt["icar"].scales
            acc_vec = np.zeros(n)
            for cls, a_rows in zip(classes, class_adj):
                delta = scales[cls] * z[cls]
                mu_new_c = mu[cls] + delta
                eta_new = eta.copy()
                eta_new[cls] += delta
                ll_new = _loglik_vec(spec, eta_new, hyper, data)
                if ll_new is None:
                    ok = np.abs(eta_new) <= mdl.ETA_OVERFLOW
                    safe_eta = np.where(ok, eta_new, 0.0)
                    ll_new = mdl.pointwise_loglik_from_eta(spec, safe_eta, hyper, data)
                    ll_new = np.where(ok, ll_new, -np.inf)
                s_neigh = a_rows @ mu
                d_quad = degrees[cls] * (mu_new_c**2 - mu[cls] ** 2) - 2.0 * delta * s_neigh
                d_site = (ll_new[cls] - ll[cls]) - 0.5 * tau * d_quad
                with np.errstate(divide="ignore"):
                    accept = np.log(u_acc[cls]) < d_site
                if np.any(accept):
                    idx = cls[accept]
                    mu[idx] += delta[accept]
                    eta[idx] = eta_new[idx]
                    ll[idx] = ll_new[idx]
                    icar_quad += float(np.add.reduce(d_quad[accept]))
                acc_vec[cls] = accept.astype(float)
            if constraint is Constraint.SUM_TO_ZERO_KRIGING:
                shift = np.zeros(n)
                for comp in comp_masks:
                    shift[comp] = np.add.reduce(mu[comp]) / comp.size
                if np.any(shift != 0.0):
                    mu = mu - shift
                    eta = eta - shift
                    ll_c = _loglik_vec(spec, eta, hyper, data)
                    if ll_c is None:
                        raise ChainAbort(sweep, "constraint projection produced an invalid state")
                    ll = ll_c
            adapt["icar"].record(acc_vec)

        # ----- predictor-preserving level swap mu <-> eps --------------
        if has_swap:
            g = sw.at(sweep)
            z = g.standard_normal(n_comp)
            u_acc = g.random(n_comp)
            sigma = fixed_or_free_precision("iid")
            acc_swap = np.zeros(n_comp)
            for c, comp in enumerate(comp_masks):
                base_sd = 1.0 / math.sqrt(sigma * comp.size)
                gamma = adapt["swap"].scales[c] * base_sd * z[c]
                s_c = float(np.add.reduce(eps[comp]))
                d = -0.5 * sigma * (comp.size * gamma * gamma - 2.0 * gamma * s_c)
                accept = math.log(u_acc[c]) < d if u_acc[c] > 0.0 else True
                if accept:
                    eps[comp] -= gamma
                    mu[comp] += gamma
                    acc_swap[c] = 1.0
            adapt["swap"].record(acc_swap)
            sum_eps2 = float(eps @ eps)

        # ----- hyperparameters -----------------------------------------
        if n_hyper:
            g = sh.at(sweep)
            z = g.standard_normal(n_hyper)
            u_acc = g.random(n_hyper)
            for idx, name in enumerate(hyper_list):
                cur = hyper[idx]
                new = cur + adapt[name].scale * z[idx]
                d = log_prior_hyper_at(idx, new) - log_prior_hyper_at(idx, cur)
                ll_new = None
                if name == "log_precision_iid":
                    d += 0.5 * n * (new - cur) - 0.5 * (math.exp(new) - math.exp(cur)) * sum_eps2
                elif name == "log_precision_icar":
                    d += icar_coef * (new - cur) - 0.5 * (math.exp(new) - math.exp(cur)) * icar_quad
                else:
                    hyper_try = hyper.copy()
                    hyper_try[idx] = new
                    ll_new = _loglik_vec(spec, eta, hyper_try, data)
                    if ll_new is None:
                        d = -np.inf
                    else:
                        d += float(np.add.reduce(ll_new - ll))
                accept = np.isfinite(d) and math.log(u_acc[idx]) < d
                if accept:
                    hyper[idx] = new
                    if ll_new is not None:
                        ll = ll_new
                adapt[name].record(1.0 if accept else 0.0)

        if sweep == config.burn_in:
            for a in adapt.values():
                a.frozen = True
        if has_icar and sweep % 1000 == 0:
            # Refresh the incrementally tracked quadratic form to keep
            # accumulated rounding out of the hyper updates.
            icar_quad = icar_quadratic_form(mu, graph)

        total = float(np.add.reduce(ll))
        if not np.isfinite(total):
            raise ChainAbort(sweep, "non-finite log likelihood in current state")

        if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            row = draws[kept]
            if p_beta:
                row[slices["beta"]] = beta
            if has_iid:
                row[slices["iid"]] = eps
            if has_icar:
                row[slices["icar"]] = mu
            row[dim_x:] = hyper
            if pw is not None:
                pw[kept] = ll
            kept += 1

    acceptance = {k: a.rate() for k, a in adapt.items()}
    final_scales = {
        k: (a.scale if isinstance(a, _Adapt) else a.scales.tolist()) for k, a in adapt.items()
    }
    return ChainOutput(
        columns=names,
        draws=draws[:kept],
        pointwise_loglik=pw[:kept] if pw is not None else None,
        acceptance=acceptance,
        final_scales=final_scales,
        config=config,
        runtime_s=time.perf_counter() - t_start,
    )


# ---------------------------------------------------------------------------
# Diagnostics, one column at a time


def _autocov(x: np.ndarray, max_lag: int) -> np.ndarray:
    n = x.size
    xc = x - x.mean()
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[: max_lag + 1].real / n
    return acov


def ess_ips(x: np.ndarray) -> float:
    """Effective sample size via the initial-positive-sequence rule."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    acov = _autocov(x, n - 1)
    g0 = acov[0]
    if g0 <= 0.0:
        return float(n)
    m = 0
    s = 0.0
    while 2 * m + 1 < n:
        pair = acov[2 * m] + acov[2 * m + 1] if 2 * m + 1 < acov.size else acov[2 * m]
        if pair <= 0.0:
            break
        s += pair
        m += 1
    var_mean = (2.0 * s - g0) / n
    if var_mean <= 0.0:
        return float(n)
    return float(min(n, g0 / var_mean))


def geweke_z(x: np.ndarray, first: float = 0.1, last: float = 0.5) -> float:
    """Z score comparing the means of the early and late chain segments."""
    x = np.asarray(x, dtype=float)
    n = x.size
    a = x[: max(2, int(first * n))]
    b = x[n - max(2, int(last * n)) :]
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        return 0.0
    sa = va / ess_ips(a)
    sb = vb / ess_ips(b)
    denom = math.sqrt(sa + sb)
    if denom == 0.0:
        return math.inf if a.mean() != b.mean() else 0.0
    return float((a.mean() - b.mean()) / denom)


def split_rhat(x: np.ndarray) -> float:
    """Potential scale reduction of the two halves of one chain."""
    x = np.asarray(x, dtype=float)
    n = (x.size // 2) * 2
    halves = x[:n].reshape(2, n // 2)
    length = n // 2
    means = halves.mean(axis=1)
    variances = halves.var(axis=1, ddof=1)
    w = variances.mean()
    b = length * means.var(ddof=1)
    if w == 0.0:
        return 1.0 if b == 0.0 else math.inf
    v = (length - 1.0) / length * w + b / length
    return float(math.sqrt(v / w))


def trace_slope_z(x: np.ndarray, ess: float | None = None) -> float:
    """Standardized linear drift of the trace, autocorrelation adjusted.

    ``ess`` is ``ess_ips(x)`` when the caller has it already.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    t = np.arange(n, dtype=float)
    t -= t.mean()
    denom = float(t @ t)
    if denom == 0.0:
        return 0.0
    slope = float(t @ (x - x.mean())) / denom
    resid = x - x.mean() - slope * t
    s2 = float(resid @ resid) / max(n - 2, 1)
    if s2 == 0.0:
        return 0.0
    if ess is None:
        ess = ess_ips(x)
    se = math.sqrt(s2 / denom) * math.sqrt(n / ess)
    return float(slope / se)


def diagnose(output: ChainOutput, z_threshold: float = 4.0, rhat_threshold: float = 1.1) -> ChainDiagnostics:
    """Stationarity screen over every recorded column.

    Fail when any column shows a Geweke z beyond ``z_threshold`` or a
    split-chain scale reduction beyond ``rhat_threshold``; a column
    with zero variance counts its full length as effective and is
    flagged as a warning, as is a chain with too few kept draws for
    the screen to mean much.
    """
    reasons = []
    per_column = {}
    n = output.n_kept
    worst_fail = False
    warn = False
    if n < 1000:
        warn = True
        reasons.append(f"only {n} kept draws; diagnostics are low-powered")
    for j, name in enumerate(output.columns):
        x = output.draws[:, j]
        # "All draws identical" must be detected exactly; a variance test
        # can miss it when the repeated value has a non-exact mean.
        degenerate = bool(np.ptp(x) == 0.0)
        ess = float(n) if degenerate else ess_ips(x)
        z = 0.0 if degenerate else geweke_z(x)
        rhat = 1.0 if degenerate else split_rhat(x)
        slope = 0.0 if degenerate else trace_slope_z(x, ess)
        per_column[name] = {
            "ess": ess,
            "geweke_z": z,
            "split_rhat": rhat,
            "trace_slope_z": slope,
            "degenerate": degenerate,
        }
        if degenerate:
            warn = True
            reasons.append(f"{name}: zero variance across kept draws")
            continue
        if abs(z) > z_threshold:
            worst_fail = True
            reasons.append(f"{name}: |geweke z| = {abs(z):.2f} > {z_threshold}")
        if rhat > rhat_threshold:
            worst_fail = True
            reasons.append(f"{name}: split Rhat = {rhat:.3f} > {rhat_threshold}")
    verdict = "Fail" if worst_fail else ("Warn" if warn else "Pass")
    return ChainDiagnostics(verdict=verdict, reasons=reasons, per_column=per_column)

