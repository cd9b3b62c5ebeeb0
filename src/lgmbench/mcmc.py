"""Adaptive Metropolis-within-Gibbs reference sampler.

The latent field and hyperparameters are updated blockwise each sweep,
in a fixed order:

1. fixed effects: one joint adaptive random-walk Metropolis move whose
   proposal covariance is the running empirical covariance of the
   chain (plus a ridge), rescaled toward a 23.4% acceptance rate
   (44% for a single coefficient);
2. a linear-predictor-preserving shift between the fixed effects and
   the exchangeable field: propose delta for beta and subtract
   X delta from the sites, so the likelihood cancels exactly and only
   the priors enter the ratio.  Posterior ridges between regression
   coefficients and per-observation noise are otherwise nearly
   impassable when the counts are large;
3. exchangeable random effects: all sites proposed simultaneously and
   accepted independently, which is exact because both the likelihood
   and the prior factorize over sites given the rest;
4. intrinsic CAR random effects: sites are grouped by a greedy graph
   coloring and each color class is proposed simultaneously — no two
   updated sites are neighbors, so the class conditional factorizes.
   The spec's sum-to-zero constraint (``SUM_TO_ZERO_KRIGING``)
   subtracts each connected component's mean once after the block;
5. when both random-effect blocks are present and unconstrained, a
   per-component level swap (mu + gamma, eps - gamma) that again
   leaves the linear predictor untouched; the intrinsic prior is
   invariant under per-component constants, so only the exchangeable
   prior enters;
6. hyperparameters: scalar random-walk moves on the internal
   (log/logit) scale, each tuned toward 44% acceptance.

All proposal scales follow a windowed Robbins-Monro recursion
``scale *= exp(gain_w * (rate - target))`` with ``gain_w`` decaying as
the inverse square root of the window index; adaptation is frozen at
the end of burn-in so the recorded draws come from a fixed kernel.

Randomness is counter-based: each block has its own stream, and every
(block, chunk) pair derives its own generator from the seed, where a
chunk is ``RNG_CHUNK`` = K consecutive sweeps.  One rewind
of the block's stream to the chunk's first sweep s0 draws the chunk's
normals as one (K, m) array and then its uniforms as one (K, m_u)
array, and sweep s reads row ``(s - 1) mod K`` of each.  The draws of a
sweep depend only on the seed, the block, the sweep and K, so results
are independent of execution details and reproducible bit-for-bit, and
a shorter chain's draws are a prefix of a longer one's.  K = 1 gives
every (block, sweep) pair its own generator, the draws of the reference
sampler that the tests compare against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import models as mdl
from .gmrf import Constraint, Factor, component_labels, graph_laplacian, icar_log_tau_coefficient, icar_quadratic_form
from .streams import CounterStream

__all__ = [
    "ChainConfig",
    "ChainAbort",
    "ChainOutput",
    "ChainDiagnostics",
    "run_chain",
    "greedy_coloring",
    "ess_ips",
    "geweke_z",
    "split_rhat",
    "diagnose",
    "posterior_summary",
]

TARGET_SCALAR = 0.44
TARGET_JOINT = 0.234
RIDGE = 1e-6


class ChainAbort(RuntimeError):
    """The chain cannot go on: its state became non-finite, or a proposal
    could not be built."""

    def __init__(self, iteration: int, detail: str):
        self.iteration = iteration
        super().__init__(f"chain aborted at iteration {iteration}: {detail}")


# Sweeps per draw of each block's stream (see the module docstring): part
# of what fixes every chain's draws, not a tuning knob.
RNG_CHUNK = 64

# The stationarity screen of ``diagnose``: a column fails beyond either
# bound.  Geweke's test compares the first and last of these fractions.
DIAGNOSE_Z = 4.0
DIAGNOSE_RHAT = 1.1
GEWEKE_FIRST = 0.1
GEWEKE_LAST = 0.5


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 100_000
    burn_in: int = 10_000
    thin: int = 10
    seed: int = 0
    adaptation_window: int = 50
    record_pointwise: bool = True

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.adaptation_window < 1:
            raise ValueError("adaptation_window must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_kept(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainOutput:
    """Kept draws (rows) over named columns, plus sampler bookkeeping."""

    columns: list
    draws: np.ndarray
    pointwise_loglik: np.ndarray | None
    acceptance: dict
    final_scales: dict
    config: ChainConfig
    runtime_s: float

    @property
    def n_kept(self) -> int:
        return self.draws.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.draws[:, self.columns.index(name)]


def greedy_coloring(graph) -> list:
    """Color classes (lists of node indices) by first-fit greedy order."""
    colors = np.full(graph.n_nodes, -1, dtype=int)
    neigh = graph.neighbor_lists()
    for node in range(graph.n_nodes):
        used = {colors[m] for m in neigh[node] if colors[m] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[node] = c
    classes = []
    for c in range(colors.max() + 1):
        classes.append(np.flatnonzero(colors == c))
    return classes


class _Adapt:
    """Windowed Robbins-Monro scale adaptation for one block."""

    def __init__(self, scale: float, target: float, window: int):
        self.log_scale = math.log(scale)
        self.scale = math.exp(self.log_scale)
        self.target = target
        self.window = window
        self.window_index = 0
        self.acc = 0.0
        self.tries = 0
        self.total_acc = 0.0
        self.total_tries = 0
        self.frozen = False

    def record(self, rate: float) -> None:
        self.acc += rate
        self.tries += 1
        self.total_acc += rate
        self.total_tries += 1
        if not self.frozen and self.tries >= self.window:
            self.window_index += 1
            gain = 1.0 / math.sqrt(self.window_index)
            self.log_scale += gain * (self.acc / self.tries - self.target)
            self.scale = math.exp(self.log_scale)
            self.acc = 0.0
            self.tries = 0

    def rate(self) -> float:
        return self.total_acc / self.total_tries if self.total_tries else float("nan")


class _VectorAdapt:
    """Per-site windowed adaptation sharing one window counter.

    ``total_acc`` holds the acceptances of the closed windows only; the
    open window's are added when a window closes and when ``rate()``
    reads them.  Every count is a whole number far below 2**53, so the
    sums are exact in any order.
    """

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
        self.total_tries += 1
        if not self.frozen and self.tries >= self.window:
            self.window_index += 1
            gain = 1.0 / math.sqrt(self.window_index)
            self.log_scales += gain * (self.acc / self.tries - self.target)
            self.scales = np.exp(self.log_scales)
            self.total_acc += self.acc
            self.acc[:] = 0.0
            self.tries = 0

    def rate(self) -> float:
        if not self.total_tries:
            return float("nan")
        return float(np.mean((self.total_acc + self.acc) / self.total_tries))


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
        self.m2 += np.multiply.outer(delta, x - self.mean)

    def cov(self) -> np.ndarray | None:
        if self.count < 2:
            return None
        return self.m2 / (self.count - 1)


def _loglik_vec(spec, eta, hyper, data):
    try:
        return mdl.pointwise_loglik_from_eta(spec, eta, hyper, data)
    except mdl.LikelihoodOverflowError:
        return None


def _site_loglik(spec, eta, hyper, data):
    """Pointwise log likelihood with -inf at the sites whose predictor
    overflows, so a site proposal there is rejected on its own."""
    try:
        return mdl.pointwise_loglik_from_eta(spec, eta, hyper, data)
    except mdl.LikelihoodOverflowError:
        ok = np.abs(eta) <= mdl.ETA_OVERFLOW
        ll = mdl.pointwise_loglik_from_eta(spec, np.where(ok, eta, 0.0), hyper, data)
        return np.where(ok, ll, -np.inf)


def _zinb_loglik(spec, eta, bound, data):
    """((exp(eta), NB term), pointwise log likelihood) of a ZINB model, or
    (None, None) where the predictor overflows."""
    try:
        held = mdl.zinb_nb_term(spec, eta, bound, data)
    except mdl.LikelihoodOverflowError:
        return None, None
    return held, mdl.zinb_mixture(spec, held[1], bound, data)


def _draw_chunk(stream: CounterStream, sweep: int, k: int, m: int, m_u: int):
    """The (k, m) normals and then the (k, m_u) uniforms of the chunk of k
    sweeps that starts at ``sweep``, from one rewind of ``stream``."""
    g = stream.at(sweep)
    return g.standard_normal((k, m)), g.random((k, m_u))


def _recentre(spec, hyper, data, mu, eta, ll, comp_masks, sweep):
    """Subtract each connected component's mean from the intrinsic field
    and the predictor; returns the new (mu, eta, ll)."""
    shift = np.zeros(mu.size)
    for comp in comp_masks:
        shift[comp] = np.add.reduce(mu[comp]) / comp.size
    if not np.any(shift != 0.0):
        return mu, eta, ll
    eta = eta - shift
    ll = _loglik_vec(spec, eta, hyper, data)
    if ll is None:
        raise ChainAbort(sweep, "constraint projection produced an invalid state")
    return mu - shift, eta, ll


def run_chain(spec: mdl.ModelSpec, data: mdl.Dataset, config: ChainConfig) -> ChainOutput:
    """Run one adaptive Metropolis-within-Gibbs chain."""
    t_start = time.perf_counter()
    n = data.n
    slices = mdl.latent_slices(spec, n)
    dim_x = mdl.latent_dim(spec, n)
    names = mdl.latent_names(spec, n) + mdl.hyper_names(spec)
    hyper_list = mdl.hyper_names(spec)
    hyper_priors = mdl.hyper_priors(spec)
    n_hyper = len(hyper_list)
    design = mdl.design_matrix(spec, data)
    p_beta = design.shape[1]
    has_iid = "iid" in slices
    has_icar = "icar" in slices
    log_off = np.log(data.offset) if spec.offset is not None else np.zeros(n)

    constraint = spec.icar_term.constraint if has_icar else Constraint.NONE
    if has_icar:
        graph = data.graph
        classes = greedy_coloring(graph)
        degrees = graph.degrees().astype(float)
        labels = component_labels(graph)
        n_comp = int(labels.max()) + 1
        icar_coef = icar_log_tau_coefficient(graph, spec.icar_term.half_exponent)
        comp_masks = [np.flatnonzero(labels == c) for c in range(n_comp)]
        # Dense adjacency rows let each color class compute its neighbor
        # sums in a single matrix-vector product.
        adj = np.diag(degrees) - graph_laplacian(graph)
        class_adj = [adj[cls] for cls in classes]

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
    # The likelihood constants of the current hyperparameters (models.bind).
    bound = mdl.bind(spec, hyper, data)
    # A ZINB chain holds exp(eta) and the NB term of its current state, set
    # where a fixed-effect or log-dispersion move is accepted, so the
    # logit p_zero move only mixes and the log-dispersion move reuses
    # exp(eta).  A site move drops them; the hyper block rebuilds them.
    zinb = spec.family is mdl.Family.ZERO_INFLATED_NEG_BINOMIAL
    held, ll = _zinb_loglik(spec, eta, bound, data) if zinb else (None, _loglik_vec(spec, eta, bound, data))
    if ll is None:
        raise ChainAbort(0, "initial state has non-finite likelihood")
    sum_eps2 = 0.0
    icar_quad = 0.0

    def precision_source(kind):
        """(fixed precision, None), or (None, index of its log in hyper)."""
        prior = spec.priors.log_precision_priors[kind]
        if isinstance(prior, mdl.FixedPrior):
            return math.exp(prior.log_value), None
        return None, hyper_list.index(f"log_precision_{kind}")

    beta_prior_prec = np.full(p_beta, mdl.fixed_effect_precision(spec))

    # --- informed initial proposal scales -------------------------------
    w0 = np.maximum(mdl.eta_derivatives(spec, eta, bound, data)[1], 1e-3)
    adapt = {}
    has_shift = bool(p_beta) and has_iid
    has_swap = has_iid and has_icar and constraint is Constraint.NONE
    if p_beta:
        target_b = TARGET_JOINT if p_beta > 1 else TARGET_SCALAR
        adapt["beta"] = _Adapt(2.4 / math.sqrt(p_beta), target_b, config.adaptation_window)
        try:
            cov0 = np.linalg.inv(design.T @ (w0[:, None] * design) + np.diag(beta_prior_prec))
        except np.linalg.LinAlgError as exc:
            raise ChainAbort(0, "fixed-effect curvature is singular") from exc
        proposal = Factor.of(cov0 + RIDGE * np.eye(p_beta))
        if proposal is None:
            raise ChainAbort(0, "fixed-effect proposal covariance is not positive definite")
        welford = _Welford(p_beta)
    if has_shift:
        adapt["shift"] = _Adapt(
            2.4 / math.sqrt(p_beta), TARGET_JOINT if p_beta > 1 else TARGET_SCALAR, config.adaptation_window
        )
        design_gram = design.T @ design
        prior_diag = np.diag(beta_prior_prec)
    if has_iid:
        adapt["iid"] = _VectorAdapt(2.4 / np.sqrt(1.0 + w0), TARGET_SCALAR, config.adaptation_window)
        iid_fixed, iid_at = precision_source("iid")
    if has_icar:
        icar_fixed, icar_at = precision_source("icar")
        tau0 = icar_fixed if icar_at is None else math.exp(hyper[icar_at])
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

    # Each hyperparameter's prior log density at its current value.
    prior_cur = [prior.logpdf(h) for prior, h in zip(hyper_priors, hyper)]
    # Cholesky factor of the shift metric and the iid precision it was
    # built for; refactored only when that precision changes.
    metric = None
    metric_sigma = None
    beta2 = beta**2
    chunk = RNG_CHUNK

    # The site blocks take np.log of uniform draws, which can be 0: -inf, no warning.
    with np.errstate(divide="ignore"):
        for sweep in range(1, config.iterations + 1):
            in_burn = sweep <= config.burn_in
            if sweep == config.burn_in + 1:
                # Every kept sweep runs a frozen kernel, from the first
                # sweep when there is no burn-in.
                for a in adapt.values():
                    a.frozen = True
            # This sweep's row in each block's chunk of draws; row 0 starts
            # a chunk, whose draws each block makes before reading them.
            r = (sweep - 1) % chunk
            # Precisions change only in the hyperparameter block at the end
            # of the sweep, so every block before it reads the same values.
            if has_iid:
                sigma = iid_fixed if iid_at is None else math.exp(hyper[iid_at])
            if has_icar:
                tau = icar_fixed if icar_at is None else math.exp(hyper[icar_at])

            # ----- fixed effects -------------------------------------------
            if p_beta:
                if r == 0:
                    zb, ub = _draw_chunk(sb, sweep, chunk, p_beta, 1)
                    ub = ub.ravel().tolist()
                u_acc = ub[r]
                step = adapt["beta"].scale * (proposal.lower @ zb[r])
                beta_new = beta + step
                eta_new = eta + design @ step
                if zinb:
                    held_new, ll_new = _zinb_loglik(spec, eta_new, bound, data)
                else:
                    held_new, ll_new = None, _loglik_vec(spec, eta_new, bound, data)
                if ll_new is None:
                    accept = False
                else:
                    beta2_new = beta_new**2
                    d_prior = -0.5 * float(beta_prior_prec @ (beta2_new - beta2))
                    d = float(np.add.reduce(ll_new - ll)) + d_prior
                    accept = math.log(u_acc) < d if u_acc > 0.0 else True
                if accept:
                    beta, beta2, eta, ll, held = beta_new, beta2_new, eta_new, ll_new, held_new
                adapt["beta"].record(1.0 if accept else 0.0)
                if in_burn:
                    welford.update(beta)
                    if sweep % config.adaptation_window == 0:
                        cov = welford.cov()
                        factor = None if cov is None else Factor.of(cov + RIDGE * np.eye(p_beta))
                        if factor is not None:  # a failed refactor keeps the old factor
                            proposal = factor

            # ----- predictor-preserving shift beta <-> sites ---------------
            if has_shift:
                if r == 0:
                    zs, us = _draw_chunk(ss, sweep, chunk, p_beta, 1)
                    us = us.ravel().tolist()
                u_acc = us[r]
                # The log ratio is quadratic in delta with curvature
                # sigma X'X + prior, so propose with its inverse as metric.
                if sigma != metric_sigma:
                    metric = Factor.of(sigma * design_gram + prior_diag)
                    if metric is None:
                        raise ChainAbort(sweep, "shift metric is not positive definite")
                    metric_sigma = sigma
                delta = adapt["shift"].scale * metric.sample(zs[r])
                beta_new = beta + delta
                beta2_new = beta_new**2
                eps_new = eps - design @ delta
                eps2_new = float(eps_new @ eps_new)
                # sum_eps2 is eps @ eps: every block that moves eps resets it.
                d = -0.5 * float(beta_prior_prec @ (beta2_new - beta2))
                d += -0.5 * sigma * (eps2_new - sum_eps2)
                accept = math.log(u_acc) < d if u_acc > 0.0 else True
                if accept:
                    beta, beta2, eps, sum_eps2 = beta_new, beta2_new, eps_new, eps2_new
                adapt["shift"].record(1.0 if accept else 0.0)

            # ----- exchangeable sites --------------------------------------
            if has_iid:
                if r == 0:
                    zi, ui = _draw_chunk(si, sweep, chunk, n, n)
                    log_ui = np.log(ui)
                delta = adapt["iid"].scales * zi[r]
                eta_new = eta + delta
                ll_new = _site_loglik(spec, eta_new, bound, data)
                eps_new = eps + delta
                d_site = (ll_new - ll) - 0.5 * sigma * (eps_new**2 - eps**2)
                accept = log_ui[r] < d_site
                # With nothing accepted these keep every value.
                np.copyto(eps, eps_new, where=accept)
                np.copyto(eta, eta_new, where=accept)
                np.copyto(ll, ll_new, where=accept)
                adapt["iid"].record(accept)
                sum_eps2 = float(eps @ eps)
                held = None

            # ----- intrinsic CAR sites -------------------------------------
            if has_icar:
                if r == 0:
                    zc, uc = _draw_chunk(sc, sweep, chunk, n, n)
                    log_uc = np.log(uc)
                log_u = log_uc[r]
                # Each site's step, for every class at once: the products
                # are elementwise, so the bits match a per-class one.
                # Classes share no sites, and a class moves mu, eta and ll
                # only at its own sites, so one pass over every site's
                # proposal (one likelihood call: the kernels are
                # elementwise) serves all classes.
                step = adapt["icar"].scales * zc[r]
                two_step = 2.0 * step
                mu_new = mu + step
                d_deg = degrees * (mu_new**2 - mu**2)
                eta_new = eta + step
                ll_new = _site_loglik(spec, eta_new, bound, data)
                d_ll = ll_new - ll
                accepted = np.zeros(n, dtype=bool)
                for cls, a_rows in zip(classes, class_adj):
                    s_neigh = a_rows @ mu
                    d_quad = d_deg[cls] - two_step[cls] * s_neigh
                    d_site = d_ll[cls] - 0.5 * tau * d_quad
                    accept = log_u[cls] < d_site
                    # With nothing accepted these change nothing and add 0.0.
                    idx = cls[accept]
                    mu[idx] = mu_new[idx]
                    icar_quad += float(np.add.reduce(d_quad[accept]))
                    accepted[idx] = True
                np.copyto(eta, eta_new, where=accepted)
                np.copyto(ll, ll_new, where=accepted)
                if constraint is Constraint.SUM_TO_ZERO_KRIGING:
                    mu, eta, ll = _recentre(spec, bound, data, mu, eta, ll, comp_masks, sweep)
                adapt["icar"].record(accepted)
                held = None

            # ----- predictor-preserving level swap mu <-> eps --------------
            if has_swap:
                if r == 0:
                    zw, uw = _draw_chunk(sw, sweep, chunk, n_comp, n_comp)
                    zw, uw = zw.tolist(), uw.tolist()
                z, u_acc = zw[r], uw[r]
                scales = adapt["swap"].scales.tolist()
                acc_swap = np.zeros(n_comp)
                for c, comp in enumerate(comp_masks):
                    base_sd = 1.0 / math.sqrt(sigma * comp.size)
                    gamma = scales[c] * base_sd * z[c]
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
                if r == 0:
                    zh, uh = _draw_chunk(sh, sweep, chunk, n_hyper, n_hyper)
                    zh, uh = zh.tolist(), uh.tolist()
                z, u_acc = zh[r], uh[r]
                for idx, (name, cur) in enumerate(zip(hyper_list, hyper.tolist())):
                    new = cur + adapt[name].scale * z[idx]
                    prior_new = hyper_priors[idx].logpdf(new)
                    d = prior_new - prior_cur[idx]
                    ll_new = None
                    if name == "log_precision_iid":
                        d += 0.5 * n * (new - cur) - 0.5 * (math.exp(new) - math.exp(cur)) * sum_eps2
                    elif name == "log_precision_icar":
                        d += icar_coef * (new - cur) - 0.5 * (math.exp(new) - math.exp(cur)) * icar_quad
                    else:  # logit_p_zero or log_dispersion, of a ZINB model
                        hyper_try = hyper.copy()
                        hyper_try[idx] = new
                        # Only the moved hyperparameter's part is rebuilt.
                        try:
                            bound_try = mdl.bind(spec, hyper_try, data, like=bound)
                        except mdl.LikelihoodOverflowError:
                            pass
                        else:
                            if held is None:
                                held = mdl.zinb_nb_term(spec, eta, bound, data)
                            # p_zero does not enter the NB term; the dispersion
                            # does, but not exp(eta).
                            if name == "logit_p_zero":
                                held_try = held
                            else:
                                held_try = mdl.zinb_nb_term(spec, eta, bound_try, data, held[0])
                            ll_new = mdl.zinb_mixture(spec, held_try[1], bound_try, data)
                        if ll_new is None:
                            d = -math.inf
                        else:
                            d += float(np.add.reduce(ll_new - ll))
                    accept = math.isfinite(d) and math.log(u_acc[idx]) < d
                    if accept:
                        hyper[idx] = new
                        prior_cur[idx] = prior_new
                        if ll_new is not None:
                            ll, bound, held = ll_new, bound_try, held_try
                    adapt[name].record(1.0 if accept else 0.0)

            if has_icar and sweep % 1000 == 0:
                # Refresh the incrementally tracked quadratic form to keep
                # accumulated rounding out of the hyper updates.
                icar_quad = icar_quadratic_form(mu, graph)

            total = float(np.add.reduce(ll))
            if not math.isfinite(total):
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
# Diagnostics


# Each statistic runs over the rows of a (k, n) array of k series at
# once, reducing along the last axis: for a C-contiguous array each row
# gets the bits of the same statistic of that series alone, which is
# what the one-series functions compute (as a stack of one).  ``diagnose``
# takes a chain's columns in chunks of about this many bytes of draws,
# so its working arrays stay within a small multiple of it: a
# paper-scale chain (19,000 kept draws, ~600 columns) would otherwise
# hold about 1 GB of spectra.  Rows are independent, so chunking
# changes no bit.
DIAGNOSE_CHUNK_BYTES = 2**20


def _ess_rows(x: np.ndarray) -> np.ndarray:
    """``ess_ips`` of each row."""
    k, n = x.shape
    if n < 4:
        return np.full(k, float(n))
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(x - x.mean(axis=-1, keepdims=True), size)
    # The power spectrum row by row: numpy's vectorised complex product
    # rounds an element by where it falls in the pass, so one product over
    # the whole block would not give each row the one-series bits.
    power = np.array([row * np.conjugate(row) for row in f])
    acov = np.fft.irfft(power, size)[:, :n] / n
    g0 = acov[:, 0]
    # Initial positive sequence: the sum of the autocovariance pairs
    # (2m, 2m + 1), 2m + 1 < n, in order, up to the first non-positive one.
    pairs = acov[:, 0 : n - 1 : 2] + acov[:, 1:n:2]
    sums = np.cumsum(pairs, axis=-1)
    stop = pairs <= 0.0
    m = np.where(stop.any(axis=-1), stop.argmax(axis=-1), pairs.shape[1])
    s = np.where(m > 0, sums[np.arange(k), m - 1], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        var_mean = (2.0 * s - g0) / n
        ratio = g0 / var_mean
    return np.where((g0 <= 0.0) | (var_mean <= 0.0) | ~(ratio < n), float(n), ratio)


def _geweke_rows(x: np.ndarray) -> np.ndarray:
    """``geweke_z`` of each row."""
    n = x.shape[1]
    a = x[:, : max(2, int(GEWEKE_FIRST * n))]
    b = x[:, n - max(2, int(GEWEKE_LAST * n)) :]
    va = a.var(axis=-1, ddof=1)
    vb = b.var(axis=-1, ddof=1)
    ma = a.mean(axis=-1)
    mb = b.mean(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.sqrt(va / _ess_rows(a) + vb / _ess_rows(b))
        z = (ma - mb) / denom
    z = np.where(denom == 0.0, np.where(ma != mb, math.inf, 0.0), z)
    return np.where((va == 0.0) & (vb == 0.0), 0.0, z)


def _split_rhat_rows(x: np.ndarray) -> np.ndarray:
    """``split_rhat`` of each row; NaN for rows of fewer than four values,
    whose halves are too short to have a variance."""
    k, n = x.shape
    length = n // 2
    if length < 2:
        return np.full(k, math.nan)
    halves = x[:, : 2 * length].reshape(k, 2, length)
    means = halves.mean(axis=-1)
    w = halves.var(axis=-1, ddof=1).mean(axis=-1)
    b = length * means.var(axis=-1, ddof=1)
    v = (length - 1.0) / length * w + b / length
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(v / w)
    return np.where(w == 0.0, np.where(b == 0.0, 1.0, math.inf), rhat)


def _one(rows, x: np.ndarray) -> float:
    """``rows`` of the single series ``x``."""
    return float(rows(np.asarray(x, dtype=float)[None])[0])


def ess_ips(x: np.ndarray) -> float:
    """Effective sample size via the initial-positive-sequence rule."""
    return _one(_ess_rows, x)


def geweke_z(x: np.ndarray) -> float:
    """Z score comparing the means of the early and late chain segments
    (the first ``GEWEKE_FIRST`` and the last ``GEWEKE_LAST`` of it)."""
    return _one(_geweke_rows, x)


def split_rhat(x: np.ndarray) -> float:
    """Potential scale reduction of the two halves of one chain; NaN for a
    chain of fewer than four draws."""
    return _one(_split_rhat_rows, x)


@dataclass
class ChainDiagnostics:
    verdict: str  # "Pass" | "Warn" | "Fail"
    reasons: list
    per_column: dict


def diagnose(output: ChainOutput) -> ChainDiagnostics:
    """Stationarity screen over every recorded column.

    Fail when any column shows a Geweke z beyond ``DIAGNOSE_Z`` or a
    split-chain scale reduction beyond ``DIAGNOSE_RHAT``; a column
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
    # "All draws identical" must be detected exactly; a variance test
    # can miss it when the repeated value has a non-exact mean.
    degenerate = np.ptp(output.draws, axis=0) == 0.0
    k = len(output.columns)
    ess = np.full(k, float(n))
    z, rhat = np.zeros(k), np.ones(k)
    # The other columns in chunks, one contiguous series per row, each
    # statistic over a chunk at once.
    live = np.flatnonzero(~degenerate)
    step = max(1, DIAGNOSE_CHUNK_BYTES // (8 * n))
    for cols in (live[r : r + step] for r in range(0, live.size, step)):
        x = np.ascontiguousarray(output.draws[:, cols].T, dtype=float)
        ess[cols] = _ess_rows(x)
        z[cols] = _geweke_rows(x)
        rhat[cols] = _split_rhat_rows(x)
    for j, name in enumerate(output.columns):
        per_column[name] = {
            "ess": float(ess[j]),
            "geweke_z": float(z[j]),
            "split_rhat": float(rhat[j]),
            "degenerate": bool(degenerate[j]),
        }
        if degenerate[j]:
            warn = True
            reasons.append(f"{name}: zero variance across kept draws")
            continue
        if abs(z[j]) > DIAGNOSE_Z:
            worst_fail = True
            reasons.append(f"{name}: |geweke z| = {abs(float(z[j])):.2f} > {DIAGNOSE_Z}")
        if rhat[j] > DIAGNOSE_RHAT:
            worst_fail = True
            reasons.append(f"{name}: split Rhat = {float(rhat[j]):.3f} > {DIAGNOSE_RHAT}")
    verdict = "Fail" if worst_fail else ("Warn" if warn else "Pass")
    return ChainDiagnostics(verdict=verdict, reasons=reasons, per_column=per_column)


def posterior_summary(output: ChainOutput) -> dict:
    """Per-column mean, sd, quantiles, effective size, and MC error.

    Hyperparameter columns named on the internal scale gain companion
    entries on the natural scale, plus a standard-deviation column for
    each free precision.
    """
    out = {}

    def summarize(name, x):
        sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
        ess = ess_ips(x) if sd > 0 else float(x.size)
        q = np.quantile(x, [0.025, 0.5, 0.975])
        out[name] = {
            "mean": float(np.mean(x)),
            "sd": sd,
            "q025": float(q[0]),
            "median": float(q[1]),
            "q975": float(q[2]),
            "ess": ess,
            "mcse": sd / math.sqrt(ess) if ess > 0 else 0.0,
        }

    for j, name in enumerate(output.columns):
        summarize(name, output.draws[:, j])
        if name in mdl._NATURAL_NAME:
            natural = mdl.to_natural_hyper(name, output.draws[:, j])
            summarize(mdl._NATURAL_NAME[name], natural)
            if name.startswith("log_precision_"):
                kind = name.replace("log_precision_", "")
                summarize(f"sd_{kind}", np.exp(-0.5 * output.draws[:, j]))
    return out
