"""Reference copies of the Laplace engine's two Newton loops, kept as a test oracle.

``_newton`` and ``_fl_conditional_logdens`` below are the versions that
ran a damped Newton loop each: the theta-point solver with its gradient,
decrement and final-gradient stop rule, and the full-Laplace profile
scan with its own stop rule ``gnorm <= 1e-9 * max(1, |f|)`` and no
decrement test.  The engine in ``lgmbench.laplace`` now runs one routine
for both.  Gaussian and simplified-Laplace fits must match the theta
exploration of these copies bit for bit, and their latent marginals to
rounding; full-Laplace profiles must agree to 1e-8 relative where the
old scan converged, unless the new scan flags the point or the old value
is the one off.  The helpers they share with the engine are imported,
not copied, except ``_try_cholesky``: the engine now calls numpy's
Cholesky kernel directly, so the oracle keeps its own copy of the
wrapper-based version.

``_sequential_ascend`` and ``_sequential_fl_conditional_logdens`` (with
``_sequential_curvature``) are the engine's one-problem Newton routine
and the profile scan that ran one scan at a time on it.  The engine now
runs every scan of a fit in lockstep; each profile value and
unconverged count must match these copies bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import interpolate

from lgmbench import laplace
from lgmbench import models as mdl
from lgmbench.gmrf import Factor
from lgmbench.laplace import (
    MAX_STEP_HALVINGS,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    FitFailure,
    Strategy,
    ThetaGrid,
    _Context,
    _normal_pdf,
    _skew_normal_pdf,
    _skew_normal_std_params,
)
from lgmbench.posterior import PosteriorMarginal


def _try_cholesky(h: np.ndarray):
    try:
        return np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None


class _Approx:
    """Internal Gaussian approximation in reduced coordinates."""

    def __init__(self, mode_u, hess, chol, log_det_half, iters, converged, clipped):
        self.mode_u = mode_u
        self.hess = hess
        self.chol = chol
        self.log_det_half = log_det_half
        self.iters = iters
        self.converged = converged
        self.clipped = clipped
        self._cov = None

    @property
    def cov(self) -> np.ndarray:
        if self._cov is None:
            eye = np.eye(self.hess.shape[0])
            half = np.linalg.solve(self.chol, eye)
            self._cov = half.T @ half
        return self._cov


def _newton(ctx: _Context, theta: np.ndarray, u0: np.ndarray | None = None) -> _Approx:
    """Newton ascent of the conditional log posterior of the latent field."""
    spec, data = ctx.spec, ctx.data
    p_mat = ctx.prior_precision_u(theta)
    u = np.zeros(ctx.dim_u) if u0 is None else u0.copy()

    def objective(eta_vec, u_vec):
        ll = float(np.add.reduce(mdl.pointwise_loglik_from_eta(spec, eta_vec, theta, data)))
        return ll - 0.5 * float(u_vec @ (p_mat @ u_vec))

    eta = ctx.eta(u)
    mdl._check_eta(eta)
    f_cur = objective(eta, u)
    clipped_any = False
    converged = False
    iters = 0
    ref_grad = None
    chol = None
    hess = None
    for iters in range(1, laplace.NEWTON_MAX_ITER + 1):
        g1, w = mdl.eta_derivatives(spec, eta, theta, data)
        grad = ctx.j.T @ g1 - p_mat @ u
        gnorm = float(np.linalg.norm(grad))
        if ref_grad is None:
            ref_grad = max(1.0, gnorm)
        hess = ctx.j.T @ (w[:, None] * ctx.j) + p_mat
        chol = _try_cholesky(hess)
        if chol is None:
            w_clip = np.maximum(w, 0.0)
            hess = ctx.j.T @ (w_clip[:, None] * ctx.j) + p_mat
            chol = _try_cholesky(hess)
            clipped_any = True
            if chol is None:
                raise FitFailure("hessian_not_pd", "negative curvature at Newton iterate")
        if gnorm <= laplace.NEWTON_TOL * ref_grad:
            converged = True
            iters -= 1  # converged before taking this step
            break
        step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
        # Newton decrement: grad @ step bounds the attainable objective gain.
        # On large-count data the gradient has a floating-point noise floor
        # that can exceed any relative gradient tolerance (especially under
        # warm starts, where ref_grad is small), while the step already
        # locates the mode to machine precision.  Stop once the remaining
        # gain is below rounding error of the objective itself.
        decrement = float(grad @ step)
        if decrement <= laplace.NEWTON_TOL**2 * max(1.0, abs(f_cur)):
            converged = True
            iters -= 1
            break
        j_step = ctx.j @ step
        t = 1.0
        accepted = False
        for _ in range(laplace.MAX_STEP_HALVINGS + 1):
            u_new = u + t * step
            eta_new = eta + t * j_step
            try:
                f_new = objective(eta_new, u_new)
            except mdl.LikelihoodOverflowError:
                f_new = -np.inf
            if np.isfinite(f_new) and f_new >= f_cur - 1e-12 * max(1.0, abs(f_cur)):
                u, eta, f_cur = u_new, eta_new, f_new
                accepted = True
                break
            t *= 0.5
        if not accepted:
            # No ascent possible at the smallest step: treat as converged
            # only if the gradient is already tiny, else fail.
            if gnorm <= 1e-6 * ref_grad:
                converged = True
                break
            raise FitFailure("newton_line_search", f"no ascent step at iteration {iters}")
    else:
        iters = laplace.NEWTON_MAX_ITER
    if not converged:
        g1, w = mdl.eta_derivatives(spec, eta, theta, data)
        grad = ctx.j.T @ g1 - p_mat @ u
        if float(np.linalg.norm(grad)) <= laplace.NEWTON_TOL * ref_grad:
            converged = True
            hess = ctx.j.T @ (w[:, None] * ctx.j) + p_mat
            chol = _try_cholesky(hess)
            if chol is None:
                hess = ctx.j.T @ (np.maximum(w, 0.0)[:, None] * ctx.j) + p_mat
                chol = _try_cholesky(hess)
                clipped_any = True
    if not converged or chol is None:
        raise FitFailure(
            "newton_nonconvergence",
            f"no convergence in {laplace.NEWTON_MAX_ITER} iterations",
        )
    log_det_half = float(np.add.reduce(np.log(np.diag(chol))))
    return _Approx(u, hess, chol, log_det_half, iters, converged, clipped_any)


def _fl_conditional_logdens(ctx: _Context, theta, approx: _Approx, index: int, v_grid: np.ndarray):
    """Full-Laplace log density of component ``index`` on ``v_grid``.

    For each fixed value ``v`` the remaining components are
    re-maximized by a small Newton loop warm-started from the previous
    grid point, and the profile value is corrected by minus half the
    log determinant of the remaining-block curvature.  With a single
    latent component the correction is zero and the profile equals the
    exact unnormalized log posterior of that component.

    Also returns the number of grid points whose Newton loop stopped
    short of convergence: it ran out of iterations, or its line search
    could not move while the gradient norm was above ``1e-6`` of the
    point's first one (the rule ``_newton`` uses).  Their values are
    kept.
    """
    spec, data = ctx.spec, ctx.data
    d = ctx.dim_u
    p_mat = ctx.prior_precision_u(theta)
    keep = np.array([k for k in range(d) if k != index], dtype=int)
    mode = approx.mode_u
    cov_col = approx.cov[:, index]
    var_i = cov_col[index]
    out = np.full(v_grid.size, -np.inf)
    j_keep = ctx.j[:, keep]
    p_keep = p_mat[np.ix_(keep, keep)]
    u_rest = None
    unconverged = 0
    for g_idx, v in enumerate(v_grid):
        if u_rest is None:
            # Warm start at the Gaussian conditional mean.
            u_cond = mode + (cov_col / var_i) * (v - mode[index])
            u_rest = u_cond[keep]
        u_full = np.empty(d)
        u_full[index] = v
        u_full[keep] = u_rest
        try:
            eta = ctx.eta(u_full)
            f_cur = float(
                np.add.reduce(mdl.pointwise_loglik_from_eta(spec, eta, theta, data))
            ) - 0.5 * float(u_full @ (p_mat @ u_full))
        except mdl.LikelihoodOverflowError:
            continue
        chol = np.zeros((0, 0))
        failed = False
        stalled = False
        ref_grad = None
        for _ in range(laplace.NEWTON_MAX_ITER):
            g1, w = mdl.eta_derivatives(spec, eta, theta, data)
            if keep.size == 0:
                break
            grad = j_keep.T @ g1 - (p_mat @ u_full)[keep]
            gnorm = float(np.linalg.norm(grad))
            if ref_grad is None:
                ref_grad = max(1.0, gnorm)
            hess = j_keep.T @ (w[:, None] * j_keep) + p_keep
            chol = _try_cholesky(hess)
            if chol is None:
                hess = j_keep.T @ (np.maximum(w, 0.0)[:, None] * j_keep) + p_keep
                chol = _try_cholesky(hess)
                if chol is None:
                    failed = True
                    break
            if gnorm <= 1e-9 * max(1.0, abs(f_cur)):
                break
            step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
            j_step = j_keep @ step
            t = 1.0
            moved = False
            for _ in range(laplace.MAX_STEP_HALVINGS + 1):
                u_try = u_full.copy()
                u_try[keep] = u_full[keep] + t * step
                eta_try = eta + t * j_step
                try:
                    f_try = float(
                        np.add.reduce(mdl.pointwise_loglik_from_eta(spec, eta_try, theta, data))
                    ) - 0.5 * float(u_try @ (p_mat @ u_try))
                except mdl.LikelihoodOverflowError:
                    f_try = -np.inf
                if np.isfinite(f_try) and f_try >= f_cur - 1e-12 * max(1.0, abs(f_cur)):
                    u_full, eta, f_cur = u_try, eta_try, f_try
                    moved = True
                    break
                t *= 0.5
            if not moved:
                stalled = gnorm > 1e-6 * ref_grad
                break
        else:
            stalled = True
        if failed:
            continue
        unconverged += stalled
        logdet_half = float(np.add.reduce(np.log(np.diag(chol)))) if keep.size else 0.0
        out[g_idx] = f_cur - logdet_half
        u_rest = u_full[keep]
    return out, unconverged


# ---------------------------------------------------------------------------
# The one-scan-at-a-time profile scan and its Newton routine


def _sequential_curvature(ctx: _Context, theta: np.ndarray, eta: np.ndarray, j: np.ndarray, p_free: np.ndarray):
    """Curvature of the conditional log posterior at the predictor ``eta``.

    Returns ``(g1, hess, factor, clipped)``: the likelihood gradient in eta,
    ``hess = j' W j + p_free`` and its ``Factor``, and whether W had
    to be clipped to non-negative weights for the factorization to
    succeed.  The same inputs give the same bits, so the curvature of a
    Newton solve's last iterate is rebuilt exactly from its final eta.

    Raises FitFailure (hessian_not_pd) when even the clipped curvature
    is not positive definite.
    """
    g1, w = mdl.eta_derivatives(ctx.spec, eta, theta, ctx.data)
    hess = j.T @ (w[:, None] * j) + p_free
    factor = Factor.of(hess)
    clipped = factor is None
    if clipped:
        hess = j.T @ (np.maximum(w, 0.0)[:, None] * j) + p_free
        factor = Factor.of(hess)
        if factor is None:
            raise FitFailure("hessian_not_pd", "negative curvature at Newton iterate")
    return g1, hess, factor, clipped


def _sequential_ascend(ctx: _Context, theta: np.ndarray, p_mat: np.ndarray, u: np.ndarray, free=None):
    """Damped Newton ascent of the conditional log posterior of the latent field.

    Maximizes log p(y | u, theta) - u' p_mat u / 2 over the coordinates
    ``free`` (an index array; None means all of them), holding the
    others at their values in ``u``.  Returns ``(u, eta, f, factor, iters,
    outcome, clipped)``: the point, its linear predictor (updated step
    by step, so not bit-equal to ``ctx.eta(u)``), its objective, the
    ``Factor`` of the free-block curvature there, the Newton steps
    taken, ``"converged"``, ``"stalled"`` or ``"max_iter"``, and whether
    the curvature was ever clipped to non-negative likelihood weights.

    The stop rule: the gradient norm falls to ``NEWTON_TOL`` times the
    first one, or the Newton decrement to ``NEWTON_TOL**2 * max(1, |f|)``.
    On large-count data the gradient has a floating-point noise floor
    that can exceed any relative gradient tolerance (especially under
    warm starts, where the first gradient is small), while the step
    already locates the mode to machine precision; the decrement bounds
    the attainable objective gain and stops once it is below the
    objective's own rounding.  A line search that cannot ascend counts as
    converged only at a gradient within 1e-6 of the first one.  After
    ``NEWTON_MAX_ITER`` steps the gradient test is applied once more.

    Raises FitFailure (hessian_not_pd) when even the clipped curvature
    is not positive definite.
    """
    spec, data = ctx.spec, ctx.data
    sel = slice(None) if free is None else free
    j = ctx.j[:, sel]
    p_free = p_mat[sel][:, sel]

    def objective(eta_vec, u_vec):
        ll = float(np.add.reduce(mdl.pointwise_loglik_from_eta(spec, eta_vec, theta, data)))
        return ll - 0.5 * float(u_vec @ (p_mat @ u_vec))

    eta = ctx.eta(u)
    f_cur = objective(eta, u)
    clipped = False
    ref_grad = None
    for iters in range(NEWTON_MAX_ITER + 1):
        g1, _, factor, clipped_here = _sequential_curvature(ctx, theta, eta, j, p_free)
        clipped = clipped or clipped_here
        grad = j.T @ g1 - (p_mat @ u)[sel]
        gnorm = math.sqrt(float(grad @ grad))
        if ref_grad is None:
            ref_grad = max(1.0, gnorm)
        if gnorm <= NEWTON_TOL * ref_grad:
            return u, eta, f_cur, factor, iters, "converged", clipped
        if iters == NEWTON_MAX_ITER:
            return u, eta, f_cur, factor, iters, "max_iter", clipped
        step = factor.solve(grad)
        if float(grad @ step) <= NEWTON_TOL**2 * max(1.0, abs(f_cur)):
            return u, eta, f_cur, factor, iters, "converged", clipped
        j_step = j @ step
        t = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            u_new = u.copy()
            u_new[sel] = u[sel] + t * step
            eta_new = eta + t * j_step
            try:
                f_new = objective(eta_new, u_new)
            except mdl.LikelihoodOverflowError:
                f_new = -np.inf
            if np.isfinite(f_new) and f_new >= f_cur - 1e-12 * max(1.0, abs(f_cur)):
                u, eta, f_cur = u_new, eta_new, f_new
                break
            t *= 0.5
        else:
            outcome = "converged" if gnorm <= 1e-6 * ref_grad else "stalled"
            return u, eta, f_cur, factor, iters + 1, outcome, clipped


def _sequential_fl_conditional_logdens(ctx: _Context, theta, mode_u, cov_col, index: int, v_grid: np.ndarray):
    """Full-Laplace log density of component ``index`` on ``v_grid``.

    ``mode_u`` is the Gaussian approximation's mode and ``cov_col`` the
    column ``index`` of its covariance.  For each fixed value ``v`` the
    remaining components are re-maximized by ``_ascend``, warm-started
    from the previous grid point, and the profile value is corrected by
    minus half the log determinant of the remaining-block curvature.
    With a single latent component the correction is zero and the
    profile equals the exact unnormalized log posterior of that
    component.  A point whose ascent fails (non-positive-definite
    curvature, predictor overflow) is dropped as ``-inf``.

    Also returns the number of grid points where the ascent stalled or
    ran out of iterations; their values are kept.
    """
    p_mat = ctx.prior_precision_u(theta)
    keep = np.array([k for k in range(ctx.dim_u) if k != index], dtype=int)
    shift = cov_col / cov_col[index]
    out = np.full(v_grid.size, -np.inf)
    unconverged = 0
    u = mode_u
    for g_idx, v in enumerate(v_grid):
        # Warm start: the last solution moved along the Gaussian
        # conditional mean to the new value.  Without the move the first
        # gradient carries the whole step in v, and the stop rule's
        # gradient test, relative to that first gradient, stops early.
        start = u + shift * (v - u[index])
        start[index] = v
        try:
            u_hat, _, f, factor, _, outcome, _ = _sequential_ascend(ctx, theta, p_mat, start, keep)
        except (FitFailure, mdl.LikelihoodOverflowError):
            continue
        unconverged += outcome != "converged"
        out[g_idx] = f - factor.half_log_det()
        u = u_hat
    return out, unconverged


# ---------------------------------------------------------------------------
# The theta cache that kept every evaluation's curvature
#
# ``_log_posterior_theta`` cached, for every theta it evaluated, the
# Hessian and Cholesky factor of the Newton solve (``_Approx`` above),
# and ``_mix_marginals`` read each grid point's ``cov``, the LU inverse
# of its factor, from them.  The engine now caches the mode and predictor
# only, rebuilds a grid point's curvature once and reads its moments from
# triangular solves with the factor; fits must match these copies bit for
# bit up to the latent marginals, and those to rounding.
# ``_mix_marginals`` is the engine's former copy but for the profile
# scans: ``_profile_scan`` passes the sequential scan above the mode and
# covariance column it reads, one scan at a time.


def _log_posterior_theta(
    ctx: _Context, theta: np.ndarray, cache: dict, cold: bool = False
) -> tuple[float, _Approx]:
    key = np.asarray(theta, dtype=float).tobytes()
    if key in cache:
        return cache[key]
    approx = _newton(ctx, theta, None if cold else cache.get("_warm"))
    cache["_warm"] = approx.mode_u
    x = ctx.to_x(approx.mode_u)
    ll = mdl.log_likelihood(ctx.spec, x, theta, ctx.data)
    lp_latent = mdl.latent_log_prior(ctx.spec, x, theta, ctx.data)
    lp_hyper = mdl.log_prior_hyper(ctx.spec, theta)
    lp = ll + lp_latent + lp_hyper - approx.log_det_half
    cache[key] = (lp, approx)
    return lp, approx



def _sla_coefficients(ctx: _Context, theta: np.ndarray, approx: _Approx):
    """(gamma1, gamma3) per latent component for the skew correction."""
    cov_u = approx.cov
    c_u = ctx.j @ cov_u  # cov(eta_m, u_d), n x dim_u
    var_eta = np.einsum("md,md->m", c_u, ctx.j)
    if ctx.basis is not None:
        c = c_u @ ctx.basis.T  # cov(eta_m, x_i), n x dim_x
        sigma = np.sqrt(np.einsum("ij,jk,ik->i", ctx.basis, cov_u, ctx.basis))
    else:
        c = c_u
        sigma = np.sqrt(np.diag(cov_u))
    eta = ctx.eta(approx.mode_u)
    g3 = mdl.eta_third_derivative(ctx.spec, eta, theta, ctx.data)
    a1 = c.T @ (g3 * var_eta)
    a3 = (c**3).T @ g3
    gamma1 = 0.5 * (a1 / sigma - a3 / sigma**3)
    gamma3 = a3 / sigma**3
    return gamma1, gamma3


def _profile_scan(ctx: _Context, theta, approx: _Approx, index: int, v_grid: np.ndarray):
    return _sequential_fl_conditional_logdens(ctx, theta, approx.mode_u, approx.cov[:, index], index, v_grid)


def _mix_marginals(ctx: _Context, grid: ThetaGrid, approxes, strategy: Strategy, indices):
    """Mixture over the theta grid of per-theta conditional marginals.

    Builds the marginals of the latent components at ``indices`` (model
    order) and returns them with their ``FitDiagnostics`` fields.  The
    per-theta moments and value grids are computed for every component,
    so a marginal does not depend on which others were requested; with
    none requested, none of them is computed.
    """
    if strategy is Strategy.FULL_LAPLACE and ctx.basis is not None:
        raise FitFailure(
            "strategy_unsupported",
            "full Laplace is not available with kriging constraints",
        )
    weights = grid.weights
    fl_scan = weights >= laplace.FL_MIN_WEIGHT * weights.max()
    scanned = int(fl_scan.sum()) if strategy is Strategy.FULL_LAPLACE else 0
    if not indices:
        return [], {"unreliable_latents": [], "fl_scanned_points": scanned, "fl_unconverged_points": 0}
    means = np.array([ctx.to_x(a.mode_u) for a in approxes])  # G x d_x
    if ctx.basis is not None:
        sds = np.array(
            [np.sqrt(np.einsum("ij,jk,ik->i", ctx.basis, a.cov, ctx.basis)) for a in approxes]
        )
    else:
        sds = np.array([np.sqrt(np.diag(a.cov)) for a in approxes])
    lo = (means - laplace.MARGINAL_GRID_SDS * sds).min(axis=0)
    hi = (means + laplace.MARGINAL_GRID_SDS * sds).max(axis=0)
    vgrids = np.linspace(lo, hi, laplace.MARGINAL_GRID_POINTS, axis=1)  # d_x x P

    # Skew-normal coefficients per theta point, computed only where they
    # are read: at every point under SIMPLIFIED_LAPLACE, and under
    # FULL_LAPLACE at the points too light for a profile scan.
    sla = {}
    if strategy is not Strategy.GAUSSIAN:
        for g, (point, approx) in enumerate(zip(grid.points, approxes)):
            if strategy is Strategy.SIMPLIFIED_LAPLACE or not fl_scan[g]:
                sla[g] = _sla_coefficients(ctx, point.theta, approx)

    unreliable = set()
    fl_unconverged = 0
    marginals = []
    for i in indices:
        vg = vgrids[i]
        dens = np.zeros(laplace.MARGINAL_GRID_POINTS)
        for g, (point, approx) in enumerate(zip(grid.points, approxes)):
            mu_ig = means[g, i]
            sd_ig = sds[g, i]
            if strategy is Strategy.GAUSSIAN:
                cond = _normal_pdf(vg, mu_ig, sd_ig)
            elif strategy is Strategy.SIMPLIFIED_LAPLACE or not fl_scan[g]:
                gamma1, gamma3 = sla[g]
                m_std = gamma1[i] + 0.5 * gamma3[i]
                xi, omega, alpha = _skew_normal_std_params(m_std, gamma3[i])
                s = (vg - mu_ig) / sd_ig
                cond = _skew_normal_pdf(s, xi, omega, alpha) / sd_ig
            else:
                v_fl = np.linspace(
                    mu_ig - laplace.FL_GRID_SDS * sd_ig,
                    mu_ig + laplace.FL_GRID_SDS * sd_ig,
                    laplace.FL_GRID_POINTS,
                )
                logd, unconverged = _profile_scan(ctx, point.theta, approx, i, v_fl)
                if unconverged:
                    unreliable.add(i)
                    fl_unconverged += unconverged
                finite = np.isfinite(logd)
                if finite.sum() < 3:
                    unreliable.add(i)
                    cond = _normal_pdf(vg, mu_ig, sd_ig)
                else:
                    vf, lf = v_fl[finite], logd[finite]
                    lf = lf - lf.max()
                    # not-a-knot reproduces polynomial log densities up
                    # to cubic exactly, so a quadratic (Gaussian) profile
                    # passes through unchanged.
                    spline = interpolate.CubicSpline(vf, lf, bc_type="not-a-knot")
                    inside = (vg >= vf[0]) & (vg <= vf[-1])
                    logc = np.empty_like(vg)
                    logc[inside] = spline(vg[inside])
                    # Outside the scan, continue with the Gaussian tail
                    # matched additively at the scan edge.
                    for edge, mask in ((vf[0], vg < vf[0]), (vf[-1], vg > vf[-1])):
                        if np.any(mask):
                            quad = -0.5 * ((vg[mask] - mu_ig) / sd_ig) ** 2
                            quad_edge = -0.5 * ((edge - mu_ig) / sd_ig) ** 2
                            logc[mask] = spline(edge) + quad - quad_edge
                    cond = np.exp(logc - logc.max())
                area = np.trapezoid(cond, vg)
                if not (area > 0 and np.isfinite(area)):
                    unreliable.add(i)
                    cond = _normal_pdf(vg, mu_ig, sd_ig)
                else:
                    cond = cond / area
            dens += point.weight * cond
        marginals.append(PosteriorMarginal.from_unnormalized(vg, dens))
    return marginals, {
        "unreliable_latents": sorted(unreliable),
        "fl_scanned_points": scanned,
        "fl_unconverged_points": fl_unconverged,
    }
