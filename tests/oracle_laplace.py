"""Reference copies of the Laplace engine's two Newton loops, kept as a test oracle.

``_newton`` and ``_fl_conditional_logdens`` below are the versions that
ran a damped Newton loop each: the theta-point solver with its gradient,
decrement and final-gradient stop rule, and the full-Laplace profile
scan with its own stop rule ``gnorm <= 1e-9 * max(1, |f|)`` and no
decrement test.  The engine in ``lgmbench.laplace`` now runs one routine
for both.  Gaussian and simplified-Laplace fits must match these copies
bit for bit; full-Laplace profiles must agree to 1e-8 relative where the
old scan converged, unless the new scan flags the point or the old value
is the one off.  The helpers they share with the engine are imported,
not copied.
"""
from __future__ import annotations

import numpy as np

from lgmbench import models as mdl
from lgmbench.laplace import FitFailure, _Approx, _Context, _try_cholesky


def _newton(ctx: _Context, theta: np.ndarray, u0: np.ndarray | None = None) -> _Approx:
    """Newton ascent of the conditional log posterior of the latent field."""
    cfg = ctx.config
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
    for iters in range(1, cfg.newton_max_iter + 1):
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
        if gnorm <= cfg.newton_tol * ref_grad:
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
        if decrement <= cfg.newton_tol**2 * max(1.0, abs(f_cur)):
            converged = True
            iters -= 1
            break
        j_step = ctx.j @ step
        t = 1.0
        accepted = False
        for _ in range(cfg.max_step_halvings + 1):
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
        iters = cfg.newton_max_iter
    if not converged:
        g1, w = mdl.eta_derivatives(spec, eta, theta, data)
        grad = ctx.j.T @ g1 - p_mat @ u
        if float(np.linalg.norm(grad)) <= cfg.newton_tol * ref_grad:
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
            f"no convergence in {cfg.newton_max_iter} iterations",
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
    spec, data, cfg = ctx.spec, ctx.data, ctx.config
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
        for _ in range(cfg.newton_max_iter):
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
            for _ in range(cfg.max_step_halvings + 1):
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
