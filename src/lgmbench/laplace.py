"""Deterministic nested Laplace inference for latent Gaussian models.

The posterior of each latent component is approximated as

    p(x_i | y) ~= sum_j  p~(x_i | theta_j, y) w_j

where theta_j are hyperparameter grid points with normalized weights
w_j, and the conditional p~(x_i | theta, y) comes from one of three
strategies applied to the Gaussian (Newton) approximation at theta:

* ``GAUSSIAN``: the marginal of the Gaussian approximation itself.
* ``SIMPLIFIED_LAPLACE``: a skew-normal correction whose first and
  third standardized cumulants come from a third-order expansion of the
  full Laplace approximation along the conditional-mean path.  With
  standardized coordinate s, marginal sd sigma_i, eta covariances
  c_m = cov(eta_m, x_i), conditional variances v_m = var(eta_m) -
  c_m^2 / sigma_i^2, and third likelihood derivatives l'''_m:

      gamma1_i = (sigma_i / 2) sum_m l'''_m (c_m / sigma_i^2) v_m
      gamma3_i = sigma_i^3     sum_m l'''_m (c_m / sigma_i^2)^3

  The fitted skew normal has variance 1, skewness gamma3 (capped below
  the skew-normal maximum), and mean gamma1 + gamma3/2; gamma3/2 is the
  first-order mean of the cubic exponential tilt.
* ``FULL_LAPLACE``: for a short grid of values v of x_i, re-maximize
  the joint log density over the remaining components and apply a
  Laplace approximation there, giving

      log p~(v) = f(x_hat(v)) - (1/2) log det H_{-i,-i}(x_hat(v))

  evaluated on ``FL_GRID_POINTS`` points over +-``FL_GRID_SDS``
  conditional standard deviations and spline-interpolated.  Every
  profile scan of a fit (each scanned grid point times each requested
  component) runs in one lockstep run: the scans advance value by
  value together, one stacked Newton problem per scan.

The moments these read at a grid point (sds, eta covariances, the
covariance columns that warm-start the profile scans) come from
triangular solves with the Cholesky factor of its curvature, for the
requested components only; no covariance matrix is formed.

Everything here is deterministic: no random numbers are drawn, grids
are traversed in fixed order, and reductions are ordered, so repeated
fits are bit-identical.  ``_ascend``, the one Newton routine, solves a
stack of independent problems in lockstep (the theta-point solve is
one problem, run without the stack axis); each member runs the
one-problem arithmetic, with
kernels, products and factorizations that give each row the bits of
its own call, so a member's bits never depend on the stack or chunk it
ran in.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import interpolate, optimize
from scipy.special import ndtr

from . import models as mdl
from .gmrf import Factor, null_space_basis, propriety_check
from .posterior import PosteriorMarginal

__all__ = [
    "Strategy",
    "INT_STRATEGIES",
    "GaussianApprox",
    "ThetaPoint",
    "ThetaGrid",
    "HyperMarginal",
    "FitDiagnostics",
    "FitResult",
    "FitFailure",
    "gaussian_approx_latent",
    "explore_theta",
    "hyper_marginals",
    "fit",
]


class Strategy(enum.Enum):
    GAUSSIAN = "gaussian"
    SIMPLIFIED_LAPLACE = "simplified_laplace"
    FULL_LAPLACE = "full_laplace"


class FitFailure(Exception):
    """Structured fit failure; ``cause`` is a stable identifier."""

    def __init__(self, cause: str, detail: str = "", **info):
        self.cause = cause
        self.detail = detail
        self.info = info
        msg = f"{cause}: {detail}" if detail else cause
        super().__init__(msg)


#: Integration strategies for the hyperparameter grid: ``"auto"`` takes
#: the dense grid up to two hyperparameters and the central composite
#: design above that.
INT_STRATEGIES = ("auto", "grid", "ccd")

# The engine's tolerances and grid sizes.  They are fixed, so a fit is
# stated in full by its spec, data, strategy and ``int_strategy``.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 50
MAX_STEP_HALVINGS = 20
THETA_GRID_STEP = 0.75
THETA_DEFICIT_CUTOFF = 6.0
THETA_MAX_STEPS_PER_AXIS = 25
# The profile scan spans the same +-6 sd as the marginal grid so no
# integration node falls in the extrapolated Gaussian tail.
FL_GRID_POINTS = 15
FL_GRID_SDS = 6.0
# Hyperparameter grid points whose weight falls below this fraction
# of the largest weight contribute through the skew-normal
# conditional instead of a full profile scan; the induced error is
# bounded by the skipped mass times the conditional discrepancy.
FL_MIN_WEIGHT = 1e-2
# +-6 sd keeps the truncated tail mass below 1e-7 of the variance,
# which is what lets exactly-Gaussian posteriors summarize to 1e-6
# relative accuracy from the grid.
MARGINAL_GRID_POINTS = 161
MARGINAL_GRID_SDS = 6.0
# Each grid point's latent moments come from L^{-1} B, solved in fixed
# blocks of this many consecutive latents (see ``_mix_marginals``).
MARGINAL_BLOCK = 16
FD_STEP = 1e-3


@dataclass
class GaussianApprox:
    """Gaussian approximation to p(x | theta, y) at its mode."""

    mode: np.ndarray
    precision: np.ndarray  # dense, symmetric
    log_det_half: float
    newton_iters: int
    curvature_clipped: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class ThetaPoint:
    theta: np.ndarray
    log_post: float
    weight: float


@dataclass(frozen=True)
class ThetaGrid:
    """Weighted hyperparameter grid; weights are normalized to one."""

    points: tuple
    mode: np.ndarray
    mode_hessian: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.array([p.weight for p in self.points])

    @property
    def thetas(self) -> np.ndarray:
        return np.array([p.theta for p in self.points])

    def to_dict(self) -> dict:
        return {
            "mode": np.asarray(self.mode).tolist(),
            "mode_hessian": np.asarray(self.mode_hessian).tolist(),
            "points": [
                {
                    "theta": np.asarray(p.theta).tolist(),
                    "log_post": p.log_post,
                    "weight": p.weight,
                }
                for p in self.points
            ],
        }


@dataclass(frozen=True)
class HyperMarginal:
    """One hyperparameter's marginal on internal and natural scales."""

    name: str
    natural_name: str
    internal: PosteriorMarginal
    natural: PosteriorMarginal


@dataclass
class FitDiagnostics:
    """What a fit did and where it fell short.

    ``theta_mode_converged`` is the BFGS success flag of the
    hyperparameter mode search, and ``theta_mode_failed_evals`` counts
    its evaluations whose Newton solve failed and that BFGS saw as a
    1e30 wall.  ``theta_points_retried`` counts the
    integration points whose warm-started Newton solve failed and was
    retried from a cold start; ``theta_points_failed`` counts those
    dropped because the retry failed too.
    ``unreliable_latents`` holds model-order indices of built marginals
    that fell back to the Gaussian or whose full-Laplace profile has
    points where the inner Newton loop stopped short of convergence;
    ``fl_unconverged_points`` counts those points.
    ``newton_converged`` is always true: every Newton solve a fit keeps
    converged, since ``_newton`` raises on any other outcome.  It stays
    while ``perfbench/layers.py`` reads it.
    """

    strategy: str
    propriety: str
    grid_size: int
    newton_iters: list
    newton_converged: bool
    theta_mode_evals: int
    theta_mode_converged: bool
    theta_mode_failed_evals: int
    theta_points_retried: int
    theta_points_failed: int
    curvature_clipped: bool
    constrained_reduction: bool
    unreliable_latents: list
    fl_scanned_points: int
    fl_unconverged_points: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class FitResult:
    """Full deterministic fit: marginals, grid, and model evidence inputs.

    ``pointwise_loglik`` holds one row per hyperparameter grid point,
    evaluated at the conditional latent mode (a plug-in approximation:
    latent-field uncertainty is not propagated into these rows, so
    information criteria computed from them understate the effective
    number of parameters relative to a draw-based matrix).  Pair it with
    ``grid_weights`` when computing weighted criteria.

    ``latent_names`` and ``latent_marginals`` cover the latent components
    the fit was asked for, in model order.
    """

    latent_names: list
    latent_marginals: list
    hyper_marginals: list
    theta_grid: ThetaGrid
    pointwise_loglik: np.ndarray
    grid_weights: np.ndarray
    diagnostics: FitDiagnostics
    int_strategy: str
    version: str = ""

    def latent_marginal(self, name: str) -> PosteriorMarginal:
        """Raises ValueError for a component the fit did not build."""
        return self.latent_marginals[self.latent_names.index(name)]

    def hyper_marginal(self, natural_name: str) -> HyperMarginal:
        for hm in self.hyper_marginals:
            if hm.natural_name == natural_name or hm.name == natural_name:
                return hm
        raise KeyError(natural_name)

    def to_dict(self) -> dict:
        return {
            "engine": "laplace",
            "version": self.version,
            "int_strategy": self.int_strategy,
            "diagnostics": self.diagnostics.to_dict(),
            "theta_grid": self.theta_grid.to_dict(),
            "latent_names": list(self.latent_names),
            "latent_marginals": [m.to_dict() for m in self.latent_marginals],
            "hyper_marginals": [
                {
                    "name": hm.name,
                    "natural_name": hm.natural_name,
                    "internal": hm.internal.to_dict(),
                    "natural": hm.natural.to_dict(),
                }
                for hm in self.hyper_marginals
            ],
            "pointwise_loglik": np.asarray(self.pointwise_loglik).tolist(),
            "grid_weights": np.asarray(self.grid_weights).tolist(),
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


# ---------------------------------------------------------------------------
# Problem context: precomputed structure shared across theta evaluations


class _Context:
    """Design, offsets, and optional constraint reduction.

    With the sum-to-zero constraint (``gmrf.sum_to_zero_rows``) the
    whole problem is reduced to coordinates u with x = Z u, Z an
    orthonormal basis of the constraint null space, which turns the
    constrained Laplace approximation into an ordinary one.
    """

    def __init__(self, spec: mdl.ModelSpec, data: mdl.Dataset, int_strategy: str = "auto"):
        if int_strategy not in INT_STRATEGIES:
            raise ValueError(f"int_strategy must be one of {INT_STRATEGIES}, not {int_strategy!r}")
        self.spec = spec
        self.data = data
        self.int_strategy = int_strategy
        n = data.n
        self.n = n
        self.dim_x = mdl.latent_dim(spec, n)
        sl = mdl.latent_slices(spec, n)
        x_design = mdl.design_matrix(spec, data)
        j = np.zeros((n, self.dim_x))
        if x_design.shape[1]:
            j[:, sl["beta"]] = x_design
        if "iid" in sl:
            j[np.arange(n), np.arange(sl["iid"].start, sl["iid"].stop)] = 1.0
        if "icar" in sl:
            j[np.arange(n), np.arange(sl["icar"].start, sl["icar"].stop)] += 1.0
        self.j_full = j
        self.log_off = np.log(data.offset) if spec.offset is not None else np.zeros(n)
        self.constraints = mdl.constraint_rows(spec, data)
        self.basis = None  # dim_x x dim_u when constrained
        if self.constraints is not None:
            self.basis = null_space_basis(self.constraints)
        self.dim_u = self.basis.shape[1] if self.basis is not None else self.dim_x
        self.j = self.j_full @ self.basis if self.basis is not None else self.j_full
        # J's column blocks, or None where J is one dense block: J_full B
        # under a constraint, or X alone.
        self.blocks = None
        if self.basis is None and self.dim_x > x_design.shape[1]:
            self.blocks = _Blocks.of_design(x_design, [sl[b].start for b in ("iid", "icar") if b in sl], self.dim_x)

    def to_x(self, u: np.ndarray) -> np.ndarray:
        return self.basis @ u if self.basis is not None else u

    def prior_precision_u(self, theta: np.ndarray) -> np.ndarray:
        """Dense prior precision projected onto the constraint basis."""
        p = mdl.latent_prior_precision(self.spec, theta, self.data)
        if self.basis is not None:
            p = self.basis.T @ p @ self.basis
        return p

    def eta(self, u: np.ndarray) -> np.ndarray:
        """The linear predictor of ``u``, a (dim_u,) vector or a (k, dim_u) stack."""
        return (self.j @ u if u.ndim == 1 else _mv(self.j, u)) + self.log_off


class _Blocks:
    """J'WJ of an unconstrained design J = [X | I | I] from its column
    blocks, over the free coordinates of one problem or of each member
    of a stack.

    Each non-zero of J'WJ is one entry, placed by a single scatter-add.
    X'WX is the top-left block of X0' W X0, with X0 the free columns of
    X followed by zero columns up to p + 1, in C order, and its
    transposed view the left operand: gemm then rounds each entry as it
    does in the dense product J'WJ (a one-column X0 would go to numpy's
    dot, and a C-ordered left operand rounds differently).  Every other
    non-zero is one product w[site] * coef (coef 1, or an entry of X)
    where a site's unit column meets itself, its other unit column or a
    column of X; the dense product adds only zeros to it, so placing it
    keeps its bits too.

    ``x0`` is (n, p + 1) for one problem, (k, n, p + 1) for a stack, or
    None without fixed effects.  A member's source row holds its weights
    w and, after them, its X0'WX0 flattened; entry e adds source[src[e]]
    * coef[e] (coef 1 for X'WX) at flat position ``loc[e]`` of member
    ``member[e]``'s df x df curvature (member 0 for one problem).
    """

    def __init__(self, x0, n, df, member, loc, src, coef):
        self.x0, self.n, self.df = x0, n, df
        self.member, self.loc, self.src, self.coef = member, loc, src, coef
        # The entries' positions in the flattened curvatures and sources.
        self.flat = member * (df * df) + loc
        self.sources = member * (n if x0 is None else n + x0.shape[-1] ** 2) + src
        self._restricted = None  # (free.shape, free bytes, blocks) of the last restrict

    @classmethod
    def of_design(cls, x: np.ndarray, unit_starts: list, d: int) -> _Blocks:
        """The blocks of one problem over every coordinate of J = [X | I | I],
        whose unit blocks start at the coordinates ``unit_starts``."""
        n, p = x.shape
        site = np.arange(n)
        units = [start + site for start in unit_starts]
        entries = [(a, b, site, np.ones(n)) for a in units for b in units]
        for col in range(p):
            fixed = np.full(n, col)
            for unit in units:
                entries += [(fixed, unit, site, x[:, col]), (unit, fixed, site, x[:, col])]
        x0 = None
        if p:
            x0 = np.zeros((n, p + 1))
            x0[:, :p] = x
            a, b = np.divmod(np.arange(p * p), p)
            entries.append((a, b, n + a * (p + 1) + b, np.ones(p * p)))
        rows, cols, src, coef = (np.concatenate(e) for e in zip(*entries))
        return cls(x0, n, d, np.zeros(len(rows), dtype=int), rows * d + cols, src, coef)

    def restrict(self, free: np.ndarray) -> _Blocks:
        """These blocks of one problem over every coordinate, restricted to
        the ascending coordinates ``free`` of one problem (df,) or of each
        member of a stack (k x df).  The last restriction is kept: a
        lockstep chunk of profile scans asks for the same free sets at
        every scanned value."""
        last = self._restricted
        if last is not None and last[0] == free.shape and last[1] == free.tobytes():
            return last[2]
        stack = np.atleast_2d(free)
        k, df = stack.shape
        d, n = self.df, self.n
        pos = np.full((k, d), -1)
        pos[np.arange(k)[:, None], stack] = np.arange(df)
        rows, cols = pos[:, self.loc // d], pos[:, self.loc % d]
        member, e = np.nonzero((rows >= 0) & (cols >= 0))
        rows, cols, src = rows[member, e], cols[member, e], self.src[e]
        x0 = None
        if self.x0 is not None:
            # Each member's free columns of X, in order, then the zero
            # column; its X'WX entries read its own X0'WX0.
            p = self.x0.shape[1] - 1
            first = stack[:, : p + 1]
            at = np.full((k, p + 1), p)
            at[:, : first.shape[1]] = np.where(first < p, first, p)
            x0 = np.ascontiguousarray(self.x0.T[at].swapaxes(-1, -2))
            src = np.where(src < n, src, n + rows * (p + 1) + cols)
        out = _Blocks(x0, n, df, member, rows * df + cols, src, self.coef[e])
        out = out if free.ndim == 2 else out[0]
        self._restricted = (free.shape, free.tobytes(), out)
        return out

    def __getitem__(self, at) -> _Blocks:
        """The members at ``at`` of a stack: one position, which drops the
        stack axis, or a boolean mask."""
        if isinstance(at, (int, np.integer)):
            e = self.member == at
            member = np.zeros(np.count_nonzero(e), dtype=int)
        else:
            e = at[self.member]
            member = (np.cumsum(at) - 1)[self.member[e]]
        x0 = None if self.x0 is None else self.x0[at]
        return _Blocks(x0, self.n, self.df, member, self.loc[e], self.src[e], self.coef[e])

    def plus(self, w: np.ndarray, p_free: np.ndarray) -> np.ndarray:
        """``p_free`` + J'WJ at the likelihood weights ``w``: of one problem
        (n,), or of a stack (k x n, with ``p_free`` k x df x df)."""
        hess = p_free.copy()
        source = w
        if self.x0 is not None:
            g = self.x0.swapaxes(-1, -2) @ (w[..., None] * self.x0)
            source = np.concatenate((w, g.reshape(w.shape[:-1] + (-1,))), axis=-1)
        hess.ravel()[self.flat] += source.ravel()[self.sources] * self.coef
        return hess


def _jwj_plus(jt: np.ndarray, blocks: _Blocks | None, w: np.ndarray, p_free: np.ndarray) -> np.ndarray:
    """``p_free`` + J'WJ of the free coordinates at the likelihood weights
    ``w``: from J's ``blocks``, or where J is one dense block (``blocks``
    None) the product of its transpose ``jt``."""
    if blocks is None:
        return jt @ (w[..., None] * jt.swapaxes(-1, -2)) + p_free
    return blocks.plus(w, p_free)


class _Approx:
    """What the theta cache keeps of one Gaussian approximation, in
    reduced coordinates: the latent mode, the linear predictor that the
    Newton ascent ended on, and scalars.  No d x d array is kept; a grid
    point's curvature is rebuilt from ``eta`` by ``_curvature``.  Only a
    converged ascent makes one: ``_newton`` raises on any other outcome."""

    def __init__(self, mode_u, eta, log_det_half, iters, clipped):
        self.mode_u = mode_u
        self.eta = eta
        self.log_det_half = log_det_half
        self.iters = iters
        self.clipped = clipped


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for one vector ``x``; for a (k, q) ``x``, ``a[r] @ x[r]`` per
    row, with ``a`` one (p, q) matrix or a (k, p, q) stack: one
    matrix-vector product per member, with the bits of the one-vector call."""
    return a @ x if x.ndim == 1 else np.matmul(a, x[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray):
    """``a @ b`` for two vectors; for (k, q) ``a`` and ``b``, each row's dot
    product, by the kernel of the one-vector call."""
    return a @ b if a.ndim == 1 else np.vecdot(a, b)


def _each(x) -> list:
    """The per-member values of ``x`` as Python floats: a list of one for
    one problem (a scalar ``x``)."""
    return x.tolist() if x.ndim else [x.tolist()]


def _at(free: np.ndarray):
    """Index of the coordinates ``free`` along the last axis: of one
    problem's array, or of each member's row of a stack's (``free`` k x df)."""
    return free if free.ndim == 1 else (np.arange(len(free))[:, None], free)


_NO_MEMBERS = np.zeros(0, dtype=int)
_ONE_MEMBER = np.zeros(1, dtype=int)


def _curvature(ctx: _Context, thetas: np.ndarray, eta: np.ndarray, jt: np.ndarray, p_free: np.ndarray, blocks):
    """Curvature of the conditional log posterior at the predictor ``eta``,
    of one problem or of a stack of k (``eta`` k x n).

    ``jt`` is the transposed design of the free coordinates, one (df x n)
    matrix, shared by every member of a stack, or a (k x df x n) stack,
    ``blocks`` their ``_Blocks`` (None where J is one dense block, whose
    product with ``jt`` is then formed), and ``p_free`` their prior
    precision (k x df x df for a stack).
    Returns ``(g1, hess, factor, clipped, failed)``: the likelihood
    gradient in eta, ``hess = j' W j + p_free``, its ``Factor``, the
    indices of the members whose W had to be clipped to non-negative
    weights for the factorization to succeed, and of those whose clipped
    curvature is not positive definite either (``factor`` is None for
    one problem that failed, and a stack's ``factor.ok`` is False for
    its failed members).  One problem is member 0.  The same inputs give
    the same bits, so the curvature of a Newton solve's last iterate is
    rebuilt exactly from its final eta.
    """
    g1, w = mdl.eta_derivatives(ctx.spec, eta, thetas, ctx.data)
    hess = _jwj_plus(jt, blocks, w, p_free)
    factor = Factor.of(hess)
    if hess.ndim == 2:
        if factor is not None:
            return g1, hess, factor, _NO_MEMBERS, _NO_MEMBERS
        hess = _jwj_plus(jt, blocks, np.maximum(w, 0.0), p_free)
        factor = Factor.of(hess)
        return g1, hess, factor, _ONE_MEMBER, _NO_MEMBERS if factor is not None else _ONE_MEMBER
    if factor.ok.all():
        return g1, hess, factor, _NO_MEMBERS, _NO_MEMBERS
    bad = ~factor.ok
    clipped = np.flatnonzero(bad)
    jt_c = jt if jt.ndim == 2 else jt[clipped]
    blocks_c = None if blocks is None else blocks[bad]
    hess[clipped] = _jwj_plus(jt_c, blocks_c, np.maximum(w[clipped], 0.0), p_free[clipped])
    again = Factor.of(hess[clipped])
    factor.lower[clipped] = again.lower
    factor.ok[clipped] = again.ok
    return g1, hess, factor, clipped, clipped[~again.ok]


def _objective(ctx: _Context, thetas, p_mats, eta, u):
    """log p(y | u, theta) - u' P u / 2, per member of a stack, -inf where
    the predictor is out of range, and P u."""
    spec, data = ctx.spec, ctx.data
    try:
        ll = np.add.reduce(mdl.pointwise_loglik_from_eta(spec, eta, thetas, data), axis=-1)
    except mdl.LikelihoodOverflowError:
        if eta.ndim == 1:
            ll = -np.inf
        else:
            ok = mdl.eta_in_range(eta)
            ll = np.full(len(eta), -np.inf)
            if ok.any():
                ll[ok] = np.add.reduce(mdl.pointwise_loglik_from_eta(spec, eta[ok], thetas[ok], data), axis=-1)
    pu = _mv(p_mats, u)
    return ll - 0.5 * _dot(u, pu), pu


def _ascend(ctx: _Context, thetas: np.ndarray, p_mats: np.ndarray, u: np.ndarray, free=None):
    """Damped Newton ascent of the conditional log posterior of the latent
    field: of one problem, or in lockstep of a stack of k independent ones.

    One problem maximizes log p(y | u, thetas) - u' p_mats u / 2 over the
    coordinates ``free`` (an ascending index array; None means all of them), holding
    the others at their values in ``u``.  A stack adds a leading axis of
    k to ``thetas``, ``p_mats``, ``u`` and ``free``, and member r solves
    the problem of its rows.  One problem is the k = 1 case of the same
    code, run without the leading axis.  The members of a stack advance
    together, one stacked kernel call per Newton iteration and per
    line-search halving, and leave the stack as they stop, but every
    member runs the one-problem arithmetic: its bits do not depend on
    which other members share the stack.  ``thetas`` is bound once
    (``models.bind``; a caller may pass the binding) and its rows are
    selected as members stop; a last member runs on the one-row form.

    Returns ``(u, eta, f, log_det_half, iters, outcome, clipped)``, per
    member for a stack (the last three as lists): the point, its linear
    predictor (updated step by step, so not bit-equal to ``ctx.eta(u)``),
    its objective, half the log determinant of the free-block curvature
    there, the Newton steps taken, the outcome, and whether the curvature
    was ever clipped to non-negative likelihood weights.  An outcome is
    ``"converged"``, ``"stalled"`` or ``"max_iter"``, or the failure that
    ended the member: LikelihoodOverflowError when the start's predictor
    is out of range, FitFailure (hessian_not_pd) when even the clipped
    curvature is not positive definite.  A failed member's other values
    are not read.

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
    """
    u = np.array(u, dtype=float)
    one = u.ndim == 1
    k = 1 if one else len(u)
    thetas = mdl.bind(ctx.spec, thetas, ctx.data)
    eta = ctx.eta(u)
    f, pu = _objective(ctx, thetas, p_mats, eta, u)
    log_det_half = np.zeros(k)
    iters, outcome, clipped = [0] * k, [None] * k, [False] * k
    bl = ctx.blocks
    if free is None:
        jt, pf = ctx.j.T, p_mats
        if bl is not None and not one:
            bl = bl.restrict(np.broadcast_to(np.arange(ctx.dim_u), (k, ctx.dim_u)))
    else:
        # Member r's design is ctx.j[:, free[r]], an F-ordered copy, so
        # its transpose is C-ordered: the layout BLAS saw one at a time.
        jt = ctx.j.T[free]
        # p[free][:, free] per member: rows, then rows of the transpose.
        at = _at(free)
        pf = np.ascontiguousarray(p_mats[at].swapaxes(-1, -2)[at].swapaxes(-1, -2))
        bl = None if bl is None else bl.restrict(free)

    # The running members: ``act`` holds their indices, the arrays below
    # their rows and ``ref_grad`` their first gradient norms, compacted
    # whenever some members of a stack stop and others run on.  A stack's
    # last running member, or the member of a stack of one, runs on as
    # one problem.  Each member's scalar tests run on Python floats, as
    # in a one-problem loop.
    act, th, p, fr = np.arange(k), thetas, p_mats, free
    cu, ceta, cf, ref_grad = u, eta, f, []

    def rows_of(keep):
        """Index of the running members at the mask ``keep``: the mask, or
        the position of a last one, which drops the stack axis."""
        return keep if np.count_nonzero(keep) > 1 else int(np.flatnonzero(keep)[0])

    def running(keep, *arrays):
        """The running members' arrays at the mask ``keep``, ``act`` first."""
        at = rows_of(keep)
        out = [act[keep]] + [a[at] for a in (th, p, cu, ceta, cf, pu) + arrays]
        out += [jt if free is None else jt[at], pf[at], None if free is None else fr[at]]
        return out + [None if bl is None else bl[at]]

    def stop(at, steps, label, factor):
        """Record the running members at the mask ``at`` (None: all) as
        stopped with ``label``, one string or one per member."""
        nonlocal u, eta, f, log_det_half
        if at is None and (one or len(act) == k > 1):
            # Every member stops at once, none before: the running arrays
            # are the results.
            u, eta, f, log_det_half = cu, ceta, cf, factor.half_log_det()
        elif at is None:
            u[act], eta[act], f[act] = cu, ceta, cf
            log_det_half[act] = factor.half_log_det()
        else:
            rows = act[at]
            u[rows], eta[rows], f[rows] = cu[at], ceta[at], cf[at]
            log_det_half[rows] = Factor(factor.lower[at]).half_log_det()
        for i, r in enumerate(act.tolist() if at is None else act[at].tolist()):
            iters[r] = steps
            outcome[r] = label if isinstance(label, str) else label[i]

    if k == 1 and not one:
        act, th, p, cu, ceta, cf, pu, jt, pf, fr, bl = running(np.ones(1, dtype=bool))
    start_ok = [math.isfinite(v) for v in _each(f)]
    if not all(start_ok):
        for r in np.flatnonzero(~np.array(start_ok)):
            try:
                mdl.pointwise_loglik_from_eta(ctx.spec, np.atleast_2d(eta)[r], thetas if one else thetas[r], ctx.data)
            except mdl.LikelihoodOverflowError as exc:
                outcome[r] = exc
        live = np.array([o is None for o in outcome])
        if not live.any():
            act = _NO_MEMBERS
        elif not live.all():
            act, th, p, cu, ceta, cf, pu, jt, pf, fr, bl = running(live)
    for it in range(NEWTON_MAX_ITER + 1):
        if not act.size:
            break
        g1, _, factor, clipped_here, failed = _curvature(ctx, th, ceta, jt, pf, bl)
        if clipped_here.size:
            for r in act[clipped_here].tolist():
                clipped[r] = True
            if failed.size:
                for r in act[failed]:
                    outcome[r] = FitFailure("hessian_not_pd", "negative curvature at Newton iterate")
                if failed.size == len(act):
                    break
                live = factor.ok
                factor = Factor(factor.lower[rows_of(live)])
                ref_grad = [r for r, keep in zip(ref_grad, live) if keep]
                act, th, p, cu, ceta, cf, pu, g1, jt, pf, fr, bl = running(live, g1)
        # P u at the current point, from the objective that accepted it.
        grad = _mv(jt, g1) - (pu if free is None else pu[_at(fr)])
        gnorm = [math.sqrt(g) for g in _each(_dot(grad, grad))]
        if it == 0:
            ref_grad = [max(1.0, g) for g in gnorm]
        done = [g <= NEWTON_TOL * r for g, r in zip(gnorm, ref_grad)]
        if it == NEWTON_MAX_ITER:
            stop(None, it, ["converged" if d else "max_iter" for d in done], factor)
            break
        if all(done):
            stop(None, it, "converged", factor)
            break
        # A member that has converged takes this step too, unread.
        step = factor.solve(grad)
        f_cur = _each(cf)
        decrement = _each(_dot(grad, step))
        done = [d or c <= NEWTON_TOL**2 * max(1.0, abs(v)) for d, c, v in zip(done, decrement, f_cur)]
        if all(done):
            stop(None, it, "converged", factor)
            break
        if any(done):
            stop(np.array(done), it, "converged", factor)
            go = np.array([not d for d in done])
            factor = Factor(factor.lower[rows_of(go)])
            gnorm, ref_grad, f_cur = ([x for x, d in zip(a, done) if not d] for a in (gnorm, ref_grad, f_cur))
            act, th, p, cu, ceta, cf, pu, step, jt, pf, fr, bl = running(go, step)
        # Line search over the running members, halving t together.  The
        # ``s`` arrays hold the members still searching, at rows ``srow``.
        j_step = _mv(ctx.j if free is None else np.swapaxes(jt, -1, -2), step)
        floor = [v - 1e-12 * max(1.0, abs(v)) for v in f_cur]
        srow, su, seta, sth, sp, sstep, sj, sfr = None, cu, ceta, th, p, step, j_step, fr
        t = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            if free is None:
                u_new = su + t * sstep
            else:
                u_new = su.copy()
                u_new[_at(sfr)] = su[_at(sfr)] + t * sstep
            eta_new = seta + t * sj
            f_new, pu_new = _objective(ctx, sth, sp, eta_new, u_new)
            ok = [math.isfinite(v) and v >= lo for v, lo in zip(_each(f_new), floor)]
            if srow is None and all(ok):
                cu, ceta, cf, pu = u_new, eta_new, f_new, pu_new
                break
            if any(ok):
                if srow is None:
                    srow = np.arange(len(act))
                ok = np.array(ok)
                no = ~ok
                took = srow[ok]
                cu[took], ceta[took], cf[took], pu[took] = u_new[ok], eta_new[ok], f_new[ok], pu_new[ok]
                srow, su, seta, sth, sp, sstep, sj = (a[no] for a in (srow, su, seta, sth, sp, sstep, sj))
                sfr = None if free is None else sfr[no]
                floor = [lo for lo, a in zip(floor, no) if a]
                if not srow.size:
                    break
            t *= 0.5
        else:
            near = [g <= 1e-6 * r for g, r in zip(gnorm, ref_grad)]
            if srow is None:
                stop(None, it + 1, ["converged" if c else "stalled" for c in near], factor)
                break
            stuck = np.zeros(len(act), dtype=bool)
            stuck[srow] = True
            stop(stuck, it + 1, ["converged" if c else "stalled" for c, s in zip(near, stuck) if s], factor)
            ref_grad = [r for r, s in zip(ref_grad, stuck) if not s]
            act, th, p, cu, ceta, cf, pu, jt, pf, fr, bl = running(~stuck)
    if one:
        return u, eta, f, log_det_half, iters[0], outcome[0], clipped[0]
    return u, eta, f, log_det_half, iters, outcome, clipped


def _point_curvature(ctx: _Context, theta: np.ndarray, eta: np.ndarray):
    """``(hess, factor)`` of the curvature over every coordinate at one
    theta and predictor: the last ``_curvature`` of a Newton solve that
    ended at ``eta``, so factored there before."""
    _, hess, factor, _, failed = _curvature(ctx, theta, eta, ctx.j.T, ctx.prior_precision_u(theta), ctx.blocks)
    if failed.size:
        raise FitFailure("hessian_not_pd", "negative curvature at Newton iterate")
    return hess, factor


def _newton(ctx: _Context, theta: np.ndarray, u0: np.ndarray | None = None, bound=None) -> _Approx:
    """Gaussian approximation of the latent field at ``theta``: the mode
    of its conditional log posterior, the predictor there and the log
    determinant of the curvature.  The one-problem call of ``_ascend``,
    given ``bound``, theta's ``models.bind`` result, when the caller
    has it.

    Raises FitFailure (newton_line_search, newton_nonconvergence) when
    the ascent stalls or runs out of iterations, and the ascent's failure
    (FitFailure hessian_not_pd, LikelihoodOverflowError) when it fails.
    """
    u = np.zeros(ctx.dim_u) if u0 is None else u0
    theta = np.asarray(theta, dtype=float)
    p_mat = ctx.prior_precision_u(theta)
    u, eta, _, log_det_half, iters, outcome, clipped = _ascend(ctx, theta if bound is None else bound, p_mat, u)
    if isinstance(outcome, Exception):
        raise outcome
    if outcome == "stalled":
        raise FitFailure("newton_line_search", f"no ascent step at iteration {iters}")
    if outcome == "max_iter":
        raise FitFailure(
            "newton_nonconvergence",
            f"no convergence in {NEWTON_MAX_ITER} iterations",
        )
    return _Approx(u, eta, log_det_half, iters, clipped)


def gaussian_approx_latent(
    spec: mdl.ModelSpec,
    theta: np.ndarray,
    data: mdl.Dataset,
    x0: np.ndarray | None = None,
) -> GaussianApprox:
    """Public Gaussian approximation at fixed hyperparameters.

    Returns the mode and precision in the full latent coordinates (for
    constrained specs the precision is the reduced-space curvature
    pushed back through the constraint basis).
    """
    ctx = _Context(spec, data)
    theta = np.asarray(theta, dtype=float)
    u0 = None
    if x0 is not None:
        u0 = ctx.basis.T @ x0 if ctx.basis is not None else np.asarray(x0, dtype=float)
    approx = _newton(ctx, theta, u0)
    hess = _point_curvature(ctx, theta, approx.eta)[0]
    mode = ctx.to_x(approx.mode_u)
    if ctx.basis is not None:
        dense = ctx.basis @ hess @ ctx.basis.T
    else:
        dense = hess
    return GaussianApprox(
        mode=mode,
        precision=0.5 * (dense + dense.T),
        log_det_half=approx.log_det_half,
        newton_iters=approx.iters,
        curvature_clipped=approx.clipped,
    )


# ---------------------------------------------------------------------------
# Hyperparameter exploration


def _log_posterior_theta(
    ctx: _Context, theta: np.ndarray, cache: dict, cold: bool = False
) -> tuple[float, _Approx]:
    """log p(theta | y) up to a constant, and the Gaussian approximation
    it was computed from.

    ``cache`` maps each evaluated theta to ``(lp, approx)``, whose arrays
    are the latent mode and the final predictor (length ``dim_u`` and
    ``n``), and keeps the last mode under ``"_warm"`` as the next
    solve's starting point.  Mode search, Hessian stencil and grid all
    evaluate through it; only the grid points' curvature is ever read
    again, and ``_mix_marginals`` rebuilds it.
    """
    key = np.asarray(theta, dtype=float).tobytes()
    if key in cache:
        return cache[key]
    bound = mdl.bind(ctx.spec, theta, ctx.data)
    approx = _newton(ctx, theta, None if cold else cache.get("_warm"), bound)
    cache["_warm"] = approx.mode_u
    x = ctx.to_x(approx.mode_u)
    ll = mdl.log_likelihood(ctx.spec, x, bound, ctx.data)
    lp_latent = mdl.latent_log_prior(ctx.spec, x, theta, ctx.data)
    lp_hyper = mdl.log_prior_hyper(ctx.spec, theta)
    lp = ll + lp_latent + lp_hyper - approx.log_det_half
    cache[key] = (lp, approx)
    return lp, approx


def _theta_mode(ctx: _Context, cache: dict) -> tuple[np.ndarray, dict]:
    """Mode of log p(theta | y) and the search's ``FitDiagnostics``
    fields: its evaluation count, BFGS success, and the evaluations that
    failed and were returned to BFGS as 1e30."""
    m = mdl.hyper_dim(ctx.spec)
    stats = {"theta_mode_evals": 0, "theta_mode_converged": True, "theta_mode_failed_evals": 0}
    if m == 0:
        stats["theta_mode_evals"] = 1
        return np.zeros(0), stats

    def neg(th):
        stats["theta_mode_evals"] += 1
        try:
            lp, _ = _log_posterior_theta(ctx, np.asarray(th, dtype=float), cache)
        except (FitFailure, mdl.LikelihoodOverflowError):
            stats["theta_mode_failed_evals"] += 1
            return 1e30
        return -lp

    res = optimize.minimize(neg, np.zeros(m), method="BFGS", options={"gtol": 1e-5, "maxiter": 200})
    mode = np.asarray(res.x, dtype=float)
    # BFGS has evaluated its answer, so this reads the cache and is not
    # a search evaluation; it fails where that evaluation failed.
    try:
        lp, _ = _log_posterior_theta(ctx, mode, cache)
    except (FitFailure, mdl.LikelihoodOverflowError) as exc:
        raise FitFailure("theta_mode_search", f"posterior fails at the candidate mode: {exc}") from exc
    if not np.isfinite(lp):
        raise FitFailure("theta_mode_search", "non-finite posterior at candidate mode")
    stats["theta_mode_converged"] = bool(res.success)
    return mode, stats


def _theta_hessian(ctx: _Context, mode: np.ndarray, cache: dict) -> np.ndarray:
    """Negative Hessian of log p(theta | y) by central differences."""
    m = mode.size
    if m == 0:
        return np.zeros((0, 0))
    h = np.array([FD_STEP * max(1.0, abs(v)) for v in mode])

    def lp(th):
        return _log_posterior_theta(ctx, th, cache)[0]

    f0 = lp(mode)
    hess = np.zeros((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h[i]
        hess[i, i] = -(lp(mode + ei) - 2.0 * f0 + lp(mode - ei)) / h[i] ** 2
    for i in range(m):
        for k in range(i + 1, m):
            ei = np.zeros(m)
            ek = np.zeros(m)
            ei[i] = h[i]
            ek[k] = h[k]
            mixed = (
                lp(mode + ei + ek) - lp(mode + ei - ek) - lp(mode - ei + ek) + lp(mode - ei - ek)
            ) / (4.0 * h[i] * h[k])
            hess[i, k] = hess[k, i] = -mixed
    return hess


def _standardizer(hess: np.ndarray) -> np.ndarray:
    """Columns are the standardized axes: theta = mode + axes @ z."""
    if hess.shape[0] == 0:
        return np.zeros((0, 0))
    eigval, eigvec = np.linalg.eigh(hess)
    if np.any(eigval <= 0):
        raise FitFailure(
            "theta_hessian_not_pd",
            "non-positive curvature of the hyperparameter posterior",
            eigenvalues=eigval.tolist(),
        )
    return eigvec @ np.diag(1.0 / np.sqrt(eigval))


def _integration_point(ctx: _Context, theta: np.ndarray, cache: dict, stats: dict) -> float | None:
    """log p(theta | y) at an integration point, or None if it fails.

    The Newton solve starts from the previous point's latent mode.  On
    large counts that warm start can leave the objective's rounding
    noise above the decrement test, where a start from zero converges,
    so a failed point is retried once from a cold start before it is
    dropped.  ``stats`` counts the retries and the drops.
    """
    try:
        return _log_posterior_theta(ctx, theta, cache)[0]
    except (FitFailure, mdl.LikelihoodOverflowError):
        stats["theta_points_retried"] += 1
    try:
        return _log_posterior_theta(ctx, theta, cache, cold=True)[0]
    except (FitFailure, mdl.LikelihoodOverflowError):
        stats["theta_points_failed"] += 1
        return None


def _grid_points(ctx: _Context, mode, axes, lp_mode, cache, stats):
    """Dense axis-aligned grid in standardized coordinates."""
    m = mode.size

    def lp_at(z):
        theta = mode + axes @ (np.asarray(z, dtype=float) * THETA_GRID_STEP)
        lp = _integration_point(ctx, theta, cache, stats)
        return (-np.inf if lp is None else lp), theta

    lo = np.zeros(m, dtype=int)
    hi = np.zeros(m, dtype=int)
    for axis in range(m):
        for direction, bound in ((1, hi), (-1, lo)):
            t = 1
            while t <= THETA_MAX_STEPS_PER_AXIS:
                z = np.zeros(m)
                z[axis] = direction * t
                val, _ = lp_at(z)
                if lp_mode - val > THETA_DEFICIT_CUTOFF:
                    break
                t += 1
            bound[axis] = direction * (t - 1)

    entries = []
    ranges = [range(lo[a], hi[a] + 1) for a in range(m)]
    for combo in itertools.product(*ranges):
        z = np.array(combo, dtype=float)
        val, theta = lp_at(z)
        if lp_mode - val <= THETA_DEFICIT_CUTOFF:
            entries.append((np.array(combo), theta, val))
    zs = np.array([e[0] for e in entries])
    coeff = np.ones(len(entries))
    for axis in range(m):
        zmin, zmax = zs[:, axis].min(), zs[:, axis].max()
        if zmax > zmin:
            at_edge = (zs[:, axis] == zmin) | (zs[:, axis] == zmax)
            coeff[at_edge] *= 0.5
    raw = coeff * np.exp(np.array([e[2] for e in entries]) - lp_mode)
    weights = raw / np.add.reduce(raw)
    return [(e[1], e[2], w) for e, w in zip(entries, weights)]


def _ccd_points(ctx: _Context, mode, axes, lp_mode, cache, stats):
    """Central composite design: center, corners, and axial points.

    All off-center points sit at radius f0 = sqrt(m + 1) in
    standardized coordinates.  Design weights give the center 1/(m+1)
    and split the rest evenly, which integrates the radial second
    moment of a standard Gaussian exactly; each design weight is then
    tilted by the ratio of the actual posterior to the standard
    Gaussian at its point.  Design points whose evaluation fails are
    dropped.
    """
    m = mode.size
    f0 = math.sqrt(m + 1.0)
    zs = [np.zeros(m)]
    for corner in itertools.product((-1.0, 1.0), repeat=m):
        zs.append(f0 / math.sqrt(m) * np.array(corner))
    for axis in range(m):
        for sign in (-1.0, 1.0):
            z = np.zeros(m)
            z[axis] = sign * f0
            zs.append(z)
    n_off = len(zs) - 1
    design = np.array([1.0 / (m + 1.0)] + [m / (m + 1.0) / n_off] * n_off)

    entries = []
    for z, dw in zip(zs, design):
        theta = mode + axes @ z
        lp = _integration_point(ctx, theta, cache, stats)
        if lp is None:
            continue
        tilt = dw * math.exp(lp - lp_mode + 0.5 * float(z @ z))
        entries.append((theta, lp, tilt))
    total = sum(e[2] for e in entries)
    return [(theta, lp, tilt / total) for theta, lp, tilt in entries]


def _explore(ctx: _Context) -> tuple[ThetaGrid, list[_Approx], dict]:
    """Weighted theta grid, the cached Gaussian approximation at each of
    its points, and the exploration's ``FitDiagnostics`` fields."""
    cache: dict = {}
    mode, stats = _theta_mode(ctx, cache)
    stats["theta_points_retried"] = 0
    stats["theta_points_failed"] = 0
    m = mode.size
    if m == 0:
        lp, approx = _log_posterior_theta(ctx, mode, cache)
        grid = ThetaGrid(
            points=(ThetaPoint(mode, lp, 1.0),),
            mode=mode,
            mode_hessian=np.zeros((0, 0)),
        )
        return grid, [approx], stats
    hess = _theta_hessian(ctx, mode, cache)
    axes = _standardizer(hess)
    lp_mode, _ = _log_posterior_theta(ctx, mode, cache)
    method = ctx.int_strategy
    if method == "auto":
        method = "grid" if m <= 2 else "ccd"
    points_of = _grid_points if method == "grid" else _ccd_points
    entries = points_of(ctx, mode, axes, lp_mode, cache, stats)
    points = tuple(ThetaPoint(theta, lp, w) for theta, lp, w in entries)
    approxes = [_log_posterior_theta(ctx, p.theta, cache)[1] for p in points]
    grid = ThetaGrid(points=points, mode=mode, mode_hessian=hess)
    return grid, approxes, stats


def explore_theta(spec: mdl.ModelSpec, data: mdl.Dataset, int_strategy: str = "auto") -> ThetaGrid:
    """Locate the hyperparameter mode and build the weighted grid."""
    ctx = _Context(spec, data, int_strategy)
    grid, _, _ = _explore(ctx)
    return grid


# ---------------------------------------------------------------------------
# Latent marginals


def _normal_pdf(x, mean, sd):
    z = (x - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


_SKEW_MAX = 0.9952717  # supremum of |skewness| for the skew-normal family


def _skew_normal_std_params(mean: float, gamma3: float) -> tuple[float, float, float]:
    """Location/scale/shape of a skew normal with given mean, variance 1."""
    g = float(np.clip(gamma3, -0.985 * _SKEW_MAX, 0.985 * _SKEW_MAX))
    if g == 0.0:
        return mean, 1.0, 0.0
    t = (2.0 * abs(g) / (4.0 - math.pi)) ** (2.0 / 3.0)
    delta2 = 0.5 * math.pi * t / (1.0 + t)
    delta = math.copysign(math.sqrt(min(delta2, 0.999999)), g)
    omega = 1.0 / math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
    xi = mean - omega * delta * math.sqrt(2.0 / math.pi)
    alpha = delta / math.sqrt(1.0 - delta * delta)
    return xi, omega, alpha


def _skew_normal_pdf(x, xi, omega, alpha):
    z = (x - xi) / omega
    return 2.0 / omega * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * ndtr(alpha * z)


def _block_rows(ctx: _Context, block: int) -> np.ndarray:
    """B of latent block ``block``: one column per latent of the block, its
    row of the constraint basis, or without a constraint its unit vector."""
    lo = block * MARGINAL_BLOCK
    hi = min(lo + MARGINAL_BLOCK, ctx.dim_x)
    if ctx.basis is not None:
        return ctx.basis[lo:hi].T
    rows = np.zeros((ctx.dim_u, hi - lo))
    rows[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    return rows


def _sla_coefficients(ctx: _Context, theta: np.ndarray, mode_u: np.ndarray, factor: Factor, halves: dict, norms: dict) -> dict:
    """(gamma1, gamma3), one row per latent, of each block of ``halves``,
    which maps a block to its L^{-1} B, with ``norms`` its column norms
    (the latents' sds).  With M = L^{-1} J', var(eta_m) is the squared
    norm of column m of M, and cov(eta_m, x_i) = M_m' L^{-1} b_i."""
    lj = factor.forward(ctx.j.T)  # dim_u x n
    var_eta = np.einsum("dm,dm->m", lj, lj)
    g3 = mdl.eta_third_derivative(ctx.spec, ctx.eta(mode_u), theta, ctx.data)
    g3_var = g3 * var_eta
    out = {}
    for block, half in halves.items():
        c = lj.T @ half  # cov(eta_m, x_i), n x block width
        sigma = norms[block]
        a1 = c.T @ g3_var
        a3 = (c**3).T @ g3
        out[block] = np.stack([0.5 * (a1 / sigma - a3 / sigma**3), a3 / sigma**3], axis=1)
    return out


def _point_moments(ctx: _Context, theta: np.ndarray, approx: _Approx, at: list, skew: bool, columns: bool):
    """What the mixture reads of the Gaussian approximation at one grid
    point, for the latents at ``at`` (block and column in the block of
    each): their conditional sds (K,), and where asked their skew-normal
    coefficients (K x 2, gamma1 and gamma3) and covariance columns
    H^{-1} b_i (K x dim_u); None where not asked.

    The curvature H = L L' is rebuilt from the cached predictor, and each
    block that holds a requested latent is solved once, as L^{-1} B."""
    factor = _point_curvature(ctx, theta, approx.eta)[1]
    halves = {b: factor.forward(_block_rows(ctx, b)) for b in sorted({b for b, _ in at})}
    norms = {b: np.sqrt(np.einsum("ij,ij->j", half, half)) for b, half in halves.items()}
    sds = np.array([norms[b][c] for b, c in at])
    sla = cols = None
    if skew:
        coeffs = _sla_coefficients(ctx, theta, approx.mode_u, factor, halves, norms)
        sla = np.array([coeffs[b][c] for b, c in at])
    if columns:
        full = {b: factor.sample(half) for b, half in halves.items()}  # H^{-1} B
        cols = np.array([full[b][:, c] for b, c in at])
    return sds, sla, cols


# Members of one lockstep run of profile scans are taken in chunks whose
# stacked arrays (about 4 d^2 + 3 n d floats per member) stay under this
# many bytes; chunking changes no bit.  Lockstep pays at small d, where
# a chunk of this size holds every scan of a fit (70 members at d = 6,
# n = 200).  At large d a member's arrays are large and its Newton steps
# dominate: a default BYM fit at d = 129 (52 scans, two per chunk here)
# peaks about 1.3 MB above the scan-at-a-time fit, and 45 MB above it with
# every scan in one chunk.
FL_CHUNK_BYTES = 2 * 2**20


def _fl_profiles(ctx: _Context, scans) -> list:
    """Full-Laplace log densities of every profile scan of a fit, run in lockstep.

    ``scans`` holds one ``(theta, mode_u, cov_col, index, v_grid)`` per
    scan: a grid point, its Gaussian approximation's mode and column
    ``index`` of its covariance, the component and the values to scan.
    For each fixed value ``v`` the remaining components are re-maximized
    by ``_ascend``, warm-started from the previous value's solution (the
    first from the mode), and the profile value is corrected by minus
    half the log determinant of the remaining-block curvature.  With a
    single latent component the correction is zero and the profile
    equals the exact unnormalized log posterior of that component.  A
    point whose ascent fails (non-positive-definite curvature, predictor
    overflow) is dropped as ``-inf``.

    Every scan advances value by value together with the others of its
    chunk, each its own member of one ``_ascend`` call per value, so a
    scan's bits depend neither on the chunk nor on the scans beside it.
    Returns per scan the log densities and the number of values where
    the ascent stalled or ran out of iterations; their values are kept.
    """
    d, n = ctx.dim_u, ctx.n
    size = max(1, FL_CHUNK_BYTES // (8 * (4 * d * d + 3 * n * d)))
    out = []
    for start in range(0, len(scans), size):
        out += _fl_chunk(ctx, scans[start : start + size])
    return out


def _fl_chunk(ctx: _Context, scans) -> list:
    """``_fl_profiles`` of one chunk of scans."""
    k = len(scans)
    thetas = np.array([s[0] for s in scans], dtype=float)
    priors = {}
    for th in thetas:
        if th.tobytes() not in priors:
            priors[th.tobytes()] = ctx.prior_precision_u(th)
    p_mats = np.array([priors[th.tobytes()] for th in thetas])
    # One binding of the chunk's grid points serves every scanned value.
    bound = mdl.bind(ctx.spec, thetas, ctx.data)
    index = np.array([s[3] for s in scans])
    free = np.array([[c for c in range(ctx.dim_u) if c != i] for i in index], dtype=int)
    u = np.array([s[1] for s in scans])
    shift = np.array([cov_col / cov_col[i] for _, _, cov_col, i, _ in scans])
    v_grid = np.array([s[4] for s in scans])
    rows = np.arange(k)
    logd = np.full(v_grid.shape, -np.inf)
    unconverged = np.zeros(k, dtype=int)
    for g_idx in range(v_grid.shape[1]):
        v = v_grid[:, g_idx]
        # Warm start: the last solution moved along the Gaussian
        # conditional mean to the new value.  Without the move the first
        # gradient carries the whole step in v, and the stop rule's
        # gradient test, relative to that first gradient, stops early.
        start = u + shift * (v - u[rows, index])[:, None]
        start[rows, index] = v
        u_hat, _, f, log_det_half, _, outcome, _ = _ascend(ctx, bound, p_mats, start, free)
        ok = np.array([isinstance(o, str) for o in outcome])
        unconverged += [o in ("stalled", "max_iter") for o in outcome]
        logd[ok, g_idx] = f[ok] - log_det_half[ok]
        u[ok] = u_hat[ok]
    return list(zip(logd, unconverged.tolist()))


def _mix_marginals(ctx: _Context, grid: ThetaGrid, approxes, strategy: Strategy, indices):
    """Mixture over the theta grid of per-theta conditional marginals.

    Builds the marginals of the latent components at ``indices`` (model
    order) and returns them with their ``FitDiagnostics`` fields; with
    none requested, no per-theta moment is computed.

    The moments of each grid point come from triangular solves with the
    factor of its curvature, never from its inverse (``_point_moments``):
    L^{-1} B for B the requested latents' rows of the constraint basis
    (unit vectors without a constraint).  B is solved in the fixed blocks
    of ``MARGINAL_BLOCK`` consecutive latents that hold the requested
    ones: a solve can round a column differently with other columns
    beside it, and a fixed block keeps each marginal identical to the
    same marginal of a fit of every latent.  A grid point costs O(d^2)
    per block, and O(n d^2) more where skew coefficients are read; memory
    grows as O(G d) over G grid points.  Under FULL_LAPLACE every profile
    scan, one per requested component and scanned point, runs in one
    lockstep ``_fl_profiles`` call before the mixture.
    """
    weights = grid.weights
    fl_scan = weights >= FL_MIN_WEIGHT * weights.max()
    scanned = int(fl_scan.sum()) if strategy is Strategy.FULL_LAPLACE else 0
    if not indices:
        return [], {"unreliable_latents": [], "fl_scanned_points": scanned, "fl_unconverged_points": 0}
    means = np.array([ctx.to_x(a.mode_u) for a in approxes])[:, indices]  # G x K requested
    at = [divmod(i, MARGINAL_BLOCK) for i in indices]
    moments = []
    for g, (point, approx) in enumerate(zip(grid.points, approxes)):
        # Skew-normal coefficients are computed only where they are read:
        # at every point under SIMPLIFIED_LAPLACE, and under FULL_LAPLACE
        # at the points too light for a profile scan.
        skew = strategy is Strategy.SIMPLIFIED_LAPLACE or (strategy is Strategy.FULL_LAPLACE and not fl_scan[g])
        columns = strategy is Strategy.FULL_LAPLACE and bool(fl_scan[g])
        moments.append(_point_moments(ctx, point.theta, approx, at, skew, columns))
    sds, sla, cov_cols = zip(*moments)
    sds = np.array(sds)  # G x K
    lo = (means - MARGINAL_GRID_SDS * sds).min(axis=0)
    hi = (means + MARGINAL_GRID_SDS * sds).max(axis=0)
    vgrids = np.linspace(lo, hi, MARGINAL_GRID_POINTS, axis=1)  # K x P

    # Every profile scan of the fit, in one lockstep run: (g, i) maps to
    # the scanned values and the profile there.
    profiles = {}
    if strategy is Strategy.FULL_LAPLACE:
        scans = {}
        for k, i in enumerate(indices):
            for g in np.flatnonzero(fl_scan):
                mu_ig, sd_ig = means[g, k], sds[g, k]
                v_fl = np.linspace(mu_ig - FL_GRID_SDS * sd_ig, mu_ig + FL_GRID_SDS * sd_ig, FL_GRID_POINTS)
                scans[g, i] = (grid.points[g].theta, approxes[g].mode_u, cov_cols[g][k], i, v_fl)
        results = _fl_profiles(ctx, list(scans.values()))
        profiles = {key: (scan[4], result) for (key, scan), result in zip(scans.items(), results)}

    unreliable = set()
    fl_unconverged = 0
    marginals = []
    for k, i in enumerate(indices):
        vg = vgrids[k]
        dens = np.zeros(MARGINAL_GRID_POINTS)
        for g, point in enumerate(grid.points):
            mu_ig = means[g, k]
            sd_ig = sds[g, k]
            if strategy is Strategy.GAUSSIAN:
                cond = _normal_pdf(vg, mu_ig, sd_ig)
            elif strategy is Strategy.SIMPLIFIED_LAPLACE or not fl_scan[g]:
                gamma1, gamma3 = sla[g][k]
                m_std = gamma1 + 0.5 * gamma3
                xi, omega, alpha = _skew_normal_std_params(m_std, gamma3)
                s = (vg - mu_ig) / sd_ig
                cond = _skew_normal_pdf(s, xi, omega, alpha) / sd_ig
            else:
                v_fl, (logd, unconverged) = profiles[g, i]
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


def hyper_marginals(grid: ThetaGrid, spec: mdl.ModelSpec) -> list:
    """Weighted-point marginals per hyperparameter, both scales."""
    names = mdl.hyper_names(spec)
    out = []
    thetas = grid.thetas
    weights = grid.weights
    for c, name in enumerate(names):
        internal = PosteriorMarginal.from_weighted_points(thetas[:, c], weights)
        natural_values = mdl.to_natural_hyper(name, thetas[:, c])
        natural = PosteriorMarginal.from_weighted_points(natural_values, weights)
        out.append(
            HyperMarginal(
                name=name,
                natural_name=mdl.natural_hyper_names(spec)[c],
                internal=internal,
                natural=natural,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Full fit


def fit(
    spec: mdl.ModelSpec,
    data: mdl.Dataset,
    strategy: Strategy = Strategy.GAUSSIAN,
    int_strategy: str = "auto",
    latents: list[str] | None = None,
) -> FitResult:
    """Deterministic end-to-end fit.

    ``latents`` names the latent components whose marginals are built
    (default: all).  A requested marginal is identical to the same
    component of a fit of all of them; the hyperparameter marginals,
    grid and ``pointwise_loglik`` do not depend on the request.  An
    unknown name raises ValueError.  ``int_strategy`` (one of
    ``INT_STRATEGIES``) picks the hyperparameter integration design; any
    other value raises ValueError.

    Raises FitFailure (rank_deficient) when the joint posterior
    precision is singular on the constraint-feasible subspace, which is
    what happens for an unconstrained intrinsic block plus an intercept.
    Raises FitFailure (strategy_unsupported) for ``FULL_LAPLACE`` with a
    sum-to-zero constraint, before any theta point is evaluated.
    """
    from . import __version__

    names = mdl.latent_names(spec, data.n)
    if latents is None:
        indices = range(len(names))
    else:
        wanted = set(latents)
        unknown = sorted(wanted - set(names))
        if unknown:
            raise ValueError(f"unknown latent components: {unknown}")
        indices = [i for i, name in enumerate(names) if name in wanted]
    ctx = _Context(spec, data, int_strategy)
    theta0 = np.zeros(mdl.hyper_dim(spec))

    # Propriety gate: curvature at the prior mean must be positive
    # definite on the feasible subspace before any optimization runs.
    eta0 = ctx.eta(np.zeros(ctx.dim_u))
    w0 = np.maximum(mdl.eta_derivatives(spec, eta0, theta0, data)[1], 0.0)
    h0 = _jwj_plus(ctx.j.T, ctx.blocks, w0, ctx.prior_precision_u(theta0))
    prop = propriety_check(h0)
    if not prop.proper:
        raise FitFailure(
            "rank_deficient",
            f"joint precision is rank deficient by {prop.deficiency} on the feasible subspace",
            deficiency=prop.deficiency,
        )
    if strategy is Strategy.FULL_LAPLACE and ctx.basis is not None:
        raise FitFailure(
            "strategy_unsupported",
            "full Laplace is not available with sum-to-zero constraints",
        )

    grid, approxes, explore_diag = _explore(ctx)
    marginals, marginal_diag = _mix_marginals(ctx, grid, approxes, strategy, indices)
    hypers = hyper_marginals(grid, spec)

    pointwise = np.array(
        [mdl.pointwise_loglik(spec, ctx.to_x(a.mode_u), p.theta, data) for p, a in zip(grid.points, approxes)]
    )
    diag = FitDiagnostics(
        strategy=strategy.value,
        propriety=str(prop),
        grid_size=len(grid.points),
        newton_iters=[a.iters for a in approxes],
        newton_converged=True,
        curvature_clipped=any(a.clipped for a in approxes),
        constrained_reduction=ctx.basis is not None,
        **explore_diag,
        **marginal_diag,
    )
    return FitResult(
        latent_names=[names[i] for i in indices],
        latent_marginals=marginals,
        hyper_marginals=hypers,
        theta_grid=grid,
        pointwise_loglik=pointwise,
        grid_weights=grid.weights,
        diagnostics=diag,
        int_strategy=int_strategy,
        version=__version__,
    )
