"""Latent Gaussian count models: specs, priors, likelihoods, derivatives.

A model couples an observation family (Gaussian with known precision,
Poisson with log link, or zero-inflated negative binomial) to a latent
Gaussian field made of fixed effects plus optional IID and intrinsic CAR
random-effect blocks.  The latent vector is laid out as

    [beta (intercept first if present) | iid block | icar block]

and the linear predictor is ``eta = X beta + eps + mu + log(offset)``.

Hyperparameters live on an internal (log / logit) scale in a fixed
order: for the zero-inflated family ``[logit_p_zero, log_dispersion]``
first, then one log precision per random-effect block whose prior is
not pinned.  Both inference engines evaluate the same functions here,
so cross-engine accuracy comparisons are comparisons of approximation
quality, not of model definitions.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sps

from .gmrf import AdjacencyGraph, Constraint, graph_laplacian, icar_log_density, sum_to_zero_rows

__all__ = [
    "Family",
    "NormalPrior",
    "LogGammaPrior",
    "FlatPrior",
    "FixedPrior",
    "PriorSet",
    "IidTerm",
    "IcarTerm",
    "ModelSpec",
    "Dataset",
    "LikelihoodOverflowError",
    "ZinbConstants",
    "bind",
    "poisson_spec",
    "bym_spec",
    "zinb_spec",
    "design_matrix",
    "latent_dim",
    "latent_slices",
    "latent_names",
    "hyper_names",
    "hyper_priors",
    "natural_hyper_names",
    "hyper_dim",
    "to_natural_hyper",
    "linear_predictor",
    "log_likelihood",
    "pointwise_loglik",
    "pointwise_loglik_from_eta",
    "zinb_nb_term",
    "zinb_mixture",
    "eta_in_range",
    "eta_derivatives",
    "eta_third_derivative",
    "log_prior_hyper",
    "latent_log_prior",
    "latent_prior_precision",
    "constraint_rows",
    "dataset_to_csv",
    "dataset_from_csv",
    "read_csv_table",
]

#: Linear predictors beyond this value would overflow exp() downstream.
ETA_OVERFLOW = 700.0


class Family(enum.Enum):
    GAUSSIAN = "gaussian"
    POISSON = "poisson"
    ZERO_INFLATED_NEG_BINOMIAL = "zinb"


class LikelihoodOverflowError(FloatingPointError):
    """Non-finite or overflowing linear predictor; never a silent NaN."""

    def __init__(self, index: int, value: float):
        self.index = int(index)
        self.value = float(value)
        super().__init__(f"linear predictor overflow at observation {index}: eta={value!r}")


# ---------------------------------------------------------------------------
# Priors


@dataclass(frozen=True)
class NormalPrior:
    """Normal prior with mean and standard deviation."""

    mean: float = 0.0
    sd: float = 1000.0

    def __post_init__(self):
        if not (self.sd > 0.0 and math.isfinite(self.sd)):
            raise ValueError("sd must be positive and finite")

    @classmethod
    def from_precision(cls, mean: float, precision: float) -> "NormalPrior":
        if not (precision > 0.0):
            raise ValueError("precision must be positive")
        return cls(mean, 1.0 / math.sqrt(precision))

    def logpdf(self, x: float) -> float:
        z = (x - self.mean) / self.sd
        return -0.5 * z * z - math.log(self.sd) - 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class LogGammaPrior:
    """Prior on a log precision t with exp(t) ~ Gamma(shape, rate), whose
    density is ~ x^{shape-1} e^{-rate x}."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.rate > 0.0):
            raise ValueError("shape and rate must be positive")

    def logpdf(self, t: float) -> float:
        # Change of variables x = exp(t): log Gamma(x; a, rate) + t
        a, b = self.shape, self.rate
        return a * math.log(b) - math.lgamma(a) + a * t - b * math.exp(t)


@dataclass(frozen=True)
class FlatPrior:
    """Improper flat prior on the internal scale."""

    def logpdf(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class FixedPrior:
    """Pin an internal-scale value; the component is not a hyperparameter."""

    log_value: float

    def __post_init__(self):
        if not math.isfinite(self.log_value):
            raise ValueError("fixed value must be finite")


PrecisionPrior = LogGammaPrior | FlatPrior | FixedPrior


@dataclass(frozen=True)
class PriorSet:
    """All priors for one model.

    ``log_precision_priors`` is keyed by block kind ("iid" / "icar").
    The zero-inflation priors only apply to the zero-inflated family.
    A normal fixed-effect prior must be zero-mean (``ModelSpec`` checks
    it).  A flat fixed-effect prior contributes no curvature, which lets a
    model be genuinely improper when the likelihood leaves a direction
    unidentified.
    """

    fixed_effect: NormalPrior | FlatPrior = NormalPrior(0.0, 1000.0)
    log_precision_priors: dict = field(default_factory=dict)
    logit_zero_prior: NormalPrior = NormalPrior.from_precision(-1.0, 0.2)
    log_dispersion_prior: NormalPrior | FlatPrior = FlatPrior()


# ---------------------------------------------------------------------------
# Random-effect terms and the model spec


@dataclass(frozen=True)
class IidTerm:
    """Exchangeable Gaussian block, one effect per observation."""

    kind: str = field(default="iid", init=False)


@dataclass(frozen=True)
class IcarTerm:
    """Intrinsic CAR block on the dataset's graph.  Both engines read
    ``constraint``, and nothing else sets it (see ``gmrf.Constraint``)."""

    constraint: Constraint = Constraint.NONE
    half_exponent: bool = False
    kind: str = field(default="icar", init=False)


@dataclass(frozen=True)
class ModelSpec:
    family: Family
    fixed_effects: tuple[str, ...] = ()
    offset: str | None = None
    include_intercept: bool = True
    random_effects: tuple = ()
    priors: PriorSet = field(default_factory=PriorSet)
    gaussian_obs_precision: float | None = None
    allow_improper: bool = False

    def __post_init__(self):
        object.__setattr__(self, "fixed_effects", tuple(self.fixed_effects))
        object.__setattr__(self, "random_effects", tuple(self.random_effects))
        kinds = [t.kind for t in self.random_effects]
        if kinds.count("iid") > 1 or kinds.count("icar") > 1:
            raise ValueError("at most one iid and one icar term are supported")
        if self.family is Family.GAUSSIAN:
            if not (self.gaussian_obs_precision and self.gaussian_obs_precision > 0):
                raise ValueError("gaussian family needs a positive observation precision")
        for term in self.random_effects:
            prior = self.priors.log_precision_priors.get(term.kind)
            if prior is None:
                raise ValueError(f"missing log-precision prior for {term.kind!r} block")
        prior = self.priors.fixed_effect
        if isinstance(prior, NormalPrior) and prior.mean != 0.0:
            raise ValueError("the fixed-effect prior must be zero-mean, NormalPrior(0, sd), or flat")
        icar = self.icar_term
        if (
            icar is not None
            and icar.constraint is Constraint.NONE
            and self.include_intercept
            and not self.allow_improper
        ):
            raise ValueError(
                "an unconstrained icar block together with an intercept leaves the "
                "level unidentified; drop the intercept, add a sum-to-zero "
                "constraint, or set allow_improper=True to run anyway"
            )

    @property
    def iid_term(self) -> IidTerm | None:
        for t in self.random_effects:
            if t.kind == "iid":
                return t
        return None

    @property
    def icar_term(self) -> IcarTerm | None:
        for t in self.random_effects:
            if t.kind == "icar":
                return t
        return None

    @property
    def n_fixed(self) -> int:
        return len(self.fixed_effects) + (1 if self.include_intercept else 0)


def poisson_spec(
    covariates: tuple[str, ...] = ("x",),
    offset: str | None = "total",
    include_intercept: bool = True,
    iid_prior: PrecisionPrior | None = None,
    fixed_sd: float = 1000.0,
) -> ModelSpec:
    """Poisson regression with log link and an IID overdispersion block."""
    priors = PriorSet(
        fixed_effect=NormalPrior(0.0, fixed_sd),
        log_precision_priors={"iid": iid_prior if iid_prior is not None else LogGammaPrior(1.0, 5e-5)},
    )
    return ModelSpec(
        family=Family.POISSON,
        fixed_effects=covariates,
        offset=offset,
        include_intercept=include_intercept,
        random_effects=(IidTerm(),),
        priors=priors,
    )


def bym_spec(
    covariates: tuple[str, ...] = ("x",),
    offset: str | None = "total",
    include_intercept: bool = False,
    constraint: Constraint = Constraint.NONE,
    iid_prior: PrecisionPrior | None = None,
    icar_prior: PrecisionPrior | None = None,
    half_exponent: bool = False,
    fixed_sd: float = 1000.0,
    allow_improper: bool = False,
) -> ModelSpec:
    """Poisson likelihood with both IID and intrinsic CAR blocks.

    The default omits the intercept, which is the safe way to identify
    the level of an unconstrained intrinsic field.
    """
    priors = PriorSet(
        fixed_effect=NormalPrior(0.0, fixed_sd),
        log_precision_priors={
            "iid": iid_prior if iid_prior is not None else LogGammaPrior(1.0, 5e-4),
            "icar": icar_prior if icar_prior is not None else LogGammaPrior(1.0, 5e-4),
        },
    )
    return ModelSpec(
        family=Family.POISSON,
        fixed_effects=covariates,
        offset=offset,
        include_intercept=include_intercept,
        random_effects=(IidTerm(), IcarTerm(constraint=constraint, half_exponent=half_exponent)),
        priors=priors,
        allow_improper=allow_improper,
    )


def zinb_spec(
    covariates: tuple[str, ...],
    offset: str | None = "population",
    include_intercept: bool = True,
    fixed_sd: float = 1000.0,
) -> ModelSpec:
    """Zero-inflated negative binomial regression without random effects."""
    return ModelSpec(
        family=Family.ZERO_INFLATED_NEG_BINOMIAL,
        fixed_effects=tuple(covariates),
        offset=offset,
        include_intercept=include_intercept,
        priors=PriorSet(fixed_effect=NormalPrior(0.0, fixed_sd)),
    )


# ---------------------------------------------------------------------------
# Dataset


@dataclass(frozen=True)
class Dataset:
    """Observed counts plus named covariate columns.

    ``offset`` is the raw (positive) exposure; the log is applied when
    the model spec names an offset.  ``graph`` is required by specs with
    an intrinsic CAR block.  ``generating_values`` records the true
    parameter values for simulated data.
    """

    y: np.ndarray
    covariates: dict
    offset: np.ndarray | None = None
    graph: AdjacencyGraph | None = None
    generating_values: dict | None = None

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("y must be a nonempty vector")
        object.__setattr__(self, "y", y)
        cov = {k: np.asarray(v, dtype=np.float64) for k, v in self.covariates.items()}
        for name, col in cov.items():
            if col.shape != y.shape:
                raise ValueError(f"covariate {name!r} length mismatch")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"covariate {name!r} has non-finite entries")
        object.__setattr__(self, "covariates", cov)
        if self.offset is not None:
            off = np.asarray(self.offset, dtype=np.float64)
            if off.shape != y.shape:
                raise ValueError("offset length mismatch")
            if not np.all(off > 0.0):
                raise ValueError("offset must be strictly positive")
            object.__setattr__(self, "offset", off)
        if self.graph is not None and self.graph.n_nodes != y.size:
            raise ValueError("graph node count must match the number of observations")
        # Likelihood constants, computed once and shared read-only by
        # every call.  Plain attributes, not fields, so equality and repr
        # see only the data above.
        y_float = y.astype(np.float64)
        log_y_factorial = sps.gammaln(y_float + 1.0)
        # The y = 0 sites as an index: the ZINB kernels gather and
        # scatter them, which an index does in fewer steps than a mask.
        zero = np.flatnonzero(y == 0)
        # The sorted distinct counts and each site's place among them: the
        # ZINB dispersion constants are built per distinct count and
        # gathered to the sites.
        y_distinct, y_site = np.unique(y_float, return_inverse=True)
        for arr in (y_float, log_y_factorial, zero, y_distinct, y_site):
            arr.flags.writeable = False
        object.__setattr__(self, "_y_float", y_float)
        object.__setattr__(self, "_log_y_factorial", log_y_factorial)
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_any_zero", bool(zero.size))
        object.__setattr__(self, "_y_distinct", y_distinct)
        object.__setattr__(self, "_y_site", y_site)

    @property
    def n(self) -> int:
        return int(self.y.size)


# ---------------------------------------------------------------------------
# Layout helpers


def design_matrix(spec: ModelSpec, data: Dataset) -> np.ndarray:
    """Fixed-effect design, intercept column first when present."""
    cols = []
    if spec.include_intercept:
        cols.append(np.ones(data.n))
    for name in spec.fixed_effects:
        if name not in data.covariates:
            raise ValueError(f"dataset lacks covariate {name!r}")
        cols.append(data.covariates[name])
    if not cols:
        return np.zeros((data.n, 0))
    return np.column_stack(cols)


def latent_dim(spec: ModelSpec, n: int) -> int:
    d = spec.n_fixed
    if spec.iid_term is not None:
        d += n
    if spec.icar_term is not None:
        d += n
    return d


def latent_slices(spec: ModelSpec, n: int) -> dict:
    out = {}
    pos = spec.n_fixed
    out["beta"] = slice(0, pos)
    if spec.iid_term is not None:
        out["iid"] = slice(pos, pos + n)
        pos += n
    if spec.icar_term is not None:
        out["icar"] = slice(pos, pos + n)
        pos += n
    return out


def latent_names(spec: ModelSpec, n: int) -> list[str]:
    names = []
    if spec.include_intercept:
        names.append("intercept")
    names.extend(f"beta_{c}" for c in spec.fixed_effects)
    if spec.iid_term is not None:
        names.extend(f"iid_{i}" for i in range(n))
    if spec.icar_term is not None:
        names.extend(f"icar_{i}" for i in range(n))
    return names


def _free_precision_blocks(spec: ModelSpec) -> list[str]:
    out = []
    for term in spec.random_effects:
        if not isinstance(spec.priors.log_precision_priors[term.kind], FixedPrior):
            out.append(term.kind)
    return out


def hyper_names(spec: ModelSpec) -> list[str]:
    """Internal-scale hyperparameter names in canonical order."""
    names = []
    if spec.family is Family.ZERO_INFLATED_NEG_BINOMIAL:
        names += ["logit_p_zero", "log_dispersion"]
    names += [f"log_precision_{kind}" for kind in _free_precision_blocks(spec)]
    return names


def hyper_priors(spec: ModelSpec) -> list:
    """The prior of each hyperparameter, in ``hyper_names`` order."""
    zi = spec.family is Family.ZERO_INFLATED_NEG_BINOMIAL
    head = [spec.priors.logit_zero_prior, spec.priors.log_dispersion_prior] if zi else []
    return head + [spec.priors.log_precision_priors[kind] for kind in _free_precision_blocks(spec)]


_NATURAL_NAME = {
    "logit_p_zero": "p_zero",
    "log_dispersion": "dispersion",
    "log_precision_iid": "precision_iid",
    "log_precision_icar": "precision_icar",
}


def natural_hyper_names(spec: ModelSpec) -> list[str]:
    return [_NATURAL_NAME[n] for n in hyper_names(spec)]


def hyper_dim(spec: ModelSpec) -> int:
    return len(hyper_names(spec))


def fixed_effect_precision(spec: ModelSpec) -> float:
    """Prior precision of each fixed effect; zero for a flat prior."""
    prior = spec.priors.fixed_effect
    if isinstance(prior, FlatPrior):
        return 0.0
    return 1.0 / prior.sd**2


def to_natural_hyper(name: str, value):
    """Map one internal-scale hyper value (or array) to its natural scale."""
    if name == "logit_p_zero":
        return sps.expit(value)
    return np.exp(value)


def _block_precisions(spec: ModelSpec, hyper: np.ndarray) -> dict:
    """Internal log precision per random-effect block, fixed or free."""
    out = {}
    free = _free_precision_blocks(spec)
    base = 2 if spec.family is Family.ZERO_INFLATED_NEG_BINOMIAL else 0
    for term in spec.random_effects:
        prior = spec.priors.log_precision_priors[term.kind]
        if isinstance(prior, FixedPrior):
            out[term.kind] = prior.log_value
        else:
            out[term.kind] = float(hyper[base + free.index(term.kind)])
    return out


# ---------------------------------------------------------------------------
# Likelihood


def linear_predictor(spec: ModelSpec, latent: np.ndarray, data: Dataset) -> np.ndarray:
    latent = np.asarray(latent, dtype=np.float64)
    if latent.shape != (latent_dim(spec, data.n),):
        raise ValueError("latent vector has wrong length")
    sl = latent_slices(spec, data.n)
    x = design_matrix(spec, data)
    eta = x @ latent[sl["beta"]] if x.shape[1] else np.zeros(data.n)
    if "iid" in sl:
        eta = eta + latent[sl["iid"]]
    if "icar" in sl:
        eta = eta + latent[sl["icar"]]
    if spec.offset is not None:
        if data.offset is None:
            raise ValueError("spec names an offset but the dataset has none")
        eta = eta + np.log(data.offset)
    return eta


def _check_eta(eta: np.ndarray) -> None:
    # Fast path for the common in-range case, in one reduction; the
    # maximum propagates NaN and the comparison is false for it, so
    # non-finite values always reach the indexed checks.  On a (k, n)
    # stack the index is the site's within its row.
    if np.maximum.reduce(np.abs(eta), axis=None) <= ETA_OVERFLOW:
        return
    bad = ~np.isfinite(eta)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise LikelihoodOverflowError(i % eta.shape[-1], eta.flat[i])
    big = np.abs(eta) > ETA_OVERFLOW
    if np.any(big):
        i = int(np.flatnonzero(big)[0])
        raise LikelihoodOverflowError(i % eta.shape[-1], eta.flat[i])


def eta_in_range(eta: np.ndarray) -> np.ndarray:
    """Per row of a (k, n) predictor, whether the kernels accept it: False
    exactly on the rows where ``_check_eta`` raises, those with a
    non-finite entry or one beyond ``ETA_OVERFLOW`` in absolute value."""
    # The same reduction as _check_eta's fast path, row by row.
    return np.maximum.reduce(np.abs(eta), axis=-1) <= ETA_OVERFLOW


def _zinb_params(hyper) -> tuple[float, float]:
    """(logit p_zero, dispersion n) from one row of hyperparameters."""
    theta1 = float(hyper[0])
    size = float(np.exp(hyper[1]))
    if not (size > 0.0 and math.isfinite(size)):
        raise LikelihoodOverflowError(-1, size)
    return theta1, size


def _dispersion_constants(data: Dataset, size: float) -> dict:
    # size + y and its gammaln are built once per distinct count and
    # gathered to the sites: the operations are elementwise, so each site
    # gets the bits of the per-site expression.
    size_plus_y = size + data._y_distinct
    site = data._y_site
    consts = {
        "log_size": np.log(size),
        "log_nb_const": (sps.gammaln(size_plus_y) - sps.gammaln(size))[site] - data._log_y_factorial,
        "size_plus_y": size_plus_y[site],
    }
    # -(size + y) * size, the leading factor of the second and third
    # derivatives; a product's sign is exact, so the bits are the same.
    consts["a"] = consts["size_plus_y"] * -size
    for value in consts.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return consts


_ZINB_STACKED = ("log_nb_const", "size_plus_y", "a")


class ZinbConstants:
    """The parts of the ZINB kernels that depend only on y and the
    hyperparameters, bound to one row of hyperparameters or to a block of
    rows by ``bind``.

    ``parts`` is ``(log p_zero, log(1 - p_zero), size, size**2,
    dispersion constants)``, each computed with the same operations, in
    the same order, as the full expression it was taken from, so the
    kernels keep every bit.  The one-row form holds floats and read-only
    arrays over the sites, and serves a (k, n) stack of predictors that
    all share the row; a block of differing rows holds each part stacked
    per row, as (k, 1) columns and (k, n) arrays, and the one-row binding
    of each row in ``rows``.  Indexing selects rows of a block: one row,
    or rows that all share one binding, give its one-row form.
    """

    __slots__ = ("theta1", "size", "parts", "rows")

    def __init__(self, theta1, size, parts, rows=None):
        self.theta1 = theta1
        self.size = size
        self.parts = parts
        self.rows = rows

    def __getitem__(self, at):
        if self.rows is None:
            return self
        picked = np.arange(len(self.rows))[at]
        if picked.ndim == 0:
            return self.rows[int(picked)]
        rows = [self.rows[r] for r in picked.tolist()]
        if rows and all(r is rows[0] for r in rows):
            return rows[0]
        *scalars, consts = self.parts
        parts = (*(p[picked] for p in scalars), {name: v[picked] for name, v in consts.items()})
        return ZinbConstants(None, None, parts, rows)


def _stack(rows: list) -> ZinbConstants:
    """The binding of a block whose rows have the one-row bindings ``rows``."""
    first = rows[0]
    if all(r is first for r in rows):
        return first
    log_pz, log_1mpz, size, size_sq = (np.array(part)[:, None] for part in zip(*(r.parts[:4] for r in rows)))
    consts = {name: np.stack([r.parts[4][name] for r in rows]) for name in _ZINB_STACKED}
    consts["log_size"] = np.array([r.parts[4]["log_size"] for r in rows])[:, None]
    return ZinbConstants(None, None, (log_pz, log_1mpz, size, size_sq, consts), rows)


def bind(spec: ModelSpec, hyper, data: Dataset, like: ZinbConstants | None = None):
    """The likelihood constants of ``hyper``, one row (m,) or a (k, m)
    block, for the kernels to take in place of ``hyper``.

    A ZINB model gets a ``ZinbConstants``; each distinct row's parts are
    built once, and a part whose hyperparameter equals that of the
    one-row binding ``like`` is taken from it (a sampler proposal that
    moves one hyperparameter rebuilds only that one's part).  The
    Poisson and Gaussian kernels read no hyperparameter, and their
    binding is ``hyper`` itself.  A binding is passed through unchanged.
    A dispersion that overflows raises LikelihoodOverflowError.
    """
    if spec.family is not Family.ZERO_INFLATED_NEG_BINOMIAL or isinstance(hyper, ZinbConstants):
        return hyper
    if np.ndim(hyper) == 1:
        return _bind_row(data, *_zinb_params(hyper), like)
    keys = [_zinb_params(h) for h in hyper]
    rows = {}
    for key in keys:
        if key not in rows:
            rows[key] = _bind_row(data, *key, like)
    return _stack([rows[key] for key in keys])


def _bind_row(data: Dataset, theta1: float, size: float, like: ZinbConstants | None) -> ZinbConstants:
    """The one-row binding of ``(theta1, size)``, taking the ``logit p_zero``
    part and the dispersion part from the binding ``like`` where their
    values are the same."""
    if like is not None and like.theta1 == theta1:
        log_pz, log_1mpz = like.parts[:2]
    else:
        log_pz, log_1mpz = sps.log_expit(theta1), sps.log_expit(-theta1)
    if like is not None and like.size == size:
        consts = like.parts[4]
    else:
        consts = _dispersion_constants(data, size)
    return ZinbConstants(theta1, size, (log_pz, log_1mpz, size, size**2, consts))


def _pointwise_loglik_eta(spec: ModelSpec, eta: np.ndarray, hyper: np.ndarray, data: Dataset) -> np.ndarray:
    y = data._y_float
    if spec.family is Family.POISSON:
        return y * eta - np.exp(eta) - data._log_y_factorial
    if spec.family is Family.GAUSSIAN:
        kappa = spec.gaussian_obs_precision
        r = y - eta
        return 0.5 * np.log(kappa / (2.0 * np.pi)) - 0.5 * kappa * r * r
    # The caller has checked eta, so the NB term takes exp(eta) as held.
    bound = bind(spec, hyper, data)
    return zinb_mixture(spec, zinb_nb_term(spec, eta, bound, data, np.exp(eta))[1], bound, data)


def _zero_sites(data: Dataset, eta: np.ndarray):
    """The index of the y = 0 sites in an array shaped like ``eta``."""
    return data._zero if eta.ndim == 1 else (slice(None), data._zero)


def pointwise_loglik(spec: ModelSpec, latent: np.ndarray, hyper: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-observation log density, constants included."""
    eta = linear_predictor(spec, latent, data)
    _check_eta(eta)
    return _pointwise_loglik_eta(spec, eta, hyper, data)


# The kernels below take one predictor (n,) with its hyperparameters
# (m,), or a (k, n) stack of predictors with one row of a (k, m) block
# each (``zinb_mixture`` takes the NB term in place of the predictor).
# Every expression is written once for both: each row of a stacked call
# has the bits of the one-predictor call, and a stacked call raises if
# any row is out of range (``eta_in_range`` finds which).  ``hyper`` is
# the raw row or block, whose constants are then built on the spot, or
# its ``bind`` result, which a caller evaluating many predictors at one
# point builds once; the result is the same bits.  The kernels are pure
# functions of their arguments.


def pointwise_loglik_from_eta(spec: ModelSpec, eta: np.ndarray, hyper: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-observation log density from a precomputed linear predictor."""
    _check_eta(eta)
    return _pointwise_loglik_eta(spec, eta, hyper, data)


# Zero-inflated negative binomial:
#   P(y) = p_z 1[y=0] + (1 - p_z) NB(y; mu, size), mu = exp(eta)
# with NB(0) = (size / (size + mu))^size, evaluated in log space as the
# NB term, which p_z does not enter, and the mixture that adds p_z.


def zinb_nb_term(spec: ModelSpec, eta: np.ndarray, hyper, data: Dataset, mu: np.ndarray | None = None):
    """(exp(eta), log NB(y; exp(eta), size)) per observation of a ZINB
    model: the part of its log density that p_zero does not enter.  A
    caller that holds exp(eta) from an earlier call on this eta passes it
    as ``mu``, and the predictor check that call made is not repeated."""
    if mu is None:
        _check_eta(eta)
        mu = np.exp(eta)
    _, _, size, _, c = bind(spec, hyper, data).parts
    log_denom = np.log(size + mu)
    return mu, c["log_nb_const"] + size * (c["log_size"] - log_denom) + data._y_float * (eta - log_denom)


def zinb_mixture(spec: ModelSpec, log_nb: np.ndarray, hyper, data: Dataset) -> np.ndarray:
    """Per-observation ZINB log density from its NB term (``zinb_nb_term``),
    which it leaves as it was: the bits of ``pointwise_loglik_from_eta``
    on the same predictor."""
    log_pz, log_1mpz = bind(spec, hyper, data).parts[:2]
    out = log_1mpz + log_nb
    if data._any_zero:
        zero = _zero_sites(data, log_nb)
        out[zero] = np.logaddexp(log_pz, out[zero])
    return out


def eta_derivatives(spec: ModelSpec, eta: np.ndarray, hyper: np.ndarray, data: Dataset):
    """(dl/deta, -d2l/deta2) per observation, eta precomputed."""
    _check_eta(eta)
    return _eta_derivatives(spec, eta, hyper, data, third=False)


def eta_third_derivative(spec: ModelSpec, eta: np.ndarray, hyper: np.ndarray, data: Dataset) -> np.ndarray:
    """d3l/deta3 per observation, eta precomputed."""
    _check_eta(eta)
    return _eta_derivatives(spec, eta, hyper, data, third=True)


def log_likelihood(spec: ModelSpec, latent: np.ndarray, hyper: np.ndarray, data: Dataset) -> float:
    """Full log likelihood; equals the fixed-order sum of the pointwise terms."""
    return float(np.add.reduce(pointwise_loglik(spec, latent, hyper, data)))


def _eta_derivatives(spec: ModelSpec, eta: np.ndarray, hyper: np.ndarray, data: Dataset, third: bool):
    """d3l/deta3 per observation if ``third``, else (dl/deta, -d2l/deta2)."""
    y = data._y_float
    if spec.family is Family.POISSON:
        lam = np.exp(eta)
        return -lam if third else (y - lam, lam)
    if spec.family is Family.GAUSSIAN:
        kappa = spec.gaussian_obs_precision
        return np.zeros(eta.shape) if third else (kappa * (y - eta), np.full(eta.shape, kappa))
    log_pz, log_1mpz, size, size_sq, c = bind(spec, hyper, data).parts
    mu = np.exp(eta)
    denom = size + mu
    # Negative binomial component derivatives in eta:
    #   l' = y - mu (size + y) / (size + mu)
    #   l'' = -(size + y) size mu / (size + mu)^2
    #   l''' = -(size + y) size mu (size - mu) / (size + mu)^3
    if third:
        g3 = c["a"] * mu * (size - mu) / denom**3
    else:
        g1 = y - mu * c["size_plus_y"] / denom
        g2 = c["a"] * mu / denom**2
    if data._any_zero:
        zero = _zero_sites(data, eta)
        # Mixture at y=0: l = log(p_z + (1-p_z) f), f = (size/(size+mu))^size.
        # With w = (1-p_z) f / (p_z + (1-p_z) f) and s = dlog f/deta = -size mu/(size+mu):
        #   l'   = w s
        #   l''  = w (1-w) s^2 + w s'
        #   l''' = w(1-w)(1-2w) s^3 + 3 w(1-w) s s' + w s''
        mz = mu[zero]
        dz = denom[zero]
        log_f1mpz = log_1mpz + size * (c["log_size"] - np.log(dz))
        w = np.exp(log_f1mpz - np.logaddexp(log_pz, log_f1mpz))
        s = -size * mz / dz
        s1 = -size_sq * mz / dz**2
        if third:
            s2 = -size_sq * mz * (size - mz) / dz**3
            g3[zero] = w * (1.0 - w) * (1.0 - 2.0 * w) * s**3 + 3.0 * w * (1.0 - w) * s * s1 + w * s2
        else:
            g1[zero] = w * s
            g2[zero] = w * (1.0 - w) * s * s + w * s1
    return g3 if third else (g1, -g2)


# ---------------------------------------------------------------------------
# Priors on hyperparameters and the latent field


def log_prior_hyper(spec: ModelSpec, hyper: np.ndarray) -> float:
    """Sum of internal-scale log prior densities over the hyper vector."""
    hyper = np.asarray(hyper, dtype=np.float64)
    priors = hyper_priors(spec)
    if hyper.shape != (len(priors),):
        raise ValueError("hyper vector has wrong length")
    return float(sum(prior.logpdf(float(value)) for prior, value in zip(priors, hyper)))


def latent_log_prior(spec: ModelSpec, latent: np.ndarray, hyper: np.ndarray, data: Dataset) -> float:
    """Log density of the latent field given hyperparameters.

    Proper Gaussian terms carry their constants; the intrinsic CAR block
    contributes its unnormalized density, whose theta-dependent part is
    what matters for hyperparameter inference.
    """
    latent = np.asarray(latent, dtype=np.float64)
    sl = latent_slices(spec, data.n)
    prec = _block_precisions(spec, hyper)
    total = 0.0
    beta = latent[sl["beta"]]
    if beta.size and not isinstance(spec.priors.fixed_effect, FlatPrior):
        p = spec.priors.fixed_effect
        z = beta / p.sd
        total += float(-0.5 * z @ z - beta.size * (math.log(p.sd) + 0.5 * math.log(2.0 * math.pi)))
    if "iid" in sl:
        s = math.exp(prec["iid"])
        eps = latent[sl["iid"]]
        total += 0.5 * eps.size * (prec["iid"] - math.log(2.0 * math.pi)) - 0.5 * s * float(eps @ eps)
    if "icar" in sl:
        tau = math.exp(prec["icar"])
        total += icar_log_density(latent[sl["icar"]], _require_graph(data), tau, spec.icar_term.half_exponent)
    return float(total)


def _require_graph(data: Dataset) -> AdjacencyGraph:
    if data.graph is None:
        raise ValueError("model has an icar block but the dataset has no graph")
    return data.graph


def latent_prior_precision(spec: ModelSpec, hyper: np.ndarray, data: Dataset) -> np.ndarray:
    """Dense block-diagonal prior precision of the latent vector.

    Fixed effects get ``1/sd^2``, the IID block its precision times the
    identity, and the intrinsic block its precision times the graph
    Laplacian (rank n - k).  The pattern is fixed and theta only scales
    the blocks (Rue, Martino & Chopin 2009, section 3); this is the one
    place that builds it.
    """
    n = data.n
    sl = latent_slices(spec, n)
    prec = _block_precisions(spec, hyper)
    d = latent_dim(spec, n)
    p = np.zeros((d, d))
    fixed = np.arange(sl["beta"].stop)
    p[fixed, fixed] = fixed_effect_precision(spec)
    if "iid" in sl:
        iid = np.arange(sl["iid"].start, sl["iid"].stop)
        p[iid, iid] = math.exp(prec["iid"])
    if "icar" in sl:
        # Adding +0.0 turns the -0.0 of an underflowed precision times a
        # negative Laplacian entry into +0.0.
        p[sl["icar"], sl["icar"]] = graph_laplacian(_require_graph(data)) * math.exp(prec["icar"]) + 0.0
    return p


def constraint_rows(spec: ModelSpec, data: Dataset) -> np.ndarray | None:
    """The icar block's sum-to-zero constraint rows (``gmrf.sum_to_zero_rows``)
    over the full latent vector under ``SUM_TO_ZERO_KRIGING``; None
    otherwise."""
    term = spec.icar_term
    if term is None or term.constraint is Constraint.NONE:
        return None
    block = sum_to_zero_rows(_require_graph(data))
    rows = np.zeros((len(block), latent_dim(spec, data.n)))
    rows[:, latent_slices(spec, data.n)["icar"]] = block
    return rows


# ---------------------------------------------------------------------------
# CSV ingestion / emission


def dataset_to_csv(data: Dataset, path, y_name: str = "y", offset_name: str = "offset") -> None:
    """Write a dataset as a headed CSV, floats at full precision."""
    names = [y_name] + sorted(data.covariates) + ([offset_name] if data.offset is not None else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(data.n):
            row = [repr(int(data.y[i]))]
            for c in sorted(data.covariates):
                row.append(format(data.covariates[c][i], ".17g"))
            if data.offset is not None:
                row.append(format(data.offset[i], ".17g"))
            writer.writerow(row)


def read_csv_table(path) -> tuple[list, dict]:
    """The header of a headed CSV and its cells by column, as strings.

    Blank lines are skipped, and an empty file has no columns.  Raises
    ValueError when the header names a column twice (both columns would
    be read into one list) or when a row has more or fewer cells than
    the header (its cells would shift into the wrong columns).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"{path}: header repeats column {name!r}")
        table = {name: [] for name in header}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: ragged row {row!r}")
            for name, cell in zip(header, row):
                table[name].append(cell)
    return header, table


def dataset_from_csv(
    path,
    y_name: str = "y",
    offset_name: str | None = "offset",
    covariate_names: tuple[str, ...] | None = None,
    graph: AdjacencyGraph | None = None,
    generating_values: dict | None = None,
) -> Dataset:
    """Load a dataset from a headed CSV.

    ``covariate_names=None`` takes every column that is not the response
    or the offset.  Declared columns must exist.
    """
    header, table = read_csv_table(path)
    if y_name not in table:
        raise ValueError(f"{path}: missing response column {y_name!r}")
    y = np.array([int(v) for v in table[y_name]])
    offset = None
    if offset_name is not None and offset_name in table:
        offset = np.array([float(v) for v in table[offset_name]])
    if covariate_names is None:
        covariate_names = tuple(c for c in header if c != y_name and c != offset_name)
    cov = {}
    for name in covariate_names:
        if name not in table:
            raise ValueError(f"{path}: missing covariate column {name!r}")
        cov[name] = np.array([float(v) for v in table[name]])
    return Dataset(y=y, covariates=cov, offset=offset, graph=graph, generating_values=generating_values)
