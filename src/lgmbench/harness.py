"""Simulation-study orchestration, paired engine runs, and audits.

A study is described by a declarative :class:`StudyConfig`.  Four study
kinds are supported:

* ``poisson`` — counts from a log-linear model with an exchangeable
  (IID) noise term; both engines fit the generating model and the
  harness records percent-error (engine vs engine) and percent-change
  (engine vs generating value) for the slope and the noise standard
  deviation.
* ``bym`` — adds a spatially structured intrinsic CAR field on a
  lattice, sampled under a sum-to-zero constraint; the analysis model
  carries both random effects, and an intercept only when
  ``constraint_mode`` sets a sum-to-zero constraint on the field.
* ``selection`` — generates from one family, fits both the IID-only
  and the spatial model with both engines, and records which model the
  information criterion prefers per engine.
* ``zinb`` — a zero-inflated negative binomial regression with five
  standardized covariates and a log-population offset; the harness
  emits interquartile rate ratios with significance flags per engine.

:func:`run_study` runs every kind.  Its worker fits one dataset through
the kind's row function, which returns that dataset's rows per report
table; the runner joins them in dataset order.  ``run_paired_study``,
``run_selection_study`` and ``run_zinb_study`` are the same runner
behind a check of the kind.

A config records what defines the study.  ``workers`` says only how a
run is scheduled, so the config's JSON, its hash and the report leave
it out.  Every random quantity derives from the master seed through
named streams, datasets are independent work units scheduled over a
process pool, and results are assembled in dataset order — so reports
are byte-identical for any worker count.  ``reproducibility_audit``
proves that by running a study four times (two repeats at one and at
four workers) and comparing every serialized byte.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import laplace as lap
from . import mcmc as mc
from . import models as mdl
from .gmrf import (
    AdjacencyGraph,
    Constraint,
    IcarSpec,
    lattice_graph,
    read_edge_list,
    sample_icar_kriging,
    write_edge_list,
)
from .metrics import percent_change, percent_error, rate_ratio, select_model, waic
from .posterior import PosteriorMarginal
from .streams import stream, substream_seed

__all__ = [
    "GeneratingValues",
    "StudyConfig",
    "study_config",
    "config_from_json",
    "config_to_json",
    "config_hash",
    "default_lattice",
    "generate_poisson_data",
    "generate_bym_data",
    "generate_zinb_data",
    "generate_datasets",
    "Table",
    "ComparisonReport",
    "run_paired_study",
    "run_selection_study",
    "run_zinb_study",
    "run_study",
    "AuditReport",
    "reproducibility_audit",
    "emit_report",
]

STUDY_KINDS = ("poisson", "bym", "selection", "zinb")
SCALES = ("desk", "paper")


@dataclass(frozen=True)
class GeneratingValues:
    """True parameter values used by the synthetic data generators."""

    intercept: float = 0.1
    beta_x: float = 0.05
    sigma: float = 1.0  # sd of the exchangeable noise
    tau: float = 1.0  # precision of the intrinsic CAR field
    p_zero: float = 0.3
    dispersion: float = 1.5
    zinb_intercept: float = -9.5
    zinb_betas: tuple = (0.15, -0.1, 0.0, 0.05, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "zinb_betas", tuple(float(b) for b in self.zinb_betas))


@dataclass(frozen=True)
class StudyConfig:
    kind: str
    n_datasets: int
    n_areas: int
    master_seed: int = 0
    mcmc_iterations: int = 100_000
    mcmc_burn_in: int = 10_000
    mcmc_thin: int = 10
    adaptation_window: int = 50
    constraint_mode: str = Constraint.NONE.value
    strategy: str = "full_laplace"
    int_strategy: str = "auto"
    generating: GeneratingValues = field(default_factory=GeneratingValues)
    selection_family: str = "poisson"
    covariate_csv: str | None = None
    graph_path: str | None = None
    workers: int = 1  # how the study runs, not what it is: left out of its JSON and hash

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}")
        if self.n_datasets < 1:
            raise ValueError("n_datasets must be >= 1")
        if self.n_areas < 1:
            raise ValueError("n_areas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        strategy = lap.Strategy(self.strategy)  # validates
        if self.int_strategy not in lap.INT_STRATEGIES:
            raise ValueError(f"int_strategy must be one of {lap.INT_STRATEGIES}, not {self.int_strategy!r}")
        if Constraint(self.constraint_mode) is not Constraint.NONE and strategy is lap.Strategy.FULL_LAPLACE:
            raise ValueError("full_laplace is not available with a sum-to-zero constraint")
        # Refused here, not after the Laplace fits have run: a chain needs
        # a burn-in of 0 or more short of its length, a positive thin and
        # a positive adaptation window, and the summaries (rate ratio,
        # percent error, WAIC) need two kept draws.
        if self.mcmc_thin < 1:
            raise ValueError("mcmc_thin must be >= 1")
        if self.mcmc_burn_in < 0:
            raise ValueError("mcmc_burn_in must be >= 0")
        if self.adaptation_window < 1:
            raise ValueError("adaptation_window must be >= 1")
        if self.mcmc_burn_in >= self.mcmc_iterations:
            raise ValueError("mcmc_burn_in must be smaller than mcmc_iterations")
        if (self.mcmc_iterations - self.mcmc_burn_in) // self.mcmc_thin < 2:
            raise ValueError("the chain settings keep fewer than 2 draws")

    def chain_config(self, dataset_index: int, *stream_path) -> mc.ChainConfig:
        return mc.ChainConfig(
            iterations=self.mcmc_iterations,
            burn_in=self.mcmc_burn_in,
            thin=self.mcmc_thin,
            seed=substream_seed(self.master_seed, "chain", dataset_index, *stream_path),
            adaptation_window=self.adaptation_window,
            # Only WAIC, in a selection study, reads the pointwise matrix.
            record_pointwise=self.kind == "selection",
        )


_DESK = {"n_datasets": 20, "n_areas": 50, "mcmc_iterations": 100_000, "mcmc_burn_in": 10_000, "mcmc_thin": 10}
_PAPER = {"n_datasets": 100, "n_areas": 296, "mcmc_iterations": 2_000_000, "mcmc_burn_in": 100_000, "mcmc_thin": 100}


def study_config(kind: str, scale: str = "desk", seed: int = 0, **overrides) -> StudyConfig:
    """Preset sizes for a study kind at desk or paper scale."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    base = dict(_DESK if scale == "desk" else _PAPER)
    if kind == "zinb":
        base["n_areas"] = 200 if scale == "desk" else 500
    base.update(kind=kind, master_seed=seed)
    base.update(overrides)
    return StudyConfig(**base)


def config_to_json(config: StudyConfig, path=None) -> str:
    """The study's JSON: every field but ``workers``, so the text, the
    hash and the report are the same for any worker count."""
    payload = asdict(config)
    del payload["workers"]
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def config_from_json(path) -> StudyConfig:
    """Build a config from a JSON file; a key that names no setting is a
    ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    gen = payload.pop("generating", None)
    config = StudyConfig(**_settings(StudyConfig, payload))
    if gen is not None:
        config = replace(config, generating=GeneratingValues(**_settings(GeneratingValues, gen)))
    return config


def _settings(cls, payload: dict) -> dict:
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown settings {unknown}")
    return payload


def config_hash(config: StudyConfig) -> str:
    return hashlib.sha256(config_to_json(config).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Covariates, graphs, generators


def default_lattice(n: int) -> AdjacencyGraph:
    """Near-square rook lattice with exactly ``n`` nodes."""
    rows = int(np.sqrt(n))
    while rows > 1 and n % rows:
        rows -= 1
    return lattice_graph(rows, n // rows)


def _study_graph(config: StudyConfig) -> AdjacencyGraph:
    if config.graph_path:
        return read_edge_list(config.graph_path, n_nodes=config.n_areas)
    return default_lattice(config.n_areas)


def _count_covariates(config: StudyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-per-study covariate x (percent scale) and exposure total."""
    n = config.n_areas
    if config.covariate_csv:
        x, total = _covariate_columns(config.covariate_csv, ("x", "total"), n)
        return x, total
    g = stream(config.master_seed, "covariates")
    x = g.uniform(0.0, 60.0, n)
    total = 50.0 + g.poisson(500.0, n).astype(float)
    return x, total


def _zinb_covariates(config: StudyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Five standardized covariate columns and a population offset."""
    n = config.n_areas
    if config.covariate_csv:
        *z, pop = _covariate_columns(config.covariate_csv, ("z1", "z2", "z3", "z4", "z5", "population"), n)
        return np.column_stack(z), pop
    g = stream(config.master_seed, "covariates")
    raw = g.standard_normal((n, 5))
    z = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    pop = np.floor(10.0 ** g.uniform(3.0, 5.5, n))
    return z, pop


def _covariate_columns(path, names: tuple[str, ...], n: int) -> list:
    """The first ``n`` values of each named column of a covariate file."""
    _, cols = mdl.read_csv_table(path)
    out = []
    for name in names:
        if name not in cols:
            raise ValueError(f"covariate file has no column {name!r}")
        if len(cols[name]) < n:
            raise ValueError("covariate file has fewer rows than n_areas")
        out.append(np.array([float(v) for v in cols[name][:n]]))
    return out


def generate_poisson_data(config: StudyConfig, attach_graph: bool = False) -> list:
    """Counts from exp(intercept + slope * x + noise) scaled by exposure.

    Covariates are drawn once per study and shared by every dataset;
    only the noise and the counts are redrawn per dataset.
    """
    return _count_data(config, _study_graph(config) if attach_graph else None, icar=False)


def generate_bym_data(config: StudyConfig, graph: AdjacencyGraph | None = None) -> list:
    """Adds a constrained intrinsic CAR field to the count generator."""
    return _count_data(config, graph if graph is not None else _study_graph(config), icar=True)


def _count_data(config: StudyConfig, graph: AdjacencyGraph | None, icar: bool) -> list:
    """The count datasets, each with ``graph``; with ``icar``, the
    predictor adds a field on it, drawn from the dataset's stream before
    the noise."""
    x, total = _count_covariates(config)
    gv = config.generating
    generating = {"intercept": gv.intercept, "beta_x": gv.beta_x, "sd_iid": gv.sigma}
    if icar:
        field_spec = IcarSpec(graph=graph, tau=gv.tau, constraint=Constraint.SUM_TO_ZERO_KRIGING)
        generating["tau_icar"] = gv.tau
    out = []
    for i in range(config.n_datasets):
        g = stream(config.master_seed, "dataset", i)
        eta = gv.intercept + gv.beta_x * x
        if icar:
            eta = eta + sample_icar_kriging(field_spec, g)
        eta = eta + g.normal(0.0, gv.sigma, config.n_areas)
        y = g.poisson(total * np.exp(eta))
        out.append(
            mdl.Dataset(
                y=y, covariates={"x": x}, offset=total, graph=graph, generating_values=dict(generating)
            )
        )
    return out


def generate_zinb_data(config: StudyConfig) -> list:
    """Zero-inflated negative binomial counts over standardized covariates."""
    z, pop = _zinb_covariates(config)
    gv = config.generating
    betas = np.asarray(gv.zinb_betas, dtype=float)
    if betas.size != z.shape[1]:
        raise ValueError("zinb_betas length must match the covariate count")
    out = []
    for i in range(config.n_datasets):
        g = stream(config.master_seed, "dataset", i)
        eta = gv.zinb_intercept + z @ betas + np.log(pop)
        mu = np.exp(eta)
        r = gv.dispersion
        y_nb = g.negative_binomial(r, r / (r + mu))
        zero = g.random(config.n_areas) < gv.p_zero
        y = np.where(zero, 0, y_nb)
        generating = {"p_zero": gv.p_zero, "dispersion": gv.dispersion, "intercept": gv.zinb_intercept}
        for k, b in enumerate(betas, start=1):
            generating[f"beta_z{k}"] = float(b)
        out.append(
            mdl.Dataset(
                y=y,
                covariates={f"z{k}": z[:, k - 1] for k in range(1, z.shape[1] + 1)},
                offset=pop,
                generating_values=generating,
            )
        )
    return out


def generate_datasets(config: StudyConfig) -> list:
    if config.kind == "poisson":
        return generate_poisson_data(config)
    if config.kind == "bym":
        return generate_bym_data(config)
    if config.kind == "selection":
        if config.selection_family == "poisson":
            return generate_poisson_data(config, attach_graph=True)
        if config.selection_family == "bym":
            return generate_bym_data(config)
        raise ValueError(f"unknown selection family {config.selection_family!r}")
    return generate_zinb_data(config)


# ---------------------------------------------------------------------------
# Analysis models and single-dataset fits


def _analysis_spec(config: StudyConfig, kind: str, data: mdl.Dataset) -> mdl.ModelSpec:
    """The model a study fits as ``kind``: a sum-to-zero constraint on
    the bym field identifies the level, so it comes with an intercept."""
    if kind == "poisson":
        return mdl.poisson_spec(covariates=("x",))
    if kind == "bym":
        c = Constraint(config.constraint_mode)
        return mdl.bym_spec(covariates=("x",), constraint=c, include_intercept=c is not Constraint.NONE)
    if kind == "zinb":
        names = tuple(sorted(data.covariates))
        return mdl.zinb_spec(covariates=names)
    raise ValueError(kind)


def _laplace_summary(result: lap.FitResult, param: str) -> tuple:
    """(mean, sd) of a tracked parameter from a deterministic fit: a
    latent, a hyperparameter on its natural scale, or ``sd_<block>``,
    the standard deviation of a precision block over the hyper grid."""
    if param in result.latent_names:
        m = result.latent_marginal(param)
    elif param.startswith("sd_"):
        col = [hm.name for hm in result.hyper_marginals].index("log_precision_" + param[3:])
        grid = result.theta_grid
        m = PosteriorMarginal.from_weighted_points(np.exp(-0.5 * grid.thetas[:, col]), grid.weights)
    else:
        m = result.hyper_marginal(param).natural
    return m.mean, m.sd


def _mcmc_summary(chain: mc.ChainOutput, param: str) -> tuple:
    """(mean, sd) of a tracked parameter from the chain, as
    ``mc.posterior_summary`` computes them for that one column: a latent,
    a hyperparameter on its natural scale, or ``sd_<block>``."""
    if param.startswith("sd_"):
        x = np.exp(-0.5 * chain.column("log_precision_" + param[3:]))
    elif param in chain.columns:
        x = chain.column(param)
    else:
        name = next(h for h, nat in mdl._NATURAL_NAME.items() if nat == param)
        x = mdl.to_natural_hyper(name, chain.column(name))
    return float(np.mean(x)), (float(np.std(x, ddof=1)) if x.size > 1 else 0.0)


def _laplace_fit(config, index, spec, data, failures, latents, model=None):
    """The study's deterministic fit, or None after a failure row."""
    try:
        return lap.fit(
            spec,
            data,
            strategy=lap.Strategy(config.strategy),
            int_strategy=config.int_strategy,
            latents=latents,
        )
    except (lap.FitFailure, mdl.LikelihoodOverflowError) as exc:
        failures.append(_failure_row(index, "laplace", model, getattr(exc, "cause", type(exc).__name__), exc))
        return None


def _chain(config, index, spec, data, failures, model=None):
    """The study's chain, or None after a failure row.  A selection
    study passes ``model``, which also names the chain's seed stream."""
    path = () if model is None else (model,)
    try:
        return mc.run_chain(spec, data, config.chain_config(index, *path))
    except (mc.ChainAbort, mdl.LikelihoodOverflowError) as exc:
        failures.append(_failure_row(index, "mcmc", model, type(exc).__name__, exc))
        return None


def _failure_row(index, engine, model, cause, exc) -> dict:
    label = engine if model is None else f"{engine}/{model}"
    return {"dataset": index, "engine": label, "cause": cause, "detail": str(exc)}


# Tracked parameters of a paired study, each with the key of its
# generating value in ``Dataset.generating_values``.
_TRACKED = {
    "poisson": {"beta_x": "beta_x", "sd_iid": "sd_iid"},
    "bym": {"beta_x": "beta_x", "sd_iid": "sd_iid", "precision_icar": "tau_icar"},
}

# Candidate models of a selection study, in fitting order.
_SELECTION_MODELS = ("poisson", "bym")


def _paired_rows(config, index, data, failures) -> dict:
    """Both engines on the generating model: PE and PC per tracked parameter."""
    tracked = _TRACKED[config.kind]
    spec = _analysis_spec(config, config.kind, data)
    latents = [p for p in tracked if p in mdl.latent_names(spec, data.n)]
    result = _laplace_fit(config, index, spec, data, failures, latents)
    chain = _chain(config, index, spec, data, failures)
    if result is None or chain is None:
        return {}
    verdict = mc.diagnose(chain).verdict
    rows = []
    for param, key in tracked.items():
        lm, ls = _laplace_summary(result, param)
        mm, ms = _mcmc_summary(chain, param)
        try:
            pe = percent_error(lm, mm, ms)
        except ValueError as exc:
            # The chain kept one value of the parameter: no spread to
            # measure the error against.
            failures.append(_failure_row(index, "mcmc", None, type(exc).__name__, exc))
            return {}
        gv = data.generating_values.get(key) if data.generating_values else None
        rows.append(
            {
                "dataset": index,
                "parameter": param,
                "laplace_mean": lm,
                "laplace_sd": ls,
                "mcmc_mean": mm,
                "mcmc_sd": ms,
                "pe": pe,
                "pc_laplace": percent_change(lm, gv) if gv else None,
                "pc_mcmc": percent_change(mm, gv) if gv else None,
                "mcmc_verdict": verdict,
            }
        )
    return {"results": rows}


def _selection_rows(config, index, data, failures) -> dict:
    """WAIC of both candidate models per engine, the model each engine
    selects, and the cross-engine WAIC difference per model."""
    waics = {}
    for model in _SELECTION_MODELS:
        spec = _analysis_spec(config, model, data)
        result = _laplace_fit(config, index, spec, data, failures, [], model)
        if result is not None:
            waics[("laplace", model)] = waic(result.pointwise_loglik, result.grid_weights).waic
        chain = _chain(config, index, spec, data, failures, model)
        if chain is not None:
            waics[("mcmc", model)] = waic(chain.pointwise_loglik).waic
    if failures:
        return {}
    model_names = sorted(_SELECTION_MODELS)
    rows = []
    for engine in ("laplace", "mcmc"):
        per_engine = {m: waics[(engine, m)] for m in model_names}
        sel = select_model(per_engine)
        row = {"dataset": index, "engine": engine}
        for m in model_names:
            row[f"waic_{m}"] = per_engine[m]
        row["selected"] = sel.best
        row["correct"] = sel.best == config.selection_family
        row["tie"] = sel.tie
        rows.append(row)
    diffs = [
        {
            "dataset": index,
            "model": m,
            "waic_laplace": waics[("laplace", m)],
            "waic_mcmc": waics[("mcmc", m)],
            "diff": waics[("laplace", m)] - waics[("mcmc", m)],
        }
        for m in model_names
    ]
    return {"selection": rows, "waic_diff": diffs}


def _zinb_rows(config, index, data, failures) -> dict:
    """Interquartile rate ratios per engine, their agreement, and the
    structural-zero probability."""
    spec = _analysis_spec(config, "zinb", data)
    cov_names = sorted(data.covariates)
    iqr = {}
    for name in cov_names:
        q1, q3 = np.quantile(data.covariates[name], [0.25, 0.75])
        iqr[name] = float(q3 - q1)
    per_engine = {}
    pzero_rows = []

    def ratios(engine, beta) -> bool:
        """Each covariate's rate ratio from ``beta(name)``, or False after a
        failure row when one cannot be formed (a zero IQR, or a marginal
        whose exp(b * iqr) is not strictly monotone on its grid)."""
        try:
            per_engine[engine] = {name: rate_ratio(beta(name), iqr[name]) for name in cov_names}
        except ValueError as exc:
            failures.append(_failure_row(index, engine, None, type(exc).__name__, exc))
            return False
        return True

    result = _laplace_fit(config, index, spec, data, failures, [f"beta_{name}" for name in cov_names])
    if result is not None and ratios("laplace", lambda name: result.latent_marginal(f"beta_{name}")):
        pz = result.hyper_marginal("p_zero")
        pzero_rows.append({"dataset": index, "engine": "laplace", "p_zero_mean": pz.natural.mean, "p_zero_sd": pz.natural.sd})
    chain = _chain(config, index, spec, data, failures)
    if chain is not None and ratios("mcmc", lambda name: chain.column(f"beta_{name}")):
        pz_draws = mdl.to_natural_hyper("logit_p_zero", chain.column("logit_p_zero"))
        pzero_rows.append({"dataset": index, "engine": "mcmc", "p_zero_mean": float(np.mean(pz_draws)), "p_zero_sd": float(np.std(pz_draws, ddof=1))})
    rate_rows = []
    for engine, ratios in sorted(per_engine.items()):
        for name in cov_names:
            r = ratios[name]
            rate_rows.append(
                {
                    "dataset": index,
                    "engine": engine,
                    "covariate": name,
                    "iqr": r.iqr,
                    "rate_ratio": r.estimate,
                    "rate_ratio_mean": r.mean,
                    "lower": r.lower,
                    "upper": r.upper,
                    "significant": r.significant,
                }
            )
    agreement_rows = []
    if len(per_engine) == 2:
        for name in cov_names:
            a, b = per_engine["laplace"][name], per_engine["mcmc"][name]
            agreement_rows.append(
                {
                    "dataset": index,
                    "covariate": name,
                    "direction_agree": (a.estimate >= 1.0) == (b.estimate >= 1.0),
                    "significance_agree": a.significant == b.significant,
                }
            )
    return {"rate_ratios": rate_rows, "agreement": agreement_rows, "p_zero": pzero_rows}


_ROWS_BY_KIND = {"poisson": _paired_rows, "bym": _paired_rows, "selection": _selection_rows, "zinb": _zinb_rows}

_PAIRED_TABLES = {
    "results": ["dataset", "parameter", "laplace_mean", "laplace_sd", "mcmc_mean", "mcmc_sd", "pe", "pc_laplace", "pc_mcmc", "mcmc_verdict"],
    "pe_long": ["dataset", "parameter", "pe"],
    "pc_long": ["dataset", "engine", "parameter", "pc"],
}

# Report tables per study kind, in report order.  A study's first table
# is its main one; every study ends with the failures table.
_TABLES = {
    "poisson": _PAIRED_TABLES,
    "bym": _PAIRED_TABLES,
    "selection": {
        "selection": ["dataset", "engine"] + [f"waic_{m}" for m in sorted(_SELECTION_MODELS)] + ["selected", "correct", "tie"],
        "waic_diff": ["dataset", "model", "waic_laplace", "waic_mcmc", "diff"],
    },
    "zinb": {
        "rate_ratios": ["dataset", "engine", "covariate", "iqr", "rate_ratio", "rate_ratio_mean", "lower", "upper", "significant"],
        "agreement": ["dataset", "covariate", "direction_agree", "significance_agree"],
        "p_zero": ["dataset", "engine", "p_zero_mean", "p_zero_sd"],
    },
}
_FAILURE_COLUMNS = ["dataset", "engine", "cause", "detail"]


def _fit_one(config: StudyConfig, index: int, data: mdl.Dataset) -> dict:
    """Worker: one dataset's rows, keyed by table name, failures included."""
    failures = []
    rows = _ROWS_BY_KIND[config.kind](config, index, data, failures)
    rows["failures"] = failures
    return rows


# ---------------------------------------------------------------------------
# Reports


@dataclass
class Table:
    name: str
    columns: list
    rows: list

    def canonical_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_format_cell(row.get(c)) for c in self.columns) + "\n")
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {"columns": list(self.columns), "rows": [dict(r) for r in self.rows]}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@dataclass
class ComparisonReport:
    kind: str
    config: dict
    tables: list
    version: str
    config_digest: str

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "config_hash": self.config_digest,
            "config": self.config,
            "tables": {t.name: t.to_dict() for t in self.tables},
        }

    def canonical_files(self) -> dict:
        files = {f"{t.name}.csv": t.canonical_csv().encode("utf-8") for t in self.tables}
        files["report.json"] = (json.dumps(self.to_dict(), sort_keys=True) + "\n").encode("utf-8")
        return files


# ---------------------------------------------------------------------------
# Study runner


def _long_tables(results: list) -> tuple[list, list]:
    """PE per row and PC per row and engine of a paired results table."""
    pe_long = [{"dataset": r["dataset"], "parameter": r["parameter"], "pe": r["pe"]} for r in results]
    pc_long = [
        {"dataset": r["dataset"], "engine": engine, "parameter": r["parameter"], "pc": r[f"pc_{engine}"]}
        for r in results
        for engine in ("laplace", "mcmc")
        if r[f"pc_{engine}"] is not None
    ]
    return pe_long, pc_long


def run_study(config: StudyConfig, workers: int | None = None, datasets: list | None = None) -> ComparisonReport:
    """Fit every dataset of the study with both engines and tabulate.

    Datasets (generated from the config unless given) are independent
    work units over ``workers`` processes (default ``config.workers``);
    rows are joined in dataset order, so the report's bytes do not
    depend on the worker count.
    """
    workers = config.workers if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    data_list = generate_datasets(config) if datasets is None else datasets
    args = ([config] * len(data_list), range(len(data_list)), data_list)
    if workers == 1:
        outputs = list(map(_fit_one, *args))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_fit_one, *args, chunksize=1))
    columns = {**_TABLES[config.kind], "failures": _FAILURE_COLUMNS}
    rows = {name: [row for out in outputs for row in out.get(name, [])] for name in columns}
    if "results" in rows:
        rows["pe_long"], rows["pc_long"] = _long_tables(rows["results"])
    return ComparisonReport(
        kind=config.kind,
        config=json.loads(config_to_json(config)),
        tables=[Table(name, cols, rows[name]) for name, cols in columns.items()],
        version=__version__,
        config_digest=config_hash(config),
    )


def run_paired_study(config: StudyConfig, workers: int | None = None, datasets: list | None = None) -> ComparisonReport:
    """:func:`run_study` of a poisson or bym study: PE and PC per tracked
    parameter."""
    if config.kind not in ("poisson", "bym"):
        raise ValueError("paired studies cover the poisson and bym kinds")
    return run_study(config, workers, datasets)


def run_selection_study(config: StudyConfig, workers: int | None = None, datasets: list | None = None) -> ComparisonReport:
    """:func:`run_study` of a selection study: per dataset and engine,
    WAIC of both candidate models, the selected model, and correctness
    against ``config.selection_family``."""
    if config.kind != "selection":
        raise ValueError("run_selection_study covers the selection kind")
    return run_study(config, workers, datasets)


def run_zinb_study(config: StudyConfig, workers: int | None = None, datasets: list | None = None) -> ComparisonReport:
    """:func:`run_study` of a zinb study: interquartile rate ratios and
    zero-probability recovery per engine."""
    if config.kind != "zinb":
        raise ValueError("run_zinb_study covers the zinb kind")
    return run_study(config, workers, datasets)


# ---------------------------------------------------------------------------
# Reproducibility audit


@dataclass
class AuditReport:
    passed: bool
    runs: list
    first_diff: dict | None
    version: str
    config_digest: str

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "runs": list(self.runs),
            "first_diff": self.first_diff,
            "version": self.version,
            "config_hash": self.config_digest,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


def _first_diff(label_a, files_a, label_b, files_b) -> dict | None:
    names = sorted(set(files_a) | set(files_b))
    for name in names:
        a = files_a.get(name)
        b = files_b.get(name)
        if a is None or b is None:
            return {"file": name, "line": 0, "run_a": label_a, "run_b": label_b, "detail": "file missing in one run"}
        if a == b:
            continue
        lines_a = a.decode("utf-8").splitlines()
        lines_b = b.decode("utf-8").splitlines()
        for i, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
            if la != lb:
                return {
                    "file": name,
                    "line": i,
                    "run_a": label_a,
                    "run_b": label_b,
                    "content_a": la[:200],
                    "content_b": lb[:200],
                }
        return {
            "file": name,
            "line": min(len(lines_a), len(lines_b)) + 1,
            "run_a": label_a,
            "run_b": label_b,
            "detail": "line counts differ",
        }
    return None


AUDIT_REPEATS = 2


def reproducibility_audit(config: StudyConfig, worker_counts: tuple = (1, 4)) -> AuditReport:
    """Run the study ``AUDIT_REPEATS`` times per worker count and compare bytes.

    The audit passes only when every serialized output file is
    byte-identical across all runs.  Mismatches are findings, not
    errors: the report carries the first differing file and line.
    """
    runs = []
    outputs = []
    for repeat in range(AUDIT_REPEATS):
        for workers in worker_counts:
            report = run_study(config, workers=workers)
            files = report.canonical_files()
            label = f"repeat{repeat}/workers{workers}"
            runs.append(
                {
                    "label": label,
                    "workers": workers,
                    "repeat": repeat,
                    "sha256": {name: hashlib.sha256(blob).hexdigest() for name, blob in sorted(files.items())},
                }
            )
            outputs.append((label, files))
    first = None
    base_label, base_files = outputs[0]
    for label, files in outputs[1:]:
        diff = _first_diff(base_label, base_files, label, files)
        if diff is not None:
            first = diff
            break
    return AuditReport(
        passed=first is None,
        runs=runs,
        first_diff=first,
        version=__version__,
        config_digest=config_hash(config),
    )


def emit_report(report: ComparisonReport, out_dir) -> list:
    """Write canonical files; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    files = report.canonical_files()
    for name in sorted(files):
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            fh.write(files[name])
        written.append(path)
    return written


def write_datasets(config: StudyConfig, out_dir) -> list:
    """Materialize the study's datasets (and graph) as CSV files."""
    os.makedirs(out_dir, exist_ok=True)
    data_list = generate_datasets(config)
    offset_name = "population" if config.kind == "zinb" else "total"
    written = []
    for i, data in enumerate(data_list):
        path = os.path.join(out_dir, f"dataset_{i:03d}.csv")
        mdl.dataset_to_csv(data, path, offset_name=offset_name)
        written.append(path)
    if data_list and data_list[0].graph is not None:
        gpath = os.path.join(out_dir, "graph.edges")
        write_edge_list(data_list[0].graph, gpath)
        written.append(gpath)
    cpath = os.path.join(out_dir, "config.json")
    config_to_json(config, cpath)
    written.append(cpath)
    return written
