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
  carries both random effects and no intercept.
* ``selection`` — generates from one family, fits both the IID-only
  and the spatial model with both engines, and records which model the
  information criterion prefers per engine.
* ``zinb`` — a zero-inflated negative binomial regression with five
  standardized covariates and a log-population offset; the harness
  emits interquartile rate ratios with significance flags per engine.

Every random quantity derives from the master seed through named
streams, datasets are independent work units scheduled over a process
pool, and results are assembled in dataset order — so reports are
byte-identical for any worker count.  ``reproducibility_audit`` proves
that by running a study four times (two repeats at one and at four
workers) and comparing every serialized byte.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

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
    scale: str = "desk"
    mcmc_iterations: int = 100_000
    mcmc_burn_in: int = 10_000
    mcmc_thin: int = 10
    adaptation_window: int = 50
    constraint_mode: str = mc.ConstraintMode.NONE
    strategy: str = "full_laplace"
    int_strategy: str = "auto"
    generating: GeneratingValues = field(default_factory=GeneratingValues)
    selection_family: str = "poisson"
    covariate_csv: str | None = None
    graph_path: str | None = None
    workers: int = 1
    debug_zero_noise: bool = False
    debug_shuffle_reduction: bool = False

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}")
        if self.n_datasets < 1:
            raise ValueError("n_datasets must be >= 1")
        if self.n_areas < 1:
            raise ValueError("n_areas must be >= 1")
        Strategy = lap.Strategy
        Strategy(self.strategy)  # validates

    def chain_config(self, dataset_index: int, *stream_path) -> mc.ChainConfig:
        return mc.ChainConfig(
            iterations=self.mcmc_iterations,
            burn_in=self.mcmc_burn_in,
            thin=self.mcmc_thin,
            seed=substream_seed(self.master_seed, "chain", dataset_index, *stream_path),
            adaptation_window=self.adaptation_window,
            constraint_mode=self.constraint_mode,
        )

    def laplace_config(self) -> lap.LaplaceConfig:
        return lap.LaplaceConfig(int_strategy=self.int_strategy)


_DESK = {"n_datasets": 20, "n_areas": 50, "mcmc_iterations": 100_000, "mcmc_burn_in": 10_000, "mcmc_thin": 10}
_PAPER = {"n_datasets": 100, "n_areas": 296, "mcmc_iterations": 2_000_000, "mcmc_burn_in": 100_000, "mcmc_thin": 100}


def study_config(kind: str, scale: str = "desk", seed: int = 0, **overrides) -> StudyConfig:
    """Preset sizes for a study kind at desk or paper scale."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    base = dict(_DESK if scale == "desk" else _PAPER)
    if kind == "zinb":
        base["n_areas"] = 200 if scale == "desk" else 500
    base.update(kind=kind, scale=scale, master_seed=seed)
    base.update(overrides)
    return StudyConfig(**base)


def config_to_json(config: StudyConfig, path=None) -> str:
    payload = asdict(config)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def config_from_json(source) -> StudyConfig:
    """Build a config from a JSON file path or a JSON string."""
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.loads(source)
    gen = payload.pop("generating", None)
    config = StudyConfig(**payload)
    if gen is not None:
        config = replace(config, generating=GeneratingValues(**gen))
    return config


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
        cols = _read_csv_columns(config.covariate_csv)
        x = np.asarray(cols["x"], dtype=float)[:n]
        total = np.asarray(cols["total"], dtype=float)[:n]
        if x.size < n:
            raise ValueError("covariate file has fewer rows than n_areas")
        return x, total
    g = stream(config.master_seed, "covariates")
    x = g.uniform(0.0, 60.0, n)
    total = 50.0 + g.poisson(500.0, n).astype(float)
    return x, total


def _zinb_covariates(config: StudyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Five standardized covariate columns and a population offset."""
    n = config.n_areas
    if config.covariate_csv:
        cols = _read_csv_columns(config.covariate_csv)
        z = np.column_stack([np.asarray(cols[f"z{k}"], dtype=float)[:n] for k in range(1, 6)])
        pop = np.asarray(cols["population"], dtype=float)[:n]
        return z, pop
    g = stream(config.master_seed, "covariates")
    raw = g.standard_normal((n, 5))
    z = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    pop = np.floor(10.0 ** g.uniform(3.0, 5.5, n))
    return z, pop


def _read_csv_columns(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: [] for name in header}
    for row in rows:
        for name, value in zip(header, row):
            cols[name].append(float(value))
    return {k: np.array(v) for k, v in cols.items()}


def generate_poisson_data(config: StudyConfig, attach_graph: bool = False) -> list:
    """Counts from exp(intercept + slope * x + noise) scaled by exposure.

    Covariates are drawn once per study and shared by every dataset;
    only the noise and the counts are redrawn per dataset.  With the
    ``debug_zero_noise`` switch the noise is identically zero, which
    makes E[y] available in closed form for tests.
    """
    x, total = _count_covariates(config)
    gv = config.generating
    graph = _study_graph(config) if attach_graph else None
    out = []
    for i in range(config.n_datasets):
        g = stream(config.master_seed, "dataset", i)
        eps = np.zeros(config.n_areas) if config.debug_zero_noise else g.normal(0.0, gv.sigma, config.n_areas)
        lam = total * np.exp(gv.intercept + gv.beta_x * x + eps)
        y = g.poisson(lam)
        out.append(
            mdl.Dataset(
                y=y,
                covariates={"x": x},
                offset=total,
                graph=graph,
                generating_values={
                    "intercept": gv.intercept,
                    "beta_x": gv.beta_x,
                    "sd_iid": gv.sigma,
                },
            )
        )
    return out


def generate_bym_data(config: StudyConfig, graph: AdjacencyGraph | None = None) -> list:
    """Adds a constrained intrinsic CAR field to the count generator."""
    x, total = _count_covariates(config)
    gv = config.generating
    graph = graph if graph is not None else _study_graph(config)
    icar = IcarSpec(graph=graph, tau=gv.tau, constraint=Constraint.SUM_TO_ZERO_KRIGING)
    out = []
    for i in range(config.n_datasets):
        g = stream(config.master_seed, "dataset", i)
        mu = sample_icar_kriging(icar, g)
        eps = np.zeros(config.n_areas) if config.debug_zero_noise else g.normal(0.0, gv.sigma, config.n_areas)
        lam = total * np.exp(gv.intercept + gv.beta_x * x + mu + eps)
        y = g.poisson(lam)
        out.append(
            mdl.Dataset(
                y=y,
                covariates={"x": x},
                offset=total,
                graph=graph,
                generating_values={
                    "intercept": gv.intercept,
                    "beta_x": gv.beta_x,
                    "sd_iid": gv.sigma,
                    "tau_icar": gv.tau,
                },
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


def _analysis_spec(kind: str, data: mdl.Dataset) -> mdl.ModelSpec:
    if kind == "poisson":
        return mdl.poisson_spec(covariates=("x",))
    if kind == "bym":
        return mdl.bym_spec(covariates=("x",))
    if kind == "zinb":
        names = tuple(sorted(data.covariates))
        return mdl.zinb_spec(covariates=names)
    raise ValueError(kind)


def _poisson_builder(data: mdl.Dataset) -> mdl.ModelSpec:
    return _analysis_spec("poisson", data)


def _bym_builder(data: mdl.Dataset) -> mdl.ModelSpec:
    return _analysis_spec("bym", data)


def _laplace_sd_marginal(result: lap.FitResult, name: str) -> PosteriorMarginal:
    """Marginal of a block standard deviation from the hyper grid."""
    grid = result.theta_grid
    names = [hm.name for hm in result.hyper_marginals]
    col = names.index(name)
    values = np.exp(-0.5 * grid.thetas[:, col])
    return PosteriorMarginal.from_weighted_points(values, grid.weights)


def _laplace_param_summaries(result: lap.FitResult, spec: mdl.ModelSpec) -> dict:
    """Tracked-parameter (mean, sd) pairs from a deterministic fit."""
    out = {}
    for name in result.latent_names:
        m = result.latent_marginal(name)
        out[name] = (m.mean, m.sd)
    for hm in result.hyper_marginals:
        out[hm.natural_name] = (hm.natural.mean, hm.natural.sd)
        if hm.name.startswith("log_precision_"):
            kind = hm.name.replace("log_precision_", "")
            sd_m = _laplace_sd_marginal(result, hm.name)
            out[f"sd_{kind}"] = (sd_m.mean, sd_m.sd)
        if hm.name.startswith("log_precision_") or hm.name == "log_dispersion":
            out[hm.name] = (hm.internal.mean, hm.internal.sd)
    return out


def _mcmc_param_summaries(summary: dict) -> dict:
    return {name: (entry["mean"], entry["sd"]) for name, entry in summary.items()}


_TRACKED = {
    "poisson": ("beta_x", "sd_iid"),
    "bym": ("beta_x", "sd_iid", "precision_icar"),
}

# Report-facing names for tracked parameters whose generating value is known.
_GENERATING_KEY = {
    "beta_x": "beta_x",
    "sd_iid": "sd_iid",
    "precision_icar": "tau_icar",
}


def _fit_one_paired(args):
    """Worker: fit both engines on one dataset, return row fragments."""
    config, index, data = args
    kind = config.kind
    spec = _analysis_spec(kind, data)
    rows = []
    failures = []
    lap_summ = mcmc_summ = None
    verdict = ""
    try:
        result = lap.fit(
            spec,
            data,
            strategy=lap.Strategy(config.strategy),
            config=config.laplace_config(),
            seed=config.master_seed,
            latents=[p for p in _TRACKED[kind] if p in mdl.latent_names(spec, data.n)],
        )
        lap_summ = _laplace_param_summaries(result, spec)
    except (lap.FitFailure, mdl.LikelihoodOverflowError) as exc:
        failures.append({"dataset": index, "engine": "laplace", "cause": getattr(exc, "cause", type(exc).__name__), "detail": str(exc)})
    try:
        chain = mc.run_chain(spec, data, config.chain_config(index))
        summary = mc.posterior_summary(chain)
        mcmc_summ = _mcmc_param_summaries(summary)
        verdict = mc.diagnose(chain).verdict
    except (mc.ChainAbort, mdl.LikelihoodOverflowError) as exc:
        failures.append({"dataset": index, "engine": "mcmc", "cause": type(exc).__name__, "detail": str(exc)})
    if lap_summ is not None and mcmc_summ is not None:
        for param in _TRACKED[kind]:
            lm, ls = lap_summ[param]
            mm, ms = mcmc_summ[param]
            gv = data.generating_values.get(_GENERATING_KEY[param]) if data.generating_values else None
            rows.append(
                {
                    "dataset": index,
                    "parameter": param,
                    "laplace_mean": lm,
                    "laplace_sd": ls,
                    "mcmc_mean": mm,
                    "mcmc_sd": ms,
                    "pe": percent_error(lm, mm, ms),
                    "pc_laplace": percent_change(lm, gv) if gv else None,
                    "pc_mcmc": percent_change(mm, gv) if gv else None,
                    "mcmc_verdict": verdict,
                }
            )
    return index, rows, failures


def _fit_one_selection(args):
    config, index, data, builders, generating_family = args
    rows = []
    diffs = []
    failures = []
    waics = {}
    for model_name, builder in builders.items():
        spec = builder(data)
        try:
            result = lap.fit(
                spec,
                data,
                strategy=lap.Strategy(config.strategy),
                config=config.laplace_config(),
                seed=config.master_seed,
                latents=[],
            )
            waics[("laplace", model_name)] = waic(result.pointwise_loglik, result.grid_weights).waic
        except (lap.FitFailure, mdl.LikelihoodOverflowError) as exc:
            failures.append({"dataset": index, "engine": f"laplace/{model_name}", "cause": getattr(exc, "cause", type(exc).__name__), "detail": str(exc)})
        try:
            chain = mc.run_chain(spec, data, config.chain_config(index, model_name))
            waics[("mcmc", model_name)] = waic(chain.pointwise_loglik).waic
        except (mc.ChainAbort, mdl.LikelihoodOverflowError) as exc:
            failures.append({"dataset": index, "engine": f"mcmc/{model_name}", "cause": type(exc).__name__, "detail": str(exc)})
    model_names = sorted(builders)
    if not failures:
        for engine in ("laplace", "mcmc"):
            per_engine = {m: waics[(engine, m)] for m in model_names}
            sel = select_model(per_engine)
            row = {"dataset": index, "engine": engine}
            for m in model_names:
                row[f"waic_{m}"] = per_engine[m]
            row["selected"] = sel.best
            row["correct"] = sel.best == generating_family
            row["tie"] = sel.tie
            rows.append(row)
        for m in model_names:
            diffs.append(
                {
                    "dataset": index,
                    "model": m,
                    "waic_laplace": waics[("laplace", m)],
                    "waic_mcmc": waics[("mcmc", m)],
                    "diff": waics[("laplace", m)] - waics[("mcmc", m)],
                }
            )
    return index, rows, diffs, failures


def _fit_one_zinb(args):
    config, index, data = args
    spec = _analysis_spec("zinb", data)
    cov_names = sorted(data.covariates)
    iqr = {}
    for name in cov_names:
        q1, q3 = np.quantile(data.covariates[name], [0.25, 0.75])
        iqr[name] = float(q3 - q1)
    rate_rows = []
    pzero_rows = []
    failures = []
    per_engine = {}
    try:
        result = lap.fit(
            spec,
            data,
            strategy=lap.Strategy(config.strategy),
            config=config.laplace_config(),
            seed=config.master_seed,
            latents=[f"beta_{name}" for name in cov_names],
        )
        ratios = {name: rate_ratio(result.latent_marginal(f"beta_{name}"), iqr[name]) for name in cov_names}
        per_engine["laplace"] = ratios
        pz = result.hyper_marginal("p_zero")
        pzero_rows.append({"dataset": index, "engine": "laplace", "p_zero_mean": pz.natural.mean, "p_zero_sd": pz.natural.sd})
    except (lap.FitFailure, mdl.LikelihoodOverflowError) as exc:
        failures.append({"dataset": index, "engine": "laplace", "cause": getattr(exc, "cause", type(exc).__name__), "detail": str(exc)})
    try:
        chain = mc.run_chain(spec, data, config.chain_config(index))
        ratios = {name: rate_ratio(chain.column(f"beta_{name}"), iqr[name]) for name in cov_names}
        per_engine["mcmc"] = ratios
        pz_draws = mdl.to_natural_hyper("logit_p_zero", chain.column("logit_p_zero"))
        pzero_rows.append({"dataset": index, "engine": "mcmc", "p_zero_mean": float(np.mean(pz_draws)), "p_zero_sd": float(np.std(pz_draws, ddof=1))})
    except (mc.ChainAbort, mdl.LikelihoodOverflowError) as exc:
        failures.append({"dataset": index, "engine": "mcmc", "cause": type(exc).__name__, "detail": str(exc)})
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
    return index, rate_rows, agreement_rows, pzero_rows, failures


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


def _map_datasets(config: StudyConfig, worker, payloads, workers: int):
    """Run per-dataset jobs, preserving dataset order in the results."""
    if workers <= 1:
        return [worker(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads, chunksize=1))


def _maybe_shuffle(config: StudyConfig, rows: list) -> list:
    if config.debug_shuffle_reduction and len(rows) > 1:
        # Deliberate nondeterminism for audit testing: fresh OS entropy.
        g = np.random.default_rng()
        order = g.permutation(len(rows))
        return [rows[i] for i in order]
    return rows


_PAIRED_COLUMNS = [
    "dataset",
    "parameter",
    "laplace_mean",
    "laplace_sd",
    "mcmc_mean",
    "mcmc_sd",
    "pe",
    "pc_laplace",
    "pc_mcmc",
    "mcmc_verdict",
]
_FAILURE_COLUMNS = ["dataset", "engine", "cause", "detail"]


def run_paired_study(config: StudyConfig, workers: int | None = None, datasets: list | None = None) -> ComparisonReport:
    """Fit every dataset with both engines and tabulate PE and PC."""
    if config.kind not in ("poisson", "bym"):
        raise ValueError("paired studies cover the poisson and bym kinds")
    workers = config.workers if workers is None else workers
    data_list = generate_datasets(config) if datasets is None else datasets
    payloads = [(config, i, d) for i, d in enumerate(data_list)]
    outputs = _map_datasets(config, _fit_one_paired, payloads, workers)
    outputs.sort(key=lambda t: t[0])
    result_rows = []
    failure_rows = []
    for _, rows, failures in outputs:
        result_rows.extend(rows)
        failure_rows.extend(failures)
    result_rows = _maybe_shuffle(config, result_rows)
    pe_long = [
        {"dataset": r["dataset"], "parameter": r["parameter"], "pe": r["pe"]} for r in result_rows
    ]
    pc_long = []
    for r in result_rows:
        for engine in ("laplace", "mcmc"):
            if r[f"pc_{engine}"] is not None:
                pc_long.append(
                    {
                        "dataset": r["dataset"],
                        "engine": engine,
                        "parameter": r["parameter"],
                        "pc": r[f"pc_{engine}"],
                    }
                )
    tables = [
        Table("results", _PAIRED_COLUMNS, result_rows),
        Table("pe_long", ["dataset", "parameter", "pe"], pe_long),
        Table("pc_long", ["dataset", "engine", "parameter", "pc"], pc_long),
        Table("failures", _FAILURE_COLUMNS, failure_rows),
    ]
    return ComparisonReport(
        kind=config.kind,
        config=json.loads(config_to_json(config)),
        tables=tables,
        version=__version__,
        config_digest=config_hash(config),
    )


def run_selection_study(
    config: StudyConfig,
    workers: int | None = None,
    datasets: list | None = None,
    model_builders: dict | None = None,
    generating_family: str | None = None,
) -> ComparisonReport:
    """Per dataset and engine: criterion values for both candidate
    models, the selected model, and correctness against the family the
    data actually came from.  ``model_builders`` maps a model name to a
    function building its spec from a dataset, so toy model pairs can
    reuse the bookkeeping."""
    workers = config.workers if workers is None else workers
    data_list = generate_datasets(config) if datasets is None else datasets
    if model_builders is None:
        model_builders = {"poisson": _poisson_builder, "bym": _bym_builder}
    family = config.selection_family if generating_family is None else generating_family
    payloads = [(config, i, d, model_builders, family) for i, d in enumerate(data_list)]
    outputs = _map_datasets(config, _fit_one_selection, payloads, workers)
    outputs.sort(key=lambda t: t[0])
    selection_rows = []
    diff_rows = []
    failure_rows = []
    for _, rows, diffs, failures in outputs:
        selection_rows.extend(rows)
        diff_rows.extend(diffs)
        failure_rows.extend(failures)
    selection_rows = _maybe_shuffle(config, selection_rows)
    model_names = sorted(model_builders)
    sel_columns = ["dataset", "engine"] + [f"waic_{m}" for m in model_names] + ["selected", "correct", "tie"]
    tables = [
        Table("selection", sel_columns, selection_rows),
        Table("waic_diff", ["dataset", "model", "waic_laplace", "waic_mcmc", "diff"], diff_rows),
        Table("failures", _FAILURE_COLUMNS, failure_rows),
    ]
    return ComparisonReport(
        kind="selection",
        config=json.loads(config_to_json(config)),
        tables=tables,
        version=__version__,
        config_digest=config_hash(config),
    )


def run_zinb_study(config: StudyConfig, workers: int | None = None, datasets: list | None = None) -> ComparisonReport:
    """Interquartile rate ratios and zero-probability recovery per engine."""
    workers = config.workers if workers is None else workers
    data_list = generate_datasets(config) if datasets is None else datasets
    payloads = [(config, i, d) for i, d in enumerate(data_list)]
    outputs = _map_datasets(config, _fit_one_zinb, payloads, workers)
    outputs.sort(key=lambda t: t[0])
    rate_rows = []
    agreement_rows = []
    pzero_rows = []
    failure_rows = []
    for _, rates, agreements, pzeros, failures in outputs:
        rate_rows.extend(rates)
        agreement_rows.extend(agreements)
        pzero_rows.extend(pzeros)
        failure_rows.extend(failures)
    rate_rows = _maybe_shuffle(config, rate_rows)
    tables = [
        Table(
            "rate_ratios",
            ["dataset", "engine", "covariate", "iqr", "rate_ratio", "rate_ratio_mean", "lower", "upper", "significant"],
            rate_rows,
        ),
        Table("agreement", ["dataset", "covariate", "direction_agree", "significance_agree"], agreement_rows),
        Table("p_zero", ["dataset", "engine", "p_zero_mean", "p_zero_sd"], pzero_rows),
        Table("failures", _FAILURE_COLUMNS, failure_rows),
    ]
    return ComparisonReport(
        kind="zinb",
        config=json.loads(config_to_json(config)),
        tables=tables,
        version=__version__,
        config_digest=config_hash(config),
    )


def run_study(config: StudyConfig, workers: int | None = None) -> ComparisonReport:
    if config.kind in ("poisson", "bym"):
        return run_paired_study(config, workers=workers)
    if config.kind == "selection":
        return run_selection_study(config, workers=workers)
    return run_zinb_study(config, workers=workers)


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


def reproducibility_audit(
    config: StudyConfig,
    worker_counts: tuple = (1, 4),
    repeats: int = 2,
) -> AuditReport:
    """Run the study ``repeats`` times per worker count and compare bytes.

    The audit passes only when every serialized output file is
    byte-identical across all runs.  Mismatches are findings, not
    errors: the report carries the first differing file and line.
    """
    runs = []
    outputs = []
    for repeat in range(repeats):
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


def emit_report(report: ComparisonReport, out_dir, formats: tuple = ("csv", "json")) -> list:
    """Write canonical files; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    files = report.canonical_files()
    for name in sorted(files):
        if name.endswith(".csv") and "csv" not in formats:
            continue
        if name.endswith(".json") and "json" not in formats:
            continue
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
