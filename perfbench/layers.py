"""Per-layer metrics of a traced study, recorded from outside the program.

``targets()`` lists what is wrapped: the module attribute the caller
looks the function up through, the span name, and whether it is a span
(layer boundary, one record per call) or a leaf (hot function, count and
total time per enclosing span).  ``laplace._explore`` and
``laplace.propriety_check`` are the attributes ``laplace.fit`` calls for
theta exploration and the propriety gate; ``explore_theta`` is the
public wrapper of the same ``_explore`` and is not on the fit path.

A metric of a model or block that a workload never runs reads 0.
"""

from __future__ import annotations

import statistics

from spans import Recorder

MODEL_CALLERS = {
    "eta_derivatives": ("laplace", "mcmc"),
    "pointwise_loglik_from_eta": ("laplace", "mcmc"),
    "latent_prior_precision": ("laplace",),
}
CHAIN_MODELS = ("poisson", "bym", "zinb")
ACCEPTANCE_BLOCKS = ("beta", "shift", "iid", "icar", "swap", "hyper")


def targets():
    from lgmbench import harness, laplace, mcmc, models, posterior, streams

    out = [
        (harness, "generate_datasets", "harness.generate", "span"),
        (harness, "sample_icar_kriging", "gmrf.sample_icar_kriging", "span"),
        (harness, "emit_report", "harness.emit", "span"),
        (harness, "waic", "metrics.waic", "span"),
        (laplace, "fit", "laplace.fit", "span+result"),
        (laplace, "_explore", "laplace.explore", "span"),
        (laplace, "propriety_check", "gmrf.propriety_check", "span"),
        (laplace.FitResult, "latent_marginal", "laplace.latent_marginal", "leaf"),
        (posterior.PosteriorMarginal, "from_unnormalized", "posterior.from_unnormalized", "classmethod-leaf"),
        (mcmc, "run_chain", "mcmc.run_chain", "span+result"),
        (mcmc, "diagnose", "mcmc.diagnose", "span"),
        (mcmc, "posterior_summary", "mcmc.posterior_summary", "span"),
        (streams.CounterStream, "at", "streams.at", "leaf"),
    ]
    out += [(models, fn, f"models.{fn}", "leaf") for fn in MODEL_CALLERS]
    return out


def traced_generate(harness, config) -> Recorder:
    rec = Recorder()
    with rec.installed(targets()):
        harness.generate_datasets(config)
    return rec


def traced_study(run):
    """Run ``run()`` (one study plus report emission) under the tracer."""
    rec = Recorder()
    with rec.installed(targets()):
        with rec.region("harness.study"):
            report = run()
    return rec, report


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def chain_model(columns) -> str:
    if "logit_p_zero" in columns:
        return "zinb"
    if any(c.startswith("icar_") for c in columns):
        return "bym"
    return "poisson"


def _laplace(rec: Recorder, m: dict) -> None:
    fits = rec.named("laplace.fit")
    fit_s, explore_s = [], []
    for i in fits:
        fit_s.append(rec.duration(i))
        explore_s.append(sum(rec.duration(j) for j in rec.named("laplace.explore") if rec.spans[j].parent == i))
    m["laplace.fit_s"] = (_median(fit_s), "s")
    m["laplace.explore_s"] = (_median(explore_s), "s")
    m["laplace.marginal_s"] = (_median([f - e for f, e in zip(fit_s, explore_s)]), "s")
    diags = [rec.spans[i].result.diagnostics for i in fits]
    m["laplace.grid_points"] = (sum(d.grid_size for d in diags), "count")
    m["laplace.theta_mode_evals"] = (sum(d.theta_mode_evals for d in diags), "count")
    m["laplace.newton_iters"] = (sum(sum(d.newton_iters) for d in diags), "count")
    m["laplace.fl_scanned_points"] = (sum(d.fl_scanned_points for d in diags), "count")
    m["laplace.unreliable_latents"] = (sum(len(d.unreliable_latents) for d in diags), "count")
    m["laplace.newton_unconverged"] = (sum(not d.newton_converged for d in diags), "count")
    built = rec.leaf_totals("posterior.from_unnormalized").get("laplace.fit", (0, 0.0))[0]
    read = sum(c for c, _ in rec.leaf_totals("laplace.latent_marginal").values())
    m["laplace.marginals_built"] = (built, "count")
    m["laplace.marginals_read_ratio"] = (read / built if built else 0.0, "ratio")


def _models(rec: Recorder, m: dict) -> None:
    for fn, callers in MODEL_CALLERS.items():
        by_layer = {}
        for parent, (calls, secs) in rec.leaf_totals(f"models.{fn}").items():
            acc = by_layer.setdefault(parent.split(".")[0], [0, 0.0])
            acc[0] += calls
            acc[1] += secs
        for caller in callers:
            calls, secs = by_layer.get(caller, (0, 0.0))
            m[f"models.{fn}.calls.{caller}"] = (calls, "count")
            m[f"models.{fn}.us.{caller}"] = (1e6 * secs / calls if calls else 0.0, "us")


def _mcmc(rec: Recorder, m: dict) -> None:
    chains = [(rec.duration(i), rec.spans[i].result) for i in rec.named("mcmc.run_chain")]
    for model in CHAIN_MODELS:
        per = [1e6 * d / out.config.iterations for d, out in chains if chain_model(out.columns) == model]
        m[f"mcmc.us_per_sweep.{model}"] = (_median(per), "us")
    sweeps = sum(out.config.iterations for _, out in chains)
    at_calls, at_s = rec.leaf_totals("streams.at").get("mcmc.run_chain", (0, 0.0))
    m["mcmc.rng_per_sweep"] = (at_calls / sweeps if sweeps else 0.0, "count/sweep")
    m["streams.at_us"] = (1e6 * at_s / at_calls if at_calls else 0.0, "us")
    for block in ACCEPTANCE_BLOCKS:
        rates = []
        for _, out in chains:
            acc = out.acceptance
            if block == "hyper":
                hyper = [v for k, v in acc.items() if k not in ACCEPTANCE_BLOCKS]
                if hyper:
                    rates.append(sum(hyper) / len(hyper))
            elif block in acc:
                rates.append(acc[block])
        m[f"mcmc.acceptance.{block}"] = (sum(rates) / len(rates) if rates else 0.0, "ratio")
    m["mcmc.run_chain_s"] = (rec.total("mcmc.run_chain"), "s")
    m["mcmc.diagnose_s"] = (rec.total("mcmc.diagnose"), "s")
    m["mcmc.posterior_summary_s"] = (rec.total("mcmc.posterior_summary"), "s")


def study_metrics(rec: Recorder, report, engine_runs: int, report_bytes: int) -> dict:
    m = {}
    _laplace(rec, m)
    _models(rec, m)
    _mcmc(rec, m)
    m["gmrf.propriety_check_s"] = (rec.total("gmrf.propriety_check"), "s")
    m["metrics.waic_s"] = (rec.total("metrics.waic"), "s")
    study = rec.named("harness.study")[0]
    study_s = rec.duration(study)
    self_s = rec.self_time(study)
    m["harness.study_self_s"] = (self_s, "s")
    m["harness.span_coverage"] = (1.0 - self_s / study_s, "ratio")
    m["harness.emit_s"] = (rec.total("harness.emit"), "s")
    m["harness.report_bytes"] = (report_bytes, "bytes")
    pe = [abs(r["pe"]) for t in report.tables if t.name == "results" for r in t.rows]
    m["harness.median_abs_pe"] = (_median(pe), "%")
    m["harness.failed_fraction"] = (len(report.table("failures").rows) / engine_runs, "ratio")
    m["trace.study_s"] = (study_s, "s")
    return m


def layer_metrics(traced, generate_rec: Recorder, engine_runs: int, untraced_study_s: float, report_bytes) -> dict:
    """Median over traced studies of each per-layer metric.

    ``traced`` holds ``(recorder, report)`` per traced study;
    ``report_bytes(report)`` gives the size of its canonical files.
    """
    per_study = [study_metrics(rec, report, engine_runs, report_bytes(report)) for rec, report in traced]
    out = {
        name: (float(statistics.median(r[name][0] for r in per_study)), unit)
        for name, (_, unit) in per_study[0].items()
    }
    out["trace.overhead_s"] = (out["trace.study_s"][0] - untraced_study_s, "s")
    out["harness.generate_s"] = (generate_rec.total("harness.generate"), "s")
    out["gmrf.sample_icar_kriging_s"] = (generate_rec.total("gmrf.sample_icar_kriging"), "s")
    return out
