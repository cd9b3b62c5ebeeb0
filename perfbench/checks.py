"""Output checks for one single-dataset study report.

Every report is checked for completeness, finiteness and internal
consistency.  On the default seed the Laplace-side values are also
compared with ``reference.json``: the deterministic engine must give
the same numbers up to ``REFERENCE_RTOL``.  MCMC values are checked only
for being complete and finite, because a change of the sampler's draw
layout legitimately changes them.

A check maps each engine run it fails to the first reason it failed:
``"laplace"`` / ``"mcmc"`` for paired and zero-inflation studies,
``"laplace/<model>"`` / ``"mcmc/<model>"`` for selection studies.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Laplace-side report values are deterministic; the tolerance leaves
# room for a change of summation order (BLAS threads, a restructured
# linear solve) but not for a different approximation.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
SELECTION_MODELS = ("bym", "poisson")


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def engine_runs(kind: str) -> list:
    if kind == "selection":
        return [f"{e}/{m}" for e in ("laplace", "mcmc") for m in SELECTION_MODELS]
    return ["laplace", "mcmc"]


def laplace_values(kind: str, report) -> dict:
    """Laplace-side report values that the reference pins, by key."""
    out = {}
    if kind in ("poisson", "bym"):
        for r in report.table("results").rows:
            for col in ("laplace_mean", "laplace_sd"):
                out[f"results/{r['parameter']}/{col}"] = r[col]
    elif kind == "selection":
        for r in report.table("waic_diff").rows:
            out[f"waic_diff/{r['model']}/waic_laplace"] = r["waic_laplace"]
    else:
        for r in report.table("rate_ratios").rows:
            if r["engine"] == "laplace":
                for col in ("rate_ratio", "rate_ratio_mean", "lower", "upper"):
                    out[f"rate_ratios/{r['covariate']}/{col}"] = r[col]
        for r in report.table("p_zero").rows:
            if r["engine"] == "laplace":
                for col in ("p_zero_mean", "p_zero_sd"):
                    out[f"p_zero/{col}"] = r[col]
    return {k: float(v) for k, v in out.items()}


def _fail(bad: dict, runs, reason: str) -> None:
    for run in runs:
        bad.setdefault(run, reason)


def _paired(report, n_params: int) -> dict:
    bad = {}
    rows = report.table("results").rows
    if len(rows) != n_params:
        _fail(bad, ("laplace", "mcmc"), f"results has {len(rows)} rows, expected {n_params}")
    for r in rows:
        if not (_finite(r["laplace_mean"]) and _finite(r["laplace_sd"]) and r["laplace_sd"] > 0):
            _fail(bad, ("laplace",), f"{r['parameter']}: laplace_mean {r['laplace_mean']}, laplace_sd {r['laplace_sd']}")
        if not (_finite(r["mcmc_mean"]) and _finite(r["mcmc_sd"]) and _finite(r["pe"])):
            _fail(bad, ("mcmc",), f"{r['parameter']}: mcmc_mean {r['mcmc_mean']}, mcmc_sd {r['mcmc_sd']}, pe {r['pe']}")
        if r["mcmc_verdict"] not in ("Pass", "Warn", "Fail"):
            _fail(bad, ("mcmc",), f"{r['parameter']}: mcmc_verdict {r['mcmc_verdict']!r}")
    return bad


def _selection(report, family: str) -> dict:
    bad = {}
    rows = report.table("selection").rows
    for engine in ("laplace", "mcmc"):
        mine = [r for r in rows if r["engine"] == engine]
        ok = len(mine) == 1 and all(_finite(mine[0][f"waic_{m}"]) for m in SELECTION_MODELS)
        ok = ok and mine[0]["selected"] in SELECTION_MODELS
        ok = ok and mine[0]["correct"] == (mine[0]["selected"] == family)
        if not ok:
            _fail(bad, (f"{engine}/{m}" for m in SELECTION_MODELS), f"selection row of {engine}: {mine}")
    diffs = report.table("waic_diff").rows
    for m in SELECTION_MODELS:
        mine = [r for r in diffs if r["model"] == m]
        if (
            len(mine) != 1
            or not all(_finite(mine[0][c]) for c in ("waic_laplace", "waic_mcmc", "diff"))
            or mine[0]["diff"] != mine[0]["waic_laplace"] - mine[0]["waic_mcmc"]
        ):
            _fail(bad, (f"laplace/{m}", f"mcmc/{m}"), f"waic_diff row of {m}: {mine}")
    return bad


def _zinb(report, n_covariates: int) -> dict:
    bad = {}
    rates = report.table("rate_ratios").rows
    pzero = report.table("p_zero").rows
    for engine in ("laplace", "mcmc"):
        mine = [r for r in rates if r["engine"] == engine]
        ok = len(mine) == n_covariates and all(
            _finite(r[c]) and r[c] > 0 for r in mine for c in ("rate_ratio", "rate_ratio_mean", "lower", "upper")
        )
        pz = [r for r in pzero if r["engine"] == engine]
        ok = ok and len(pz) == 1 and 0.0 < pz[0]["p_zero_mean"] < 1.0 and _finite(pz[0]["p_zero_sd"])
        if not ok:
            _fail(bad, (engine,), f"rate_ratios or p_zero rows of {engine}: {mine}, {pz}")
    return bad


def check_report(kind: str, config, report, reference: dict | None) -> dict:
    """Engine runs of a one-dataset study whose outputs fail a check,
    each with the reason it failed."""
    bad = {}
    for r in report.table("failures").rows:
        _fail(bad, (r["engine"],), f"failures row: {r}")
    if kind in ("poisson", "bym"):
        checked = _paired(report, 2 if kind == "poisson" else 3)
    elif kind == "selection":
        checked = _selection(report, config.selection_family)
    else:
        checked = _zinb(report, len(config.generating.zinb_betas))
    for run, reason in checked.items():
        _fail(bad, (run,), reason)
    if reference is not None:
        got = laplace_values(kind, report)
        for key, want in reference.items():
            have = got.get(key)
            if have is None or not abs(have - want) <= REFERENCE_RTOL * max(abs(have), abs(want)) + REFERENCE_ATOL:
                run = f"laplace/{key.split('/')[1]}" if kind == "selection" else "laplace"
                _fail(bad, (run,), f"{key} is {have}, reference {want}")
    return bad


def load_reference(path: Path, workload: str) -> list | None:
    """Per pool dataset, the pinned Laplace values; None if absent."""
    if not path.is_file():
        return None
    entry = json.loads(path.read_text(encoding="utf-8")).get(workload)
    return None if entry is None else entry["datasets"]


def write_reference(path: Path, workload: str, seed: int, per_dataset: list) -> None:
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    data[workload] = {"seed": seed, "rtol": REFERENCE_RTOL, "datasets": per_dataset}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
