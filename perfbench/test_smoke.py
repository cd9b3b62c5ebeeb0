"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit in the matching trace mode, that the reference check fails on a
perturbed reference, and that run.py refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "poisson-fl": dict(n_areas=8),
    "selection-mcmc": dict(n_areas=9),
    "zinb-fl": dict(n_areas=40),
    "bym-dense": dict(n_areas=9),
}
CHAIN = dict(n_datasets=2, mcmc_iterations=200, mcmc_burn_in=50, mcmc_thin=2)


def tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return replace(w, config={**w.config, **TINY[name], **CHAIN})


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, name, tiny(name))
    out = run.measure(run.WORKLOADS[name], seed=3, seconds=0.0, trace=trace)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", list(TINY))
def test_reference_check_fails_on_perturbed_reference(name):
    w = tiny(name)
    harness, config, pool = run.setup(w, seed=run.DEFAULT_SEED)
    report = run.run_study(harness, w.kind, config, pool[0], run.OUT / "smoke")
    reference = checks.laplace_values(w.kind, report)
    assert reference
    assert checks.check_report(w.kind, config, report, reference) == {}
    key = sorted(reference)[0]
    perturbed = {**reference, key: reference[key] * (1 + 1e-4)}
    bad = checks.check_report(w.kind, config, report, perturbed)
    assert bad and all(b.startswith("laplace") for b in bad)
    tally = run.Tally(w.kind, config, [perturbed])
    tally.add(0, report)
    assert tally.failed >= 1


def test_collapsed_hyperparameter_posterior_fails_the_check(capsys):
    # A Laplace sd of exactly 0 is what a theta grid collapsed to its
    # mode gives, when the inner Newton fails at every neighbour; the
    # check must count it against the Laplace fit on any seed.
    w = tiny("poisson-fl")
    harness, config, pool = run.setup(w, seed=3)
    report = run.run_study(harness, w.kind, config, pool[0], run.OUT / "smoke")
    row = next(r for r in report.table("results").rows if r["parameter"] == "sd_iid")
    row["laplace_sd"] = 0.0
    bad = checks.check_report(w.kind, config, report, None)
    assert set(bad) == {"laplace"} and "sd_iid" in bad["laplace"]
    tally = run.Tally(w.kind, config, None)
    tally.add(0, report)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "laplace failed the output check" in capsys.readouterr().err


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "poisson-fl", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
