"""Command-line interface: subcommands, flag overrides, exit codes."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from lgmbench import cli, harness


def write_config(tmp_path, name="config.json", kind="poisson", **overrides):
    base = dict(
        n_datasets=1,
        n_areas=10,
        mcmc_iterations=400,
        mcmc_burn_in=100,
        mcmc_thin=1,
        strategy="simplified_laplace",
    )
    base.update(overrides)
    config = harness.study_config(kind, seed=base.pop("seed", 7), **base)
    path = tmp_path / name
    harness.config_to_json(config, path)
    return path, config


def test_generate_writes_dataset_files(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, kind="bym", n_datasets=2)
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "dataset_000.csv").exists()
    assert (out / "dataset_001.csv").exists()
    assert (out / "graph.edges").exists()
    assert (out / "config.json").exists()
    assert "wrote 4 files" in capsys.readouterr().out


def test_generate_without_config_uses_presets(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["generate", "--kind", "poisson", "--seed", "3", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files.count("config.json") == 1
    assert sum(name.startswith("dataset_") for name in files) == 20  # desk preset
    config = harness.config_from_json(out / "config.json")
    assert (config.kind, config.master_seed, config.n_areas) == ("poisson", 3, 50)


def test_generate_requires_kind_or_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["generate", "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_scale_flag_overrides_config_sizes(tmp_path):
    cfg_path, _ = write_config(tmp_path, n_datasets=1, n_areas=10)
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", str(cfg_path), "--scale", "desk", "--out", str(out)]) == 0
    config = harness.config_from_json(out / "config.json")
    assert (config.n_datasets, config.n_areas) == (20, 50)
    assert config.mcmc_iterations == 100_000


def test_run_emits_report_files(tmp_path, capsys):
    cfg_path, config = write_config(tmp_path)
    out = tmp_path / "report"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "report.json").exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["kind"] == "poisson"
    assert payload["config"]["master_seed"] == config.master_seed
    text = capsys.readouterr().out
    assert "poisson study: 1 datasets, 0 failures" in text
    rows = payload["tables"]["results"]["rows"]
    for param in ("beta_x", "sd_iid"):
        (pe,) = [abs(r["pe"]) for r in rows if r["parameter"] == param]  # one dataset
        assert f"  median |PE| {param}: {pe:.2f}%\n" in text
    assert f"  MCMC verdicts: {rows[0]['mcmc_verdict']} 1\n" in text  # one chain


def test_seed_and_workers_flags_override_config(tmp_path, monkeypatch):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "report"
    run_study, seen = harness.run_study, []

    def recording(config):
        seen.append(config.workers)
        return run_study(config)

    monkeypatch.setattr(harness, "run_study", recording)
    assert cli.main(["run", "--config", str(cfg_path), "--seed", "99", "--workers", "2", "--out", str(out)]) == 0
    assert seen == [2]
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["master_seed"] == 99
    assert "workers" not in payload["config"]


def test_report_bytes_do_not_depend_on_the_worker_count(tmp_path):
    # The worker count schedules a run; it is not part of the study.
    cfg_path, _ = write_config(tmp_path, kind="bym", n_areas=9, mcmc_iterations=300, strategy="gaussian")
    for workers in ("1", "2"):
        assert cli.main(["run", "--config", str(cfg_path), "--workers", workers, "--out", str(tmp_path / workers)]) == 0
    for name in ("report.json", "results.csv", "failures.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_a_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such.json"
    for command in ("generate", "run", "audit"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--config", str(missing), "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "cannot read study config" in err and str(missing) in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["run", "audit"])
def test_fewer_than_one_worker_is_a_usage_error(tmp_path, capsys, command):
    # An audit given --workers 0 used to compare worker counts (1, 4)
    # while the config it recorded said 0.
    cfg_path, _ = write_config(tmp_path)
    for workers in ("0", "-1", "two"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--config", str(cfg_path), "--workers", workers, "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--workers" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "setting",
    [
        ("mcmc_burn_in", -5),
        ("adaptation_window", 0),
        ("mcmc_thin", 0),
        ("constraint_mode", "sum_to_zero_centering"),
        ("selection_family", "zinb"),
        ("generating.zinb_betas", [0.1, 0.2]),
    ],
)
def test_a_config_the_study_refuses_is_a_usage_error(tmp_path, capsys, setting):
    # A window of 0 raised ZeroDivisionError after the Laplace fits had
    # run, and a negative burn-in ran; a selection family or a zinb
    # coefficient count that no generator takes raised from the generator.
    cfg_path, _ = write_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    *block, name = setting[0].split(".")
    (payload[block[0]] if block else payload)[name] = setting[1]
    cfg_path.write_text(json.dumps(payload))
    for command in ("run", "audit"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"invalid study config: {name}" in err
    assert not (tmp_path / "x").exists()


def test_run_selection_kind(tmp_path, capsys):
    # --kind overrides the kind of the config file.
    cfg_path, _ = write_config(tmp_path, n_areas=9)
    out = tmp_path / "sel"
    assert cli.main(["run", "--config", str(cfg_path), "--kind", "selection", "--out", str(out)]) == 0
    assert (out / "selection.csv").exists()
    assert (out / "waic_diff.csv").exists()
    lines = (out / "selection.csv").read_text().splitlines()
    assert lines[0] == "dataset,engine,waic_bym,waic_poisson,selected,correct,tie"
    text = capsys.readouterr().out
    for line in lines[1:]:
        cells = line.split(",")
        engine, correct = cells[1], int(cells[5] == "true")
        assert f"  {engine} picked the generating family (poisson) in {correct}/1 datasets\n" in text


def test_run_zinb_kind(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, kind="zinb", n_areas=50, mcmc_iterations=600, mcmc_burn_in=150)
    out = tmp_path / "zinb"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "rate_ratios.csv").exists()
    assert (out / "p_zero.csv").exists()
    text = capsys.readouterr().out
    rows = [line.split(",") for line in (out / "rate_ratios.csv").read_text().splitlines()[1:]]
    for engine in ("laplace", "mcmc"):
        significant = sum(r[8] == "true" for r in rows if r[1] == engine)
        assert f"  {engine}: {significant}/5 rate ratios significant\n" in text


def test_audit_exit_codes_and_artifacts(tmp_path, capsys, inject_drift):
    cfg_path, _ = write_config(tmp_path, mcmc_iterations=300, mcmc_burn_in=100)
    out = tmp_path / "audit"
    rc = cli.main(["audit", "--config", str(cfg_path), "--workers", "2", "--out", str(out)])
    assert rc == 0
    assert "audit PASS" in capsys.readouterr().out
    payload = json.loads((out / "audit.json").read_text())
    assert payload["passed"] is True

    inject_drift()
    bad_path, _ = write_config(tmp_path, name="bad.json", n_datasets=3, mcmc_iterations=300, mcmc_burn_in=100)
    rc = cli.main(["audit", "--config", str(bad_path), "--workers", "1", "--out", str(out)])
    assert rc == 1
    text = capsys.readouterr().out
    assert "audit FAIL" in text and "first difference" in text
    payload = json.loads((out / "audit.json").read_text())
    assert payload["passed"] is False
    assert payload["first_diff"]["file"]


def test_report_round_trips_saved_tables(tmp_path):
    cfg_path, config = write_config(tmp_path)
    first = tmp_path / "first"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert cli.main(["report", "--report", str(first / "report.json"), "--out", str(second)]) == 0
    for name in ("results.csv", "pe_long.csv", "pc_long.csv", "failures.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-c", "from lgmbench.cli import main; raise SystemExit(main(['--help']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "{generate,run,audit,report}" in proc.stdout
