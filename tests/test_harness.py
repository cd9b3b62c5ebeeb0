"""Study orchestration, data generators, reports, and the byte audit.

Oracles: independent reconstruction of every generator from its named
random streams, re-derivation of tabulated quantities (percent errors,
selections, rate-ratio significance) from the emitted rows, and byte
comparison of canonical files.  Engine configurations are scaled far
down; engine accuracy has its own test modules.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from lgmbench import harness, laplace, mcmc
from lgmbench import models as mdl
from lgmbench.gmrf import Constraint, sample_icar_kriging
from lgmbench.posterior import PosteriorMarginal
from lgmbench.harness import (
    ComparisonReport,
    GeneratingValues,
    StudyConfig,
    Table,
    config_from_json,
    config_hash,
    config_to_json,
    default_lattice,
    study_config,
)
from lgmbench.streams import stream


def tiny_config(kind="poisson", **overrides):
    base = dict(
        n_datasets=2,
        n_areas=12,
        mcmc_iterations=1_500,
        mcmc_burn_in=300,
        mcmc_thin=3,
        strategy="simplified_laplace",
    )
    base.update(overrides)
    return study_config(kind, seed=base.pop("seed", 7), **base)


# ---------------------------------------------------------------------------
# Configuration


def test_study_config_desk_and_paper_presets():
    desk = study_config("poisson")
    assert (desk.n_datasets, desk.n_areas) == (20, 50)
    assert (desk.mcmc_iterations, desk.mcmc_burn_in, desk.mcmc_thin) == (100_000, 10_000, 10)
    paper = study_config("bym", scale="paper", seed=3)
    assert (paper.n_datasets, paper.n_areas) == (100, 296)
    assert (paper.mcmc_iterations, paper.mcmc_burn_in, paper.mcmc_thin) == (2_000_000, 100_000, 100)
    assert paper.master_seed == 3
    assert study_config("zinb").n_areas == 200
    assert study_config("zinb", scale="paper").n_areas == 500
    assert study_config("poisson", n_datasets=2).n_datasets == 2


def test_study_config_validation(tmp_path):
    with pytest.raises(ValueError):
        study_config("poisson", scale="galactic")
    with pytest.raises(ValueError):
        StudyConfig(kind="mystery", n_datasets=1, n_areas=10)
    with pytest.raises(ValueError):
        StudyConfig(kind="poisson", n_datasets=0, n_areas=10)
    with pytest.raises(ValueError):
        StudyConfig(kind="poisson", n_datasets=1, n_areas=10, strategy="psychic")
    # An integration design is checked when the config is built or
    # loaded, not when its first Laplace fit runs.
    with pytest.raises(ValueError, match="int_strategy"):
        StudyConfig(kind="poisson", n_datasets=1, n_areas=10, int_strategy="fancy")
    payload = json.loads(config_to_json(study_config("poisson")))
    payload["int_strategy"] = "fancy"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="int_strategy"):
        config_from_json(path)
    for int_strategy in laplace.INT_STRATEGIES:
        assert study_config("poisson", int_strategy=int_strategy).int_strategy == int_strategy
    # The constraint takes a gmrf.Constraint value and nothing else.
    for mode in ("sideways", "center_on_the_fly", "kriging_project", "sum_to_zero_centering"):
        with pytest.raises(ValueError, match="Constraint"):
            study_config("bym", constraint_mode=mode, strategy="gaussian")
    # A selection study generates from one of its two candidate models;
    # another family used to raise only when its datasets were generated.
    for family in ("weird", "zinb"):
        with pytest.raises(ValueError, match="selection_family"):
            study_config("selection", selection_family=family)
    # A saved config naming the removed centering path is refused on load.
    payload = json.loads(config_to_json(study_config("bym", strategy="gaussian")))
    payload["constraint_mode"] = "sum_to_zero_centering"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="constraint_mode"):
        config_from_json(path)
    # Full Laplace would fail every fit of a constrained model.
    with pytest.raises(ValueError, match="full_laplace"):
        study_config("bym", constraint_mode="sum_to_zero_kriging")
    for c in Constraint:
        assert study_config("bym", constraint_mode=c.value, strategy="gaussian").constraint_mode == c.value


def test_study_config_and_run_study_refuse_fewer_than_one_worker():
    # Zero or a negative count used to run serially without a word.
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            tiny_config(workers=workers)
        with pytest.raises(ValueError, match="workers"):
            harness.run_study(tiny_config(), workers=workers, datasets=[])
    assert tiny_config(workers=1).workers == 1


@pytest.mark.parametrize("kind", harness.STUDY_KINDS)
def test_study_config_refuses_chain_settings_a_study_cannot_summarise(kind):
    # Each of these passed the config and ran every Laplace fit before
    # the chain or the study's summary raised.
    for settings, match in (
        ({"mcmc_iterations": 100, "mcmc_burn_in": 100}, "mcmc_burn_in"),
        ({"mcmc_iterations": 100, "mcmc_burn_in": 150}, "mcmc_burn_in"),
        ({"mcmc_thin": 0}, "mcmc_thin"),
        ({"mcmc_thin": -3}, "mcmc_thin"),
        ({"mcmc_burn_in": -5}, "mcmc_burn_in"),
        ({"adaptation_window": 0}, "adaptation_window"),
        ({"adaptation_window": -50}, "adaptation_window"),
        ({"mcmc_iterations": 110, "mcmc_burn_in": 100, "mcmc_thin": 10}, "fewer than 2"),
        ({"mcmc_iterations": 119, "mcmc_burn_in": 100, "mcmc_thin": 10}, "fewer than 2"),
    ):
        with pytest.raises(ValueError, match=match):
            tiny_config(kind, **settings)
    # Two kept draws are enough.
    config = tiny_config(kind, mcmc_iterations=120, mcmc_burn_in=100, mcmc_thin=10)
    assert config.chain_config(0).n_kept == 2
    # Every chain draws in chunks of 64 sweeps: no config sets it.
    assert mcmc.RNG_CHUNK == 64


def test_config_json_round_trip(tmp_path):
    config = study_config(
        "zinb", seed=11, n_datasets=3, generating=GeneratingValues(p_zero=0.4, zinb_betas=(0.2, 0.0, -0.1, 0.0, 0.05))
    )
    path = tmp_path / "config.json"
    text = config_to_json(config, path)
    assert path.read_text(encoding="utf-8") == text
    assert config_from_json(path) == config
    assert config_hash(config) == config_hash(config_from_json(path))
    assert config_hash(config) != config_hash(study_config("zinb", seed=12, n_datasets=3))


def test_config_json_and_hash_leave_out_the_worker_count(tmp_path):
    # The worker count says how a study runs, not what it is.
    serial, parallel = study_config("bym"), study_config("bym", workers=3)
    assert config_to_json(serial) == config_to_json(parallel)
    assert config_hash(serial) == config_hash(parallel)
    assert "workers" not in json.loads(config_to_json(parallel))
    # A file may still set it.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": "poisson", "n_datasets": 1, "n_areas": 4, "workers": 2}), encoding="utf-8")
    assert config_from_json(path).workers == 2


def test_config_file_with_a_key_that_names_no_setting_raises(tmp_path):
    path = tmp_path / "config.json"
    base = {"kind": "poisson", "n_datasets": 1, "n_areas": 4}
    for payload, key in (
        ({**base, "scale": "desk"}, "scale"),
        ({**base, "debug_zero_noise": False}, "debug_zero_noise"),
        ({**base, "n_area": 4}, "n_area"),
        ({**base, "generating": {"sigmaa": 2.0}}, "sigmaa"),
    ):
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"unknown settings \\['{key}'\\]"):
            config_from_json(path)


def test_chain_and_laplace_config_derivation():
    config = tiny_config(int_strategy="grid")
    cc = config.chain_config(0)
    assert (cc.iterations, cc.burn_in, cc.thin) == (1_500, 300, 3)
    assert cc.seed != config.chain_config(1).seed
    assert config.chain_config(0, "alt").seed != cc.seed


@pytest.mark.parametrize("kind", harness.STUDY_KINDS)
def test_only_a_selection_study_records_pointwise_likelihoods(kind):
    # WAIC is the one reader of a chain's n_kept x n matrix.
    assert tiny_config(kind=kind).chain_config(0).record_pointwise == (kind == "selection")


@pytest.mark.parametrize("constraint", [Constraint.SUM_TO_ZERO_KRIGING])
def test_a_constrained_bym_study_fits_one_model_with_both_engines(constraint):
    config = tiny_config(
        kind="bym", n_datasets=1, n_areas=9, mcmc_iterations=600, mcmc_burn_in=100, mcmc_thin=2,
        strategy="gaussian", constraint_mode=constraint.value,
    )
    data = harness.generate_datasets(config)[0]
    spec = harness._analysis_spec(config, "bym", data)
    assert spec.icar_term.constraint is constraint and spec.include_intercept
    chain = mcmc.run_chain(spec, data, config.chain_config(0))
    icar = chain.draws[:, mdl.latent_slices(spec, data.n)["icar"]]
    assert np.max(np.abs(icar.sum(axis=1))) <= 1e-9
    report = harness.run_study(config, workers=1)
    assert report.table("failures").rows == []
    assert len(report.table("results").rows) == len(harness._TRACKED["bym"])


def test_default_lattice_shapes():
    for n in (9, 50, 296, 7):
        graph = default_lattice(n)
        assert graph.n_nodes == n
    assert default_lattice(50).n_edges == 85  # 5 x 10 rook lattice
    assert default_lattice(7).n_edges == 6  # falls back to a path


# ---------------------------------------------------------------------------
# Generators: determinism and stream reconstruction


def test_poisson_generator_is_deterministic_and_shares_covariates():
    config = tiny_config(n_datasets=3)
    a = harness.generate_poisson_data(config)
    b = harness.generate_poisson_data(config)
    assert len(a) == 3
    for da, db in zip(a, b):
        assert np.array_equal(da.y, db.y)
    assert np.array_equal(a[0].covariates["x"], a[2].covariates["x"])
    assert np.array_equal(a[0].offset, a[2].offset)
    assert not np.array_equal(a[0].y, a[1].y)
    assert np.all((a[0].covariates["x"] >= 0.0) & (a[0].covariates["x"] <= 60.0))
    assert np.all(a[0].offset >= 50.0)
    assert a[0].generating_values == {"intercept": 0.1, "beta_x": 0.05, "sd_iid": 1.0}


def test_poisson_generator_matches_stream_reconstruction():
    config = tiny_config(n_datasets=2, n_areas=30)
    datasets = harness.generate_poisson_data(config)
    g_cov = stream(config.master_seed, "covariates")
    x = g_cov.uniform(0.0, 60.0, 30)
    total = 50.0 + g_cov.poisson(500.0, 30).astype(float)
    for i, data in enumerate(datasets):
        g = stream(config.master_seed, "dataset", i)
        eps = g.normal(0.0, 1.0, 30)
        y = g.poisson(total * np.exp(0.1 + 0.05 * x + eps))
        assert np.array_equal(data.y, y)
        assert np.array_equal(data.covariates["x"], x)


def test_bym_generator_matches_stream_reconstruction():
    config = tiny_config(kind="bym", n_datasets=2, n_areas=12)
    datasets = harness.generate_bym_data(config)
    graph = default_lattice(12)
    g_cov = stream(config.master_seed, "covariates")
    x = g_cov.uniform(0.0, 60.0, 12)
    total = 50.0 + g_cov.poisson(500.0, 12).astype(float)
    for i, data in enumerate(datasets):
        g = stream(config.master_seed, "dataset", i)
        mu = sample_icar_kriging(graph, 1.0, g)
        assert abs(mu.sum()) < 1e-9  # constrained spatial field
        eps = g.normal(0.0, 1.0, 12)
        y = g.poisson(total * np.exp(0.1 + 0.05 * x + mu + eps))
        assert np.array_equal(data.y, y)
        assert data.graph is graph or data.graph.edges == graph.edges
        assert data.generating_values["tau_icar"] == 1.0


def test_zinb_generator_matches_stream_reconstruction():
    config = tiny_config(kind="zinb", n_datasets=2, n_areas=40)
    datasets = harness.generate_zinb_data(config)
    g_cov = stream(config.master_seed, "covariates")
    raw = g_cov.standard_normal((40, 5))
    z = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    pop = np.floor(10.0 ** g_cov.uniform(3.0, 5.5, 40))
    gv = config.generating
    betas = np.asarray(gv.zinb_betas)
    for i, data in enumerate(datasets):
        g = stream(config.master_seed, "dataset", i)
        mu = np.exp(gv.zinb_intercept + z @ betas + np.log(pop))
        y_nb = g.negative_binomial(gv.dispersion, gv.dispersion / (gv.dispersion + mu))
        zero = g.random(40) < gv.p_zero
        assert np.array_equal(data.y, np.where(zero, 0, y_nb))
        assert np.array_equal(data.offset, pop)
    cov = datasets[0].covariates
    assert sorted(cov) == ["z1", "z2", "z3", "z4", "z5"]
    for col in cov.values():
        assert abs(col.mean()) < 1e-12 and abs(col.std() - 1.0) < 1e-12


def test_zinb_generator_rejects_wrong_beta_count():
    # The generator takes one coefficient per covariate, and there are
    # always five: the settings refuse another count when they are built.
    for betas in ((0.1, 0.2), (0.1,) * 6):
        with pytest.raises(ValueError, match="zinb_betas"):
            GeneratingValues(zinb_betas=betas)


COVARIATE_COLUMNS = {
    "poisson": ("x", "total"),
    "zinb": ("z1", "z2", "z3", "z4", "z5", "population"),
}


def write_covariate_csv(path, columns, n_rows):
    g = np.random.default_rng(3)
    values = {name: g.uniform(1.0, 50.0, n_rows) for name in columns}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(n_rows):
            fh.write(",".join(repr(float(values[name][i])) for name in columns) + "\n")
    return values


@pytest.mark.parametrize("kind", ["poisson", "zinb"])
def test_covariate_file_is_read_as_written(tmp_path, kind):
    path = tmp_path / "covariates.csv"
    # More rows than areas: the first n_areas are read.
    values = write_covariate_csv(path, COVARIATE_COLUMNS[kind], 12)
    data = harness.generate_datasets(tiny_config(kind=kind, n_areas=10, covariate_csv=str(path)))[0]
    if kind == "poisson":
        assert np.array_equal(data.covariates["x"], values["x"][:10])
        assert np.array_equal(data.offset, values["total"][:10])
    else:
        for k in range(1, 6):
            assert np.array_equal(data.covariates[f"z{k}"], values[f"z{k}"][:10])
        assert np.array_equal(data.offset, values["population"][:10])


@pytest.mark.parametrize("n_rows", [1, 3, 9])
@pytest.mark.parametrize("kind", ["poisson", "zinb"])
def test_short_covariate_file_raises(tmp_path, kind, n_rows):
    path = tmp_path / "covariates.csv"
    write_covariate_csv(path, COVARIATE_COLUMNS[kind], n_rows)
    with pytest.raises(ValueError, match="fewer rows than n_areas"):
        harness.generate_datasets(tiny_config(kind=kind, n_areas=10, covariate_csv=str(path)))


@pytest.mark.parametrize("kind", ["poisson", "zinb"])
def test_covariate_file_missing_a_column_raises(tmp_path, kind):
    columns = COVARIATE_COLUMNS[kind]
    for missing in columns:
        path = tmp_path / f"without_{missing}.csv"
        write_covariate_csv(path, tuple(c for c in columns if c != missing), 10)
        with pytest.raises(ValueError, match=f"no column '{missing}'"):
            harness.generate_datasets(tiny_config(kind=kind, n_areas=10, covariate_csv=str(path)))
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=f"no column '{columns[0]}'"):
        harness.generate_datasets(tiny_config(kind=kind, n_areas=10, covariate_csv=str(path)))


def test_covariate_file_with_a_repeated_column_raises(tmp_path):
    # Both "x" columns would otherwise be read into one interleaved list.
    path = tmp_path / "covariates.csv"
    path.write_text("x,total,x\n1,10,100\n2,20,200\n3,30,300\n", encoding="utf-8")
    with pytest.raises(ValueError, match="repeats column 'x'"):
        harness.generate_datasets(tiny_config(n_areas=3, covariate_csv=str(path)))


@pytest.mark.parametrize("rows", ["1,10\n2\n3,30\n", "1,10\n2,20,99\n3,30\n"], ids=["short", "long"])
def test_covariate_file_with_a_ragged_row_raises(tmp_path, rows):
    # A short row would otherwise shift the later values of its missing
    # column up by one row; a long row would lose its extra cells.
    path = tmp_path / "covariates.csv"
    path.write_text("x,total\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match="ragged row"):
        harness.generate_datasets(tiny_config(n_areas=2, covariate_csv=str(path)))


def test_generate_datasets_dispatch():
    assert harness.generate_datasets(tiny_config())[0].graph is None
    sel = harness.generate_datasets(tiny_config(kind="selection"))
    assert sel[0].graph is not None  # selection needs the spatial candidate


# ---------------------------------------------------------------------------
# Tables and reports


def test_table_canonical_csv_formats_cells():
    table = Table(
        "t",
        ["i", "x", "flag", "label", "missing"],
        [
            {"i": 3, "x": 0.1, "flag": True, "label": "ok", "missing": None},
            {"i": -1, "x": 2.0, "flag": np.bool_(False), "label": "no", "missing": 0.5},
        ],
    )
    expected = (
        "i,x,flag,label,missing\n"
        "3,0.10000000000000001,true,ok,\n"
        "-1,2,false,no,0.5\n"
    )
    assert table.canonical_csv() == expected


def test_report_table_lookup_and_canonical_files():
    table = Table("only", ["a"], [{"a": 1}])
    report = ComparisonReport(kind="poisson", config={}, tables=[table], version="0", config_digest="d")
    assert report.table("only") is table
    with pytest.raises(KeyError):
        report.table("absent")
    files = report.canonical_files()
    assert set(files) == {"only.csv", "report.json"}
    payload = json.loads(files["report.json"].decode("utf-8"))
    assert payload["tables"]["only"]["rows"] == [{"a": 1}]


# ---------------------------------------------------------------------------
# Paired study bookkeeping


def test_paired_study_rows_satisfy_their_definitions():
    config = tiny_config()
    report = harness.run_paired_study(config)
    results = report.table("results")
    assert [t.name for t in report.tables] == ["results", "pe_long", "pc_long", "failures"]
    assert len(results.rows) == 2 * 2  # datasets x tracked parameters
    assert report.table("failures").rows == []
    for row in results.rows:
        assert row["parameter"] in ("beta_x", "sd_iid")
        assert row["pe"] == 100.0 * (row["laplace_mean"] - row["mcmc_mean"]) / row["mcmc_sd"]
        gv = 0.05 if row["parameter"] == "beta_x" else 1.0
        assert row["pc_laplace"] == 100.0 * (row["laplace_mean"] - gv) / gv
        assert row["pc_mcmc"] == 100.0 * (row["mcmc_mean"] - gv) / gv
        assert row["mcmc_verdict"] in ("Pass", "Warn", "Fail")
    pe_long = report.table("pe_long").rows
    assert [r["pe"] for r in pe_long] == [r["pe"] for r in results.rows]
    assert len(report.table("pc_long").rows) == 2 * len(results.rows)


@pytest.mark.parametrize("kind", ["poisson", "bym"])
def test_mcmc_summary_of_a_tracked_parameter_is_the_posterior_summary_entry(kind):
    # A paired study summarizes only its tracked columns; each must get
    # the bits the all-column summary gives it.
    config = tiny_config(kind=kind, n_datasets=1, n_areas=9, mcmc_iterations=600, mcmc_burn_in=100, mcmc_thin=2)
    data = harness.generate_datasets(config)[0]
    chain = mcmc.run_chain(harness._analysis_spec(config, kind, data), data, config.chain_config(0))
    full = mcmc.posterior_summary(chain)
    for param in harness._TRACKED[kind]:
        mean, sd = harness._mcmc_summary(chain, param)
        assert np.float64(mean).tobytes() == np.float64(full[param]["mean"]).tobytes()
        assert np.float64(sd).tobytes() == np.float64(full[param]["sd"]).tobytes()


@pytest.mark.parametrize(
    "kind, overrides",
    [
        ("poisson", dict(strategy="full_laplace", n_datasets=1, n_areas=10)),
        ("selection", dict(strategy="gaussian", n_datasets=1, n_areas=9)),
        ("zinb", dict(strategy="full_laplace", n_datasets=1, n_areas=60, int_strategy="ccd")),
        ("bym", dict(strategy="full_laplace", n_datasets=1, n_areas=6)),
    ],
)
def test_study_reports_match_a_fit_of_every_latent(monkeypatch, kind, overrides):
    # The harness builds only the marginals it tabulates; a run that
    # builds every one must emit the same bytes.
    config = tiny_config(kind=kind, mcmc_iterations=600, mcmc_burn_in=100, mcmc_thin=2, **overrides)
    requested = harness.run_study(config, workers=1).canonical_files()
    real_fit = laplace.fit
    monkeypatch.setattr(laplace, "fit", lambda *args, latents=None, **kwargs: real_fit(*args, **kwargs))
    everything = harness.run_study(config, workers=1)
    assert everything.table("failures").rows == []
    assert requested == everything.canonical_files()


@pytest.mark.parametrize(
    "entry_point, wrong_kind",
    [
        ("run_paired_study", "zinb"),
        ("run_paired_study", "selection"),
        ("run_selection_study", "poisson"),
        ("run_zinb_study", "bym"),
    ],
)
def test_study_entry_points_reject_a_wrong_kind(monkeypatch, entry_point, wrong_kind):
    monkeypatch.setattr(laplace, "fit", None)  # the check comes before any fit
    with pytest.raises(ValueError, match="cover"):
        getattr(harness, entry_point)(tiny_config(kind=wrong_kind))


@pytest.mark.parametrize(
    "kind, engines",
    [
        ("poisson", ["laplace", "mcmc"]),
        ("selection", ["laplace/poisson", "mcmc/poisson", "laplace/bym", "mcmc/bym"]),
        ("zinb", ["laplace", "mcmc"]),
    ],
)
def test_engine_failures_become_failure_rows(monkeypatch, kind, engines):
    chain_seeds = []

    def fit(*args, **kwargs):
        raise laplace.FitFailure("injected", "by the test")

    def run_chain(spec, data, chain_config):
        chain_seeds.append(chain_config.seed)
        raise mcmc.ChainAbort(3, "by the test")

    monkeypatch.setattr(laplace, "fit", fit)
    monkeypatch.setattr(mcmc, "run_chain", run_chain)
    config = tiny_config(kind=kind, n_areas=60 if kind == "zinb" else 9)
    report = harness.run_study(config)
    expected = [
        {
            "dataset": i,
            "engine": engine,
            "cause": "injected" if engine.startswith("laplace") else "ChainAbort",
            "detail": "injected: by the test" if engine.startswith("laplace") else "chain aborted at iteration 3: by the test",
        }
        for i in range(2)
        for engine in engines
    ]
    assert report.table("failures").rows == expected
    assert all(t.rows == [] for t in report.tables if t.name != "failures")
    # A selection study's chains draw from one stream per candidate model.
    mcmc_engines = [e for e in engines if e.startswith("mcmc")]
    assert chain_seeds == [config.chain_config(i, *e.split("/")[1:]).seed for i in range(2) for e in mcmc_engines]


def test_a_singular_fixed_effect_curvature_becomes_a_failure_row():
    # Two identical covariates under a flat prior: Laplace refuses the
    # model, and the chain cannot build its start-up proposal.
    g = np.random.default_rng(0)
    x = g.uniform(0, 1, 8)
    data = mdl.Dataset(y=g.poisson(3.0, 8), covariates={"x": x, "x_copy": x.copy()}, offset=np.full(8, 2.0))
    spec = mdl.ModelSpec(
        family=mdl.Family.POISSON,
        fixed_effects=("x", "x_copy"),
        offset="total",
        priors=mdl.PriorSet(fixed_effect=mdl.FlatPrior()),
    )
    with pytest.raises(laplace.FitFailure, match="rank_deficient"):
        laplace.fit(spec, data)
    failures = []
    assert harness._chain(tiny_config(), 0, spec, data, failures) is None
    assert failures == [
        {
            "dataset": 0,
            "engine": "mcmc",
            "cause": "ChainAbort",
            "detail": "chain aborted at iteration 0: fixed-effect curvature is singular",
        }
    ]


def three_sweep_poisson_config(seed, n_datasets=1):
    """Chains of three sweeps with one burn-in sweep, each kept: short
    enough that some keep one value of a tracked parameter.  Which ones
    do depends on the draws; the seeds below were found with study
    chains drawn in chunks of mcmc.RNG_CHUNK = 64 sweeps."""
    return study_config(
        "poisson",
        seed=seed,
        workers=1,
        n_areas=8,
        n_datasets=n_datasets,
        mcmc_iterations=3,
        mcmc_burn_in=1,
        mcmc_thin=1,
        strategy="gaussian",
    )


@pytest.mark.parametrize("seed, failing", [(3, [0]), (1, [0]), (0, None)])
def test_a_chain_that_keeps_one_value_of_a_tracked_parameter_becomes_a_failure_row(seed, failing):
    # With no spread in the chain's draws the percent error has no
    # reference scale.  Over four datasets of seed 0, datasets 1, 2 and
    # 3 fail that way and 0 keeps its rows.
    config = three_sweep_poisson_config(seed, n_datasets=1 if failing else 4)
    failing = failing or [1, 2, 3]
    report = harness.run_study(config)
    assert report.table("failures").rows == [
        {"dataset": i, "engine": "mcmc", "cause": "ValueError", "detail": "reference standard deviation must be finite and positive"}
        for i in failing
    ]
    kept = [i for i in range(config.n_datasets) if i not in failing]
    assert [r["dataset"] for r in report.table("results").rows] == [i for i in kept for _ in harness._TRACKED["poisson"]]


@pytest.mark.parametrize("n_datasets", [1, 2])
def test_a_study_where_no_percent_error_fails_keeps_its_bytes(monkeypatch, n_datasets):
    # The failure handling adds nothing to a study where every chain has
    # spread: its bytes are those of percent errors formed unguarded.
    config = three_sweep_poisson_config(4, n_datasets=n_datasets)
    report = harness.run_study(config).canonical_files()
    monkeypatch.setattr(harness, "percent_error", lambda approx, ref, sd: float(100.0 * (approx - ref) / sd))
    assert harness.run_study(config).canonical_files() == report
    assert report["failures.csv"] == b"dataset,engine,cause,detail\n"


@pytest.mark.parametrize(
    "engine, beta_type, message",
    [
        ("laplace", PosteriorMarginal, "transform must be strictly monotone on the grid"),
        ("mcmc", np.ndarray, "iqr must be finite and positive"),
    ],
)
def test_a_rate_ratio_that_cannot_be_formed_becomes_a_failure_row(monkeypatch, engine, beta_type, message):
    # The engine's ratios of dataset 1 fail; dataset 0 and the other
    # engine keep their rows.
    config = tiny_config(kind="zinb", **_BYTE_AUDIT_OVERRIDES["zinb"])
    clean = harness.run_study(config, workers=1)
    calls, rate_ratio = [], harness.rate_ratio

    def failing(beta, iqr):
        if isinstance(beta, beta_type):
            calls.append(iqr)
            # Five covariates per dataset: the sixth call is dataset 1's.
            if len(calls) > 5:
                raise ValueError(message)
        return rate_ratio(beta, iqr)

    monkeypatch.setattr(harness, "rate_ratio", failing)
    report = harness.run_study(config, workers=1)
    assert report.table("failures").rows == [{"dataset": 1, "engine": engine, "cause": "ValueError", "detail": message}]
    for table in ("rate_ratios", "p_zero"):
        kept = [r for r in clean.table(table).rows if (r["dataset"], r["engine"]) != (1, engine)]
        assert report.table(table).rows == kept and len(kept) < len(clean.table(table).rows)
    assert report.table("agreement").rows == [r for r in clean.table("agreement").rows if r["dataset"] == 0]


# ---------------------------------------------------------------------------
# Selection study bookkeeping


def test_selection_rows_satisfy_their_definitions():
    config = tiny_config(
        kind="selection", selection_family="bym", n_areas=9, mcmc_iterations=800, mcmc_burn_in=200, mcmc_thin=1
    )
    report = harness.run_selection_study(config, workers=1)
    assert report.table("failures").rows == []
    selection = report.table("selection")
    assert selection.columns == ["dataset", "engine", "waic_bym", "waic_poisson", "selected", "correct", "tie"]
    assert len(selection.rows) == 2 * 2  # datasets x engines
    for row in selection.rows:
        per_model = {"bym": row["waic_bym"], "poisson": row["waic_poisson"]}
        expected = min(sorted(per_model), key=lambda m: (per_model[m], m))
        assert row["selected"] == expected
        assert row["correct"] == (row["selected"] == "bym")
        assert row["tie"] == (per_model["bym"] == per_model["poisson"])
    diffs = report.table("waic_diff").rows
    assert [(r["dataset"], r["model"]) for r in diffs] == [(0, "bym"), (0, "poisson"), (1, "bym"), (1, "poisson")]
    by_engine = {(r["dataset"], r["engine"]): r for r in selection.rows}
    for row in diffs:
        assert row["waic_laplace"] == by_engine[(row["dataset"], "laplace")][f"waic_{row['model']}"]
        assert row["waic_mcmc"] == by_engine[(row["dataset"], "mcmc")][f"waic_{row['model']}"]
        assert row["diff"] == row["waic_laplace"] - row["waic_mcmc"]
        assert math.isfinite(row["diff"])


def test_run_study_dispatches_by_kind():
    config = tiny_config(kind="selection", mcmc_iterations=600, mcmc_burn_in=150, mcmc_thin=1, n_areas=9)
    report = harness.run_study(config)
    assert report.kind == "selection"
    assert {t.name for t in report.tables} == {"selection", "waic_diff", "failures"}


# ---------------------------------------------------------------------------
# Zero-inflated study bookkeeping


def test_zinb_study_rows_satisfy_their_definitions():
    config = tiny_config(kind="zinb", n_datasets=1, n_areas=60, mcmc_iterations=1_200, mcmc_burn_in=300, mcmc_thin=1)
    data = harness.generate_zinb_data(config)[0]
    report = harness.run_zinb_study(config, workers=1, datasets=[data])
    assert report.table("failures").rows == []
    rates = report.table("rate_ratios").rows
    assert len(rates) == 2 * 5  # engines x covariates
    for row in rates:
        q1, q3 = np.quantile(data.covariates[row["covariate"]], [0.25, 0.75])
        assert row["iqr"] == float(q3 - q1)
        assert row["lower"] <= row["rate_ratio"] <= row["upper"]
        assert row["significant"] == (row["lower"] > 1.0 or row["upper"] < 1.0)
    agreement = report.table("agreement").rows
    assert len(agreement) == 5
    by_cov = {}
    for row in rates:
        by_cov.setdefault(row["covariate"], {})[row["engine"]] = row
    for row in agreement:
        a = by_cov[row["covariate"]]["laplace"]
        b = by_cov[row["covariate"]]["mcmc"]
        assert row["significance_agree"] == (a["significant"] == b["significant"])
        assert row["direction_agree"] == ((a["rate_ratio"] >= 1.0) == (b["rate_ratio"] >= 1.0))
    pzero = report.table("p_zero").rows
    assert {r["engine"] for r in pzero} == {"laplace", "mcmc"}
    for row in pzero:
        assert 0.0 < row["p_zero_mean"] < 1.0


# ---------------------------------------------------------------------------
# Worker counts and the audit


# Per-kind sizes small enough for a two-worker run of every kind.
_BYTE_AUDIT_OVERRIDES = {
    "poisson": {},
    "bym": {},
    "selection": dict(n_areas=9, mcmc_iterations=600, mcmc_burn_in=150, mcmc_thin=1),
    "zinb": dict(n_areas=60, mcmc_iterations=600, mcmc_burn_in=150, mcmc_thin=1),
}


@pytest.mark.parametrize("kind", harness.STUDY_KINDS)
def test_study_is_byte_identical_across_worker_counts(kind):
    config = tiny_config(kind=kind, **_BYTE_AUDIT_OVERRIDES[kind])
    serial = harness.run_study(config, workers=1).canonical_files()
    parallel = harness.run_study(config, workers=2).canonical_files()
    assert serial.keys() == parallel.keys()
    for name in serial:
        assert serial[name] == parallel[name], name


def test_reproducibility_audit_passes_on_clean_config():
    config = tiny_config(mcmc_iterations=400, mcmc_burn_in=100, mcmc_thin=1, n_areas=10)
    audit = harness.reproducibility_audit(config, worker_counts=(1, 2))
    assert audit.passed
    assert audit.first_diff is None
    assert len(audit.runs) == 4
    digests = [run["sha256"] for run in audit.runs]
    assert all(d == digests[0] for d in digests[1:])
    payload = json.loads(audit.to_json())
    assert payload["passed"] is True


def test_reproducibility_audit_catches_injected_nondeterminism(inject_drift):
    inject_drift()
    config = tiny_config(n_datasets=3, mcmc_iterations=300, mcmc_burn_in=100, mcmc_thin=1, n_areas=10)
    audit = harness.reproducibility_audit(config, worker_counts=(1,))
    assert not audit.passed
    diff = audit.first_diff
    assert diff is not None
    assert {"file", "line", "run_a", "run_b"} <= set(diff)
    assert diff["file"].endswith((".csv", ".json"))


# ---------------------------------------------------------------------------
# Artifacts on disk


def test_emit_report_writes_canonical_bytes(tmp_path):
    config = tiny_config(mcmc_iterations=400, mcmc_burn_in=100, mcmc_thin=1, n_areas=10, n_datasets=1)
    report = harness.run_paired_study(config)
    out = tmp_path / "report"
    written = harness.emit_report(report, out)
    files = report.canonical_files()
    assert {p.split("/")[-1] for p in written} == set(files)
    for name, blob in files.items():
        assert (out / name).read_bytes() == blob


def test_write_datasets_materializes_study_inputs(tmp_path):
    config = tiny_config(kind="bym", n_datasets=2)
    written = harness.write_datasets(config, tmp_path)
    names = {p.split("/")[-1] for p in written}
    assert names == {"dataset_000.csv", "dataset_001.csv", "graph.edges", "config.json"}
    datasets = harness.generate_datasets(config)
    back = mdl.dataset_from_csv(tmp_path / "dataset_000.csv", offset_name="total")
    assert np.array_equal(back.y, datasets[0].y)
    assert np.array_equal(back.covariates["x"], datasets[0].covariates["x"])
    assert config_from_json(tmp_path / "config.json") == config
