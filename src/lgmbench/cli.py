"""Command-line entry point.

Subcommands:

* ``generate`` — materialize a study's synthetic datasets as CSV files
  (plus the adjacency edge list and the resolved config).
* ``run`` — a study of any kind (``--kind``: poisson, bym, selection or
  zinb) with report files.
* ``audit`` — reproducibility audit (two repeats x worker counts 1 and
  4, byte-compared); the process exits nonzero when the audit fails.
* ``report`` — regenerate the CSV tables from a saved report.json.

Studies are configured by a JSON file (see ``--config``); the
``--kind``, ``--seed``, ``--workers``, and ``--scale`` flags override the
file.  ``--workers`` sets how a run is scheduled and never reaches the
report, so its bytes are the same for any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import Counter
from dataclasses import replace

from . import harness


def _worker_count(text: str) -> int:
    """A ``--workers`` value: a count of at least 1, as ``StudyConfig`` requires."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON study config file")
    parser.add_argument("--kind", choices=harness.STUDY_KINDS, default=None, help="study kind")
    parser.add_argument("--scale", choices=harness.SCALES, default=None, help="preset sizes")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--workers", type=_worker_count, default=None, help="process pool size (>= 1)")
    parser.add_argument("--out", default="lgmbench_out", help="output directory")
    parser.set_defaults(usage_error=parser.error)


def _resolve_config(args, default_kind: str | None) -> harness.StudyConfig:
    """The study config of ``args``; a config file that cannot be read or
    a config that ``StudyConfig`` refuses is a usage error (exit code 2)."""
    try:
        return _config_of(args, default_kind)
    except OSError as exc:
        args.usage_error(f"cannot read study config: {exc}")
    except ValueError as exc:
        args.usage_error(f"invalid study config: {exc}")


def _config_of(args, default_kind: str | None) -> harness.StudyConfig:
    if args.config:
        config = harness.config_from_json(args.config)
        if args.kind:
            config = replace(config, kind=args.kind)
    else:
        kind = args.kind or default_kind
        if kind is None:
            args.usage_error("either --config or --kind is required")
        config = harness.study_config(kind, scale=args.scale or "desk", seed=args.seed or 0)
    if args.scale is not None and args.config:
        preset = harness.study_config(config.kind, scale=args.scale, seed=config.master_seed)
        config = replace(
            config,
            n_datasets=preset.n_datasets,
            n_areas=preset.n_areas,
            mcmc_iterations=preset.mcmc_iterations,
            mcmc_burn_in=preset.mcmc_burn_in,
            mcmc_thin=preset.mcmc_thin,
        )
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    return config


def _study_datasets(args, config: harness.StudyConfig) -> list:
    """The study's datasets, generated before any fit runs; an input file
    (``graph_path``, ``covariate_csv``) that cannot be read or does not
    fit the config is a usage error (exit code 2) that names it."""
    try:
        return harness.generate_datasets(config)
    except OSError as exc:
        args.usage_error(f"cannot read study input: {exc}")
    except ValueError as exc:
        args.usage_error(f"invalid study input: {exc}")


def _cmd_generate(args) -> int:
    config = _resolve_config(args, default_kind=None)
    written = harness.write_datasets(config, _study_datasets(args, config), args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _summary_lines(report: harness.ComparisonReport) -> list:
    """What a study found, in a few lines of stdout."""
    if report.kind in ("poisson", "bym"):
        rows = report.table("results").rows
        pe = {}
        for r in rows:
            pe.setdefault(r["parameter"], []).append(abs(r["pe"]))
        lines = [f"  median |PE| {param}: {statistics.median(v):.2f}%" for param, v in sorted(pe.items())]
        verdicts = Counter({r["dataset"]: r["mcmc_verdict"] for r in rows}.values())  # one chain per dataset
        lines.append("  MCMC verdicts: " + (", ".join(f"{v} {n}" for v, n in sorted(verdicts.items())) or "none"))
        return lines
    if report.kind == "selection":
        rows = report.table("selection").rows
        family = report.config["selection_family"]
        lines = []
        for engine in ("laplace", "mcmc"):
            correct = [r["correct"] for r in rows if r["engine"] == engine]
            lines.append(f"  {engine} picked the generating family ({family}) in {sum(correct)}/{len(correct)} datasets")
        return lines
    rows = report.table("rate_ratios").rows
    lines = []
    for engine in ("laplace", "mcmc"):
        significant = [r["significant"] for r in rows if r["engine"] == engine]
        lines.append(f"  {engine}: {sum(significant)}/{len(significant)} rate ratios significant")
    return lines


def _cmd_run(args) -> int:
    config = _resolve_config(args, default_kind="poisson")
    report = harness.run_study(config, datasets=_study_datasets(args, config))
    paths = harness.emit_report(report, args.out)
    failures = report.table("failures").rows
    print(f"{config.kind} study: {config.n_datasets} datasets, {len(failures)} failures")
    for line in _summary_lines(report):
        print(line)
    for path in paths:
        print(f"  {path}")
    return 0


def _cmd_audit(args) -> int:
    config = _resolve_config(args, default_kind="poisson")
    _study_datasets(args, config)  # each audited run generates its own
    worker_counts = (1, args.workers) if args.workers else (1, 4)
    report = harness.reproducibility_audit(config, worker_counts=worker_counts)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "audit.json")
    report.to_json(path)
    if report.passed:
        print(f"audit PASS ({len(report.runs)} runs byte-identical); report at {path}")
        return 0
    diff = report.first_diff or {}
    print(
        "audit FAIL: first difference in "
        f"{diff.get('file')} line {diff.get('line')} ({diff.get('run_a')} vs {diff.get('run_b')}); "
        f"report at {path}"
    )
    return 1


def _cmd_report(args) -> int:
    paths = harness.emit_report(_saved_report(args), args.out)
    print(f"re-emitted {len(paths)} files to {args.out}")
    return 0


def _saved_report(args) -> harness.ComparisonReport:
    """The report saved at ``--report``; a file that cannot be read or
    does not hold a report is a usage error (exit code 2) that names it."""
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        tables = [
            harness.Table(name, t["columns"], t["rows"]) for name, t in sorted(payload["tables"].items())
        ]
        return harness.ComparisonReport(
            kind=payload["kind"],
            config=payload["config"],
            tables=tables,
            version=payload["version"],
            config_digest=payload["config_hash"],
        )
    except OSError as exc:
        args.usage_error(f"cannot read report: {exc}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        args.usage_error(f"{args.report} holds no saved report: {type(exc).__name__}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lgmbench", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic datasets to CSV")
    _add_common(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("run", help="study of any kind, with report files")
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("audit", help="byte-level reproducibility audit")
    _add_common(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("report", help="re-emit tables from report.json")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--out", default="lgmbench_out")
    p.set_defaults(fn=_cmd_report, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
