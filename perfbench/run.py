"""lgmbench benchmark: the command that runs one workload.

Runs one workload through the public harness API in this process and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload poisson-fl --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from
``src/`` beside this directory, never from an installed copy, and
``run.py`` exits with code 2 when it is missing.  A run generates a pool of
datasets from ``--seed`` (set-up), then runs one-dataset studies on the
pool in order, cycling, until ``--seconds`` have passed and every pool
dataset has been studied once.  End-to-end times are scaled to a
reference host speed (``host_calibration_s``).  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates plain
and traced studies and reports the per-layer metrics (``layers.py``).
Reports and a JSON record of each run are written under ``.bench_out/``.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

NPROC = len(os.sched_getaffinity(0))
# BLAS threads are pinned before numpy is imported, so every run uses
# the same count whatever the host's default is.  One thread: at these
# sizes (d <= 129) a second thread does not shorten a fit on a 2-core
# host, and run-to-run spread roughly halves without it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import checks  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 3
# Median of host_calibration_s() on the reference host (2-core x86-64
# virtual machine, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
CALIBRATION_REF_S = 0.065


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    # harness.study_config overrides; n_datasets is the pool size
    config: dict


# Each workload puts most of its time in one layer, so a later change's
# gain or loss can be attributed to it.  One study covers one dataset
# and takes 1.2-2 s on the reference host, so a 20 s run holds ten or
# more; the pool holds 8-16 datasets so that a run's median averages
# over inputs whose cost differs (theta-mode search length, grid size).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="poisson-fl",
            kind="poisson",
            why=(
                "default full_laplace: the FL scan in laplace dominates, theta exploration is ~2% "
                "of a fit and 18 marginals are built for 2 read; the sampler is a small share"
            ),
            config=dict(n_areas=16, n_datasets=12, mcmc_iterations=1000, mcmc_burn_in=200, mcmc_thin=4),
        ),
        Workload(
            name="selection-mcmc",
            kind="selection",
            why=(
                "mcmc.run_chain dominates (a poisson and a bym chain per dataset: RNG construction, "
                "likelihood calls); Gaussian Laplace is ~20%; covers WAIC and pointwise recording"
            ),
            config=dict(
                n_areas=30,
                n_datasets=8,
                mcmc_iterations=2000,
                mcmc_burn_in=500,
                mcmc_thin=5,
                strategy="gaussian",
            ),
        ),
        Workload(
            name="zinb-fl",
            kind="zinb",
            why=(
                "laplace at small d: 6 latents with 5 read, no random effect, NB/ZI kernels in models "
                "dominate; marginal skipping and iid-block elimination should not move it"
            ),
            config=dict(
                n_areas=200,
                n_datasets=8,
                mcmc_iterations=1500,
                mcmc_burn_in=300,
                mcmc_thin=4,
                int_strategy="ccd",
            ),
        ),
        Workload(
            name="bym-dense",
            kind="bym",
            why=(
                "BYM at d=129: dense theta exploration (mode search, grid of ~70 Newton solves) "
                "dominates; the largest peak memory; Schur-complement and sparse work shows here"
            ),
            config=dict(
                n_areas=64,
                n_datasets=16,
                mcmc_iterations=1000,
                mcmc_burn_in=200,
                mcmc_thin=4,
                strategy="gaussian",
            ),
        ),
    )
}


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_harness():
    """Import lgmbench from this checkout's ``src/``, or exit nonzero."""
    if not (SRC / "lgmbench" / "__init__.py").is_file():
        fail("no lgmbench package under src/ in this checkout")
    sys.path.insert(0, str(SRC))
    import lgmbench
    from lgmbench import harness

    if Path(lgmbench.__file__).resolve().parent != SRC / "lgmbench":
        fail("lgmbench was imported from outside this checkout")
    return harness


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: Workload, seed: int):
    harness = import_harness()
    config = harness.study_config(workload.kind, seed=seed, workers=1, **workload.config)
    pool = harness.generate_datasets(config)
    return harness, config, pool


def probe_setup_s(workload: Workload, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    the program and generated the workload's dataset pool."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload.name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# Host speed


_CAL_MATRIX = np.eye(60) * 60.0 + np.cos(np.add.outer(np.arange(60.0), np.arange(60.0)))


def host_calibration_s() -> float:
    """Seconds taken by a fixed computation that uses none of the program:
    small dense Cholesky factorizations and dictionary work, the mix of
    linear algebra and interpreter overhead the studies spend time in.

    The host's speed drifts by 20% and more over minutes, since the
    machine is shared; this computation slows down with it, so study
    times are scaled by it to the reference host speed.
    """
    t0 = time.perf_counter()
    for _ in range(1000):
        np.log(np.diag(np.linalg.cholesky(_CAL_MATRIX))).sum()
        sum({j: j * 0.5 for j in range(200)}.values())
    return time.perf_counter() - t0


class ScaledTimer:
    """Times calls and scales each to the reference host speed, using
    the host calibration measured just before and just after it."""

    def __init__(self):
        self.calibrations = [host_calibration_s()]

    def __call__(self, fn):
        """``fn()``'s result, its wall seconds, and the host's slowness
        around it: calibration time over the reference, so that wall
        seconds divided by it are reference-host seconds."""
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        self.calibrations.append(host_calibration_s())
        slowness = 0.5 * (self.calibrations[-2] + self.calibrations[-1]) / CALIBRATION_REF_S
        return out, elapsed, slowness


class PeakRss:
    """Highest resident set size seen while the ``with`` block runs,
    sampled from ``/proc/self/statm`` by a helper thread.  (The
    process's own high-water mark cannot be reset between studies.)"""

    PAGE = os.sysconf("SC_PAGE_SIZE")
    INTERVAL_S = 0.01

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, daemon=True)

    def _sample(self, fh) -> None:
        fh.seek(0)
        self.peak = max(self.peak, int(fh.read().split()[1]) * self.PAGE)

    def _sample_until_stopped(self) -> None:
        with open("/proc/self/statm", encoding="ascii") as fh:
            self._sample(fh)
            while not self._stop.wait(self.INTERVAL_S):
                self._sample(fh)
            self._sample(fh)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            fail("memory sampler did not stop")
        return False


# ---------------------------------------------------------------------------
# One study


def run_study(harness, kind: str, config, dataset, out_dir: Path):
    """The timed unit: a one-dataset harness study plus report emission."""
    if kind in ("poisson", "bym"):
        report = harness.run_paired_study(config, workers=1, datasets=[dataset])
    elif kind == "selection":
        report = harness.run_selection_study(config, workers=1, datasets=[dataset])
    else:
        report = harness.run_zinb_study(config, workers=1, datasets=[dataset])
    harness.emit_report(report, out_dir)
    return report


def report_digest(report) -> tuple[str, int]:
    """sha256 over the canonical report files, and their total size."""
    files = report.canonical_files()
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("utf-8") + b"\0" + files[name] + b"\0")
    return h.hexdigest(), sum(len(b) for b in files.values())


@dataclass
class Tally:
    """Engine runs attempted and failed, with per-dataset report digests."""

    kind: str
    config: object
    reference: list | None
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def add(self, index: int, report) -> None:
        runs = checks.engine_runs(self.kind)
        ref = self.reference[index] if self.reference is not None else None
        bad = checks.check_report(self.kind, self.config, report, ref)
        digest, _ = report_digest(report)
        # A study repeated on the same dataset must give the same bytes.
        if self.digests.setdefault(index, digest) != digest:
            bad = dict.fromkeys(runs, "report differs from an earlier study of the same dataset")
        for run in runs:
            if run in bad:
                print(f"perfbench: pool dataset {index}: {run} failed the output check: {bad[run]}", file=sys.stderr)
        self.attempted += len(runs)
        self.failed += len(bad.keys() & set(runs))


# ---------------------------------------------------------------------------
# Environment record


def environment(workload: Workload, seed: int, digest: str) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "report_sha256": digest,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# Measurement


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    harness, config, pool = setup(workload, seed)
    reference = checks.load_reference(REFERENCE, workload.name) if seed == DEFAULT_SEED else None
    if reference is not None and len(reference) != len(pool):
        fail("reference.json does not match the workload's pool size")
    out_dir = OUT / workload.name
    tally = Tally(workload.kind, config, reference)
    durations = {False: [], True: []}
    scaled = []
    peaks = []
    traced = []
    if trace:
        import layers

        generate_rec = layers.traced_generate(harness, config)
    timer = ScaledTimer()
    deadline = time.perf_counter() + seconds
    step = 0
    while True:
        # Trace runs alternate plain and traced studies of each dataset.
        use_trace = trace and step % 2 == 1
        index = (step // 2 if trace else step) % len(pool)

        def study():
            return run_study(harness, workload.kind, config, pool[index], out_dir)

        if use_trace:
            (rec, report), elapsed, _ = timer(lambda: layers.traced_study(study))
            traced.append((rec, report))
        else:
            with PeakRss() as rss:
                report, elapsed, slowness = timer(study)
            peaks.append(rss.peak / 2**20)
            scaled.append(elapsed / slowness)
        durations[use_trace].append(elapsed)
        tally.add(index, report)
        step += 1
        minimum = step % 2 == 0 if trace else step >= len(pool)
        if minimum and time.perf_counter() + elapsed > deadline:
            break
    if trace:
        metrics = layers.layer_metrics(
            traced,
            generate_rec,
            engine_runs=len(checks.engine_runs(workload.kind)),
            untraced_study_s=statistics.median(durations[False]),
            report_bytes=lambda report: report_digest(report)[1],
        )
        metrics["harness.study_wall_s"] = (statistics.median(durations[False]), "s")
        metrics["host.calibration_ms"] = (1e3 * statistics.median(timer.calibrations), "ms")
    else:
        setup_times = []
        for _ in range(SETUP_PROBES):
            probe_s, _, slowness = timer(lambda: probe_setup_s(workload, seed))
            setup_times.append(probe_s / slowness)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "study_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
    env = environment(workload, seed, tally.digests[0])
    env["studies"] = {"plain": len(durations[False]), "traced": len(durations[True]), "pool": len(pool)}
    return {
        "environment": env,
        "study_durations_s": {"plain": durations[False], "traced": durations[True]},
        "calibrations_s": timer.calibrations,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def write_reference(workload: Workload) -> None:
    harness, config, pool = setup(workload, DEFAULT_SEED)
    per_dataset = []
    for dataset in pool:
        report = run_study(harness, workload.kind, config, dataset, OUT / workload.name)
        if checks.check_report(workload.kind, config, report, None):
            fail(f"outputs failed the structural check, reference not written: {checks.check_report(workload.kind, config, report, None)}")
        per_dataset.append(checks.laplace_values(workload.kind, report))
    checks.write_reference(REFERENCE, workload.name, DEFAULT_SEED, per_dataset)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one lgmbench benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--write-reference",
        action="store_true",
        help=f"study every pool dataset of seed {DEFAULT_SEED} once and store its Laplace values as the reference",
    )
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.write_reference:
        write_reference(workload)
        return 0
    out = measure(workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"environment": out["environment"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
