#!/usr/bin/env python3
"""Benchmark of the vndarboux pipeline, one workload per invocation.

    python3 benchmarks/run.py --workload delta-covariance --seed 1 \\
        --seconds 30 --trace 0

Run it from the repository root; the library is imported from ``src/``.

``--trace 0`` is the timed run.  Tracing is off and every end-to-end metric
is reported.  ``--trace 1`` is the traced run: it reports the per-layer
metrics from spans recorded around calls into the library (tracing.py).
Every operation is checked against an oracle outside the timed region.  A
failed operation is counted, never redrawn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance, is written to ``benchmarks/results/``.  README.md in this
directory explains the workloads and defines every metric.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

if not (SRC / "vndarboux" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'vndarboux'} is missing; run the benchmark "
             "from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from vndarboux import scenario_cli, verification  # noqa: E402
from vndarboux.darboux_engine import explicit_eavn  # noqa: E402
from vndarboux.operator_core import frob  # noqa: E402
from vndarboux.seed_factory import make_delta_commuting_seed  # noqa: E402

from tracing import Tracer, relative_spans, summarize  # noqa: E402

CHECKS = ("residual", "idempotency", "form_gap", "trace", "hermiticity",
          "spectrum", "positivity", "moments", "covariance")
# the tail metrics take the highest percentile with ten scenarios beyond it
MIN_SCENARIOS = 11
# one cold start per this many operations, spread over the run so that
# setup_s samples the same machine conditions as the scenarios do
PROBE_EVERY = 4
SETUP_PROBES = 5
# the traced run covers a number of scenarios fixed by --seconds, so that
# two traced runs with the same seed and length count exactly the same calls
TRACED_SCENARIO_SECONDS = 4
EXPLICIT_TOL = 1e-8
# the reference computation: Hermitian 12 x 12 matrices, as in the workloads
REFERENCE_DIM = 12
REFERENCE_MATRICES = 8
REFERENCE_REPEATS = 100
SWEEP_CONFIG = ROOT / "configs" / "delta_density.json"
SWEEP_POINTS = 48
SWEEP_JOBS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# inputs, drawn from the workload seed

def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _mu(rng: random.Random) -> list:
    return [rng.uniform(-1.0, 1.0), _sign(rng) * rng.uniform(0.4, 1.5)]


def delta_covariance_config(rng: random.Random, index: int, blocks: int = 6,
                            samples: int = 201) -> dict:
    """n = 1 Delta-commuting seed with lambda set, so covariance runs.

    |kappa| < a/2 keeps the seed positive definite; |t| <= 5 keeps F_a(t)
    far above f_floor, so explicit_eavn stays usable as the oracle.
    """
    a = rng.uniform(0.5, 1.0)
    return {
        "id": f"delta-covariance-{index}",
        "model": {"n": 1},
        "seed": {"family": "delta_commuting", "a": a,
                 "blocks": [[rng.uniform(-2.0, 2.0),
                             _sign(rng) * a * rng.uniform(0.1, 0.45)]
                            for _ in range(blocks)]},
        "darboux": {"mu": _mu(rng), "nu_mode": "conjugate",
                    "lambda": [rng.uniform(-1.0, 1.0), rng.uniform(1.5, 3.0)]},
        "times": {"t_min": -5.0, "t_max": 5.0, "samples": samples},
    }


def anticommuting_shift_config(rng: random.Random, index: int, pairs: int = 6,
                               samples: int = 201) -> dict:
    """n = 3 anticommuting seed, shifted and rescaled into a density matrix.

    The shift lifts the spectrum +-b_j above zero; the rescaling sets the
    trace (dim * shift) to one.  No lambda, so covariance is off.
    """
    b = [_sign(rng) * rng.uniform(0.2, 1.0) for _ in range(pairs)]
    shift = max(abs(x) for x in b) + 0.1
    return {
        "id": f"anticommuting-shift-{index}",
        "model": {"n": 3},
        "seed": {"family": "anticommuting", "dim_pairs": pairs, "b": b,
                 "alpha": [_sign(rng) * rng.uniform(0.5, 1.5)
                           for _ in range(pairs)]},
        "darboux": {"mu": _mu(rng), "nu_mode": "conjugate"},
        "times": {"t_min": -5.0, "t_max": 5.0, "samples": samples},
        "symmetries": {"order": "after", "shift_lambda": shift,
                       "rescale_y": 1.0 / (2 * pairs * shift)},
    }


SCENARIO_WORKLOADS = {
    "delta-covariance": delta_covariance_config,
    "anticommuting-shift": anticommuting_shift_config,
}
WORKLOADS = (*SCENARIO_WORKLOADS, "sweep-parallel")


def sweep_values(rng: random.Random) -> list:
    return [complex(*_mu(rng)) for _ in range(SWEEP_POINTS)]


def sweep_first_config(values: list) -> dict:
    data = json.loads(SWEEP_CONFIG.read_text())
    data["darboux"]["mu"] = [values[0].real, values[0].imag]
    return data


# ---------------------------------------------------------------------------
# operations and their oracles

@dataclass
class Outcome:
    """One operation: its wall time, certified samples and failure, if any."""

    wall: float
    samples: int
    failure: str | None


def run_scenario(cfg: dict, work: Path) -> tuple[int | str, float, Path]:
    """Write the config, then time one ``scenario_cli.run`` on it.

    Returns the exit code (or the exception it raised), the wall time and the
    output directory.
    """
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg))
    out = work / "out"
    start = time.perf_counter()
    try:
        code = scenario_cli.run(str(config_path), str(out))
    except Exception as exc:  # a crash is a failed operation, not an abort
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, out


def check_explicit(cfg: dict, out: Path, times, states) -> str | None:
    """Compare every sample with the closed form ``explicit_eavn``."""
    lock = json.loads((out / "scenario.lock.json").read_text())
    phi0 = np.array([complex(re, im) for re, im in lock["resolved"]["phi0"]])
    seed = make_delta_commuting_seed([tuple(b) for b in cfg["seed"]["blocks"]],
                                     cfg["seed"]["a"])
    mu = complex(*cfg["darboux"]["mu"])
    worst = max(frob(state - explicit_eavn(seed, mu, phi0, t))
                for t, state in zip(times, states))
    if not worst <= EXPLICIT_TOL:
        return f"differs from explicit_eavn by {worst:.3e}"
    return None


def check_scenario(cfg: dict, out: Path, code: int | str) -> str | None:
    """The oracle for one scenario; returns why it failed, or None."""
    if code != 0:
        return f"exit {code}"
    if not json.loads((out / "report.json").read_text())["overall"]:
        return "report.overall is false"
    times, states = scenario_cli.read_trajectory_csv(str(out / "trajectory.csv"))
    grid = np.linspace(cfg["times"]["t_min"], cfg["times"]["t_max"],
                       cfg["times"]["samples"])
    if not np.array_equal(times, grid):
        return "trajectory.csv does not hold the configured time grid"
    # the states do not depend on the checks, so a fresh evaluation without
    # them must match the file bit for bit
    unchecked, _ = scenario_cli.validate_config(
        {**cfg, "checks": {name: False for name in CHECKS}})
    fresh = scenario_cli.execute_scenario(unchecked).trajectory.states
    if len(fresh) != len(states) or not all(
            np.array_equal(a, b) for a, b in zip(states, fresh)):
        return "trajectory.csv does not read back bitwise equal to the states"
    if cfg["seed"]["family"] == "delta_commuting":
        return check_explicit(cfg, out, times, states)
    return None


def judge(cfg: dict, out: Path, code: int | str) -> tuple[int, str | None]:
    """Certified samples and failure of one finished scenario."""
    try:
        failure = check_scenario(cfg, out, code)
    except Exception as exc:  # an oracle that cannot run fails the operation
        failure = f"oracle raised {type(exc).__name__}: {exc}"
    return (0 if failure else cfg["times"]["samples"]), failure


def scenario_operation(cfg: dict, work: Path) -> Outcome:
    code, wall, out = run_scenario(cfg, work)
    return Outcome(wall, *judge(cfg, out, code))


def run_sweep(values: list, work: Path, jobs: int) -> tuple[int | str, float, float, Path]:
    """Time one ``scenario_cli.sweep`` over mu; also returns child CPU time."""
    out = work / "sweep"
    shutil.rmtree(out, ignore_errors=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        code = scenario_cli.sweep(str(SWEEP_CONFIG), "mu", values, str(out),
                                  jobs=jobs)
    except Exception as exc:  # a crash fails every point of the sweep
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (after.ru_utime + after.ru_stime
                 - before.ru_utime - before.ru_stime)
    return code, wall, child_cpu, out


def check_sweep(out: Path, code: int | str, points: int) -> list[str]:
    """The oracle for one sweep; returns one reason per failed point."""
    summary = out / "summary.csv"
    if not summary.is_file():
        return [f"exit {code}, no summary.csv"] * points
    with summary.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    failures = [f"missing point (exit {code})"] * (points - len(rows))
    for row in rows:
        if row["status"] != "ok":
            failures.append(f"point {row['index']}: status {row['status']}")
        elif not json.loads((Path(row["out_dir"]) / "report.json")
                            .read_text())["overall"]:
            failures.append(f"point {row['index']}: report.overall is false")
    return failures


# ---------------------------------------------------------------------------
# measurements

class SetupProbe:
    """Cold starts of one config, each in a fresh interpreter (setup_probe.py)."""

    def __init__(self, cfg: dict, work: Path):
        self.path = work / "setup_config.json"
        self.path.write_text(json.dumps(cfg))
        self.runs: list[dict] = []
        self.run()  # warms the file cache; not counted
        self.runs.clear()

    def run(self):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                               str(self.path)], capture_output=True, text=True,
                              timeout=120, check=True)
        self.runs.append(json.loads(proc.stdout.splitlines()[-1]))

    def median(self, key: str) -> float:
        return statistics.median(run[key] for run in self.runs)


class Reference:
    """A fixed computation timed between scenarios, to gauge the host's speed.

    It uses numpy and scipy the way the library does (expm, eigvalsh and
    products of small Hermitian matrices) but no vndarboux code, so a change
    to the program cannot change it.  Its inputs are fixed, not drawn from
    the workload seed.  A scenario's time divided by the mean of the two
    reference times around it is the scenario's cost in ``ref`` units, which
    cancels most of the host's speed drift (README.md, "Steadiness and
    bounds").
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (REFERENCE_DIM, REFERENCE_DIM)
        mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for _ in range(REFERENCE_MATRICES)]
        self.hermitian = [0.1 * (m + m.conj().T) for m in mats]
        self.times: list[float] = []
        self.run()  # warm-up; not counted
        self.times.clear()

    def run(self):
        start = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            for h in self.hermitian:
                u = scipy.linalg.expm(-1j * h)
                np.linalg.eigvalsh(h)
                np.trace(u @ h @ u.conj().T)
        self.times.append(time.perf_counter() - start)


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def failed_ratio(outcomes: list[Outcome]) -> float:
    return sum(o.failure is not None for o in outcomes) / len(outcomes)


def timed_scenarios(draw, seed: int, seconds: float, work: Path) -> dict:
    rng = random.Random(seed)
    configs = (draw(rng, i) for i in itertools.count())
    first = next(configs)
    probe = SetupProbe(first, work)
    run_scenario(first, work)  # warm-up: first-call costs belong to setup_s
    reference = Reference()
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for cfg in itertools.chain([first], configs):
        if len(outcomes) % PROBE_EVERY == 0:
            probe.run()
        reference.run()
        outcomes.append(scenario_operation(cfg, work))
        if (time.perf_counter() - start >= seconds
                and len(outcomes) >= MIN_SCENARIOS):
            break
    reference.run()  # closes the pair around the last scenario
    refs = reference.times
    # each scenario in units of the reference times just before and after it
    costs = sorted(o.wall / (0.5 * (before + after))
                   for o, before, after in zip(outcomes, refs, refs[1:]))
    walls = sorted(o.wall for o in outcomes)
    n = len(walls)
    samples = sum(o.samples for o in outcomes)
    return {
        "outcomes": outcomes,
        "metrics": {
            "setup_s": (probe.median("setup_s"), "s"),
            "scenario_ref_p50": (statistics.median(costs), "ref"),
            "scenario_ref_tail": (costs[n - MIN_SCENARIOS], "ref"),
            "samples_per_ref": (samples / sum(costs), "1/ref"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "scenario_s_p50": (statistics.median(walls), "s"),
            "scenario_s_tail": (walls[n - MIN_SCENARIOS], "s"),
            "samples_per_s": (samples / sum(walls), "1/s"),
            "reference_s_p50": (statistics.median(refs), "s"),
        },
        "info": {
            "scenarios": n,
            "certified_samples": samples,
            "scenario_tail_percentile": 100.0 * (n - MIN_SCENARIOS + 1) / n,
            "failed_ratio": failed_ratio(outcomes),
            "run_s": time.perf_counter() - start,
            "setup_probes": probe.runs,
            "scenario_walls_s": [o.wall for o in outcomes],
            "reference_s": refs,
        },
    }


def traced_scenarios(draw, seed: int, seconds: float, work: Path) -> dict:
    rng = random.Random(seed)
    count = max(3, int(seconds // TRACED_SCENARIO_SECONDS))
    configs = [draw(rng, i) for i in range(count)]
    probe = SetupProbe(configs[0], work)
    run_scenario(configs[0], work)  # warm-up, as in the timed run
    tracer = Tracer()
    totals: dict = defaultdict(lambda: defaultdict(float))
    check_s = dict.fromkeys(CHECKS, 0.0)
    outcomes: list[Outcome] = []
    overhead = 0.0
    write_bytes = 0
    first_spans = None
    for cfg in configs:
        probe.run()
        with tracer:
            code, wall, out = run_scenario(cfg, work)
        suite_call = tracer.captured.get("verification.run_suite")
        spans, counts = tracer.reset()
        for name, entry in summarize(spans, counts).items():
            for key, value in entry.items():
                totals[name][key] += value
        if first_spans is None:
            first_spans = relative_spans(spans)
        write_bytes += sum(f.stat().st_size for f in out.iterdir())
        outcomes.append(Outcome(wall, *judge(cfg, out, code)))
        plain_code, plain_wall, _ = run_scenario(cfg, work)
        if plain_code != 0 and outcomes[-1].failure is None:
            outcomes[-1].failure = f"untraced repeat: exit {plain_code}"
        overhead += wall - plain_wall
        if suite_call is None:  # the scenario failed before its checks
            continue
        suite_args, suite_kwargs = suite_call
        for check in CHECKS:
            enabled = {name: name == check for name in CHECKS}
            start = time.perf_counter()
            verification.run_suite(*suite_args,
                                   **{**suite_kwargs, "enabled": enabled})
            check_s[check] += time.perf_counter() - start

    samples = max(1, sum(o.samples for o in outcomes))

    def total(name, key="total_s"):
        return totals[name][key] / count

    metrics = {
        "setup.import_s": (probe.median("import_s"), "s"),
        "scenario_cli.validate_s": (total("scenario_cli.validate_config"), "s"),
        "scenario_cli.write_s": (total("scenario_cli.write_outputs"), "s"),
        "scenario_cli.write_bytes": (write_bytes / count, "bytes"),
        "seed_factory.build_s": (total("seed_factory.make_seed"), "s"),
        "seed_factory.rho_at_calls": (total("seed_factory.rho_at", "calls"), "count"),
        "seed_factory.rho_at_s": (total("seed_factory.rho_at"), "s"),
        "lax_engine.build_lax_s": (total("lax_engine.build_lax"), "s"),
        "lax_engine.evolve_calls": (total("lax_engine.evolve", "calls"), "count"),
        "lax_engine.evolve_s": (total("lax_engine.evolve"), "s"),
        "darboux_engine.trajectory_s": (
            total("darboux_engine.dressed_trajectory", "self_s"), "s"),
        "darboux_engine.dress_per_sample": (
            totals["darboux_engine.dress"]["calls"] / samples, "count"),
        "darboux_engine.projector_per_sample": (
            totals["darboux_engine.projector"]["calls"] / samples, "count"),
        "symmetry_transforms.flow_calls": (
            total("symmetry_transforms.flow", "calls"), "count"),
        "symmetry_transforms.flow_s": (
            total("symmetry_transforms.flow_added", "self_s"), "s"),
        "verification.suite_s": (total("verification.run_suite"), "s"),
        **{f"verification.check.{name}_s": (check_s[name] / count, "s")
           for name in CHECKS},
        "vne_model.residual_calls": (total("vne_model.residual", "calls"), "count"),
        "vne_model.residual_s": (total("vne_model.residual"), "s"),
        "operator_core.mat_exp_per_sample": (
            totals["operator_core.mat_exp"]["calls"] / samples, "count"),
        "operator_core.mat_exp_s": (total("operator_core.mat_exp"), "s"),
        "operator_core.validations_per_sample": (
            totals["operator_core.validation"]["calls"] / samples, "count"),
        "trace.overhead_s": (overhead / count, "s"),
    }
    return {
        "outcomes": outcomes,
        "metrics": metrics,
        "info": {"traced_scenarios": count,
                 "certified_samples": sum(o.samples for o in outcomes),
                 "failed_ratio": failed_ratio(outcomes),
                 "layer_totals": {k: dict(v) for k, v in totals.items()}},
        "spans": first_spans,
    }


def sweep_workload(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Kept out of BENCHMARK.json: too unsteady at --jobs 2 (see README.md)."""
    values = sweep_values(random.Random(seed))
    probe = SetupProbe(sweep_first_config(values), work)
    for _ in range(SETUP_PROBES):
        probe.run()
    run_sweep(values[:1], work, jobs=1)  # warm-up in this process
    outcomes: list[Outcome] = []
    sweeps: list[dict] = []

    def sweep_once(jobs: int) -> dict:
        code, wall, child_cpu, out = run_sweep(values, work, jobs)
        failures = check_sweep(out, code, len(values))
        outcomes.extend(Outcome(wall, 0, f) for f in failures)
        outcomes.extend(Outcome(wall, 0, None)
                        for _ in range(len(values) - len(failures)))
        sweeps.append({"jobs": jobs, "wall_s": wall, "child_cpu_s": child_cpu})
        return sweeps[-1]

    if trace:
        pool, serial = sweep_once(SWEEP_JOBS), sweep_once(1)
        metrics = {
            "setup.import_s": (probe.median("import_s"), "s"),
            "scenario_cli.pool_child_cpu_s": (pool["child_cpu_s"], "s"),
            "scenario_cli.pool_efficiency": (
                serial["wall_s"] / (SWEEP_JOBS * pool["wall_s"]), "ratio"),
            "sweep.jobs1_s": (serial["wall_s"], "s"),
            f"sweep.jobs{SWEEP_JOBS}_s": (pool["wall_s"], "s"),
        }
    else:
        while not sweeps or sum(s["wall_s"] for s in sweeps) < seconds:
            sweep_once(SWEEP_JOBS)
        ok = sum(o.failure is None for o in outcomes)
        metrics = {
            "setup_s": (probe.median("setup_s"), "s"),
            "sweep_points_per_s": (ok / sum(s["wall_s"] for s in sweeps), "1/s"),
            "peak_rss_mib": (max(peak_rss_mib(),
                                 peak_rss_mib(resource.RUSAGE_CHILDREN)), "MiB"),
        }
    return {"outcomes": outcomes, "metrics": metrics,
            "info": {"points_per_sweep": len(values), "jobs": SWEEP_JOBS,
                     "failed_ratio": failed_ratio(outcomes),
                     "setup_probes": probe.runs, "sweeps": sweeps}}


# ---------------------------------------------------------------------------
# reporting

# Kept out of the last line, which is compared between commits; the result
# file and the printed table still carry them.  A time that is zero by
# construction on one workload (no flow runs on delta-covariance), and the
# raw seconds of the timed run, which drift with the host's speed by more
# than the bounds allow (README.md, "Steadiness and bounds").
RESULT_FILE_ONLY = ("symmetry_transforms.flow_s",
                    "scenario_s_p50", "scenario_s_tail", "samples_per_s",
                    "reference_s_p50")


def provenance(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.workload == "sweep-parallel":
            result = sweep_workload(args.seed, args.seconds, bool(args.trace), work)
        else:
            measure = traced_scenarios if args.trace else timed_scenarios
            result = measure(SCENARIO_WORKLOADS[args.workload], args.seed,
                             args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = result.pop("outcomes")
    failures = [o.failure for o in outcomes if o.failure is not None]
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.pop("metrics").items()}
    summary = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: metric for name, metric in metrics.items()
                    if name not in RESULT_FILE_ONLY},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **summary, "metrics": metrics, **result, "failures": failures,
              "provenance": provenance(args.seed)}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {summary['attempted']}  failed {summary['failed']}")
    for key, value in result["info"].items():
        if not isinstance(value, (list, dict)):
            print(f"  {key:<38} {value:.6g}")
    for name, metric in metrics.items():
        print(f"  {name:<38} {metric['value']:.6g} {metric['unit']}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
