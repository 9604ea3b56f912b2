#!/usr/bin/env python3
"""Tiny self-test of the benchmark's oracle.

    python3 benchmarks/selftest.py

Runs two small delta-covariance scenarios (two blocks, 21 samples) through
the operation the benchmark times.  One wrong state is written into the
second scenario's trajectory.csv before the oracle reads it; the test shows
that the mismatch fails that operation and is counted in ``failed_ratio``,
and that the closed-form oracle alone also rejects the wrong state.
"""

import random
import shutil
import sys

import run as bench


def corrupt_one_state(csv_path, row: int = 5, delta: float = 1e-6):
    """Add ``delta`` to the real part of entry (0, 0) of sample ``row``."""
    lines = csv_path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    column = lines[0].split(",").index("re_0_0")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row + 1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")


def main() -> int:
    rng = random.Random(0)
    configs = [bench.delta_covariance_config(rng, i, blocks=2, samples=21)
               for i in range(2)]
    bench.RESULTS.mkdir(exist_ok=True)
    work = bench.RESULTS / "selftest"
    work.mkdir(exist_ok=True)
    try:
        outcomes = [bench.scenario_operation(configs[0], work)]
        code, wall, out = bench.run_scenario(configs[1], work)
        corrupt_one_state(out / "trajectory.csv")
        outcomes.append(bench.Outcome(wall, *bench.judge(configs[1], out, code)))
        times, states = bench.scenario_cli.read_trajectory_csv(
            str(out / "trajectory.csv"))
        explicit = bench.check_explicit(configs[1], out, times, states)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    if outcomes[0].failure is not None:
        problems.append(f"clean scenario failed: {outcomes[0].failure}")
    if outcomes[1].failure is None or outcomes[1].samples != 0:
        problems.append("the wrong state was not counted as a failure")
    if bench.failed_ratio(outcomes) != 0.5:
        problems.append(f"failed_ratio is {bench.failed_ratio(outcomes)}, not 0.5")
    if explicit is None:
        problems.append("explicit_eavn did not reject the wrong state")
    print(f"clean: {outcomes[0].failure}; corrupted: {outcomes[1].failure}; "
          f"explicit oracle: {explicit}; "
          f"failed_ratio {bench.failed_ratio(outcomes)}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
