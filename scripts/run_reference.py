#!/usr/bin/env python3
"""Run the two reference scenarios through the library and print a summary.

Usage: python scripts/run_reference.py
"""

import numpy as np

from vndarboux import (build_lax, dressed_trajectory, explicit_eavn,
                       make_anticommuting_seed, make_delta_commuting_seed,
                       run_suite)


def show(report):
    print(f"scenario: {report.scenario_id}   overall: {report.overall}")
    for check in report.checks:
        status = "ok " if check.passed else "FAIL"
        print(f"  [{status}] {check.name:16s} worst {check.worst_value:.3e} "
              f"tol {check.tolerance:.1e} at t={check.location_t}")
    print()


def main():
    # stationary anticommuting seed: the dressed state is the reflected seed
    seed = make_anticommuting_seed(1, [1.0], n=2)
    lax = build_lax(seed, mu=1j)
    traj = dressed_trajectory(lax, np.linspace(-2, 2, 41))
    print(f"sigma-x seed: z_mu = {lax.params.z_mu:.3e}, "
          f"rho1(0) =\n{traj.states[20].round(12)}")
    show(run_suite(traj, scenario_id="sigma-x-reference"))

    # density-matrix Delta-commuting seed; cross-check the closed formula
    seed = make_delta_commuting_seed([(1.0, 0.2), (3.0, -0.2)], a=0.5)
    lax = build_lax(seed, mu=0.3 + 0.8j, lam=3j)
    traj = dressed_trajectory(lax, np.linspace(-2, 2, 41))
    gap = max(np.linalg.norm(explicit_eavn(seed, lax.params.mu, lax.phi0, t) - s)
              for t, s in zip(traj.times, traj.states))
    print(f"delta-density seed: explicit-vs-dressed gap over the grid: {gap:.3e}")
    show(run_suite(traj, scenario_id="delta-density"))


if __name__ == "__main__":
    main()
