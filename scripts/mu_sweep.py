#!/usr/bin/env python3
"""Sweep the Darboux parameter mu over a grid and plot |F_a(t)| spikes.

The Delta-commuting family shows rapid (but smooth) transitions of the
dressed state where F_a(t) dips; this script tabulates the dip depth and the
projector velocity against Im(mu).

Usage: python scripts/mu_sweep.py [out.csv]
"""

import sys

import numpy as np

from vndarboux import build_lax, dressed_trajectory, make_delta_commuting_seed


def main(out_path="mu_sweep.csv"):
    seed = make_delta_commuting_seed([(1.0, 0.5), (2.5, -0.4)], a=0.8)
    times = np.linspace(-5, 5, 201)
    rows = ["im_mu,min_abs_F,max_p_dot,max_phi_norm"]
    for im in np.linspace(0.2, 2.0, 10):
        mu = 1.0 + 1j * im
        lax = build_lax(seed, mu=mu)
        traj = dressed_trajectory(lax, times)
        min_f = min(abs(d.F_value) for d in traj.diagnostics)
        max_pdot = max(d.p_dot_norm for d in traj.diagnostics)
        max_phi = max(d.phi_norm for d in traj.diagnostics)
        rows.append(f"{im:.3f},{min_f:.6e},{max_pdot:.6e},{max_phi:.6e}")
        print(rows[-1])
    with open(out_path, "w") as handle:
        handle.write("\n".join(rows) + "\n")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main(*sys.argv[1:])
