#!/usr/bin/env python3
"""Shooting-oracle convergence table for one regime and level.

Integrates the Gaussian-regularized problem for a decreasing sequence of
widths sigma (step h = sigma/10) and prints the eigenvalue against the
matching-method value, with the sigma -> 0 extrapolation from the last
two widths (first-order Richardson step: the regularization shift is
linear in sigma).

Usage: python scripts/oracle_convergence.py [fig] [level] [sigma1,sigma2,...]
"""
import sys

sys.path.insert(0, "src")

from ptwell import FIGURE_PARAMETERS, WellParameters, convergence_study


def main():
    fig = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    level = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    sigmas = (
        [float(s) for s in sys.argv[3].split(",")]
        if len(sys.argv) > 3
        else [4e-3, 2e-3, 1e-3]
    )
    a, omega, eta, _ = FIGURE_PARAMETERS[fig]
    p = WellParameters(a, omega, eta)
    print(f"regime {fig}: a={a}, omega={omega}, eta={eta}, level {level}")
    study = convergence_study(p, level, sigmas)
    print(f"matching energy: {study.matching_energy:.12g}")
    print(f"{'sigma':>10} {'Re E':>18} {'Im E':>12} {'|delta|':>12} {'rel':>10}")
    for row in study.rows:
        rel = row.delta_to_matching / abs(study.matching_energy)
        print(f"{row.sigma:>10.2e} {row.energy.real:>18.10f} {row.energy.imag:>12.2e} "
              f"{row.delta_to_matching:>12.3e} {rel:>10.2e}")
    ex = study.extrapolated
    print(f"{'-> 0':>10} {ex.real:>18.10f} {ex.imag:>12.2e} "
          f"{abs(ex - study.matching_energy):>12.3e}")
    print(f"monotone approach: {study.monotone}")


if __name__ == "__main__":
    main()
