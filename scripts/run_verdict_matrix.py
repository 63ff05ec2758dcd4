#!/usr/bin/env python3
"""Verdict matrix for the layered/tempered stable-like kernels on Z.

Evaluates the volume (conservativeness) and omega (recurrence) sufficient
tests for each (alpha, tail) cell, and prints one row per cell: alpha, the
tail case and its beta, both verdicts and the recurrence test's liminf
estimate.
"""

import argparse

import numpy as np

from jdlab import recurrence_report, stable_like, volume_growth_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--truncation", type=float, default=400.0)
    ap.add_argument("--rmax", type=float, default=200.0)
    ap.add_argument("--tau", type=float, default=10.0)
    args = ap.parse_args()

    radii = list(np.arange(10.0, args.rmax + 1, 10.0))
    print(f"{'alpha':>6} {'case':>5} {'beta':>5} {'conservative':>13} {'recurrent':>13} {'t-liminf':>10}")
    for alpha in (0.5, 1.0, 1.5):
        for case, beta in (("i", 0.5), ("i", 1.0), ("i", 1.5), ("i", 3.0), ("ii", None)):
            built = stable_like(
                case=case, alpha=alpha, beta=beta if beta is not None else 1.0,
                tempering=1.0, dim=1, truncation_radius=args.truncation,
            )
            vol = volume_growth_report(built.space, built.space.origin, radii, threshold=args.tau)
            rec = recurrence_report(built, built.space.origin, radii, threshold=args.tau)
            print(
                f"{alpha:>6} {case:>5} {beta if beta is not None else '-':>5} "
                f"{vol.verdict:>13} {rec.verdict:>13} {rec.liminf_estimate:>10.4g}"
            )


if __name__ == "__main__":
    main()
