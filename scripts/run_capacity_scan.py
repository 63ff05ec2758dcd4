#!/usr/bin/env python3
"""Capacity decay cap({0}, B(0,R)) for stable-like kernels with beta = alpha.

The certificate should fire exactly for alpha >= 1 (one-dimensional stable
recurrence threshold). Larger truncations sharpen the separation; the
kernel is an FFT stencil, so memory grows only as O(points).
"""

import argparse

from jdlab import capacity_scan, stable_like


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", default="0.5,1.0,1.5")
    ap.add_argument("--truncation", type=float, default=1000.0)
    ap.add_argument("--radii", default="10,40,160,320")
    ap.add_argument("--decay-ratio", type=float, default=0.6)
    args = ap.parse_args()

    radii = [float(r) for r in args.radii.split(",")]
    for alpha in (float(a) for a in args.alphas.split(",")):
        built = stable_like(case="i", alpha=alpha, beta=alpha, dim=1, truncation_radius=args.truncation)
        rep = capacity_scan(built, [built.space.origin], radii, decay_ratio=args.decay_ratio)
        caps = " ".join(f"{c:.5g}" for c in rep.capacities)
        print(
            f"alpha={alpha}: caps [{caps}]  last/first={rep.capacities[-1]/rep.capacities[0]:.3f}  "
            f"certificate={rep.certificate}"
        )
        del built


if __name__ == "__main__":
    main()
