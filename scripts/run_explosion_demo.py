#!/usr/bin/env python3
"""Explosion diagnostics: cubic-rate chain versus a bounded-rate walk.

The chain with j(k, k+1) = (k+1)^3 has summable inverse rates, so paths
accumulate infinitely many jumps in finite time; the diagnostic should
flag it while leaving the nearest-neighbor walk clean.
"""

import argparse

import numpy as np

from jdlab import SimConfig, lattice_nn, sample_estimates
from jdlab.forms import jump_rates
from jdlab.kernels import explicit_kernel
from jdlab.simulate import explosion_diagnostic


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--horizon", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    chain = explicit_kernel(1501, [[k, k + 1, float((k + 1) ** 3)] for k in range(1500)])
    rates = jump_rates(chain.kernel)
    print(f"cubic chain: sum 1/lambda = {np.sum(1.0 / rates.lam[1:]):.4f} (summable -> explosive)")
    cfg = SimConfig(horizon=args.horizon, trials=args.trials, seed=args.seed, max_jumps=4000)
    [(_, batch)], _ = sample_estimates(rates, 5, cfg)
    diag = explosion_diagnostic(batch)
    print(
        f"  capped {diag.capped_fraction:.1%}, median elapsed at cap "
        f"{diag.median_elapsed_capped:.4f}, explosion_suspected={diag.explosion_suspected}"
    )

    walk = lattice_nn(dim=1, truncation_radius=300)
    wrates = jump_rates(walk.kernel)
    cfg = SimConfig(horizon=args.horizon, trials=args.trials, seed=args.seed, outer_radius=250.0)
    [(_, batch)], _ = sample_estimates(wrates, walk.space.origin, cfg)
    diag = explosion_diagnostic(batch)
    print(
        f"bounded walk: capped {diag.capped_fraction:.1%}, absorbed {diag.absorbed_fraction:.1%}, "
        f"explosion_suspected={diag.explosion_suspected}"
    )


if __name__ == "__main__":
    main()
