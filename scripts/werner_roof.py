#!/usr/bin/env python3
"""Convex-roof concurrence of Werner states against the closed-form oracle.

Sweeps the mixing parameter p, runs the isometry-steered minimization on each
state, and compares with the Wootters formula, which gives
max(0, (3p - 1) / 2) on this family. Exits 1 if any |roof - oracle| exceeds
ORACLE_TOLERANCE, so the sweep doubles as a check.
"""

import argparse
import sys

from embedsim import RoofConfig, concurrence_spec, convex_roof_estimate, werner_state, wootters_oracle

# the worst gap at the default settings is about 1e-12
ORACLE_TOLERANCE = 1e-9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument("--restarts", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.steps < 2:  # the sweep spans p = 0 to 1; fewer points would check nothing
        parser.error("--steps must be >= 2")

    spec = concurrence_spec()
    cfg = RoofConfig(restarts=args.restarts, seed=args.seed)
    print(f"{'p':>6} {'roof':>10} {'oracle':>10} {'|diff|':>10} {'iters':>6}")
    worst = 0.0
    for i in range(args.steps):
        p = i / (args.steps - 1)
        rho = werner_state(p)
        res = convex_roof_estimate(rho, spec, cfg)
        oracle = wootters_oracle(rho)
        gap = abs(res.value - oracle)
        worst = max(worst, gap)
        print(f"{p:6.2f} {res.value:10.6f} {oracle:10.6f} {gap:10.2e} {res.iterations:6d}")
    if not worst <= ORACLE_TOLERANCE:
        print(f"FAIL: worst |roof - oracle| {worst:.2e} exceeds {ORACLE_TOLERANCE:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
