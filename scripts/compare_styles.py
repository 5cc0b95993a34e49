#!/usr/bin/env python3
"""Sweep a grid of game styles on one match state and tabulate the trade-off.

Runs seeded Monte Carlo possessions per style, prints the per-style
report, and marks the styles whose (mean efficiency, mean security) pair
is not dominated by any other style in the sweep.

Example:
    python3 scripts/compare_styles.py --state data/midfield_state.json --trials 5000
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from playnet import (
    DecisionPolicy,
    EstimatorParams,
    LinearStyle,
    SimulationConfig,
    monte_carlo_compare,
)
from playnet.sequence import pareto_points
from playnet.state import load_match_state

DEFAULT_GRID = "5:0,4:1,3:1,3:2,2:2,2:3,1:3,1:4,0:5"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state", default="data/midfield_state.json")
    parser.add_argument("--styles", default=DEFAULT_GRID)
    parser.add_argument("--trials", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--threshold", type=float, default=0.5)
    args = parser.parse_args()

    # one error line and exit 1 on a bad argument or file, as the playnet CLI does
    try:
        styles = [LinearStyle.parse(text) for text in args.styles.split(",")]
        state = load_match_state(args.state)
        cfg = SimulationConfig(
            policy=DecisionPolicy(style=styles[0], threshold=args.threshold),
            estimators=EstimatorParams(),
            seed=args.seed,
        )
        reports = monte_carlo_compare(state, styles, args.trials, cfg)

        points = [(r.mean_efficiency, r.mean_security) for r in reports]
        undominated = {i for _, _, i in pareto_points(points)}

        print(f"{args.trials} trials per style on {args.state} (seed {args.seed})\n")
        print(f"{'style':<8}{'class':<12}{'mean_eff':>10}{'mean_sec':>10}{'goal%':>8}{'len':>7}  frontier")
        for i, (style, rep) in enumerate(zip(styles, reports)):
            mark = "*" if i in undominated else ""
            print(
                f"{rep.style:<8}{style.classify().value:<12}{rep.mean_efficiency:>10.4f}"
                f"{rep.mean_security:>10.4f}{100 * rep.goal_rate:>8.2f}{rep.mean_length:>7.2f}  {mark}"
            )
        print("\n* = (efficiency, security) pair not dominated within this sweep")
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
