#!/usr/bin/env python3
"""Run the full verification campaign over every registered inequality.

Defaults match the desk-scale acceptance setup: qubit bipartite and
tripartite factorizations, the logarithmic and p = 1/2 power functions,
three exponents beta, and seeded trials written to JSONL.

Usage:
    python scripts/run_verification_campaign.py --trials 200 --seed 7 \
        --output campaign_reports.jsonl
"""

import argparse
import sys
import time

from qre.campaign import FAMILIES, CampaignConfig, run_campaign
from qre.errors import InvalidParameter


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--output", default="campaign_reports.jsonl")
    ap.add_argument("--rank-policy", choices=("full", "mixed"), default="full")
    ap.add_argument("--inequalities", nargs="+", choices=sorted(FAMILIES),
                    default=sorted(FAMILIES), help="subset of inequality ids (default: all)")
    args = ap.parse_args()

    try:    # a bad --trials, a repeated inequality or an empty --output
        config = CampaignConfig(
            inequalities=tuple(args.inequalities),
            functions=("neg_log", "f_p:0.5"),
            dims=((2, 2), (2, 2, 2)),
            betas=(0.25, 0.5, 0.75),
            trials=args.trials,
            seed=args.seed,
            rank_policy=args.rank_policy,
            output_path=args.output,
        )
    except InvalidParameter as exc:
        ap.error(str(exc))
    try:
        out = open(args.output, "w")
    except OSError as exc:      # a missing directory, a directory, no permission
        ap.error(f"cannot write --output {args.output}: {exc.strerror}")
    with out:
        t0 = time.perf_counter()
        summary = run_campaign(config, out)
        elapsed = time.perf_counter() - t0
    print(summary.line() + f" elapsed={elapsed:.1f}s")
    for ineq in config.inequalities:
        stats = summary.per_inequality.get(ineq)
        if stats and stats["reports"]:
            print(f"  {ineq:24s} reports={stats['reports']:6d} "
                  f"passes={stats['passes']:6d} divergent={stats['divergent']:4d} "
                  f"worst_margin={stats['worst_margin']:.6g}")
    if summary.failures:
        print("FAILING TRIALS:", file=sys.stderr)
        for line in summary.failing:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"reports written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
