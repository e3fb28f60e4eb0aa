#!/usr/bin/env python3
"""Sweep equality instances of three inequalities under growing perturbations.

Prints the campaign's own equality sweeps (``qre.equality.equality_suite``) for
the logarithm.  Each family builds an exact saturation instance, mixes in an
independent state with weight eps (``qre.equality.EPS_SWEEP``), and reports how
the inequality gap and the equality-condition residual grow together.  At
eps = 0 both sit at numerical zero; a family is co-monotone when every one of
its reports passes.
"""

import argparse
import itertools
import sys

import numpy as np

from qre.equality import equality_suite
from qre.functions import make_neg_log


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed: must be at least 0, got {args.seed}")

    reports = equality_suite(make_neg_log(), np.random.default_rng(args.seed))
    for name, rows in itertools.groupby(reports, key=lambda r: r.inequality_id):
        rows = list(rows)
        print(f"\n{name}:")
        print(f"  {'eps':>8s} {'gap':>12s} {'residual':>12s}")
        for r in rows:
            d = r.details
            print(f"  {d['eps']:8.0e} {d['gap']:12.4e} {d['equality_residual']:12.4e}")
        print(f"  co-monotone: {all(r.passed for r in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
