#!/usr/bin/env python3
"""Profile the tightness of the optimized remainder bound across beta.

For random bipartite instances the script reports, per (function, beta):
the median ratio M gap^alpha / ||R_beta||_2 (how loose the power-law envelope
runs at desk scale), the median closed-form window optimum T*, and the exponent
alpha(beta).  Ratios are always >= 1; the bound is loosest deep in the
beta -> 1 branch where alpha collapses.
"""

import argparse
import sys

import numpy as np

from qre.bounds import verify_monotonicity_bound_block
from qre.campaign import FAMILIES
from qre.errors import InvalidParameter
from qre.functions import from_id
from qre.linalg import FactorizedSpace, random_contraction, random_density, random_unitary

SPACE = FactorizedSpace((2, 2))
FAMILY = FAMILIES["monotonicity_bound"]


def profile(fid: str, beta: float, trials: int, seed: int):
    """Draw the trials (rho, sigma, K1, V) in order, then check them as one block.

    The medians are None when no trial has lhs > 1e-12 and a positive gap.
    """
    rng = np.random.default_rng(seed)
    draws = [(random_density(4, seed=rng), random_density(4, seed=rng),
              random_contraction(2, seed=rng), random_unitary(2, seed=rng))
             for _ in range(trials)]
    reports = verify_monotonicity_bound_block(from_id(fid), *zip(*draws), beta, SPACE)
    ratios, t_stars = [], []
    for rep in reports:
        if rep.lhs > 1e-12 and rep.details["gap"] > 0:
            ratios.append(rep.rhs / rep.lhs)
            t_stars.append(rep.constants.T_star)
    if not ratios:
        return None, None, reports[-1].constants.alpha
    return np.median(ratios), np.median(t_stars), reports[-1].constants.alpha


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=positive_int, default=300)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--functions", nargs="+", default=("neg_log", "f_p:0.5"))
    ap.add_argument("--betas", nargs="+", type=float,
                    default=(0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9))
    args = ap.parse_args()
    for fid in args.functions:
        try:
            f = from_id(fid)
        except InvalidParameter as exc:
            ap.error(f"--functions: {exc}")
        if not FAMILY.admits(f, SPACE.dims):
            ap.error(f"--functions: {fid} is not {FAMILY.requires.text}")
    if bad := [b for b in args.betas if not 0.0 < b < 1.0]:     # a NaN fails too
        ap.error(f"--betas: each must lie in (0,1), got {bad}")

    print(f"{'function':>10s} {'beta':>6s} {'alpha':>8s} "
          f"{'median ratio':>14s} {'median T*':>12s}")
    for fid in args.functions:
        for beta in args.betas:
            ratio, t_star, alpha = profile(fid, beta, args.trials, args.seed)
            if ratio is None:
                print(f"{fid:>10s} {beta:6.2f} {alpha:8.4f}  no trial with lhs > 1e-12 "
                      f"and a positive gap")
            else:
                print(f"{fid:>10s} {beta:6.2f} {alpha:8.4f} {ratio:14.4g} {t_star:12.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
