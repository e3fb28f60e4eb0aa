"""Command-line interface.

Subcommands:
  verify <inequality> ...    check one inequality on matrices from JSON files
  campaign --config FILE     run a seeded verification campaign
  bounds constants ...       print the constants entering the remainder bounds
  repr check --f ID          integral-representation fidelity of a function

Exit codes: 0 pass, 1 inequality violation, 2 input error, 3 divergent entropy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds
from .campaign import FAMILIES, parse_config, parse_dims, run_campaign
from .errors import DivergentEntropy, InvalidParameter, IrregularFunction, QREError
from .functions import from_id, loewner_quadrature, split_id
from .linalg import FactorizedSpace, load_matrix, op_norm

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_DIVERGENT = 3

UNITARY_TOL = 1e-10
CONTRACTION_TOL = 1e-10


def _require(value, flag):
    if not value:
        raise QREError(f"{flag} is required for this inequality")
    return value


def _operand(path, flag, dim, unitary):
    """The matrix of ``flag`` (I if it is not given), which acts on dimension ``dim`` and is
    unitary (V*V = I within 1e-10 d) or else a contraction (||K|| <= 1 + 1e-10)."""
    m = load_matrix(path) if path else np.eye(dim)
    if m.shape[0] != dim:
        raise QREError(f"{flag} is {m.shape[0]}x{m.shape[0]}, but acts on dimension {dim}")
    if unitary and (dev := float(np.abs(m.conj().T @ m - np.eye(dim)).max())) > UNITARY_TOL * dim:
        raise QREError(f"{flag} is not unitary: max |V*V - I| = {dev:.3e}")
    if not unitary and (norm := op_norm(m)) > 1.0 + CONTRACTION_TOL:
        raise QREError(f"{flag} is not a contraction: ||K|| = {norm:.12g}")
    return m


# operand name (as in campaign.FAMILIES) -> loader(args, space); --rho is loaded first.
# K1 acts on factor A, V on factor B and U on the whole space.
LOADERS = {
    "sigma": lambda args, space: load_matrix(_require(args.sigma, "--sigma")),
    "sigma_ab": lambda args, space: load_matrix(_require(args.sigma, "--sigma")),
    "k1": lambda args, space: _operand(args.k, "--k", space.dims[0], unitary=False),
    "v": lambda args, space: _operand(args.vfile, "--v", space.dims[1], unitary=True),
    "u": lambda args, space: _operand(args.k, "--k", space.dim, unitary=True),
}


def verifiable() -> list[str]:
    """The families whose every operand has a loader: the choices of ``verify``."""
    return [name for name, family in FAMILIES.items()
            if set(family.operands) <= {"rho", *LOADERS}]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qre", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one inequality instance")
    v.add_argument("inequality", choices=verifiable())
    v.add_argument("--f", dest="fid", default="neg_log", help="function id")
    v.add_argument("--beta", type=float, default=0.5)
    v.add_argument("--rho", required=True, help="JSON matrix file")
    v.add_argument("--sigma", help="JSON matrix file")
    v.add_argument("--k", help="JSON matrix file (K, K_1 on the kept factor, "
                               "or the unitary U of pinsker)")
    v.add_argument("--v", dest="vfile", help="JSON matrix file (unitary on the traced factor)")
    v.add_argument("--dims", help="factor dims, e.g. 2,2 or 2x2x2")
    v.add_argument("--json", action="store_true", help="emit the report as JSON")

    c = sub.add_parser("campaign", help="run a campaign from a config file")
    c.add_argument("--config", required=True)
    c.add_argument("--output", help="override the config output path")

    b = sub.add_parser("bounds", help="bound constants")
    bsub = b.add_subparsers(dest="bounds_command", required=True)
    bc = bsub.add_parser("constants", help="print alpha1 alpha2 alpha C c N")
    bc.add_argument("--f", dest="fid", required=True)
    bc.add_argument("--beta", type=float, required=True)
    bc.add_argument("--knorm", type=float, default=1.0)
    bc.add_argument("--dd", type=float, default=1.0, help="modular-operator norm D")

    r = sub.add_parser("repr", help="integral representation checks")
    rsub = r.add_subparsers(dest="repr_command", required=True)
    rc = rsub.add_parser("check", help="quadrature fidelity on a log grid")
    rc.add_argument("--f", dest="fid", required=True)
    rc.add_argument("--tol", type=float, default=1e-6)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "bounds":
            return _cmd_constants(args)
        if args.command == "repr":
            return _cmd_repr(args)
    except DivergentEntropy as exc:
        print(f"divergent entropy: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except (QREError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_INPUT


def _space_for(args, n, nfactors):
    """--dims if given; otherwise n as one factor, or n = d*d as d x d for two factors."""
    if args.dims:
        space = FactorizedSpace(parse_dims(args.dims))
    elif nfactors is None:
        space = FactorizedSpace((n,))
    elif nfactors == 2 and math.isqrt(n) ** 2 == n:
        space = FactorizedSpace((math.isqrt(n),) * 2)
    else:
        raise QREError(f"cannot infer factor dims for size {n}; pass --dims")
    if nfactors is not None and space.nfactors != nfactors:
        raise QREError(f"this inequality needs {nfactors} factors, got --dims {args.dims}")
    return space


def _cmd_verify(args) -> int:
    family = FAMILIES[args.inequality]
    f = from_id(args.fid)
    rho = load_matrix(args.rho)
    space = _space_for(args, rho.shape[0], family.nfactors)
    if not family.admits(f, space.dims):    # its factor count is that of _space_for
        raise QREError(f"{args.inequality} needs {family.requires.text}, got {f.name}")
    operands = [rho if name == "rho" else LOADERS[name](args, space)
                for name in family.operands]
    report, = family.check(f, space, args.beta, [operands])
    if args.json:
        print(report.to_json())
    else:
        print(f"{report.inequality_id}: lhs={report.lhs:.9g} rhs={report.rhs:.9g} "
              f"margin={report.gap:.3e} passed={report.passed}")
    return EXIT_PASS if report.passed else EXIT_VIOLATION


def _cmd_campaign(args) -> int:
    with open(args.config) as fh:
        config = parse_config(fh.read())
    if args.output is not None:
        config = type(config)(**{**config.__dict__, "output_path": args.output})
    summary = run_campaign(config)
    print(summary.line())
    for ineq, stats in summary.per_inequality.items():
        print(f"  {ineq}: reports={stats['reports']} passes={stats['passes']} "
              f"divergent={stats['divergent']} worst_margin={stats['worst_margin']:.6g}")
    if summary.failures:
        print("failing trials (replay with run_single):", file=sys.stderr)
        for line in summary.failing[:20]:
            print(f"  {line}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_PASS


def _cmd_constants(args) -> int:
    """The constants of one ``constants_for`` call: the raw power's for the power family."""
    f = from_id(args.fid)
    if not f.regular:
        raise IrregularFunction(f"{f.name} carries no window constants")
    beta = args.beta
    _, p = split_id(f.name)
    if p is None:
        _, n, alpha, big_c, c = bounds.constants_for(f, beta, args.knorm, args.dd)
    else:
        _, n, alpha, big_c, c = bounds.power_family_constants(p, beta, args.knorm, args.dd)
    for name, value in (("alpha1", bounds.alpha1(beta)), ("alpha2", bounds.alpha2(beta)),
                        ("alpha", alpha), ("C", big_c), ("c", c), ("N", n)):
        print(f"{name}={value!r}")
    return EXIT_PASS


def _cmd_repr(args) -> int:
    f = from_id(args.fid)
    if not 0.0 < args.tol < math.inf:     # a NaN fails too
        raise InvalidParameter(f"--tol must be positive and finite, got {args.tol}")
    xs = np.geomspace(0.1, 10.0, 21)
    worst = 0.0
    for x in xs:
        err = abs(loewner_quadrature(f, float(x)) - float(f(x)))
        worst = max(worst, err)
    print(f"max |quadrature - eval| over x in [0.1, 10]: {worst:.3e}")
    return EXIT_PASS if worst < args.tol else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
