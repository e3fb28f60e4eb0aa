"""Equality characterizations: eps sweeps away from exact saturation instances.

Each sweep builds an instance where one inequality holds with equality, mixes
in an independent state with weight eps from ``EPS_SWEEP``, and reports, per
eps, the inequality's gap and the residual of its equality condition on
``recovery.DEFAULT_BETA_GRID``.  At eps = 0 both must sit below their
tolerances; afterwards both must grow with eps.

An instance is drawn from one generator (``draw_*``) with the caller's
wrappers for its states and contraction: the campaign defers their spectral
work to the stacked calls of its block.  Each sweep checks a block of
instances (``equality_*_block``): the eps stacks of the whole block go
through one gap kernel and one ``recovery._sandwiches`` stack per side, which
raises each instance's rho once, and every instance's reports are
bit-identical to those of the instance checked alone.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import _average, _joint_gaps, _monotonicity_gaps, _report, _traced_terms
from .linalg import (FactorizedSpace, PsdOperator, _as_matrices, _kron, hermitize,
                     random_contraction, random_state_matrix)
from .recovery import (DEFAULT_BETA_GRID, _grid_maxima, _sandwiches,
                       equality_condition_residuals)
from .reports import BoundReport, digest_inputs

EPS_SWEEP = (0.0, 1e-3, 1e-2, 1e-1)
EQUALITY_GAP_TOL = 1e-10
EQUALITY_RESIDUAL_TOL = 1e-8
PROBS = (0.3, 0.3, 0.4)             # the weights of the joint-convexity ensembles


def _floored_state(dim, rng) -> np.ndarray:
    """Random state matrix mixed with the maximally mixed one.

    Equality instances are constructed inputs; the spectral floor keeps the
    generalized-inverse powers in the residual diagnostics away from the
    roundoff-amplification regime at the large grid exponents.
    """
    floor = 0.15
    raw = random_state_matrix(dim, seed=rng)
    return hermitize((1.0 - floor) * raw + floor * np.eye(dim) / dim)


def _sweep_reports(inequality_id, f, gaps, resids, digests) -> list[list[BoundReport]]:
    """Slack reports of each instance's eps sweep, whose rows are consecutive in ``gaps``/``resids``.

    At eps = 0 both must sit below their tolerances; afterwards both must
    grow with eps (co-monotonicity of saturation and recovery failure).
    """
    rows = iter(zip(gaps, resids))
    sweeps = []
    for digest in digests:
        reports = []
        prev_gap, prev_res = -math.inf, -math.inf
        for eps, (gap, resid) in zip(EPS_SWEEP, rows):
            if eps == 0.0:
                slack = min(EQUALITY_GAP_TOL - gap, EQUALITY_RESIDUAL_TOL - resid)
            else:
                slack = min(gap - prev_gap, resid - prev_res)
            prev_gap, prev_res = gap, resid
            reports.append(_report(
                inequality_id, -slack, 0.0, slack >= 0.0, digest=digest,
                notes=f"f={f.name};eps={eps:g}",
                details={"gap": gap, "equality_residual": resid, "eps": eps}))
        sweeps.append(reports)
    return sweeps


def draw_monotonicity(rng, space: FactorizedSpace, state, contraction) -> list:
    """[rho, sigma0, [sigma(eps)], K1] of one monotonicity sweep, drawn from ``rng``.

    The product pair (rho1 (x) tau, sigma1 (x) tau) with V = I saturates
    exactly; sigma(eps) mixes an independent state into sigma0 with weight
    eps.  ``state(matrix)`` wraps each state to decompose, and
    ``contraction(dim, rng)`` draws K1.
    """
    d1, d2 = space.dims
    rho1 = _floored_state(d1, rng)
    sigma1 = random_state_matrix(d1, seed=rng)
    tau = _floored_state(d2, rng)
    k1 = contraction(d1, rng)
    noise = random_state_matrix(space.dim, seed=rng)
    sigma0 = np.kron(sigma1, tau)
    return [state(np.kron(rho1, tau)), sigma0,
            [state(hermitize((1.0 - eps) * sigma0 + eps * noise)) for eps in EPS_SWEEP], k1]


def equality_monotonicity_block(f, space: FactorizedSpace, instances) -> list[list[BoundReport]]:
    """The sweep reports of each ``draw_monotonicity`` instance, with K = K1 (x) I."""
    rhos = [space.psd(rho) for rho, _, _, _ in instances]
    sigmas = [space.psd(sigma) for _, _, sweep, _ in instances for sigma in sweep]
    k1s = _as_matrices([k1 for _, _, _, k1 in instances])
    eye = np.eye(space.dims[1])
    gaps = _monotonicity_gaps(f, [rho for rho in rhos for _ in EPS_SWEEP], sigmas,
                              np.repeat(k1s, len(EPS_SWEEP), axis=0), [eye] * len(sigmas), space)
    k_fulls = _kron(k1s, eye)
    resids = equality_condition_residuals(rhos, sigmas, k_fulls, space)
    return _sweep_reports("equality_monotonicity", f, gaps, resids,
                          [digest_inputs(rho.mat, sigma0, k_full) for rho, (_, sigma0, _, _), k_full
                           in zip(rhos, instances, k_fulls)])


def draw_joint_convexity(rng, space: FactorizedSpace, state, contraction) -> list:
    """[rho, its mixture, [sigma_j(eps)], K, sigma] of one joint-convexity sweep, drawn from ``rng``.

    Identical ensemble components (weights ``PROBS``) saturate; componentwise
    noise breaks it.  Only the sigma components are perturbed: the rho side
    carries the generalized-inverse powers, and holding it fixed keeps the
    residual's conditioning constant across the sweep (the diagnostics then
    co-grow).  Each eps lists its components, then their mixture; ``state`` and
    ``contraction`` are as for ``draw_monotonicity``.
    """
    dim = space.dim
    base_r = _floored_state(dim, rng)
    base_s = random_state_matrix(dim, seed=rng)
    km = contraction(dim, rng)
    noises = [random_state_matrix(dim, seed=rng) for _ in PROBS]
    sigmas = []
    for eps in EPS_SWEEP:
        parts = [hermitize((1 - eps) * base_s + eps * ns) for ns in noises]
        sigmas += [state(m) for m in parts + [_average(zip(PROBS, parts))]]
    return [state(base_r), state(_average((w, base_r) for w in PROBS)), sigmas, km, base_s]


def equality_joint_convexity_block(f, space: FactorizedSpace,
                                   instances) -> list[list[BoundReport]]:
    """The sweep reports of each ``draw_joint_convexity`` instance, on the whole space."""
    flat, grid = FactorizedSpace((space.dim,)), DEFAULT_BETA_GRID
    base_rs, ensembles = [], []
    for base_r, mix_r, sweep, _, _ in instances:
        base_r, mix_r = flat.psd(base_r), flat.psd(mix_r)
        sigmas = iter([flat.psd(sigma) for sigma in sweep])
        ensembles += [([(w, base_r, next(sigmas)) for w in PROBS], mix_r, next(sigmas))
                      for _ in EPS_SWEEP]
        base_rs.append(base_r)
    kms = _as_matrices([km for _, _, _, km, _ in instances])
    gaps = _joint_gaps(f, np.repeat(kms, len(EPS_SWEEP), axis=0), ensembles)
    # every rho of the residual, the mixtures' included, is base_r: raised once a side
    mixed = _sandwiches([mix for _, _, mix in ensembles], (0,), base_rs, (0,), flat, grid, kms)
    diffs = _sandwiches([sj for comps, _, _ in ensembles for _, _, sj in comps], (0,),
                        base_rs, (0,), flat, grid, kms)
    diffs = diffs.reshape(len(mixed), len(PROBS), *mixed.shape[1:])
    resids = _grid_maxima(np.subtract(mixed[:, None], diffs, out=diffs))
    return _sweep_reports("equality_joint_convexity", f, gaps, resids,
                          [digest_inputs(km, base_r.mat, base_s) for km, base_r, (*_, base_s)
                           in zip(kms, base_rs, instances)])


def operator_ssa_equality_residuals(rhos_abc, sigmas_ab, space: FactorizedSpace) -> list[float]:
    """Per sigma_AB: max over the grid of ||sigma_B^b rho_BC^{-b} - sigma_AB^b rho_ABC^{-b}||_op.

    The sigma_AB fall into ``len(rhos_abc)`` consecutive runs of one length, and
    run i takes ``rhos_abc[i]``: a list of one rho serves every sigma_AB.  Two
    ``_sandwiches`` stacks, which raise each rho once, and one batched SVD over
    sigmas x ``DEFAULT_BETA_GRID``.
    """
    rhos = [space.psd(rho) for rho in rhos_abc]
    sub_ab = space.subspace((0, 1))
    sabs = [sub_ab.psd(sab) for sab in sigmas_ab]
    grid = DEFAULT_BETA_GRID
    # the side whose powers are raised on the whole space first: the lower peak of memory
    rhs = _sandwiches(sabs, (0, 1), rhos, (0, 1, 2), space, grid)
    diffs = _sandwiches(PsdOperator.marginals(sabs, sub_ab, (1,)), (1,),
                        PsdOperator.marginals(rhos, space, (1, 2)), (1, 2), space, grid)
    diffs -= rhs
    return _grid_maxima(diffs)


def draw_operator_ssa(rng, space: FactorizedSpace, state, contraction) -> list:
    """[rho, rho_AB, [sigma_AB(eps)]] of one operator-SSA sweep, drawn from ``rng``.

    rho_ABC = rho_AB (x) rho_C with sigma_AB = rho_AB saturates the traced
    operator inequality; perturbing sigma_AB breaks the recovery condition.
    ``state`` is as for ``draw_monotonicity``; the instance has no contraction.
    """
    sub_ab = space.subspace((0, 1))
    rho_ab = _floored_state(sub_ab.dim, rng)
    tau = _floored_state(space.dims[2], rng)
    noise = random_state_matrix(sub_ab.dim, seed=rng)
    return [state(np.kron(rho_ab, tau)), rho_ab,
            [state(hermitize((1.0 - eps) * rho_ab + eps * noise)) for eps in EPS_SWEEP]]


def equality_operator_ssa_block(f, space: FactorizedSpace, instances) -> list[list[BoundReport]]:
    """The sweep reports of each ``draw_operator_ssa`` instance: the thm62 traced difference.

    rho is held fixed so the generalized-inverse powers in the residual keep
    their conditioning; the eps = 0 row doubles as the forward implication
    check (vanishing traced difference forces the grid residual small).
    """
    sub_ab = space.subspace((0, 1))
    rhos = [space.psd(rho) for rho, _, _ in instances]
    sabs = [sub_ab.psd(sab) for _, _, sweep in instances for sab in sweep]
    t1, t2, _ = _traced_terms(f, [rho for rho in rhos for _ in EPS_SWEEP], sabs, "thm62", space)
    gaps = [float(np.real(np.trace(diff))) for diff in hermitize(t1 - t2)]
    resids = operator_ssa_equality_residuals(rhos, sabs, space)
    return _sweep_reports("equality_operator_ssa", f, gaps, resids,
                          [digest_inputs(rho.mat, rho_ab) for rho, (_, rho_ab, _)
                           in zip(rhos, instances)])


def equality_suite(f, rng) -> list[BoundReport]:
    """All three equality characterizations at desk dims (2x2, 2 and 2x2x2), each a block of one."""
    reports = []
    for draw, block, dims in ((draw_monotonicity, equality_monotonicity_block, (2, 2)),
                              (draw_joint_convexity, equality_joint_convexity_block, (2,)),
                              (draw_operator_ssa, equality_operator_ssa_block, (2, 2, 2))):
        space = FactorizedSpace(dims)
        reports += block(f, space, [draw(rng, space, PsdOperator, random_contraction)])[0]
    return reports
