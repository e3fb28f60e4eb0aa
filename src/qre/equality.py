"""Equality characterizations: eps sweeps away from exact saturation instances.

Each sweep builds an instance where one inequality holds with equality, mixes
in an independent state with weight eps from ``EPS_SWEEP``, and reports, per
eps, the inequality's gap and the residual of its equality condition on
``recovery.DEFAULT_BETA_GRID``.  At eps = 0 both must sit below their
tolerances; afterwards both must grow with eps.

An instance's draw is only its random numbers (``_*_numbers``).  A block of
them is built whole (``_*_instances``) with one stacked call per operation,
each member bit-identical to its arithmetic alone: Gram products, spectral
floors, Kronecker products, eps mixtures, ensemble averages, the rescaling of
the contractions, and one ``DensityMatrix.stack`` per shape of state.
``_SWEEP_DRAWS`` lists both for the campaign and ``equality_suite``.  Each
sweep checks a block of instances (``equality_*_block``): the eps stacks of
the whole block go through one gap kernel and one ``recovery._sandwiches``
stack per side, which raises each instance's rho once, and every instance's
reports are bit-identical to those of the instance checked alone.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import _joint_gaps, _monotonicity_gaps, _report, _traced_terms
from .linalg import (DensityMatrix, FactorizedSpace, PsdOperator, _as_matrices, _complex,
                     _contraction_numbers, _gram_states, _kron, hermitize, rescale_contractions)
from .recovery import (DEFAULT_BETA_GRID, _grid_maxima, _sandwiches,
                       equality_condition_residuals)
from .reports import BoundReport, digest_inputs

EPS_SWEEP = (0.0, 1e-3, 1e-2, 1e-1)
EQUALITY_GAP_TOL = 1e-10
EQUALITY_RESIDUAL_TOL = 1e-8
PROBS = (0.3, 0.3, 0.4)             # the weights of the joint-convexity ensembles


def _floored_state(z) -> np.ndarray:
    """The random state matrices of a stack of drawn ``(2, d, d)`` normals, each mixed with the
    maximally mixed state.

    Equality instances are constructed inputs; the spectral floor keeps the
    generalized-inverse powers in the residual diagnostics away from the
    roundoff-amplification regime at the large grid exponents.
    """
    floor, dim = 0.15, z.shape[-1]
    return hermitize((1.0 - floor) * _states(z) + floor * np.eye(dim) / dim)


def _states(z) -> np.ndarray:
    """The random state matrices (``random_state_matrix``) of a stack of drawn normals."""
    return _gram_states(_complex(z))


def _decomposed(states) -> list[list[DensityMatrix]]:
    """The ``(N, m, d, d)`` state matrices of N instances, m an instance, as operators
    decomposed with one ``DensityMatrix.stack``."""
    n, m = states.shape[:2]
    ops = DensityMatrix.stack(states.reshape((n * m,) + states.shape[2:]))
    return [ops[i * m:(i + 1) * m] for i in range(n)]


def _mixed(base, other) -> np.ndarray:
    """``hermitize((1 - eps) base + eps other)`` for each eps of ``EPS_SWEEP``: axis 1 of the
    ``(N, E, ...)`` result, whose other axes are those ``base`` and ``other`` broadcast to."""
    eps = np.array(EPS_SWEEP).reshape((1, -1) + (1,) * (other.ndim - 1))
    return hermitize((1.0 - eps) * base[:, None] + eps * other[:, None])


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


def _monotonicity_numbers(rng, space: FactorizedSpace) -> tuple:
    """The normals of rho1 and sigma1, of tau, the numbers of K1 and the normals of the noise."""
    d1, d2 = space.dims
    return (rng.standard_normal((2, 2, d1, d1)), rng.standard_normal((2, d2, d2)),
            *_contraction_numbers(rng, d1), rng.standard_normal((2, space.dim, space.dim)))


def _monotonicity_instances(numbers) -> list:
    """[rho, sigma0, [sigma(eps)], K1] of the monotonicity sweep of each of ``numbers``.

    The product pair (rho1 (x) tau, sigma1 (x) tau) with V = I saturates
    exactly; sigma(eps) mixes an independent state into sigma0 with weight
    eps.
    """
    pairs, taus, zs, norms, noises = zip(*numbers)
    pairs, tau = np.stack(pairs), _floored_state(np.stack(taus))
    rhos = _kron(_floored_state(pairs[:, 0]), tau)
    sigma0s = _kron(_states(pairs[:, 1]), tau)
    sweeps = _mixed(sigma0s, _states(np.stack(noises)))
    states = _decomposed(np.concatenate([rhos[:, None], sweeps], axis=1))
    return [[rho, sigma0, sweep, k1] for (rho, *sweep), sigma0, k1
            in zip(states, sigma0s, rescale_contractions(zip(_complex(np.array(zs)), norms)))]


def equality_monotonicity_block(f, space: FactorizedSpace, instances) -> list[list[BoundReport]]:
    """The sweep reports of each ``_monotonicity_instances`` instance, with K = K1 (x) I."""
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


def _joint_convexity_numbers(rng, space: FactorizedSpace) -> tuple:
    """The normals of base_r and base_s, the numbers of K and the normals of the three noises."""
    dim = space.dim
    return (rng.standard_normal((2, 2, dim, dim)), *_contraction_numbers(rng, dim),
            rng.standard_normal((len(PROBS), 2, dim, dim)))


def _joint_convexity_instances(numbers) -> list:
    """[rho, its mixture, [sigma_j(eps)], K, sigma] of the joint-convexity sweep of each of
    ``numbers``.

    Identical ensemble components (weights ``PROBS``) saturate; componentwise
    noise breaks it.  Only the sigma components are perturbed: the rho side
    carries the generalized-inverse powers, and holding it fixed keeps the
    residual's conditioning constant across the sweep (the diagnostics then
    co-grow).  Each eps lists its components, then their mixture.
    """
    pairs, zs, norms, noises = zip(*numbers)
    pairs, noises = np.stack(pairs), np.stack(noises)
    n, dim = pairs.shape[0], pairs.shape[-1]
    base_rs, base_ss = _floored_state(pairs[:, 0]), _states(pairs[:, 1])
    parts = _mixed(base_ss[:, None], _states(noises.reshape(-1, 2, dim, dim)).reshape(
        noises.shape[:2] + (dim, dim)))                      # (N, eps, component, d, d)
    # the mixtures sum their terms in the order of bounds._mixtures
    mix_ss = hermitize(sum(w * parts[:, :, j] for j, w in enumerate(PROBS)))
    sigmas = np.concatenate([parts, mix_ss[:, :, None]], axis=2).reshape(n, -1, dim, dim)
    mix_rs = hermitize(sum(w * base_rs for w in PROBS))
    states = _decomposed(np.concatenate([base_rs[:, None], mix_rs[:, None], sigmas], axis=1))
    return [[base_r, mix_r, sweep, km, base_s] for (base_r, mix_r, *sweep), km, base_s
            in zip(states, rescale_contractions(zip(_complex(np.array(zs)), norms)), base_ss)]


def equality_joint_convexity_block(f, space: FactorizedSpace,
                                   instances) -> list[list[BoundReport]]:
    """The sweep reports of each ``_joint_convexity_instances`` instance, on the whole space."""
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


def _operator_ssa_numbers(rng, space: FactorizedSpace) -> tuple:
    """The normals of rho_AB, of tau and of the noise; the instance draws no contraction."""
    dab, dc = space.subspace((0, 1)).dim, space.dims[2]
    return (rng.standard_normal((2, dab, dab)), rng.standard_normal((2, dc, dc)),
            rng.standard_normal((2, dab, dab)))


def _operator_ssa_instances(numbers) -> list:
    """[rho, rho_AB, [sigma_AB(eps)]] of the operator-SSA sweep of each of ``numbers``.

    rho_ABC = rho_AB (x) rho_C with sigma_AB = rho_AB saturates the traced
    operator inequality; perturbing sigma_AB breaks the recovery condition.
    """
    rho_abs, taus, noises = (np.stack(x) for x in zip(*numbers))
    rho_abs = _floored_state(rho_abs)
    rhos = DensityMatrix.stack(_kron(rho_abs, _floored_state(taus)))
    sweeps = _decomposed(_mixed(rho_abs, _states(noises)))
    return [[rho, rho_ab, sweep] for rho, rho_ab, sweep in zip(rhos, rho_abs, sweeps)]


def equality_operator_ssa_block(f, space: FactorizedSpace, instances) -> list[list[BoundReport]]:
    """The sweep reports of each ``_operator_ssa_instances`` instance: thm62's traced difference.

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


# sweep -> its numbers, the stacked build of a block of them, and the dims of the states an
# instance decomposes (the campaign's BLOCK_BYTES budget counts them)
_SWEEP_DRAWS = {
    "monotonicity": (_monotonicity_numbers, _monotonicity_instances,
                     lambda space: [space.dim] * (1 + len(EPS_SWEEP))),
    "joint_convexity": (_joint_convexity_numbers, _joint_convexity_instances,
                        lambda space: [space.dim] * (2 + (1 + len(PROBS)) * len(EPS_SWEEP))),
    "operator_ssa": (_operator_ssa_numbers, _operator_ssa_instances,
                     lambda space: [space.dim] + [space.subspace((0, 1)).dim] * len(EPS_SWEEP)),
}


def equality_suite(f, rng) -> list[BoundReport]:
    """All three equality characterizations at desk dims (2x2, 2 and 2x2x2), each a block of one."""
    reports = []
    for name, block, dims in (("monotonicity", equality_monotonicity_block, (2, 2)),
                              ("joint_convexity", equality_joint_convexity_block, (2,)),
                              ("operator_ssa", equality_operator_ssa_block, (2, 2, 2))):
        numbers, instances, _ = _SWEEP_DRAWS[name]
        space = FactorizedSpace(dims)
        reports += block(f, space, instances([numbers(rng, space)]))[0]
    return reports
