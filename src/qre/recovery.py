"""Petz recovery map and the residual operators entering the remainder bounds.

Reduced operators always act through identity embeddings in their original
tensor slots; subsystem order is fixed by the FactorizedSpace and never
permuted.  A list of operators is raised with one ``PsdOperator.powers`` call,
the Petz maps of a list of states are one ``petz_recover`` stack, and every
sandwich embed(Y^b) K embed(X^{-b}) over a beta grid is one ``_sandwiches``
call; ``_grid_maxima`` SVDs only its possible maxima.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidParameter, ShapeMismatch
from .linalg import (FactorizedSpace, PsdOperator, _as_matrices, _kron, as_matrix, hermitize,
                     hs_norm, op_norm)

DEFAULT_BETA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def petz_recover(rho, gamma, space: FactorizedSpace, keep=(0,)) -> np.ndarray:
    """rho^{1/2} (rho_1^{-1/2} gamma rho_1^{-1/2} (x) I_rest) rho^{1/2}.

    ``gamma`` lives on the kept factors; the sandwiched operator is embedded
    with identities on the traced-out factors so the composition type-checks.
    With a list of N rhos and an ``(N, k, k)`` stack of gammas, each pair's map
    as one stack (one pair is a stack of one).
    """
    if np.ndim(gamma) != 3:
        return petz_recover([rho], as_matrix(gamma)[None], space, keep)[0]
    rhos = [space.psd(r) for r in rho]
    keep = space.normalize_keep(keep)
    gms = np.asarray(gamma, dtype=np.complex128)
    if gms.shape != (len(rhos),) + (space.subspace(keep).dim,) * 2:
        raise ShapeMismatch(f"gammas {gms.shape} do not match {len(rhos)} rho on the kept factors")
    return _petz_sandwiches(PsdOperator.powers(rhos, (0.5,))[:, 0], PsdOperator.powers(
        PsdOperator.marginals(rhos, space, keep), (-0.5,))[:, 0], gms, space, keep)


def _petz_sandwiches(halves, inv_halves, gammas, space: FactorizedSpace, keep) -> np.ndarray:
    """``petz_recover`` from the powers rho^{1/2} and rho_1^{-1/2}: of one rho or of a stack."""
    return hermitize(halves @ space.embed(inv_halves @ gammas @ inv_halves, keep) @ halves)


def monotonicity_residuals(rhos, sigmas, k1s, space: FactorizedSpace, beta: float, vs):
    """R_beta = sigma_1^b K rho_1^{-b} rho^{1/2} - sigma^b K rho^{1/2-b} per (rho, sigma, K1, V).

    The ``(N, d, d)`` stack and its HS norms.  Factor 0 is kept and factor 1
    traced out: the reduced block is (sigma_1^b K1 rho_1^{-b}) (x) V, V unitary.
    One stacked eigh for the 2N marginals and one ``PsdOperator.powers`` call per
    list of operators; each member and norm is bit-equal to its trial's alone.
    """
    _check_beta(beta)
    if space.nfactors != 2:
        raise ShapeMismatch("monotonicity residual expects a bipartite factorization")
    rhos = [space.psd(rho) for rho in rhos]
    sigmas = [space.psd(sigma) for sigma in sigmas]
    marginals = PsdOperator.marginals(rhos + sigmas, space, (0,))
    rho1s, sigma1s = marginals[:len(rhos)], marginals[len(rhos):]
    vs, k1s = _as_matrices(vs), _as_matrices(k1s)
    rho_pows = PsdOperator.powers(rhos, (0.5, 0.5 - beta))
    reduced = (PsdOperator.powers(sigma1s, (beta,))[:, 0] @ k1s
               @ PsdOperator.powers(rho1s, (-beta,))[:, 0])
    resid = (_kron(reduced, vs) @ rho_pows[:, 0]
             - PsdOperator.powers(sigmas, (beta,))[:, 0] @ _kron(k1s, vs) @ rho_pows[:, 1])
    return resid, [hs_norm(member) for member in resid]


def _mixture_residuals(kms, ensembles, beta):
    """(sum_j p_j^{1/2} r_j, (sum_j p_j r_j^2)^{1/2}, sum_j p_j ||rho_j^{-1}||) per ensemble.

    r_j = || sigma^b K rho^{-b} rho_j^{1/2} - sigma_j^b K rho_j^{1/2-b} ||_2 over the components
    of an ensemble (components, rho, sigma) of one size, K = ``kms[i]``; also the stacks of
    sigma^b K rho^{-b} and sigma_j^b K, one per component.  Each list of operators is raised once.
    """
    comps = [c for cs, _, _ in ensembles for c in cs]
    owner = np.repeat(np.arange(len(ensembles)), [len(cs) for cs, _, _ in ensembles])
    mixed = (PsdOperator.powers([s for _, _, s in ensembles], (beta,))[:, 0] @ kms
             @ PsdOperator.powers([r for _, r, _ in ensembles], (-beta,))[:, 0])[owner]
    rho_pows = PsdOperator.powers([rj for _, rj, _ in comps], (0.5, 0.5 - beta))
    sigma_k = PsdOperator.powers([sj for _, _, sj in comps], (beta,))[:, 0] @ kms[owner]
    norms = np.array([hs_norm(x) for x in mixed @ rho_pows[:, 0] - sigma_k @ rho_pows[:, 1]])
    residuals = []
    for (cs, _, _), r in zip(ensembles, norms.reshape(len(ensembles), -1)):
        probs = np.array([pj for pj, _, _ in cs], dtype=float)
        residuals.append((float((np.sqrt(probs) * r).sum()),
                          float(np.sqrt((probs * r ** 2).sum())),
                          float(sum(pj / rj.min_positive_eig() for pj, rj, _ in cs))))
    return residuals, mixed, sigma_k


def equality_condition_residuals(rhos, sigmas, ks, space: FactorizedSpace) -> list[float]:
    """Per sigma: max over the grid of ||sigma_1^b K rho_1^{-b} - sigma^b K rho^{-b}||_op.

    Zero (within tolerance) exactly when the saturation condition of the
    monotonicity inequality holds on ``DEFAULT_BETA_GRID``: by analyticity, a
    grid diagnostic of the condition over all beta.  The sigmas fall into
    ``len(rhos)`` consecutive runs of one length, and run i takes ``rhos[i]``
    and ``ks[i]``: a list of one rho and one K serves every sigma.  Two
    ``_sandwiches`` stacks, which raise each rho once, and one batched SVD;
    each value is bit-identical to its sigma's alone.
    """
    rhos = [space.psd(rho) for rho in rhos]
    sigmas = [space.psd(sigma) for sigma in sigmas]
    kms = np.stack([space.check(k) for k in ks])
    grid, whole = DEFAULT_BETA_GRID, tuple(range(space.nfactors))
    diffs = _sandwiches(PsdOperator.marginals(sigmas, space, (0,)), (0,),
                        PsdOperator.marginals(rhos, space, (0,)), (0,), space, grid, kms)
    diffs -= _sandwiches(sigmas, whole, rhos, whole, space, grid, kms)
    return _grid_maxima(diffs)


def _sandwiches(ys, y_slots, xs, x_slots, space: FactorizedSpace, grid, k=None) -> np.ndarray:
    """embed(Y^b) K embed(X^{-b}) of each Y and each b of ``grid``, as ``(N, G, d, d)``.

    Y and X act on ``y_slots`` and ``x_slots``; each list is one ``PsdOperator.powers``
    call.  The Y's fall into ``len(xs)`` consecutive runs of one length, and run i
    takes X i: a list of one X serves every Y, and N X's pair with N Y's.  ``k`` is
    one K, a stack of one K per X, or None to leave K out.
    """
    left = space.embed(PsdOperator.powers(ys, grid), y_slots)
    right = space.embed(PsdOperator.powers(xs, tuple(-b for b in grid)), x_slots)
    runs = left.reshape(len(xs), -1, *left.shape[1:])
    if k is not None:
        runs = runs @ (k[:, None, None] if k.ndim == 3 else k)
    return (runs @ right[:, None]).reshape(left.shape)


def _grid_maxima(diffs) -> list[float]:
    """Max op norm of each ``diffs[i]`` over its other axes, folded from 0.0 as a loop would.

    One batched SVD takes the members whose Frobenius norm x (1 + 1e-12) reaches their row's
    best finite lower bound on an op norm, ||A* a_k|| / ||a_k|| >= ||a_k|| (a_k the largest
    column): no other can hold the maximum, and the fold skips their 0.0.  A non-finite
    member is always SVD'd, so a NaN raises as it would unpruned."""
    rows = diffs.reshape(len(diffs), -1, *diffs.shape[-2:])
    with np.errstate(all="ignore"):     # a zero or non-finite member bounds nothing
        cols = np.sqrt(np.square(np.abs(rows)).sum(axis=-2))    # real temporaries: less memory
        a_k = np.take_along_axis(rows, cols.argmax(axis=-1)[..., None, None], axis=-1)
        lower = np.linalg.norm(a_k.swapaxes(-1, -2).conj() @ rows, axis=(-2, -1)) / cols.max(-1)
        best = np.where(np.isfinite(lower), lower, 0.0).max(axis=1, initial=0.0)
        wins = ~(np.linalg.norm(cols, axis=-1) * (1.0 + 1e-12) < best[:, None])
    norms = np.zeros(wins.shape)
    norms[wins] = op_norm(rows[wins])
    return [functools.reduce(max, row, 0.0) for row in norms.tolist()]


def _check_beta(beta: float):     # a NaN fails too
    if not 0.0 < beta < 1.0:
        raise InvalidParameter(f"beta must lie strictly inside (0,1), got {beta}")


def _ssa_residuals(xs, x_slots, ys, y_slots, space: FactorizedSpace, beta: float) -> np.ndarray:
    """Y_m^b X_m^{-b} X^{1/2} - Y^b X^{1/2-b} of each (X, Y) pair, as one ``(N, d, d)`` stack.

    X and Y act on the slots ``x_slots`` and ``y_slots`` of A|B|C, each a prefix
    (0, ...); X_m and Y_m, their marginals without A, on the slots past A.  The
    powers of each list of operators are one ``PsdOperator.powers`` call, so
    each member is bit-equal to its pair alone.
    """
    _check_beta(beta)
    if space.nfactors != 3:
        raise ShapeMismatch("SSA residuals expect a tripartite factorization")
    sub_x, sub_y = space.subspace(x_slots), space.subspace(y_slots)
    xs, ys = [sub_x.psd(x) for x in xs], [sub_y.psd(y) for y in ys]
    x_ms = PsdOperator.marginals(xs, sub_x, x_slots[1:])
    y_ms = PsdOperator.marginals(ys, sub_y, y_slots[1:])
    x_pows = space.embed(PsdOperator.powers(xs, (0.5, 0.5 - beta)), x_slots)
    term1 = _sandwiches(y_ms, y_slots[1:], x_ms, x_slots[1:], space, (beta,))[:, 0] @ x_pows[:, 0]
    term2 = space.embed(PsdOperator.powers(ys, (beta,))[:, 0], y_slots) @ x_pows[:, 1]
    return term1 - term2


def ssa_residuals_P(rhos_abc, sigmas_ab, space: FactorizedSpace, beta: float) -> np.ndarray:
    """P = sigma_B^b rho_BC^{-b} rho_ABC^{1/2} - sigma_AB^b rho_ABC^{1/2-b}, stacked over pairs."""
    return _ssa_residuals(rhos_abc, (0, 1, 2), sigmas_ab, (0, 1), space, beta)


def ssa_residuals_Q(rhos_ab, sigmas_abc, space: FactorizedSpace, beta: float) -> np.ndarray:
    """Q = sigma_BC^b rho_B^{-b} rho_AB^{1/2} - sigma_ABC^b rho_AB^{1/2-b}, stacked over pairs."""
    return _ssa_residuals(rhos_ab, (0, 1), sigmas_abc, (0, 1, 2), space, beta)
