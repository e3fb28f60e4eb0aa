"""Petz recovery map and the residual operators entering the remainder bounds.

Reduced operators always act through identity embeddings in their original
tensor slots; subsystem order is fixed by the FactorizedSpace and never
permuted.  ``PsdOperator.power`` is the memoised read of one power; a list of
operators is raised with one ``generalized_powers`` call, and every sandwich
embed(Y^b) K embed(X^{-b}) over a beta grid is one ``_sandwiches`` call.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidParameter, ShapeMismatch
from .linalg import (FactorizedSpace, PsdOperator, _spectra, as_matrix, generalized_powers,
                     hermitize, hs_norm, op_norm)

DEFAULT_BETA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def petz_recover(rho, gamma, space: FactorizedSpace, keep=(0,)) -> np.ndarray:
    """rho^{1/2} (rho_1^{-1/2} gamma rho_1^{-1/2} (x) I_rest) rho^{1/2}.

    ``gamma`` lives on the kept factors; the sandwiched operator is embedded
    with identities on the traced-out factors so the composition type-checks.
    """
    rho = space.psd(rho)
    keep = space.normalize_keep(keep)
    gm = as_matrix(gamma)
    if gm.shape[0] != space.subspace(keep).dim:
        raise ShapeMismatch("gamma does not match the kept factors")
    r1m = rho.marginal(space, keep).power(-0.5)
    core = space.embed(r1m @ gm @ r1m, keep)
    rhalf = rho.power(0.5)
    return hermitize(rhalf @ core @ rhalf)


def monotonicity_residual(rho, sigma, k1, space: FactorizedSpace, beta: float, v):
    """R_beta = sigma_1^b K rho_1^{-b} rho^{1/2} - sigma^b K rho^{1/2-b} and its HS norm.

    Bipartite convention: factor 0 is kept, factor 1 is traced out; the
    reduced block acts as (sigma_1^b K1 rho_1^{-b}) (x) V, with ``k1`` on the
    kept factor and the unitary ``v`` on the traced one.
    """
    _check_beta(beta)
    if space.nfactors != 2:
        raise ShapeMismatch("monotonicity residual expects a bipartite factorization")
    rho = space.psd(rho)
    sigma = space.psd(sigma)
    rho1 = rho.marginal(space, (0,))
    sigma1 = sigma.marginal(space, (0,))
    v = as_matrix(v)
    k1 = as_matrix(k1)
    left = np.kron(sigma1.power(beta) @ k1 @ rho1.power(-beta), v) @ rho.power(0.5)
    right = sigma.power(beta) @ np.kron(k1, v) @ rho.power(0.5 - beta)
    resid = left - right
    return resid, hs_norm(resid)


def equality_condition_residual(rho, sigma, k, space: FactorizedSpace) -> float:
    """max over ``DEFAULT_BETA_GRID`` of ||sigma_1^b K rho_1^{-b} - sigma^b K rho^{-b}||_op.

    Zero (within tolerance) exactly when the sampled saturation condition for
    the monotonicity inequality holds on the grid; the full condition
    quantifies over all beta, which analyticity reduces to a grid diagnostic.
    """
    return equality_condition_residuals(rho, [sigma], k, space)[0]


def equality_condition_residuals(rho, sigmas, k, space: FactorizedSpace) -> list[float]:
    """``equality_condition_residual`` of each of ``sigmas`` against one ``rho``.

    Two ``_sandwiches`` stacks and one batched SVD over sigmas x grid; each
    value is bit-identical to the residual of its sigma alone.
    """
    rho = space.psd(rho)
    sigmas = [space.psd(sigma) for sigma in sigmas]
    km = space.check(k)
    grid, whole = DEFAULT_BETA_GRID, tuple(range(space.nfactors))
    lhs = _sandwiches(PsdOperator.marginals(sigmas, space, (0,)), (0,),
                      [rho.marginal(space, (0,))], (0,), space, grid, km)
    return _grid_maxima(lhs - _sandwiches(sigmas, whole, [rho], whole, space, grid, km))


def _sandwiches(ys, y_slots, xs, x_slots, space: FactorizedSpace, grid, k=None) -> np.ndarray:
    """embed(Y^b) K embed(X^{-b}) of each (Y, X) pair and each b of ``grid``, as ``(N, G, d, d)``.

    Y and X act on ``y_slots`` and ``x_slots``; each list is one ``generalized_powers``
    call, a list of one X serves every Y, and K is left out when ``k`` is None.
    """
    left = space.embed(generalized_powers(*_spectra(ys), grid), y_slots)
    right = space.embed(generalized_powers(*_spectra(xs), tuple(-b for b in grid)), x_slots)
    return (left if k is None else left @ k) @ right


def _grid_maxima(diffs) -> list[float]:
    """Max op norm of each ``diffs[i]`` over its other axes, folded from 0.0 as a loop would."""
    norms = op_norm(diffs)
    return [functools.reduce(max, row, 0.0) for row in norms.reshape(len(norms), -1).tolist()]


def _check_beta(beta: float):     # a NaN fails too
    if not 0.0 < beta < 1.0:
        raise InvalidParameter(f"beta must lie strictly inside (0,1), got {beta}")


def _ssa_residuals(xs, x_slots, ys, y_slots, space: FactorizedSpace, beta: float) -> np.ndarray:
    """Y_m^b X_m^{-b} X^{1/2} - Y^b X^{1/2-b} of each (X, Y) pair, as one ``(N, d, d)`` stack.

    X and Y act on the slots ``x_slots`` and ``y_slots`` of A|B|C, each a prefix
    (0, ...); X_m and Y_m, their marginals without A, on the slots past A.  The
    powers of each list of operators are one ``generalized_powers`` call, so
    each member is bit-equal to its pair alone.
    """
    _check_beta(beta)
    if space.nfactors != 3:
        raise ShapeMismatch("SSA residuals expect a tripartite factorization")
    sub_x, sub_y = space.subspace(x_slots), space.subspace(y_slots)
    xs, ys = [sub_x.psd(x) for x in xs], [sub_y.psd(y) for y in ys]
    x_ms = PsdOperator.marginals(xs, sub_x, x_slots[1:])
    y_ms = PsdOperator.marginals(ys, sub_y, y_slots[1:])
    x_pows = space.embed(generalized_powers(*_spectra(xs), (0.5, 0.5 - beta)), x_slots)
    term1 = _sandwiches(y_ms, y_slots[1:], x_ms, x_slots[1:], space, (beta,))[:, 0] @ x_pows[:, 0]
    term2 = space.embed(generalized_powers(*_spectra(ys), (beta,))[:, 0], y_slots) @ x_pows[:, 1]
    return term1 - term2


def ssa_residual_P(rho_abc, sigma_ab, space: FactorizedSpace, beta: float) -> np.ndarray:
    """P = sigma_B^b rho_BC^{-b} rho_ABC^{1/2} - sigma_AB^b rho_ABC^{1/2-b} on A|B|C.

    The one-pair case of ``ssa_residuals_P``.
    """
    return ssa_residuals_P([rho_abc], [sigma_ab], space, beta)[0]


def ssa_residuals_P(rhos_abc, sigmas_ab, space: FactorizedSpace, beta: float) -> np.ndarray:
    """``ssa_residual_P`` of each (rho_ABC, sigma_AB) pair, as one ``(N, d, d)`` stack."""
    return _ssa_residuals(rhos_abc, (0, 1, 2), sigmas_ab, (0, 1), space, beta)


def ssa_residual_Q(rho_ab, sigma_abc, space: FactorizedSpace, beta: float) -> np.ndarray:
    """Q = sigma_BC^b rho_B^{-b} rho_AB^{1/2} - sigma_ABC^b rho_AB^{1/2-b} on A|B|C.

    The one-pair case of ``ssa_residuals_Q``.
    """
    return ssa_residuals_Q([rho_ab], [sigma_abc], space, beta)[0]


def ssa_residuals_Q(rhos_ab, sigmas_abc, space: FactorizedSpace, beta: float) -> np.ndarray:
    """``ssa_residual_Q`` of each (rho_AB, sigma_ABC) pair, as one ``(N, d, d)`` stack."""
    return _ssa_residuals(rhos_ab, (0, 1), sigmas_abc, (0, 1, 2), space, beta)
