"""Petz recovery map and the residual operators entering the remainder bounds.

Reduced operators always act through identity embeddings in their original
tensor slots; subsystem order is fixed by the FactorizedSpace and never
permuted.
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
    if not 0.0 < beta < 1.0:
        raise InvalidParameter(f"beta must lie strictly inside (0,1), got {beta}")
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

    One stacked product and one batched SVD over sigmas x grid; each value is
    bit-identical to the residual of its sigma alone.
    """
    rho = space.psd(rho)
    sigmas = [space.psd(sigma) for sigma in sigmas]
    km = space.check(k)
    rho1 = rho.marginal(space, (0,))
    sigma1s = PsdOperator.marginals(sigmas, space, (0,))
    neg = tuple(-b for b in DEFAULT_BETA_GRID)
    lhs = (space.embed(np.stack([s1.powers(DEFAULT_BETA_GRID) for s1 in sigma1s]), (0,)) @ km
           @ space.embed(rho1.powers(neg), (0,)))
    rhs = np.stack([sigma.powers(DEFAULT_BETA_GRID) for sigma in sigmas]) @ km @ rho.powers(neg)
    # folded in grid order from 0.0, as a loop of max(worst, norm) would
    return [functools.reduce(max, row, 0.0) for row in op_norm(lhs - rhs).tolist()]


def ssa_residual_P(rho_abc, sigma_ab, space: FactorizedSpace, beta: float) -> np.ndarray:
    """P = sigma_B^b rho_BC^{-b} rho_ABC^{1/2} - sigma_AB^b rho_ABC^{1/2-b} on A|B|C.

    The one-pair case of ``ssa_residuals_P``.
    """
    return ssa_residuals_P([rho_abc], [sigma_ab], space, beta)[0]


def ssa_residuals_P(rhos_abc, sigmas_ab, space: FactorizedSpace, beta: float) -> np.ndarray:
    """``ssa_residual_P`` of each (rho_ABC, sigma_AB) pair, as one ``(N, d, d)`` stack.

    Marginals come from ``PsdOperator.marginals`` and the powers of each list
    of operators from one ``generalized_powers`` call, so each member is
    bit-equal to its pair alone.
    """
    if space.nfactors != 3:
        raise ShapeMismatch("P residual expects a tripartite factorization")
    rhos = [space.psd(rho) for rho in rhos_abc]
    sub_ab = space.subspace((0, 1))
    sig_abs = [sub_ab.psd(sig) for sig in sigmas_ab]
    sig_bs = PsdOperator.marginals(sig_abs, sub_ab, (1,))
    rho_bcs = PsdOperator.marginals(rhos, space, (1, 2))
    rho_pows = generalized_powers(*_spectra(rhos), (0.5, 0.5 - beta))
    term1 = (space.embed(generalized_powers(*_spectra(sig_bs), (beta,))[:, 0], (1,))
             @ space.embed(generalized_powers(*_spectra(rho_bcs), (-beta,))[:, 0], (1, 2))
             @ rho_pows[:, 0])
    term2 = (space.embed(generalized_powers(*_spectra(sig_abs), (beta,))[:, 0], (0, 1))
             @ rho_pows[:, 1])
    return term1 - term2


def ssa_residual_Q(rho_ab, sigma_abc, space: FactorizedSpace, beta: float) -> np.ndarray:
    """Q = sigma_BC^b rho_B^{-b} rho_AB^{1/2} - sigma_ABC^b rho_AB^{1/2-b} on A|B|C.

    The one-pair case of ``ssa_residuals_Q``.
    """
    return ssa_residuals_Q([rho_ab], [sigma_abc], space, beta)[0]


def ssa_residuals_Q(rhos_ab, sigmas_abc, space: FactorizedSpace, beta: float) -> np.ndarray:
    """``ssa_residual_Q`` of each (rho_AB, sigma_ABC) pair, as one ``(N, d, d)`` stack.

    Built as ``ssa_residuals_P`` is, so each member is bit-equal to its pair alone.
    """
    if space.nfactors != 3:
        raise ShapeMismatch("Q residual expects a tripartite factorization")
    sigs = [space.psd(sig) for sig in sigmas_abc]
    sub_ab = space.subspace((0, 1))
    rho_abs = [sub_ab.psd(rho) for rho in rhos_ab]
    rho_bs = PsdOperator.marginals(rho_abs, sub_ab, (1,))
    sig_bcs = PsdOperator.marginals(sigs, space, (1, 2))
    rho_pows = space.embed(generalized_powers(*_spectra(rho_abs), (0.5, 0.5 - beta)), (0, 1))
    term1 = (space.embed(generalized_powers(*_spectra(sig_bcs), (beta,))[:, 0], (1, 2))
             @ space.embed(generalized_powers(*_spectra(rho_bs), (-beta,))[:, 0], (1,))
             @ rho_pows[:, 0])
    term2 = generalized_powers(*_spectra(sigs), (beta,))[:, 0] @ rho_pows[:, 1]
    return term1 - term2
