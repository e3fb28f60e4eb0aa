"""Relative modular operator and quasi-relative entropies.

The central objects: the superoperator Delta_{sigma,rho}(X) = sigma X rho^{-1}
held as a pair of spectral decompositions (never materialized at d^2 x d^2),
functional calculus f(Delta) applied to matrices, and the spectral formula

    S_f^K(rho || sigma) = sum_{j,k} lam_j f(mu_k / lam_j) |<phi_k| K |psi_j>|^2
                          + f'(inf) Tr K* sigma K (I - P_rho)

with the generalized-inverse conventions: k-terms with mu_k below cutoff use
f(0+), and raise DivergentEntropy when f(0+) = +inf and the overlap weight does
not vanish; j-terms with lam_j below cutoff (the null modes of rho) leave the
sum and enter the last term, sigma's weight sum_k mu_k |<phi_k|K|psi_j>|^2 on
each of them times the recession f'(inf) = lim f(x)/x (Hiai-Mosonyi-Petz-Beny).
That term raises DivergentEntropy when f'(inf) = +inf and sigma weighs a null
mode of rho, and is skipped, not added, when f'(inf) = 0.

``quasi_relative_entropies`` evaluates the formula for a stack of pairs, which
share one K or take one each from a ``(N, d, d)`` stack, used as given, with
one set of array operations; ``quasi_relative_entropy`` is its one-pair case,
and every value is bit-identical whatever the stack.  ``apply_f_modulars``
takes the same operator lists and shares the formula's set-up
(``_overlap_grid``): the clustered spectra, one ``effective_eigs`` pass over
the call's rhos and sigmas (each mean the bits of its ``.mean()``), the
eigenvectors read from the operators' stacks, the overlaps and f on the
ratio grid.  It has no one-pair form: a single action is a stack of one.
``ModularOperator`` is Delta's definition, its action and its norm.  The WYD
skew information and the two-outcome classical reduction are stacked too;
only each outcome's scalar term is evaluated pair by pair.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergentEntropy, InvalidMatrix, QREError, SingularArgument
from .functions import OperatorConvexFunction
from .linalg import (
    DEGENERACY_TOL,
    PsdOperator,
    _as_matrices,
    _gathered,
    as_matrix,
    assert_hermitian,
    hermitize,
    spectral_decompose,
)

OVERLAP_TOL = 1e-14


def effective_eigs(w: np.ndarray) -> np.ndarray:
    """Replace each cluster of nearly-degenerate eigenvalues by its mean.

    Downstream weights then depend on spectral projectors only, making all
    formulas independent of the arbitrary basis inside a degenerate block.
    ``w`` is one ascending spectrum or an ``(N, d)`` stack of them, whose clusters are
    averaged in one pass per cluster length, each bit-equal to its ``.mean()``.
    """
    w = np.asarray(w, dtype=float)
    tol = DEGENERACY_TOL * np.abs(w).max(axis=-1, initial=1.0, keepdims=True)
    edges = np.flatnonzero(np.append(np.diff(w, axis=-1, prepend=-np.inf) > tol, True))
    first, lengths, out = edges[:-1], np.diff(edges), w.flatten()
    for n in set(lengths[lengths > 1].tolist()):
        at = first[lengths == n][:, None] + np.arange(n)
        out[at] = _cluster_means(out[at])[:, None]
    return out.reshape(w.shape)


def _cluster_means(x: np.ndarray) -> np.ndarray:
    """``row.mean()`` of each row of an ``(M, n)`` array, bit for bit: numpy adds fewer than 8
    numbers one by one from 0.0, as here; a longer row, which no workload clusters, goes through
    ``.mean()`` itself."""
    if x.shape[1] >= 8:
        return np.array([row.mean() for row in x])
    acc = np.zeros(len(x))
    for col in x.T:
        acc = acc + col
    return acc / x.shape[1]


class ModularOperator:
    """Delta_{sigma,rho}: X -> sigma X rho^{-1} via the two cached spectra."""

    def __init__(self, sigma, rho):
        self.sigma = PsdOperator.wrap(sigma)
        self.rho = PsdOperator.wrap(rho)
        if self.sigma.dim != self.rho.dim:
            raise InvalidMatrix("sigma and rho act on different spaces")

    def apply(self, x) -> np.ndarray:
        return self.sigma.mat @ as_matrix(x) @ self.rho.power(-1.0)

    def op_norm(self) -> float:
        """max_k mu_k / min over above-cutoff lam_j."""
        above = self.rho.eigs[self.rho.eigs > self.rho.cutoff]
        if len(above) == 0:
            raise DivergentEntropy("rho has empty support above cutoff")
        return float(self.sigma.eigs[-1] / above[0])


def apply_f_modulars(f: OperatorConvexFunction, sigmas, rhos, xs) -> np.ndarray:
    """f(Delta_{sigma_i,rho_i})(x_i) of each pair, as one ``(N, d, d)`` stack.

    Each f(Delta_{sigma,rho}) acts restricted to the support of rho on the
    right.  The pairs share their dimension; ``xs`` may be a ``(N, d, d)`` stack.
    Each member is bit-identical to the member alone, and the first member
    whose f(0+) = +inf meets a weighted zero mode raises what it raises alone.
    """
    xm = np.asarray(xs, dtype=np.complex128)
    rhos, sigmas = zip(*[_checked_pair(rho, sigma, xm.shape[1:])
                         for rho, sigma, _ in zip(rhos, sigmas, xm, strict=True)])
    _, _, keep, mu_zero, phi, psi, y, weight, fmat, diverges = _overlap_grid(f, rhos, sigmas, xm)
    if diverges.any():
        i = int(np.argmax(diverges))
        raise SingularArgument(_zero_mode_message(mu_zero[i], keep[i], weight[i].T)[0])
    # in C order, the layout (and so the bits) of the BLAS product below does not depend on fmat's
    return phi @ np.multiply(fmat.swapaxes(-1, -2), y, order="C") @ psi.conj().swapaxes(-1, -2)


def _overlap_grid(f, rhos, sigmas, xm):
    """What the spectral formula and the f(Delta) action share, over a stack of pairs.

    ``lam`` and ``mu`` are rho's and sigma's clustered spectra, all screened
    in one ``effective_eigs`` call; ``keep`` marks lam_j above rho's cutoff and
    ``mu_zero`` mu_k at most sigma's.  ``y = phi* X psi`` is laid out
    ``[n, k, j]``, and ``weight = |y|^2`` ``[n, j, k]`` in C order, the layout
    of ``_ratio_weights``, whose ``(fmat, diverges)`` close the tuple.
    """
    (rho_eigs, rho_cut, psi), (sigma_eigs, sigma_cut, phi) = (
        _gathered(ops, "eigs", "cutoff", "vecs") for ops in (rhos, sigmas))
    lam, mu = np.split(effective_eigs(np.concatenate([rho_eigs, sigma_eigs])), 2)
    keep = lam > rho_cut[:, None]
    mu_zero = mu <= sigma_cut[:, None]
    y = phi.conj().swapaxes(-1, -2) @ xm @ psi
    weight = np.square(np.abs(y).swapaxes(-1, -2), order="C")     # |<phi_k|X|psi_j>|^2
    return (lam, mu, keep, mu_zero, phi, psi, y, weight,
            *_ratio_weights(f, mu, lam, keep, mu_zero, weight))


def _ratio_weights(f, mu, lam, keep, mu_zero, weight):
    """f(mu_k / lam_j) of each member of a stack, laid out ``[n, j, k]``, and its divergence flags.

    ``mu``, ``lam``, ``keep`` (lam_j above rho's cutoff) and ``mu_zero`` (mu_k
    at most sigma's cutoff) are ``(N, d)``; ``weight`` is ``(N, d, d)`` in
    the same ``[n, j, k]`` layout.  Columns j off ``keep`` are 0; a zero mode k
    of sigma gets f(0+), or 0 where f(0+) = +inf, and then the member is
    flagged if such an entry carries weight.  f is evaluated once, on the
    whole stack, with 1 standing in for the entries it does not take.
    """
    pos = keep[:, :, None] & ~mu_zero[:, None, :]
    ratio = np.divide(1.0, lam, out=np.ones_like(lam), where=keep)[:, :, None] * mu[:, None, :]
    fmat = np.where(pos, f(np.where(pos, ratio, 1.0)), 0.0)
    diverges = np.zeros(len(mu), dtype=bool)
    if mu_zero.any():
        at_zero = keep[:, :, None] & mu_zero[:, None, :]
        if f.diverges_at_zero:
            wtol = OVERLAP_TOL * np.maximum(1.0, weight.max(axis=(1, 2), initial=0.0))
            diverges = (at_zero & (weight > wtol[:, None, None])).any(axis=(1, 2))
        else:
            fmat = np.where(at_zero, f.at_zero, fmat)
    return fmat, diverges


def _zero_mode_message(mu_zero, keep, weight):
    """(message, (j, k)) of one pair whose f(0+) = +inf meets a weighted zero mode of sigma."""
    bad = weight[np.ix_(mu_zero, keep)]
    k_idx = int(np.where(mu_zero)[0][np.argmax(bad.max(axis=1))])
    j_idx = int(np.where(keep)[0][np.argmax(bad.max(axis=0))])
    return f"f(0+) diverges on a weighted zero mode of sigma (j={j_idx}, k={k_idx})", (j_idx, k_idx)


def _checked_pair(rho, sigma, k_shape):
    rho, sigma = PsdOperator.wrap(rho), PsdOperator.wrap(sigma)
    if rho.dim != sigma.dim:
        raise InvalidMatrix("rho and sigma act on different spaces")
    if k_shape != (rho.dim, rho.dim):
        raise InvalidMatrix("operand dimension mismatch")
    return rho, sigma


def quasi_relative_entropies(f: OperatorConvexFunction, k, rhos, sigmas) -> np.ndarray:
    """S_f^{K_i}(rho_i || sigma_i) of each pair, by one stacked spectral formula.

    ``k`` is one K that the pairs share, or a ``(N, d, d)`` stack holding
    pair i's K_i, used as given; the pairs share their dimension.  Each value is
    bit-identical to the pair's own ``quasi_relative_entropy``, and the first
    pair that fails raises what it raises alone, as a loop over the pairs would.
    """
    rhos = list(rhos)
    kms = np.asarray(k, dtype=np.complex128)
    kms = kms if kms.ndim == 3 else np.repeat(kms[None], len(rhos), axis=0)    # one K, shared
    pairs = []
    for rho, sigma, _ in zip(rhos, sigmas, kms, strict=True):
        try:
            pairs.append(_checked_pair(rho, sigma, kms.shape[1:]))
        except QREError:
            if pairs:     # an earlier pair that diverges raises first
                _spectral_formula(f, pairs, kms[:len(pairs)])
            raise
    return _spectral_formula(f, pairs, kms)


def quasi_relative_entropy(f: OperatorConvexFunction, k, rho, sigma) -> float:
    """S_f^K(rho || sigma) by the spectral formula; accepts unnormalized PSD inputs.

    The one-pair case of ``quasi_relative_entropies``.
    """
    return float(quasi_relative_entropies(f, k, [rho], [sigma])[0])


def _spectral_formula(f, pairs, kms):
    """The formula over a stack of checked ``(rho, sigma)`` pairs and their ``(N, d, d)`` Ks.

    Everything is laid out ``[n, j, k]`` (j over rho's modes, k over
    sigma's), so the einsum sums over k within each column j, then over the
    columns: one order for every stack size, so a member's bits do not
    depend on its stack.  Dropped columns (lam_j at most rho's cutoff) add
    exact zeros.  A null mode of rho that sigma weighs adds f'(inf) times
    that weight (``_null_weight``).
    """
    lam, mu, keep, mu_zero, _, _, _, weight, fmat, zero_diverges = _overlap_grid(
        f, *zip(*pairs), kms)
    null_weight = _null_weight(f, mu, keep, mu_zero, weight)
    diverges = zero_diverges
    if null_weight is not None and np.isinf(f.recession):
        diverges = diverges | (null_weight > 0.0).any(axis=1)
    if diverges.any():
        i = int(np.argmax(diverges))
        if zero_diverges[i]:
            msg, pair = _zero_mode_message(mu_zero[i], keep[i], weight[i].T)
            raise DivergentEntropy(msg, pair=pair)
        j = int(np.argmax(null_weight[i]))
        raise DivergentEntropy(f"f'(inf) = +inf meets sigma's weight {null_weight[i, j]:.3e} "
                               f"on a null mode of rho (j={j})")
    total = np.einsum("nj,njk,njk->n", np.where(keep, lam, 0.0), fmat, weight)
    if null_weight is not None and np.isfinite(f.recession):
        total = total + f.recession * null_weight.sum(axis=1)
    return total


def _null_weight(f, mu, keep, mu_zero, weight):
    """sigma's weight on each null mode j of rho, ``(N, d)``, for the f'(inf) term.

    The weight of column j is sum_k mu_k |<phi_k|K|psi_j>|^2 over sigma's
    modes above its cutoff, and counts as 0 below OVERLAP_TOL relative to
    the member's largest column weight.  None when every rho is faithful
    or f'(inf) = 0: the term then vanishes and is not added.
    """
    if f.recession == 0.0 or keep.all():
        return None
    cols = np.einsum("nk,njk->nj", np.where(mu_zero, 0.0, mu), weight)
    tol = OVERLAP_TOL * np.maximum(1.0, cols.max(axis=1))
    return np.where(~keep & (cols > tol[:, None]), cols, 0.0)


def umegaki(rho, sigma) -> float:
    """Tr rho (ln rho - ln sigma) with generalized logs on the supports."""
    rho = PsdOperator.wrap(rho)
    sigma = PsdOperator.wrap(sigma)
    if rho.dim != sigma.dim:
        raise InvalidMatrix("rho and sigma act on different spaces")
    leak = float(np.real(np.trace(rho.mat @ (np.eye(rho.dim) - sigma.support_projector()))))
    if leak > 1e-12 * max(1.0, rho.trace()):
        raise DivergentEntropy(f"support of rho leaks outside support of sigma by {leak:.3e}")
    lam = rho.eigs[rho.eigs > rho.cutoff]
    ent = float((lam * np.log(lam)).sum())
    log_sigma = (sigma.vecs * _safe_log(sigma.eigs, sigma.cutoff)) @ sigma.vecs.conj().T
    return ent - float(np.real(np.trace(rho.mat @ log_sigma)))


def _safe_log(w, cut):
    out = np.zeros_like(w)
    keep = w > cut
    out[keep] = np.log(w[keep])
    return out


def von_neumann_entropy(rho) -> float:
    rho = PsdOperator.wrap(rho)
    lam = rho.eigs[rho.eigs > rho.cutoff]
    return -float((lam * np.log(lam)).sum())


def wyd_skew_information(p: float, rho, k):
    """I_p(rho, K) = -1/2 Tr([K, rho^p][K, rho^{1-p}]) for Hermitian K, p in (0,1); with ``k`` a
    ``(N, d, d)`` stack and ``rho`` a list of N rhos, each pair's, as a list.  The Ks are checked
    as one stack, whose first failing member raises what it raises alone."""
    if np.ndim(k) != 3:
        return wyd_skew_information(p, [rho], as_matrix(k)[None])[0]
    kms = assert_hermitian(k)
    if len(kms) != len(rho):
        raise ValueError(f"{len(kms)} observables for {len(rho)} states")
    raised = PsdOperator.powers([PsdOperator.wrap(r) for r in rho], (p, 1.0 - p))
    rp, rq = raised[:, 0], raised[:, 1]
    c1, c2 = kms @ rp - rp @ kms, kms @ rq - rq @ kms
    return (-0.5 * np.trace(c1 @ c2, axis1=1, axis2=2).real).tolist()


def classical_reduction(f: OperatorConvexFunction, rhos, sigmas) -> list:
    """Two-outcome classical reduction of each pair along the Jordan-Hahn projector of rho - sigma.

    Returns (p, q, classical_div) per pair, with ||p - q||_1 = ||rho - sigma||_1
    and classical_div = sum_j p_j f(q_j / p_j), a lower bound for
    S_f(rho||sigma).  The projectors of all pairs are one stacked ``eigh``, and
    their traces against rho and sigma are stacked traces.
    """
    rms, sms = _as_matrices(rhos), _as_matrices(sigmas)
    w, v = spectral_decompose(rms - sms)
    proj = hermitize((v * (w > 0.0)[:, None, :]) @ v.conj().swapaxes(-1, -2))
    tr_p, tr_q = (np.trace(proj @ m, axis1=1, axis2=2).real for m in (rms, sms))
    ps = np.stack([tr_p, np.trace(rms, axis1=1, axis2=2).real - tr_p], axis=1)
    qs = np.stack([tr_q, np.trace(sms, axis1=1, axis2=2).real - tr_q], axis=1)
    return [(p, q, sum(_classical_term(f, pj, qj) for pj, qj in zip(p, q)))
            for p, q in zip(ps, qs)]


def _classical_term(f, pj, qj):
    tol = 1e-15
    if pj <= tol:
        if qj <= tol:
            return 0.0
        if not np.isfinite(f.recession):
            raise DivergentEntropy("zero outcome probability with divergent recession term")
        return qj * f.recession
    if qj <= tol:
        if f.diverges_at_zero:
            raise DivergentEntropy("zero reference probability with f(0+) = inf")
        return pj * f.at_zero
    return pj * float(f(qj / pj))


def trace_distance_pair(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.abs(p - q).sum())
