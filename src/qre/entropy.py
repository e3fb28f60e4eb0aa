"""Relative modular operator and quasi-relative entropies.

The central objects: the superoperator Delta_{sigma,rho}(X) = sigma X rho^{-1}
held as a pair of spectral decompositions (never materialized at d^2 x d^2),
functional calculus f(Delta) applied to matrices, and the spectral formula

    S_f^K(rho || sigma) = sum_{j,k} lam_j f(mu_k / lam_j) |<phi_k| K |psi_j>|^2

with the generalized-inverse conventions: j-terms with lam_j below cutoff are
dropped; k-terms with mu_k below cutoff use f(0+), and raise DivergentEntropy
when f(0+) = +inf and the overlap weight does not vanish.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergentEntropy, InvalidMatrix, SingularArgument
from .functions import OperatorConvexFunction, make_g_p
from .linalg import (
    DEGENERACY_TOL,
    PsdOperator,
    as_matrix,
    assert_hermitian,
    hermitize,
    jordan_hahn,
    trace_norm,
)

OVERLAP_TOL = 1e-14


def effective_eigs(w: np.ndarray) -> np.ndarray:
    """Replace each cluster of nearly-degenerate eigenvalues by its mean.

    Downstream weights then depend on spectral projectors only, making all
    formulas independent of the arbitrary basis inside a degenerate block.
    """
    w = np.asarray(w, dtype=float)
    if len(w) == 0:
        return w
    scale = max(1.0, float(np.abs(w).max()))
    out = w.copy()
    split = np.diff(w) > DEGENERACY_TOL * scale
    if split.all():
        return out
    breaks = np.flatnonzero(split) + 1
    starts = np.concatenate(([0], breaks))
    stops = np.concatenate((breaks, [len(w)]))
    multi = stops - starts > 1
    for start, stop in zip(starts[multi].tolist(), stops[multi].tolist()):
        out[start:stop] = w[start:stop].mean()
    return out


def _clustered(op: PsdOperator) -> np.ndarray:
    """``effective_eigs`` of an operator's spectrum, computed once per operator."""
    return op.memo("effective_eigs", lambda: effective_eigs(op.eigs))


class ModularOperator:
    """Delta_{sigma,rho}: X -> sigma X rho^{-1} via the two cached spectra."""

    def __init__(self, sigma, rho):
        self.sigma = PsdOperator.wrap(sigma)
        self.rho = PsdOperator.wrap(rho)
        if self.sigma.dim != self.rho.dim:
            raise InvalidMatrix("sigma and rho act on different spaces")

    @property
    def dim(self) -> int:
        return self.rho.dim

    def apply(self, x) -> np.ndarray:
        return self.sigma.mat @ as_matrix(x) @ self.rho.power(-1.0)

    def op_norm(self) -> float:
        """max_k mu_k / min over above-cutoff lam_j."""
        above = self.rho.eigs[self.rho.eigs > self.rho.cutoff]
        if len(above) == 0:
            raise DivergentEntropy("rho has empty support above cutoff")
        return float(self.sigma.eigs[-1] / above[0])

    def ratio_grid(self):
        """(mu_eff, lam_eff, keep_j) with degenerate clusters averaged."""
        mu = _clustered(self.sigma)
        lam = _clustered(self.rho)
        return mu, lam, lam > self.rho.cutoff


def apply_f_modular(f: OperatorConvexFunction, delta: ModularOperator, x) -> np.ndarray:
    """f(Delta_{sigma,rho}) applied to x, restricted to the support of rho on the right."""
    xm = as_matrix(x)
    if xm.shape[0] != delta.dim:
        raise InvalidMatrix("operand dimension mismatch")
    mu, lam, keep = delta.ratio_grid()
    phi, psi = delta.sigma.vecs, delta.rho.vecs
    y = phi.conj().T @ xm @ psi
    fmat = _ratio_weights(f, mu, lam, keep, delta.sigma.cutoff,
                          weight=np.abs(y) ** 2, raise_cls=SingularArgument)
    return phi @ (fmat * y) @ psi.conj().T


def _ratio_weights(f, mu, lam, keep, sigma_cutoff, weight, raise_cls):
    """Matrix f(mu_k/lam_j) over kept j-columns, zeros elsewhere; f(0+) policy applied."""
    fmat = np.zeros((len(mu), len(lam)))
    if not np.any(keep):
        return fmat
    mu_zero = mu <= sigma_cutoff
    mu_pos = ~mu_zero
    lam_k = lam[keep]
    if np.any(mu_pos):
        fmat[np.ix_(mu_pos, keep)] = f(np.outer(mu[mu_pos], 1.0 / lam_k))
    if np.any(mu_zero):
        if f.diverges_at_zero:
            bad = weight[np.ix_(mu_zero, keep)]
            wtol = OVERLAP_TOL * max(1.0, float(weight.max(initial=0.0)))
            if np.any(bad > wtol):
                k_idx = int(np.where(mu_zero)[0][np.argmax(bad.max(axis=1))])
                j_idx = int(np.where(keep)[0][np.argmax(bad.max(axis=0))])
                msg = f"f(0+) diverges on a weighted zero mode of sigma (j={j_idx}, k={k_idx})"
                if raise_cls is DivergentEntropy:
                    raise DivergentEntropy(msg, pair=(j_idx, k_idx))
                raise raise_cls(msg)
        else:
            fmat[np.ix_(mu_zero, keep)] = f.at_zero
    return fmat


def quasi_relative_entropy(f: OperatorConvexFunction, k, rho, sigma) -> float:
    """S_f^K(rho || sigma) by the spectral formula; accepts unnormalized PSD inputs."""
    rho = PsdOperator.wrap(rho)
    sigma = PsdOperator.wrap(sigma)
    if rho.dim != sigma.dim:
        raise InvalidMatrix("rho and sigma act on different spaces")
    km = as_matrix(k)
    if km.shape[0] != rho.dim:
        raise InvalidMatrix("K dimension mismatch")
    mu = _clustered(sigma)
    lam = _clustered(rho)
    keep = lam > rho.cutoff
    w2 = np.abs(sigma.vecs.conj().T @ km @ rho.vecs) ** 2
    fmat = _ratio_weights(f, mu, lam, keep, sigma.cutoff, weight=w2,
                          raise_cls=DivergentEntropy)
    return float(np.einsum("j,kj,kj->", lam[keep], fmat[:, keep], w2[:, keep]))


def f_divergence(f: OperatorConvexFunction, rho, sigma) -> float:
    """S_f(rho || sigma), the K = identity case."""
    d = PsdOperator.wrap(rho).dim
    return quasi_relative_entropy(f, np.eye(d), rho, sigma)


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


def wyd_skew_information(p: float, rho, k) -> float:
    """I_p(rho, K) = -1/2 Tr([K, rho^p][K, rho^{1-p}]) for Hermitian K, p in (0,1)."""
    km = assert_hermitian(k)
    rho = PsdOperator.wrap(rho)
    rp = rho.power(p)
    rq = rho.power(1.0 - p)
    c1 = km @ rp - rp @ km
    c2 = km @ rq - rq @ km
    return -0.5 * float(np.real(np.trace(c1 @ c2)))


def j_p_entropy(p: float, k, rho, sigma) -> float:
    """J_p(K, rho, sigma) = Tr(sigma^{1/2} K* g_p(Delta_{rho,sigma}) K sigma^{1/2})."""
    if not 0.0 < p <= 2.0:
        raise DivergentEntropy(f"J_p defined here for p in (0, 2], got {p}")
    g = make_g_p(p)
    return quasi_relative_entropy(g, k, sigma, rho)


def classical_reduction(f: OperatorConvexFunction, rho, sigma):
    """Two-outcome classical reduction along the Jordan-Hahn projector of rho - sigma.

    Returns (p, q, classical_div) with ||p - q||_1 = ||rho - sigma||_1 and
    classical_div = sum_j p_j f(q_j / p_j), a lower bound for S_f(rho||sigma).
    """
    rm = as_matrix(rho)
    sm = as_matrix(sigma)
    _, _, proj = jordan_hahn(rm - sm)
    tr_p = float(np.real(np.trace(proj @ rm)))
    tr_q = float(np.real(np.trace(proj @ sm)))
    p = np.array([tr_p, float(np.real(np.trace(rm))) - tr_p])
    q = np.array([tr_q, float(np.real(np.trace(sm))) - tr_q])
    div = 0.0
    for pj, qj in zip(p, q):
        div += _classical_term(f, pj, qj)
    return p, q, div


def _classical_term(f, pj, qj, tol=1e-15):
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


def pinsker_sides(f: OperatorConvexFunction, u, rho, sigma):
    """(lhs, rhs) of the quadratic lower bound f''(1)/2 ||rho - U* sigma U||_1^2 <= S_f^U."""
    um = as_matrix(u)
    rho = PsdOperator.wrap(rho)
    sigma = PsdOperator.wrap(sigma)
    rotated = hermitize(um.conj().T @ sigma.mat @ um)
    lhs = 0.5 * f.second_at_one * trace_norm(rho.mat - rotated) ** 2
    rhs = quasi_relative_entropy(f, um, rho, sigma)
    return lhs, rhs
