"""Both sides of every remainder inequality, constants, and pass/fail reports.

Conventions used throughout:

* the monotonicity remainder at exponent b in (0,1) is
      pi/sin(b pi) * ||R_b||_2  <=  2(|K|/b + |Delta|/(1-b)) T^{-a1}
                                    + T^{a2} C_{T,b}^{1/2} gap^{1/2}
  with the two-branch exponents a1, a2 switching at b = 1/2;
* window constants have the exact power-law form C*T^{2c}, so the
  minimizing window parameter T* is closed-form (``optimize_T_scalar``) and
  the minimum is the envelope ||R_b||_2 <= M gap^{alpha(b)}, equivalently
  N ||R_b||_2^{1/alpha(b)} <= gap with N = M^{-1/alpha}.  ``boundary`` marks
  the two cases without an interior optimum: gap <= 0, reported at T_MAX,
  and T* below T_MIN, clipped there with M raised to the bound at T_MIN;
* N, M and alpha come from that one envelope (``envelope_constants``, read
  through ``constants_for``); the paper's printed closed forms for the
  logarithm and the power family are instances of it.  The power family's
  constants are those of the raw power -x^p (``power_family_constants``),
  valid and slightly loose against the 1/(p(1-p))-normalized gaps.

Operator inequalities on the C factor are checked by the minimum eigenvalue
of RHS - LHS at a relative tolerance, LHS being N [Gram]^{1/alpha} raised by
``PsdOperator.powers`` (below-cutoff modes zeroed).

Every check takes a block of trials and gives one report per trial, each
bit-identical to the trial's own; a single trial is a block of one, read as
``[0]``.  Each eigh, power, inverse, kernel call and SVD is one stacked call
over the block.  The monotonicity trio shares ``_remainder_terms``, joint convexity and WYD
joint concavity ``_mixtures`` and ``_joint_gaps``, and ``ssa``,
``cauchy_schwarz`` and the operator-SSA family the stacks of ``_ssa_stacks``.
A block that raises is checked again trial by trial by the campaign.  The
equality sweeps built on these kernels live in ``qre.equality``.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import (
    ModularOperator,
    apply_f_modulars,
    classical_reduction,
    quasi_relative_entropies,
    quasi_relative_entropy,     # noqa: F401 - perfbench's tracing test reads it here
    trace_distance_pair,
    von_neumann_entropy,
    wyd_skew_information,
)
from .errors import (DivergentEntropy, InvalidMatrix, InvalidParameter, InvalidRank,
                     IrregularFunction)
from .functions import OperatorConvexFunction, make_f_p, make_neg_log, make_neg_power, power_of
from .linalg import (
    FactorizedSpace,
    PsdOperator,
    _as_matrices,
    _kron,
    as_matrix,
    hermitize,
    hs_norm,
    op_norm,
    trace_norm,
)
from .recovery import (
    _check_beta,
    _grid_maxima,
    _mixture_residuals,
    _petz_sandwiches,
    monotonicity_residuals,
    petz_recover,
    ssa_residuals_P,
    ssa_residuals_Q,
)
from .reports import BoundConstants, BoundReport, digest_inputs

REPORT_TOL = 1e-9
PSD_REPORT_TOL = 1e-8
REL_INEQ_TOL = 1e-8
SKEW_TOL = 1e-10
T_MIN = 1.0 + 1e-9
T_MAX = 1e8
BRANCH_TOL = 1e-12

NEG_LOG = make_neg_log()


# ----------------------------------------------------------------------------
# Exponents and constants
# ----------------------------------------------------------------------------

def alpha1(beta: float) -> float:
    return beta if beta <= 0.5 else 1.0 - beta


def alpha2(beta: float) -> float:
    if beta <= 0.5:
        return (1.0 - beta) / 2.0 + beta * beta / (2.0 * (1.0 - beta))
    return beta


def alpha_exponent(beta: float, c: float) -> float:
    """Power-law exponent alpha(beta); two branches meeting at beta = 1/2."""
    lo = beta * (1.0 - beta) / (1.0 + 2.0 * c * (1.0 - beta))
    hi = 0.5 * (1.0 - beta) / (1.0 + c)
    if beta == 0.5 and abs(lo - hi) > BRANCH_TOL * max(abs(lo), abs(hi)):
        raise InvalidParameter(f"alpha branches disagree at beta=1/2: {lo!r} vs {hi!r}")
    return lo if beta < 0.5 else hi


def window_coefficient(beta: float, k_norm: float, d_norm: float) -> float:
    """A = 2(|K|/beta + D/(1-beta)), the coefficient of T^{-alpha1} in the window bound."""
    return 2.0 * (k_norm / beta + d_norm / (1.0 - beta))


def envelope_constants(C: float, c: float, beta: float, k_norm: float, d_norm: float):
    """(M, N, alpha) from minimizing A T^{-u} + sqrt(C) g^{1/2} T^{v} over T.

    u = alpha1, v = alpha2 + c, A = ``window_coefficient``.  M is the
    envelope in ||R||_2 <= M g^alpha and N = M^{-1/alpha} its inverse form.
    """
    u = alpha1(beta)
    v = alpha2(beta) + c
    a_coef = window_coefficient(beta, k_norm, d_norm)
    kappa = (u / v) ** (v / (u + v)) + (v / u) ** (u / (u + v))
    alpha = u / (2.0 * (u + v))
    m_const = math.sin(beta * math.pi) / math.pi * kappa \
        * a_coef ** (v / (u + v)) * C ** (u / (2.0 * (u + v)))
    return m_const, _pow(m_const, -1.0 / alpha), alpha


def _pow(x: float, y: float) -> float:
    """x ** y, inf where Python's float pow raises: beta near 1 leaves the float range."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _remainder(m_const: float, n_const: float, alpha: float, r: float = 0.0):
    """(N r^{1/alpha}, M as reports carry it, N^{-alpha}), or ((r/M)^{1/alpha}, M) where N or
    the power leaves the float range."""
    lhs = n_const * _pow(r, 1.0 / alpha)
    if 0.0 < n_const < math.inf and lhs < math.inf:
        return lhs, n_const ** (-alpha)
    return _pow(r / m_const, 1.0 / alpha), m_const


def constants_for(f: OperatorConvexFunction, beta: float,
                  k_norm: float, d_norm: float):
    """(M, N, alpha, C, c) for a regular f at finite nonnegative norms, not both 0."""
    if not f.regular:
        raise IrregularFunction(f"{f.name} carries no window constants")
    _check_beta(beta)
    if not (0.0 <= k_norm < math.inf and 0.0 <= d_norm < math.inf and k_norm + d_norm > 0.0):
        raise InvalidParameter(f"|K| = {k_norm} and D = {d_norm} must be finite, >= 0, not both 0")
    C = f.power_law_C()
    c = f.power_law_c(beta)
    m_const, n_const, alpha = envelope_constants(C, c, beta, k_norm, d_norm)
    return m_const, n_const, alpha, C, c


def power_family_constants(p: float, beta: float, k_norm: float, d_norm: float):
    """``constants_for`` the power family at p in (0,1): those of the raw power -x^p.

    The printed constants of the power family are attached to the raw power's
    measure sin(p pi)/pi t^p; against the 1/(p(1-p))-normalized gaps of f_p
    they are valid and slightly loose.
    """
    return constants_for(make_neg_power(p), beta, k_norm, d_norm)


# ----------------------------------------------------------------------------
# Monotonicity: gap, explicit RHS, T optimization
# ----------------------------------------------------------------------------

def monotonicity_gap(f: OperatorConvexFunction, k1, v, rho, sigma,
                     space: FactorizedSpace) -> float:
    """S_f^{K1 (x) V}(rho||sigma) - S_f^{K1}(rho_1||sigma_1), >= 0 for unitary V; one pair."""
    return _monotonicity_gaps(f, [rho], [sigma], [k1], [v], space)[0]


def _monotonicity_gaps(f, rhos, sigmas, k1s, vs, space):
    """``monotonicity_gap`` of each (rho, sigma, K1, V): two kernel calls (stacked K1 (x) V,
    stacked K1) and one stacked eigh for the 2N marginals."""
    rhos = [space.psd(rho) for rho in rhos]
    sigmas = [space.psd(sigma) for sigma in sigmas]
    k1s = _as_matrices(k1s)
    s_full = quasi_relative_entropies(f, _kron(k1s, _as_matrices(vs)), rhos, sigmas)
    marginals = PsdOperator.marginals(rhos + sigmas, space, (0,))
    s_red = quasi_relative_entropies(f, k1s, marginals[:len(rhos)], marginals[len(rhos):])
    return (s_full - s_red).tolist()


def thm42_terms(f: OperatorConvexFunction, beta: float, T: float,
                k_norm: float, delta_norm: float, gap: float) -> float:
    """Explicit RHS at window parameter T.

    The window constant C_{T,beta} = sup of 1/mu over [1/T_L, T_R] sits at the
    left edge T_L (T below beta = 1/2, T^{(1-beta)/beta} above) for the
    power-law densities C^{-1} t^q, q >= 0, used here.
    """
    t_left = T if beta <= 0.5 else T ** ((1.0 - beta) / beta)
    c_win = f.power_law_C() * t_left ** f.mu_q
    first = window_coefficient(beta, k_norm, delta_norm) / T ** alpha1(beta)
    second = T ** alpha2(beta) * math.sqrt(c_win) * math.sqrt(max(gap, 0.0))
    return first + second


def optimize_T_scalar(f: OperatorConvexFunction, beta: float, k_norm: float,
                      d_norm: float, gap: float) -> BoundConstants:
    """Constants of the window bound at its closed-form optimum T*.

    With C_{T,beta} = C T^{2c} the bound is A T^{-u} + sqrt(C gap) T^{v}
    (u = alpha1, v = alpha2 + c), minimized at
    T* = (u A / (v sqrt(C gap)))^{1/(u+v)}, where it equals pi/sin(beta pi)
    M gap^alpha.  T* has no upper cap: the theorem holds for every T > 1.
    ``boundary`` marks the two cases without an interior optimum: gap <= 0
    (T_star = T_MAX is reported) and T* < T_MIN, where T_star = T_MIN and M
    (with N = M^{-1/alpha}) is the bound at T_MIN, which the envelope undercuts.
    """
    m_const, n_const, alpha, C, c = constants_for(f, beta, k_norm, d_norm)
    a1, a2 = alpha1(beta), alpha2(beta)
    if gap <= 0.0:
        return BoundConstants(a1, a2, alpha, C, c, n_const, m_const, T_MAX, boundary=True)
    u, v = a1, a2 + c
    t_star = (u * window_coefficient(beta, k_norm, d_norm)
              / (v * math.sqrt(C * gap))) ** (1.0 / (u + v))
    if t_star >= T_MIN:
        return BoundConstants(a1, a2, alpha, C, c, n_const, m_const, t_star)
    m_const = (math.sin(beta * math.pi) / math.pi
               * thm42_terms(f, beta, T_MIN, k_norm, d_norm, gap) / gap ** alpha)
    return BoundConstants(a1, a2, alpha, C, c, _pow(m_const, -1.0 / alpha), m_const,
                          T_MIN, boundary=True)


# ----------------------------------------------------------------------------
# Report helpers
# ----------------------------------------------------------------------------

def _rel_pass(lhs: float, rhs: float, tol: float) -> bool:
    return (rhs - lhs) >= -tol * max(1.0, abs(lhs), abs(rhs))


def _report(inequality_id, lhs, rhs, passed, constants=None, digest="",
            notes="", details=None) -> BoundReport:
    return BoundReport(inequality_id, float(lhs), float(rhs), float(rhs) - float(lhs),
                       bool(passed), constants, digest, notes=notes, details=details or {})


# ----------------------------------------------------------------------------
# Individual inequality verifications
# ----------------------------------------------------------------------------

def verify_monotonicity_block(f, rhos, sigmas, k1s, vs, space) -> list[BoundReport]:
    """Plain data-processing check of each trial, gap >= -1e-9, from one ``_monotonicity_gaps``."""
    gaps = _monotonicity_gaps(f, rhos, sigmas, k1s, vs, space)
    return [_report("monotonicity", 0.0, gap, gap >= -REPORT_TOL, notes=f"f={f.name}",
                    digest=digest_inputs(*map(as_matrix, operands)))
            for *operands, gap in zip(rhos, sigmas, k1s, vs, gaps)]


def _remainder_terms(f, rhos, sigmas, k1s, vs, beta, space):
    """Per trial (rho, sigma, K1, V, ||R_beta||_2, gap, ||K||, ||Delta||, constants at T*).

    Residuals, gaps and ||K|| = ||K1|| (V is unitary; one batched SVD) run once a block.
    """
    rhos = [space.psd(rho) for rho in rhos]
    sigmas = [space.psd(sigma) for sigma in sigmas]
    _, rnorms = monotonicity_residuals(rhos, sigmas, k1s, space, beta, vs)
    gaps = _monotonicity_gaps(f, rhos, sigmas, k1s, vs, space)
    k1s, vs = _as_matrices(k1s), _as_matrices(vs)
    d_norms = [ModularOperator(sigma, rho).op_norm() for rho, sigma in zip(rhos, sigmas)]
    return [(rho, sigma, k1, v, rnorm, gap, k_norm, d_norm,
             optimize_T_scalar(f, beta, k_norm, d_norm, gap))
            for rho, sigma, k1, v, rnorm, gap, k_norm, d_norm
            in zip(rhos, sigmas, k1s, vs, rnorms, gaps, op_norm(k1s).tolist(), d_norms)]


def verify_thm42_block(f, rhos, sigmas, k1s, vs, beta, space) -> list[BoundReport]:
    """Remainder inequality at the window optimum T*, hence on any T grid, of each trial."""
    reports = []
    for rho, sigma, k1, v, rnorm, gap, k_norm, d_norm, consts in _remainder_terms(
            f, rhos, sigmas, k1s, vs, beta, space):
        lhs = math.pi / math.sin(beta * math.pi) * rnorm
        rhs_star = thm42_terms(f, beta, consts.T_star, k_norm, d_norm, gap)
        reports.append(_report(
            "thm42", lhs, rhs_star, _rel_pass(lhs, rhs_star, REL_INEQ_TOL), constants=consts,
            digest=digest_inputs(rho.mat, sigma.mat, k1, v), notes=f"f={f.name};beta={beta:g}",
            details={"gap": gap, "rhs_at_T_star": rhs_star, "residual_hs": rnorm}))
    return reports


def verify_monotonicity_bound_block(f, rhos, sigmas, k1s, vs, beta, space) -> list[BoundReport]:
    """Power-law remainder ||R||_2 <= M gap^alpha (optimized-T form) of each trial, and at
    beta = 1/2, for a full-rank rho, its recovery-map corollaries (``_recovery_forms``)."""
    terms = _remainder_terms(f, rhos, sigmas, k1s, vs, beta, space)
    forms = _recovery_forms(f, terms, space) if beta == 0.5 else {}
    reports = []
    for i, (rho, sigma, k1m, vm, rnorm, gap, _, _, consts) in enumerate(terms):
        rhs = consts.M * max(gap, 0.0) ** consts.alpha
        passed, details = forms.get(i, (True, {}))
        reports.append(_report("monotonicity_bound", rnorm, rhs,
                               _rel_pass(rnorm, rhs, REL_INEQ_TOL) and passed, constants=consts,
                               digest=digest_inputs(rho.mat, sigma.mat, k1m, vm),
                               notes=f"f={f.name};beta={beta:g}",
                               details={"residual_hs": rnorm, "gap": gap, **details}))
    return reports


def _recovery_forms(f, terms, space) -> dict:
    """{index: (passed, details)} of the beta = 1/2 recovery forms of each full-rank-rho trial.

    The chain ||R_rho(gamma) - K* sigma K||_1 <= 2 ||R||_2 (gamma = K1* sigma_1 K1) holds if
    ||X||_2 + ||Y||_2 <= 2, X = (sigma_1^{1/2} K1 rho_1^{-1/2} (x) V) rho^{1/2}, Y = sigma^{1/2} K;
    for a full-rank rho ||X||_2^2 = ||Y||_2^2 = Tr gamma, so ||K1|| <= 1 and Tr sigma_1 = 1 imply
    the gate, read as Tr gamma <= (1 + 5e-10)^2.  Always <= 2M gap^alpha; for the logarithm with
    K = I, the quartic case gap >= (pi/4)^4 |Delta|^{-2} ||R||_2^4; for invertible sigma, sigma_1
    and K1 with ||K1^{-1}|| <= 1e6, the swapped roles: ||K* R_sigma((K1^{-1})* rho_1 K1^{-1}) K -
    rho||_1 through the residual, with ||rho_1||^{1/2} ||K^{-1}|| ||sigma_1^{-1}||^{1/2} explicit
    and ||K^{-1}|| = ||K1^{-1}|| (V unitary).  Each list of operators is raised, each kind of trace
    norm taken and the K1 inverted in one stacked call; ``petz_recover`` raises rho and rho_1.
    """
    full = [i for i, term in enumerate(terms) if term[0].rank() == term[0].dim]
    if not full:
        return {}
    rhos, sigmas, k1s, vs, rnorms, gaps, _, d_norms, consts = zip(*(terms[i] for i in full))
    k1s, vs = np.stack(k1s), np.stack(vs)
    k_fulls = _kron(k1s, vs)
    rho1s, sigma1s = (PsdOperator.marginals(ops, space, (0,)) for ops in (rhos, sigmas))
    rho1_halves = PsdOperator.powers(rho1s, (0.5,))[:, 0]
    sigma1_inv_halves = PsdOperator.powers(sigma1s, (-0.5,))[:, 0]
    sigma_halves = PsdOperator.powers(sigmas, (0.5,))[:, 0]
    gammas = hermitize(_adjoints(k1s) @ _as_matrices(sigma1s) @ k1s)
    petz_l1s = trace_norm(petz_recover(rhos, gammas, space)
                          - hermitize(_adjoints(k_fulls) @ _as_matrices(sigmas) @ k_fulls)).tolist()
    gated = (np.trace(gammas, axis1=1, axis2=2).real <= (1.0 + 5e-10) ** 2).tolist()
    identity = np.isclose(k_fulls, np.eye(space.dim)).all(axis=(1, 2)).tolist()
    at = [j for j, ops in enumerate(zip(sigmas, sigma1s)) if all(o.rank() == o.dim for o in ops)]
    inverses = dict(zip(at, _inverses(k1s[at])))
    at = [j for j in at if inverses[j] is not None]
    k1_invs = np.array([inverses[j] for j in at]).reshape(-1, *k1s.shape[1:])
    inv_norms = dict(zip(at, op_norm(k1_invs).tolist()))
    near = [not inv_norms[j] > 1e6 for j in at]
    at, k1_invs = [j for j, keep in zip(at, near) if keep], k1_invs[near]
    eye = np.eye(space.dims[1])
    swapped = _petz_sandwiches(sigma_halves[at], sigma1_inv_halves[at], hermitize(
        _adjoints(k1_invs) @ _as_matrices(rho1s)[at] @ k1_invs), space, (0,))
    swap_l1s = trace_norm(hermitize(_adjoints(k_fulls[at]) @ swapped @ k_fulls[at])
                          - _as_matrices(rhos)[at]).tolist()
    x_mats = (_kron(rho1_halves[at], eye) @ _kron(k1_invs, _adjoints(vs[at]))
              @ _kron(sigma1_inv_halves[at], eye) @ sigma_halves[at] @ k_fulls[at])
    swaps = dict(zip(at, zip(swap_l1s, [hs_norm(x) for x in x_mats])))
    forms = {}
    for j, (rho, rho1, sigma1, rnorm, gap, d_norm, c) in enumerate(zip(
            rhos, rho1s, sigma1s, rnorms, gaps, d_norms, consts)):
        details = {"petz_diff_trace": petz_l1s[j], "petz_chain_rhs": 2.0 * rnorm}
        ok = _rel_pass(petz_l1s[j], 2.0 * c.M * max(gap, 0.0) ** c.alpha, REL_INEQ_TOL)
        ok = ok and (not gated[j] or _rel_pass(petz_l1s[j], 2.0 * rnorm, REL_INEQ_TOL))
        if f.name == "neg_log" and identity[j]:
            details["quartic_lower"] = (math.pi / 4.0) ** 4 / d_norm ** 2 * rnorm ** 4
            ok = ok and _rel_pass(details["quartic_lower"], gap, REL_INEQ_TOL)
        if j in swaps:
            lhs, x_hs = swaps[j]
            pair_norm = x_hs + math.sqrt(max(rho.trace(), 0.0))
            left_norms = (math.sqrt(rho1.max_eig()) * inv_norms[j]
                          / math.sqrt(sigma1.min_positive_eig()))
            rhs = pair_norm * left_norms * c.M * max(gap, 0.0) ** c.alpha
            details.update(interchange_diff_trace=lhs, interchange_rhs=rhs)
            ok = ok and _rel_pass(lhs, rhs, REL_INEQ_TOL)
        forms[full[j]] = ok, details
    return forms


def _adjoints(ms) -> np.ndarray:
    return ms.conj().swapaxes(-1, -2)


def _inverses(ms) -> list:
    """``np.linalg.inv`` of each matrix of a stack in one call; if LAPACK finds one exactly
    singular (a zero pivot), each is inverted alone, and a singular one is None."""
    try:
        return list(np.linalg.inv(ms))
    except np.linalg.LinAlgError:
        return [inv for m in ms for inv in _inverses(m[None])] if len(ms) > 1 else [None]


def pinsker_block(f, rhos, sigmas, us) -> list[BoundReport]:
    """Quadratic trace-distance bound f''(1)/2 ||rho - U* sigma U||_1^2 <= S_f^U, per trial:
    one kernel call for the right sides, first, then one batched SVD for the trace norms."""
    ums = _as_matrices(us)
    rhs = quasi_relative_entropies(f, ums, rhos, sigmas).tolist()
    rotated = hermitize(ums.conj().swapaxes(-1, -2) @ _as_matrices(sigmas) @ ums)
    norms = trace_norm(_as_matrices(rhos) - rotated).tolist()
    lhs = [0.5 * f.second_at_one * n ** 2 for n in norms]
    return [_report("pinsker", left, right, _rel_pass(left, right, REPORT_TOL),
                    digest=digest_inputs(*map(as_matrix, (rho, sigma, u))), notes=f"f={f.name}")
            for rho, sigma, u, left, right in zip(rhos, sigmas, us, lhs, rhs)]


def classical_reduction_block(f, rhos, sigmas) -> list[BoundReport]:
    """Two-outcome reduction of each pair: ||p-q||_1 = ||rho-sigma||_1 and classical <= quantum.

    One kernel call for the quantum sides, one stacked eigh for the reductions
    (``classical_reduction``) and one batched SVD for ||rho-sigma||_1.
    """
    rhos, sigmas = [PsdOperator.wrap(r) for r in rhos], [PsdOperator.wrap(s) for s in sigmas]
    reductions = classical_reduction(f, rhos, sigmas)
    l1s = trace_norm(_as_matrices(rhos) - _as_matrices(sigmas)).tolist()
    mismatches = [abs(trace_distance_pair(p, q) - l1) for (p, q, _), l1 in zip(reductions, l1s)]
    qdivs = quasi_relative_entropies(f, np.eye(rhos[0].dim), rhos, sigmas).tolist()
    return [_report("classical_reduction", cdiv, qdiv,
                    miss <= 1e-10 and _rel_pass(cdiv, qdiv, REPORT_TOL), notes=f"f={f.name}",
                    digest=digest_inputs(rho.mat, sigma.mat), details={"l1_mismatch": miss})
            for rho, sigma, (_, _, cdiv), miss, qdiv
            in zip(rhos, sigmas, reductions, mismatches, qdivs)]


# ----------------------------------------------------------------------------
# Joint convexity
# ----------------------------------------------------------------------------

def _mixtures(ensembles):
    """(components, rho, sigma) of each ensemble of (p_j, rho_j, sigma_j), with its mixture.

    The weights must be positive and sum to 1; all mixtures are one stacked eigh.
    """
    checked = []
    for components in ensembles:
        probs = np.array([pj for pj, _, _ in components], dtype=float)
        if not (np.all(probs > 0.0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise InvalidParameter("component weights must be positive and sum to 1")
        checked.append([(pj, PsdOperator.wrap(rj), PsdOperator.wrap(sj))
                        for pj, rj, sj in components])
    mixed = PsdOperator.stack([hermitize(sum(pj * c[side].mat for pj, *c in comps))
                               for comps in checked for side in (0, 1)])
    return list(zip(checked, mixed[0::2], mixed[1::2]))


def _joint_gaps(f, kms, ensembles) -> list[float]:
    """sum_j p_j S_f^K(rho_j||sigma_j) - S_f^K(rho||sigma) of each (components, rho, sigma).

    Ensemble i takes ``kms[i]``.  Every pair of every ensemble goes through
    one kernel call, components first and the mixture last within each
    ensemble, as a loop would take them.
    """
    rhos, sigmas = [], []
    for comps, rho, sigma in ensembles:
        rhos += [rj for _, rj, _ in comps] + [rho]
        sigmas += [sj for _, _, sj in comps] + [sigma]
    ks = np.repeat(kms, [len(comps) + 1 for comps, _, _ in ensembles], axis=0)
    values = iter(quasi_relative_entropies(f, ks, rhos, sigmas).tolist())
    gaps = []
    for comps, _, _ in ensembles:
        avg = sum(pj * next(values) for pj, _, _ in comps)
        gaps.append(avg - next(values))
    return gaps


def verify_joint_convexity_block(f, ensembles, ks, beta) -> list[BoundReport]:
    """Convexity gap >= 0, the mixture remainder at T* and its power-law form, per (ensemble, K).

    The residual side is the weighted sum of ``_mixture_residuals``, with
    sum_j p_j^{-1} ||rho_j^{-1}|| as the modular norm in the first RHS term;
    the quadratic-mean residual that the extension argument bounds directly is
    recorded alongside.  The ensembles have one size; the block is one stacked
    eigh, one kernel call and one batched SVD each for ||K|| and the equality residuals.
    """
    kms = _as_matrices(ks)
    ensembles = _mixtures(ensembles)
    gaps = _joint_gaps(f, kms, ensembles)
    residuals, mixed, sigma_k = _mixture_residuals(kms, ensembles, beta)
    rho_js = [rj for comps, _, _ in ensembles for _, rj, _ in comps]
    eq_diffs = mixed - sigma_k @ PsdOperator.powers(rho_js, (-beta,))[:, 0]
    eq_resids = _grid_maxima(eq_diffs.reshape(len(kms), -1, *kms.shape[1:]))
    reports = []
    for (comps, _, _), km, gap, (resid_l1, resid_l2, d_sum), k_norm, eq_resid in zip(
            ensembles, kms, gaps, residuals, op_norm(kms).tolist(), eq_resids):
        lhs = math.pi / math.sin(beta * math.pi) * resid_l1
        consts = optimize_T_scalar(f, beta, k_norm, d_sum, gap)
        rhs_star = thm42_terms(f, beta, consts.T_star, k_norm, d_sum, gap)
        ok = gap >= -REPORT_TOL and _rel_pass(lhs, rhs_star, REL_INEQ_TOL)
        power_rhs = consts.M * max(gap, 0.0) ** consts.alpha
        ok = ok and _rel_pass(resid_l1, power_rhs, REL_INEQ_TOL)
        digest = digest_inputs(km, *[c.mat for _, c, _ in comps],
                               *[c.mat for _, _, c in comps])
        reports.append(_report("joint_convexity", resid_l1, power_rhs, ok, constants=consts,
                               digest=digest, notes=f"f={f.name};beta={beta:g}",
                               details={"gap": gap, "residual_block_l2": resid_l2,
                                        "equality_residual": eq_resid,
                                        "rhs_at_T_star": rhs_star}))
    return reports


# ----------------------------------------------------------------------------
# Operator inequalities on the C factor
# ----------------------------------------------------------------------------

OPERATOR_SSA_VARIANTS = ("thm62", "thm63", "cor64", "cor65")


def _traced_f_actions(f, lefts, rights, space, keep) -> np.ndarray:
    """Partial trace of f(Delta_{left,right})(right) down to the kept factors, per pair.

    One stacked f-action (``apply_f_modulars``) over the pairs.
    """
    acted = apply_f_modulars(f, lefts, rights, _as_matrices(rights))
    return hermitize(space.partial_trace(acted, keep))


def _ssa_stacks(rhos, sabs, space):
    """sigma_AB (x) I_C, sigma_B (x) I_C on B|C and rho_BC of each pair, each one stacked eigh."""
    sub_ab, sub_bc = space.subspace((0, 1)), space.subspace((1, 2))
    sbs = PsdOperator.marginals(sabs, sub_ab, (1,))
    fulls = PsdOperator.stack(space.embed(_as_matrices(sabs), (0, 1)))
    b_bcs = PsdOperator.stack(sub_bc.embed(_as_matrices(sbs), (0,)))
    return fulls, b_bcs, PsdOperator.marginals(rhos, space, (1, 2))


def _traced_terms(f, rhos, sabs, variant, space):
    """(t1, t2, machinery function): the two stacks of traced f-actions one variant compares on C.

    ``rhos`` are states on A|B|C and ``sabs`` operators on A|B, pair by pair.
    sigma_AB (x) I_C, sigma_B and sigma_B (x) I_C on B|C are each one
    stacked eigh, and each term is one stacked f-action.  The mirrored
    variants (cor64, cor65) act with the transpose x f(1/x), which also
    drives their window constants.
    """
    sub_bc = space.subspace((1, 2))
    fulls, b_bcs, rho_bcs = _ssa_stacks(rhos, sabs, space)
    g = f if variant in ("thm62", "thm63") else f.transpose()
    if variant in ("thm62", "cor64"):
        return (_traced_f_actions(g, fulls, rhos, space, (2,)),
                _traced_f_actions(g, b_bcs, rho_bcs, sub_bc, (1,)), g)
    return (_traced_f_actions(g, rhos, fulls, space, (2,)),
            _traced_f_actions(g, rho_bcs, b_bcs, sub_bc, (1,)), g)


def operator_ssa_block_sides(f: OperatorConvexFunction, rhos_abc, sigmas_ab, beta: float,
                             variant: str, space: FactorizedSpace):
    """(grams, rhs_ops, machinery function, d_norms, scales) of one variant over a block.

    The block is pairs of (state on A|B|C, operator on A|B); ``grams`` and
    ``rhs_ops`` are ``(N, d_C, d_C)`` stacks, ``d_norms`` and ``scales`` one
    float per pair.  The traced f-actions, the P or Q residuals, their Gram
    matrices and the norms are each one stacked call, bit-equal per pair.
    The mirrored variants apply the transpose x f(1/x) both in the traced
    action and in the window constants driving (N, alpha), and need invertible
    operands: the first pair with a rank-deficient one raises InvalidRank.
    """
    if space.nfactors != 3:
        raise InvalidParameter("operator inequalities need a tripartite space")
    rhos = [space.psd(rho) for rho in rhos_abc]
    sabs = [space.subspace((0, 1)).psd(sab) for sab in sigmas_ab]
    if variant not in OPERATOR_SSA_VARIANTS:
        raise InvalidParameter(f"unknown operator-inequality variant {variant!r}")
    if variant in ("cor64", "cor65"):
        for rho, sab in zip(rhos, sabs):
            for name, op in (("rho_ABC", rho), ("sigma_AB", sab)):
                if op.rank() < op.dim:
                    raise InvalidRank(f"{variant} needs a faithful {name}, got rank {op.rank()}")
    t1, t2, g = _traced_terms(f, rhos, sabs, variant, space)
    if variant in ("thm62", "cor64"):
        resid = ssa_residuals_P(rhos, sabs, space, beta)
        grams = space.partial_trace(resid @ resid.conj().swapaxes(-1, -2), (2,))
        d_norms = [sab.max_eig() / rho.min_positive_eig() for rho, sab in zip(rhos, sabs)]
    else:
        resid = ssa_residuals_Q(sabs, rhos, space, beta)
        grams = space.partial_trace(resid.conj().swapaxes(-1, -2) @ resid, (2,))
        d_norms = [rho.max_eig() / sab.min_positive_eig() for rho, sab in zip(rhos, sabs)]
    # natural magnitude of the two traced terms; the difference may vanish
    scales = [max(n1, n2, 1e-30) for n1, n2 in zip(*op_norm(np.stack([t1, t2])).tolist())]
    return hermitize(grams), hermitize(t1 - t2), g, d_norms, scales


def verify_operator_ssa_block(f, rhos_abc, sigmas_ab, beta, variant, space) -> list[BoundReport]:
    """Operator remainder N [Gram]^{1/alpha} <= traced f-action difference on C, per pair.

    Past ``operator_ssa_block_sides``, the Gram powers take one stacked eigh
    and the two minimum eigenvalues one batched eigvalsh each; only the
    constants and the reports are per pair.  Each report is bit-identical to
    the pair's alone, and the block raises what its first failing pair would.
    """
    grams, rhs_ops, mach, d_norms, scales = operator_ssa_block_sides(
        f, rhos_abc, sigmas_ab, beta, variant, space)
    consts = [constants_for(mach, beta, 1.0, d_norm) for d_norm in d_norms]
    alpha = consts[0][2]                # alpha depends on (f, beta) only
    m_consts, n_consts = (np.array(x) for x in list(zip(*consts))[:2])
    with np.errstate(over="ignore", invalid="ignore"):     # ``far`` members are redone below
        lhs_ops = n_consts[:, None, None] * PsdOperator.powers(
            PsdOperator.stack(grams), (1.0 / alpha,))[:, 0]
    far = ~((n_consts > 0.0) & np.isfinite(lhs_ops).all(axis=(1, 2)))
    if far.any():       # N or the power left the float range (beta near 1): (Gram / M)^{1/alpha}
        lhs_ops[far] = PsdOperator.powers(PsdOperator.stack(
            grams[far] / m_consts[far, None, None]), (1.0 / alpha,))[:, 0]
    diff_mins = np.linalg.eigvalsh(rhs_ops - lhs_ops).min(axis=1).tolist()
    rhs_mins = np.linalg.eigvalsh(rhs_ops).min(axis=1).tolist()
    reports = []
    for i, (rho_abc, sigma_ab) in enumerate(zip(rhos_abc, sigmas_ab)):
        m_const, n_const, alpha, C, c = consts[i]
        passed = diff_mins[i] >= -PSD_REPORT_TOL * scales[i]
        baseline_ok = rhs_mins[i] >= -REPORT_TOL * max(1.0, scales[i])
        reports.append(_report(
            f"operator_ssa_{variant}", -diff_mins[i], 0.0, passed and baseline_ok,
            constants=BoundConstants(alpha1(beta), alpha2(beta), alpha, C, c, n_const,
                                     _remainder(m_const, n_const, alpha)[1], math.nan),
            digest=digest_inputs(as_matrix(rho_abc), as_matrix(sigma_ab)),
            notes=f"f={f.name};beta={beta:g};variant={variant}",
            details={"min_eig_diff": diff_mins[i],
                     "min_eig_rhs": rhs_mins[i],
                     "rhs_scale": scales[i],
                     "gram_trace": float(np.real(np.trace(grams[i])))}))
    return reports


def ssa_gap(rho_abc, space: FactorizedSpace) -> float:
    """S(AB) + S(BC) - S(ABC) - S(B)."""
    rho = space.psd(rho_abc)
    s_ab, s_bc, s_b = (von_neumann_entropy(rho.marginal(space, keep))
                       for keep in ((0, 1), (1, 2), (1,)))
    return s_ab + s_bc - von_neumann_entropy(rho) - s_b


def verify_ssa_block(rhos_abc, beta, space) -> list[BoundReport]:
    """Scalar strong-subadditivity remainder with the logarithm's constants, per state.

    Checks N ||rho_B^b (x) rho_C^b rho_BC^{-b} rho^{1/2} -
    rho_AB^b (x) rho_C^b rho^{1/2-b}||_2^{1/alpha} <= SSA gap (``ssa_gap``), and at
    beta = 1/2 the recovery form (pi/8)^4 ||rho^{-1}||^{-2} || ... ||_1^4.  Each
    marginal is one stacked eigh, and each list of operators one ``PsdOperator.powers``.
    """
    rhos = [space.psd(rho) for rho in rhos_abc]
    rho_abs, rho_bcs, rho_bs, rho_cs = (PsdOperator.marginals(rhos, space, keep)
                                        for keep in ((0, 1), (1, 2), (1,), (2,)))
    gaps = [ssa_gap(rho, space) for rho in rhos]
    rho_pows = PsdOperator.powers(rhos, (0.5, 0.5 - beta))
    c_pows = PsdOperator.powers(rho_cs, (beta,))[:, 0]
    bc_pows = PsdOperator.powers(rho_bcs, (-beta,))[:, 0]
    term1 = (space.embed(_kron(PsdOperator.powers(rho_bs, (beta,))[:, 0], c_pows), (1, 2))
             @ space.embed(bc_pows, (1, 2)) @ rho_pows[:, 0])
    term2 = _kron(PsdOperator.powers(rho_abs, (beta,))[:, 0], c_pows) @ rho_pows[:, 1]
    rnorms = [hs_norm(member) for member in term1 - term2]
    if beta == 0.5:
        mat_ab, mat_b, mat_c = (_as_matrices(ops) for ops in (rho_abs, rho_bs, rho_cs))
        recovered = _petz_sandwiches(rho_pows[:, 0], bc_pows, _kron(mat_b, mat_c), space, (1, 2))
        petz_l1s = trace_norm(recovered - _kron(mat_ab, mat_c)).tolist()
    reports = []
    for i, (rho, gap, rnorm) in enumerate(zip(rhos, gaps, rnorms)):
        # sigma = rho_AB (x) rho_C for the displayed residual's partition
        d_norm = rho_abs[i].max_eig() * rho_cs[i].max_eig() / rho.min_positive_eig()
        m_const, n_const, alpha, C, c = constants_for(NEG_LOG, beta, 1.0, d_norm)
        lhs, m_rep = _remainder(m_const, n_const, alpha, rnorm)
        ok = _rel_pass(lhs, gap, REL_INEQ_TOL) and gap >= -REPORT_TOL
        details = {"residual_hs": rnorm, "ssa_gap": gap}
        if beta == 0.5:     # ||rho^{-1}|| = 1 / its smallest eigenvalue above the cutoff
            petz_lhs = (math.pi / 8.0) ** 4 / (1.0 / rho.min_positive_eig()) ** 2 * petz_l1s[i] ** 4
            details.update(petz_diff_trace=petz_l1s[i], petz_quartic_lower=petz_lhs)
            ok = ok and _rel_pass(petz_lhs, gap, REL_INEQ_TOL)
        consts = BoundConstants(alpha1(beta), alpha2(beta), alpha, C, c, n_const, m_rep,
                                math.nan)
        reports.append(_report("ssa", lhs, gap, ok, constants=consts, digest=digest_inputs(rho.mat),
                               notes=f"beta={beta:g}", details=details))
    return reports


# ----------------------------------------------------------------------------
# Power-family (skew information) inequalities
# ----------------------------------------------------------------------------

def verify_wyd_joint_concavity_block(p: float, ensembles, ks, beta) -> list[BoundReport]:
    """Concavity gap of the power trace term, with the remainder when p in (0,1), per (ensemble, K).

    The gap is (Tr K* sigma^p K rho^{1-p} - sum_j p_j Tr K* sigma_j^p K rho_j^{1-p}) / (p(1-p))
    over the mixture (rho, sigma) of the components: the joint-convexity gap
    of f_p, which the sign-carrying prefactor keeps for p outside (0,1).  The
    pieces are ``verify_joint_convexity_block``'s: one stacked eigh for the
    mixtures, one ``_joint_gaps`` kernel call and, for p in (0,1), one
    ``_mixture_residuals`` and one batched SVD for ||K||.
    """
    kms = _as_matrices(ks)
    ensembles = _mixtures(ensembles)
    gaps = _joint_gaps(make_f_p(p), kms, ensembles)
    remainder = 0.0 < p < 1.0
    if remainder:
        residuals = _mixture_residuals(kms, ensembles, beta)[0]
        k_norms = op_norm(kms).tolist()
    reports = []
    for i, ((comps, _, _), km, gap) in enumerate(zip(ensembles, kms, gaps)):
        ok, details, consts, lhs = gap >= -REPORT_TOL, {"gap": gap}, None, 0.0
        if remainder:
            resid, _, d_sum = residuals[i]
            m_const, n_const, alpha, C, c = power_family_constants(p, beta, k_norms[i], d_sum)
            lhs = _remainder(m_const, n_const, alpha, resid)[0]
            ok = ok and _rel_pass(lhs, gap, REL_INEQ_TOL)
            consts = BoundConstants(alpha1(beta), alpha2(beta), alpha, C, c, n_const,
                                    m_const, math.nan)
            details["residual_weighted"] = resid
        digest = digest_inputs(km, *[r.mat for _, r, _ in comps], *[s.mat for _, _, s in comps])
        reports.append(_report("wyd_joint_concavity", lhs, gap, ok, constants=consts,
                               digest=digest, notes=f"p={p:g};beta={beta:g}", details=details))
    return reports


def wyd_skew_block(f, rhos, ks) -> list[BoundReport]:
    """WYD skew information I_p(rho, K) >= 0 and I_p = p(1-p) S_{f_p}^K(rho||rho), per (rho, K).

    ``f`` is ``f_p`` with p in (0,1), read from its id.  One ``wyd_skew_information`` call on
    the stack of Ks, and one kernel call cross-checks.
    """
    p = power_of(f)
    rhos = [PsdOperator.wrap(rho) for rho in rhos]
    try:
        kms = _as_matrices(ks)
    except InvalidMatrix:     # a K that is not square: the first failing trial raises alone
        for rho, k in zip(rhos, ks):
            wyd_skew_information(p, rho, k)
        raise
    skews = wyd_skew_information(p, rhos, kms)
    crosses = (p * (1.0 - p) * quasi_relative_entropies(f, kms, rhos, rhos)).tolist()
    return [_report("wyd_skew", 0.0, skew,
                    skew >= -SKEW_TOL and abs(skew - cross) <= 1e-9 * max(1.0, abs(skew)),
                    notes=f"p={p:g}", details={"cross_check": cross})
            for skew, cross in zip(skews, crosses)]


def verify_wyd_operator_block(p: float, rhos_abc, sigmas_ab, beta, space) -> list[BoundReport]:
    """Operator remainder for the power trace difference per pair: the cor65 kernel at f_p."""
    reports = verify_operator_ssa_block(make_f_p(p), rhos_abc, sigmas_ab, beta, "cor65", space)
    for report in reports:
        report.inequality_id = "wyd_operator"
        report.notes = f"p={p:g};beta={beta:g}"
    return reports


def verify_cauchy_schwarz_block(rhos_abc, sigmas_ab, beta, space) -> list[BoundReport]:
    """p = 2 endpoint: Tr_AB(sigma rho^{-1} sigma) - Tr_B(sigma_B rho_BC^{-1} sigma_B) is PSD on C.

    The power-family prefactor sin(p pi) vanishes at p = 2, so the remainder
    constant N is exactly zero and the content of the check is positivity
    plus the recovery-condition diagnostics of the equality case, from the
    stacks of ``_ssa_stacks`` and one ``ssa_residuals_Q``.
    """
    rhos = [space.psd(rho) for rho in rhos_abc]
    sabs = [space.subspace((0, 1)).psd(sab) for sab in sigmas_ab]
    if any(rho.rank() < rho.dim for rho in rhos):
        raise DivergentEntropy("quadratic difference needs full-rank rho")
    fulls, b_bcs, rho_bcs = _ssa_stacks(rhos, sabs, space)
    full_ms, b_bc_ms, rho_ms = (_as_matrices(ops) for ops in (fulls, b_bcs, rhos))
    t1 = space.partial_trace(full_ms @ PsdOperator.powers(rhos, (-1.0,))[:, 0] @ full_ms, (2,))
    t2 = space.subspace((1, 2)).partial_trace(
        b_bc_ms @ PsdOperator.powers(rho_bcs, (-1.0,))[:, 0] @ b_bc_ms, (1,))
    scales = np.maximum(op_norm(np.stack([t1, t2])).max(axis=0), 1e-30).tolist()
    resid = ssa_residuals_Q(sabs, rhos, space, beta)
    grams = hermitize(space.partial_trace(resid.conj().swapaxes(-1, -2) @ resid, (2,)))
    mins = np.linalg.eigvalsh(hermitize(t1 - t2)).min(axis=1).tolist()
    recovered = _petz_sandwiches(PsdOperator.powers(fulls, (0.5,))[:, 0], PsdOperator.powers(
        b_bcs, (-0.5,))[:, 0], _as_matrices(rho_bcs), space, (1, 2))
    petz_resids = trace_norm(recovered - rho_ms).tolist()
    return [_report("cauchy_schwarz", -low, 0.0, low >= -PSD_REPORT_TOL * scale,
                    digest=digest_inputs(rho.mat, sab.mat), notes=f"beta={beta:g};N=0 at p=2",
                    details={"min_eig_diff": low, "petz_recovery_residual": petz,
                             "gram_trace": float(np.real(np.trace(gram))), "n_const": 0.0})
            for rho, sab, low, scale, petz, gram
            in zip(rhos, sabs, mins, scales, petz_resids, grams)]


def lieb_ruskai_block(xs_ac, qs_ac, space_ac: FactorizedSpace) -> list[BoundReport]:
    """Tr_A X* Q^{-1} X >= (Tr_A X)* (Tr_A Q)^{-1} (Tr_A X) as operators on C, per (X, Q).

    The Q's and their marginals are one stacked eigh each, and the eigenvalues
    of both sides' difference and of the first side one batched eigvalsh.
    """
    if space_ac.nfactors != 2:
        raise InvalidParameter("expected a bipartite A|C factorization")
    xms = np.stack([space_ac.check(x) for x in xs_ac])
    qs = PsdOperator.stack(np.stack([space_ac.check(q) for q in qs_ac]))
    t1 = space_ac.partial_trace(
        xms.conj().swapaxes(-1, -2) @ PsdOperator.powers(qs, (-1.0,))[:, 0] @ xms, (1,))
    xcs = space_ac.partial_trace(xms, (1,))
    qc_invs = PsdOperator.powers(PsdOperator.marginals(qs, space_ac, (1,)), (-1.0,))[:, 0]
    diffs, firsts = np.linalg.eigvalsh(hermitize(np.stack([t1 - xcs.conj().swapaxes(-1, -2)
                                                           @ qc_invs @ xcs, t1])))
    scales = np.maximum(np.abs(firsts).max(axis=1, initial=0.0), 1e-30).tolist()
    return [_report("lieb_ruskai", -low, 0.0, low >= -PSD_REPORT_TOL * scale,
                    digest=digest_inputs(xm, q.mat), details={"min_eig_diff": low})
            for xm, q, low, scale in zip(xms, qs, diffs.min(axis=1).tolist(), scales)]
