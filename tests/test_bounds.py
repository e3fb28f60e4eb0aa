"""Remainder-bound constants, both-sides evaluations, operator inequalities."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

from qre import bounds
from qre.bounds import (
    alpha1,
    alpha2,
    alpha_exponent,
    classical_reduction_block,
    constants_for,
    envelope_constants,
    monotonicity_gap,
    operator_ssa_block_sides,
    optimize_T_scalar,
    pinsker_block,
    power_family_constants,
    ssa_gap,
    thm42_terms,
    T_MAX,
    T_MIN,
    verify_cauchy_schwarz_block,
    verify_joint_convexity_block,
    verify_monotonicity_block,
    verify_monotonicity_bound_block,
    verify_operator_ssa_block,
    verify_ssa_block,
    verify_thm42_block,
    verify_wyd_joint_concavity_block,
    verify_wyd_operator_block,
    lieb_ruskai_block,
)
from qre.equality import equality_suite
from qre.entropy import ModularOperator, von_neumann_entropy
from qre.errors import DivergentEntropy, InvalidParameter, InvalidRank, IrregularFunction
from qre.campaign import run_single
from qre.reports import BoundConstants
from qre.functions import from_id, make_f_p, make_neg_log, make_neg_power
from qre.linalg import (
    FactorizedSpace,
    PsdOperator,
    hermitize,
    op_norm,
    random_contraction,
    random_density,
    random_unitary,
)

from test_functions import WINDOW_FUNCTIONS, window_constant

NEG_LOG = make_neg_log()
SPACE = FactorizedSpace((2, 2))
SPACE3 = FactorizedSpace((2, 2, 2))


def matrix_log(m):
    """ln of the above-cutoff spectrum of the PSD matrix m, 0 on the rest: the log oracle."""
    op = PsdOperator.wrap(m)
    keep = op.eigs > op.cutoff
    logs = np.zeros_like(op.eigs)
    logs[keep] = np.log(op.eigs[keep])
    return hermitize((op.vecs * logs) @ op.vecs.conj().T)


# ----------------------------------------------------------------------------
# The paper's printed closed forms of N, transcribed literally: the oracle of
# the one constants formula (``constants_for``)
# ----------------------------------------------------------------------------

def explicit_N(kind: str, beta: float, p: float | None = None,
               k_norm: float = 1.0, d_norm: float = 1.0) -> float:
    """Literal closed forms of the remainder constant N.

    ``kind`` is "log" or "power"; for "power" the constant is attached to the
    raw power's gap normalization.  At beta = 1/2 both branch expressions are
    evaluated and must agree; disagreement would flag a transcription defect
    rather than silently asserting one branch.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidParameter(f"beta must lie in (0,1), got {beta}")
    if kind == "log":
        lo, hi = _n_log_low, _n_log_high
        args = (beta, k_norm, d_norm)
    elif kind == "power":
        if p is None or not 0.0 < p < 2.0:
            raise InvalidParameter(f"power kind needs p in (0,2), got {p}")
        lo, hi = _n_pow_low, _n_pow_high
        args = (beta, p, k_norm, d_norm)
    else:
        raise InvalidParameter(f"unknown constant kind {kind!r}")
    if beta < 0.5:
        return lo(*args)
    if beta > 0.5:
        return hi(*args)
    a, b = lo(*args), hi(*args)
    if abs(a - b) > 1e-9 * max(abs(a), abs(b)):
        raise InvalidParameter(f"N branches disagree at beta=1/2: {a!r} vs {b!r}")
    return b


def _n_log_low(beta, k_norm, d_norm):
    s = math.sin(beta * math.pi)
    e = 1.0 - 2.0 * beta + 2.0 * beta * beta
    bb = beta * (1.0 - beta)
    return ((math.pi * e * beta / s) ** (1.0 / bb)
            * (k_norm + beta / (1.0 - beta) * d_norm) ** (-e / bb)
            * 2.0 ** (-e / bb)
            * (e / (2.0 * (1.0 - beta))) ** (-2.0))


def _n_log_high(beta, k_norm, d_norm):
    s = math.sin(beta * math.pi)
    return ((math.pi * beta * (1.0 - beta) / s) ** (2.0 / (1.0 - beta))
            * ((1.0 - beta) / beta * k_norm + d_norm) ** (-2.0 * beta / (1.0 - beta))
            * 2.0 ** (-2.0 * beta / (1.0 - beta))
            * beta ** (-2.0))


def _n_pow_low(beta, p, k_norm, d_norm):
    s = math.sin(beta * math.pi)
    sp = math.sin(p * math.pi)
    bb = beta * (1.0 - beta)
    e = p * (1.0 - beta) + 1.0 - 2.0 * beta + 2.0 * beta * beta
    top = 1.0 + p * (1.0 - beta)
    return ((k_norm + beta / (1.0 - beta) * d_norm) ** (-e / bb)
            * 2.0 ** (-e / bb)
            * sp / math.pi
            * (math.pi * beta * e / (top * s)) ** (top / bb)
            * (e / (2.0 * (1.0 - beta))) ** (-2.0))


def _n_pow_high(beta, p, k_norm, d_norm):
    s = math.sin(beta * math.pi)
    sp = math.sin(p * math.pi)
    bb = beta * (1.0 - beta)
    e = 2.0 * beta * beta + p * (1.0 - beta)
    top = 2.0 * beta + p * (1.0 - beta)
    return (((1.0 - beta) / beta * k_norm + d_norm) ** (-e / bb)
            * 2.0 ** (-e / bb)
            * sp / math.pi
            * (math.pi * (1.0 - beta) * e / (top * s)) ** (top / bb)
            * (e / (2.0 * beta)) ** (-2.0))


def golden_section_min(fn, lo: float, hi: float, rel_tol: float = 1e-6,
                       max_iter: int = 200):
    """Golden-section minimum of a unimodal fn on [lo, hi]; returns (x, fn(x)).

    The search the closed-form window optimum replaced, kept as its oracle.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if abs(b - a) <= rel_tol * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


class TestExponents:
    def test_log_alpha_at_half(self):
        assert alpha_exponent(0.5, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_power_alpha_at_half(self):
        # f_{1/2} at beta = 1/2: c = 1/4, alpha = 0.25/1.25 = 0.2
        c = make_f_p(0.5).power_law_c(0.5)
        assert alpha_exponent(0.5, c) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.15, 0.375])
    def test_branches_agree_at_half(self, c):
        lo = 0.5 * 0.5 / (1.0 + 2.0 * c * 0.5)
        hi = 0.5 * 0.5 / (1.0 + c)
        assert abs(lo - hi) <= 1e-12 * max(lo, hi)

    def test_two_branch_window_exponents(self):
        assert alpha1(0.25) == 0.25 and alpha1(0.75) == 0.25
        assert alpha2(0.75) == 0.75
        assert alpha2(0.25) == pytest.approx(0.375 + 0.0625 / 1.5)


class TestExplicitN:
    @pytest.mark.parametrize("beta", [0.2, 0.35, 0.5, 0.65, 0.8])
    @pytest.mark.parametrize("k_norm,d_norm", [(1.0, 1.0), (0.7, 12.0), (1.0, 150.0)])
    def test_log_matches_envelope(self, beta, k_norm, d_norm):
        printed = explicit_N("log", beta, None, k_norm, d_norm)
        _, derived, _ = envelope_constants(1.0, 0.0, beta, k_norm, d_norm)
        assert printed == pytest.approx(derived, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_power_matches_envelope(self, beta, p):
        # the printed power constant carries the raw power's measure pi/sin(p pi)
        printed = explicit_N("power", beta, p, 1.0, 5.0)
        c = p / 2.0 if beta <= 0.5 else p * (1.0 - beta) / (2.0 * beta)
        _, derived, _ = envelope_constants(math.pi / math.sin(p * math.pi), c,
                                           beta, 1.0, 5.0)
        assert printed == pytest.approx(derived, rel=1e-10)

    def test_power_vs_normalized_family(self):
        # the folded 1/(p(1-p)) measure rescales N by exactly p(1-p)
        p, beta = 0.3, 0.4
        c = p / 2.0
        f = make_f_p(p)
        _, derived, _ = envelope_constants(f.power_law_C(), c, beta, 1.0, 3.0)
        printed = explicit_N("power", beta, p, 1.0, 3.0)
        assert printed == pytest.approx(derived * p * (1.0 - p), rel=1e-10)

    def test_branch_consistency_at_half(self):
        for kind, p in (("log", None), ("power", 0.5), ("power", 0.3)):
            n = explicit_N(kind, 0.5, p, 1.0, 4.0)
            assert n > 0.0

    @pytest.mark.parametrize("beta", [0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9])
    @pytest.mark.parametrize("k_norm,d_norm", [(1.0, 1.0), (0.7, 12.0), (1.0, 150.0)])
    def test_constants_for_matches_printed_forms(self, beta, k_norm, d_norm):
        # the one constants formula reproduces every printed closed form
        n_log = constants_for(NEG_LOG, beta, k_norm, d_norm).N
        assert n_log == pytest.approx(explicit_N("log", beta, None, k_norm, d_norm), rel=1e-13)
        for p in (0.3, 0.5, 0.7):
            consts = constants_for(make_neg_power(p), beta, k_norm, d_norm)
            assert power_family_constants(p, beta, k_norm, d_norm) == consts
            assert consts.N == pytest.approx(explicit_N("power", beta, p, k_norm, d_norm),
                                              rel=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_constants_for_rejects_beta_outside_the_open_interval(self, beta):
        for f in (NEG_LOG, make_neg_power(0.3), make_f_p(0.5)):
            with pytest.raises(InvalidParameter, match="strictly inside"):
                constants_for(f, beta, 1.0, 1.0)

    @pytest.mark.parametrize("k_norm, d_norm", [(-1.0, 1.0), (1.0, -1.0), (0.0, 0.0),
                                                (math.nan, 1.0), (1.0, math.nan),
                                                (math.inf, 1.0), (1.0, math.inf)])
    def test_constants_for_rejects_unusable_norms(self, k_norm, d_norm):
        with pytest.raises(InvalidParameter, match="not both 0"):
            constants_for(NEG_LOG, 0.5, k_norm, d_norm)

    def test_constants_for_takes_a_zero_k_norm(self):
        assert constants_for(NEG_LOG, 0.5, 0.0, 1.0).N > 0.0

    def test_positive_and_decreasing_in_d(self):
        for beta in (0.3, 0.6):
            values = [explicit_N("log", beta, None, 1.0, d) for d in (1.0, 5.0, 50.0)]
            assert all(v > 0 for v in values)
            assert values[0] > values[1] > values[2]


class TestThm42Terms:
    def test_log_half_closed_form(self):
        k_norm, d_norm, gap = 0.8, 3.0, 0.04
        for T in (2.0, 50.0, 1e4):
            rhs = thm42_terms(NEG_LOG, 0.5, T, k_norm, d_norm, gap)
            expected = (4 * k_norm + 4 * d_norm) / math.sqrt(T) \
                + math.sqrt(T) * math.sqrt(gap)
            assert rhs == pytest.approx(expected, rel=1e-12)

    def test_positive_at_zero_gap(self):
        assert thm42_terms(NEG_LOG, 0.5, 10.0, 1.0, 1.0, 0.0) > 0.0

    def test_optimizer_matches_calculus(self):
        # a T^{-1/2} + b T^{1/2} is minimized at T = a/b with value 2 sqrt(ab)
        k_norm, d_norm, gap = 1.0, 2.0, 0.09
        a = 4 * k_norm + 4 * d_norm
        b = math.sqrt(gap)
        consts = optimize_T_scalar(NEG_LOG, 0.5, k_norm, d_norm, gap)
        assert consts.T_star == pytest.approx(a / b, rel=1e-4)
        reached = thm42_terms(NEG_LOG, 0.5, consts.T_star, k_norm, d_norm, gap)
        assert reached == pytest.approx(2 * math.sqrt(a * b), rel=1e-8)

    def test_zero_gap_hits_boundary(self):
        consts = optimize_T_scalar(NEG_LOG, 0.5, 1.0, 1.0, 0.0)
        assert consts.boundary

    def test_irregular_function_refused(self):
        with pytest.raises(IrregularFunction):
            optimize_T_scalar(make_f_p(1.5), 0.5, 1.0, 1.0, 0.1)

    def test_golden_section(self):
        x, fx = golden_section_min(lambda u: (u - 1.3) ** 2 + 2.0, -4.0, 6.0)
        assert x == pytest.approx(1.3, abs=1e-5)
        assert fx == pytest.approx(2.0, abs=1e-9)


class TestClosedFormWindowOptimum:
    @pytest.mark.parametrize("f", WINDOW_FUNCTIONS, ids=lambda g: g.name)
    @pytest.mark.parametrize("beta", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_window_constant_is_a_power_law(self, f, beta):
        # the hypothesis of the closed form: C_{T,beta} = C T^{2c} exactly
        for T in (1.0 + 1e-9, 1.5, 30.0, 1e4, 1e9):
            expected = f.power_law_C() * T ** (2.0 * f.power_law_c(beta))
            assert window_constant(f, T, beta) == pytest.approx(expected, rel=1e-12)

    def test_matches_golden_section_oracle(self):
        rng = np.random.default_rng(42)
        interior = 0
        for _ in range(200):
            f = WINDOW_FUNCTIONS[rng.integers(len(WINDOW_FUNCTIONS))]
            beta = float(rng.uniform(0.05, 0.95))
            k_norm = float(rng.uniform(0.1, 1.0))
            d_norm = float(10.0 ** rng.uniform(0.0, 3.0))
            gap = float(10.0 ** rng.uniform(-8.0, 0.0))
            consts = optimize_T_scalar(f, beta, k_norm, d_norm, gap)
            if consts.boundary:
                continue
            interior += 1

            def rhs(T):
                return thm42_terms(f, beta, T, k_norm, d_norm, gap)

            log_t, _ = golden_section_min(lambda lt: rhs(math.exp(lt)),
                                          math.log(T_MIN), math.log(1e3 * consts.T_star),
                                          rel_tol=1e-9)
            t_golden = math.exp(log_t)
            assert consts.T_star == pytest.approx(t_golden, rel=1e-5)
            assert rhs(consts.T_star) <= rhs(t_golden) * (1.0 + 1e-12)
            envelope = consts.M * gap ** consts.alpha
            reached = math.sin(beta * math.pi) / math.pi * rhs(consts.T_star)
            assert reached == pytest.approx(envelope, rel=1e-10)
        assert interior >= 150

    def test_optimum_below_the_window_is_clipped(self):
        beta, gap = 0.9, 10.0
        consts = optimize_T_scalar(NEG_LOG, beta, 1.0, 1.0, gap)
        assert consts.boundary and consts.T_star == T_MIN
        at_edge = math.sin(beta * math.pi) / math.pi * thm42_terms(NEG_LOG, beta, T_MIN,
                                                                 1.0, 1.0, gap)
        assert consts.M * gap ** consts.alpha == pytest.approx(at_edge, rel=1e-12)
        assert consts.N == pytest.approx(consts.M ** (-1.0 / consts.alpha), rel=1e-12)
        # the envelope of the interior optimum would undercut the bound at the window edge
        m_envelope = bounds.constants_for(NEG_LOG, beta, 1.0, 1.0).M
        assert m_envelope * gap ** consts.alpha < at_edge

    def test_optimum_beyond_t_max_is_not_capped(self):
        consts = optimize_T_scalar(NEG_LOG, 0.5, 1.0, 1.0, 1e-30)
        assert not consts.boundary and consts.T_star > T_MAX
        reached = thm42_terms(NEG_LOG, 0.5, consts.T_star, 1.0, 1.0, 1e-30)
        assert math.sin(0.5 * math.pi) / math.pi * reached == pytest.approx(
            consts.M * 1e-30 ** consts.alpha, rel=1e-10)

    @pytest.mark.parametrize("inequality,seed", [("thm42", 6417109856800188605),
                                                 ("monotonicity_bound", 960698628136948910)])
    def test_trials_with_an_optimum_beyond_t_max_pass(self, inequality, seed):
        rep, = run_single(inequality, "neg_log", (8, 8), 0.25, seed)
        assert rep.passed and rep.constants.T_star > T_MAX


class TestMonotonicity:
    def test_equal_states(self):
        rho = random_density(4, seed=1)
        rep = verify_monotonicity_block(NEG_LOG, [rho], [rho], [np.eye(2)], [np.eye(2)], SPACE)[0]
        assert rep.passed and abs(rep.rhs) < 1e-12

    def test_product_equality(self):
        r1, s1 = random_density(2, seed=2), random_density(2, seed=3)
        tau = random_density(2, seed=4)
        rho, sig = np.kron(r1.mat, tau.mat), np.kron(s1.mat, tau.mat)
        gap = monotonicity_gap(NEG_LOG, np.eye(2), np.eye(2), rho, sig, SPACE)
        assert abs(gap) < 1e-10

    @pytest.mark.parametrize("fid_p", [None, 0.5])
    def test_random_instances(self, fid_p):
        f = NEG_LOG if fid_p is None else make_f_p(fid_p)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            k1 = random_contraction(2, seed=rng)
            v = random_unitary(2, seed=rng)
            rep = verify_monotonicity_block(f, [rho], [sig], [k1], [v], SPACE)[0]
            assert rep.passed, f"seed {seed}: gap {rep.rhs}"


def _jrsww_bound(rho, sigma, dims):
    """-int beta_0(t) log F(rho, R_t(rho_1)) dt for the partial trace onto the first of ``dims``.

    The bound of Junge, Renner, Sutter, Wilde and Winter (Universal recovery maps and
    approximate sufficiency of quantum relative entropy, 2018) on the Umegaki gap, in numpy
    alone: beta_0(t) = (pi/2)/(cosh(pi t) + 1), the rotated Petz map
    R_t(X) = sigma^{(1+it)/2} (sigma_1^{-(1+it)/2} X sigma_1^{-(1-it)/2} (x) I) sigma^{(1-it)/2},
    F(rho, tau) = ||sqrt(rho) sqrt(tau)||_1^2, and the trapezoid rule over 401 nodes on [-8, 8],
    every node in one stack.  rho and sigma are full-rank matrices.
    """
    da, db = dims
    t = np.linspace(-8.0, 8.0, 401)
    rho1, sigma1 = (m.reshape(da, db, da, db).trace(axis1=1, axis2=3) for m in (rho, sigma))

    def rotated_powers(m, a):
        # m^{a (1 + i t)} at every node, from one eigh
        w, v = np.linalg.eigh(m)
        wz = np.exp(np.multiply.outer(a * (1.0 + 1j * t), np.log(w)))
        return (v * wz[:, None, :]) @ v.conj().T

    outer, inner = rotated_powers(sigma, 0.5), rotated_powers(sigma1, -0.5)
    mid = inner @ rho1 @ inner.conj().swapaxes(-1, -2)
    lifted = (mid[:, :, None, :, None] * np.eye(db)[:, None, :]).reshape(len(t), da * db, da * db)
    tau = outer @ lifted @ outer.conj().swapaxes(-1, -2)
    w, v = np.linalg.eigh(hermitize(np.concatenate([rho[None], tau])))
    roots = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    fidelity = np.linalg.svd(roots[0] @ roots[1:], compute_uv=False).sum(axis=-1) ** 2
    return -np.trapezoid(np.pi / 2.0 / (np.cosh(np.pi * t) + 1.0) * np.log(fidelity), t)


class TestUniversalRecoveryYardstick:
    """The Umegaki gap against an outside lower bound: fidelities and a partial trace, not the
    spectral formula.  The bound is 0.29 to 0.58 of the gap on these pairs, so a gap read low
    by more than 1.73 times fails on at least one pair, and by more than 3.4 times on every one."""

    @pytest.mark.parametrize("dims, seed", [((2, 2), 21), ((2, 4), 24)])
    def test_gap_is_at_least_the_jrsww_bound(self, dims, seed):
        space = FactorizedSpace(dims)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            rho, sigma = (random_density(space.dim, seed=rng) for _ in range(2))
            gap = monotonicity_gap(NEG_LOG, np.eye(dims[0]), np.eye(dims[1]), rho, sigma, space)
            bound = _jrsww_bound(rho.mat, sigma.mat, dims)
            assert 0.0 < bound and gap >= bound * (1.0 - 1e-9), (gap, bound)


class TestThm42AndPowerLaw:
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [None, 0.5])
    def test_grid_and_star(self, beta, p):
        f = NEG_LOG if p is None else make_f_p(p)
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            k1 = random_contraction(2, seed=rng)
            v = random_unitary(2, seed=rng)
            rep = verify_thm42_block(f, [rho], [sig], [k1], [v], beta, SPACE)[0]
            assert rep.passed

    def test_digest_covers_k1_and_v(self):
        # the same rho and sigma with another K1 and V is another instance
        rho, sig = random_density(4, seed=1), random_density(4, seed=2)
        reps = [verify_thm42_block(NEG_LOG, [rho], [sig], [random_contraction(2, seed=a)],
                                   [random_unitary(2, seed=b)], 0.5, SPACE)[0]
                for a, b in ((3, 4), (5, 6))]
        assert reps[0].lhs != reps[1].lhs
        assert reps[0].inputs_digest != reps[1].inputs_digest
        bound = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig],
                                                [random_contraction(2, seed=3)],
                                                [random_unitary(2, seed=4)], 0.5, SPACE)[0]
        assert reps[0].inputs_digest == bound.inputs_digest

    def test_bound_report_fields(self):
        rng = np.random.default_rng(5)
        rho = random_density(4, seed=rng)
        sig = random_density(4, seed=rng)
        rep = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig],
                                              [random_contraction(2, seed=rng)],
                                              [random_unitary(2, seed=rng)], 0.5, SPACE)[0]
        assert rep.passed
        assert rep.constants.alpha == pytest.approx(0.25)
        assert rep.constants.T_star > 1.0
        assert "petz_diff_trace" in rep.details

    @pytest.mark.parametrize("boundary", [True, False])
    def test_constants_as_dict_is_the_asdict_mapping(self, boundary):
        consts = BoundConstants(np.float64(0.25), 0.5, np.float64(0.125), 2, 0.75,
                                np.float64(1e-3), 4.0, float("nan"), boundary=boundary)
        want = {k: (v if isinstance(v, bool) else float(v))
                for k, v in dataclasses.asdict(consts).items()}
        got = consts.as_dict()
        assert list(got) == list(want)
        assert [type(v) for v in got.values()] == [float] * 8 + [bool]
        assert got["boundary"] is boundary
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_quartic_special_case(self):
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            rep = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig], [np.eye(2)],
                                                  [np.eye(2)], 0.5, SPACE)[0]
            assert rep.passed
            assert "quartic_lower" in rep.details
            assert rep.details["quartic_lower"] <= rep.details["gap"] + 1e-12

    def test_equality_instance(self):
        r1, s1 = random_density(2, seed=6), random_density(2, seed=7)
        tau = random_density(2, seed=8)
        rho, sig = np.kron(r1.mat, tau.mat), np.kron(s1.mat, tau.mat)
        rep = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig], [np.eye(2)], [np.eye(2)],
                                              0.5, SPACE)[0]
        assert rep.passed
        assert rep.lhs < 1e-10

    def test_interchange_diagnostic_for_invertible_k(self):
        for seed in range(25):
            rng = np.random.default_rng(2500 + seed)
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            k1 = random_contraction(2, seed=rng)
            v = random_unitary(2, seed=rng)
            rep = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig], [k1], [v], 0.5, SPACE)[0]
            assert rep.passed
            if "interchange_diff_trace" in rep.details:
                assert rep.details["interchange_diff_trace"] <= \
                    rep.details["interchange_rhs"] * (1 + 1e-8) + 1e-12

    def test_both_checks_report_the_same_constants(self):
        # one remainder computation: ||K|| is ||K1|| in both, as ||K1 (x) V|| = ||K1||
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            k1 = random_contraction(2, seed=rng)
            v = random_unitary(2, seed=rng)
            grid = verify_thm42_block(NEG_LOG, [rho], [sig], [k1], [v], 0.25, SPACE)[0]
            bound = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig], [k1], [v], 0.25,
                                                    SPACE)[0]
            assert grid.constants == bound.constants, f"seed {seed}"

    @pytest.mark.parametrize("beta, full_svds", [(0.25, 0), (0.5, 2)])
    def test_no_svd_of_the_full_weight_operator(self, beta, full_svds):
        # at 8x8 the only 64 x 64 SVDs are the two trace norms of the beta = 1/2 corollaries
        space = FactorizedSpace((8, 8))
        rng = np.random.default_rng(8)
        rho = random_density(64, seed=rng)
        sig = random_density(64, seed=rng)
        k1 = random_contraction(8, seed=rng)
        v = random_unitary(8, seed=rng)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            rep = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig], [k1], [v], beta, space)[0]
        assert rep.passed
        assert ("interchange_rhs" in rep.details) == (beta == 0.5)
        assert sum(call.args[0].shape[-1] == 64 for call in svd.call_args_list) == full_svds


class TestJointConvexity:
    def test_identical_components(self):
        rho, sig = random_density(2, seed=9), random_density(2, seed=10)
        comps = [(0.25, rho, sig), (0.5, rho, sig), (0.25, rho, sig)]
        rep = verify_joint_convexity_block(NEG_LOG, [comps], [np.eye(2)], 0.5)[0]
        assert rep.passed
        assert abs(rep.details["gap"]) < 1e-12
        assert rep.lhs < 1e-10
        assert rep.details["equality_residual"] < 1e-10

    @pytest.mark.parametrize("p", [None, 0.5])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_random_qubit_ensembles(self, p, beta):
        f = NEG_LOG if p is None else make_f_p(p)
        for seed in range(15):
            rng = np.random.default_rng(3000 + seed)
            probs = rng.dirichlet(np.ones(3))
            comps = [(float(w), random_density(2, seed=rng),
                      random_density(2, seed=rng)) for w in probs]
            k = random_contraction(2, seed=rng)
            rep = verify_joint_convexity_block(f, [comps], [k], beta)[0]
            assert rep.passed, f"seed {seed}"

    def test_weighted_sum_dominates_block_norm(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(3))
        comps = [(float(w), random_density(2, seed=rng), random_density(2, seed=rng))
                 for w in probs]
        rep = verify_joint_convexity_block(NEG_LOG, [comps], [np.eye(2)], 0.5)[0]
        assert rep.lhs >= rep.details["residual_block_l2"] - 1e-12


class TestOperatorSSA:
    def test_kim_operator_identity(self):
        # log variant with sigma_AB = rho_AB reduces to the traced log combination
        rho = random_density(8, seed=12)
        rho_ab = SPACE3.partial_trace(rho.mat, (0, 1))
        rhs = operator_ssa_block_sides(NEG_LOG, [rho], [rho_ab], 0.5, "thm62", SPACE3)[1][0]
        logs = (matrix_log(rho)
                - SPACE3.embed(matrix_log(rho_ab), (0, 1))
                - SPACE3.embed(matrix_log(SPACE3.partial_trace(rho.mat, (1, 2))), (1, 2))
                + SPACE3.embed(matrix_log(SPACE3.partial_trace(rho.mat, (1,))), (1,)))
        kim = hermitize(SPACE3.partial_trace(logs @ rho.mat, (2,)))
        np.testing.assert_allclose(rhs, kim, atol=1e-9)

    def test_kim_trace_is_ssa_gap(self):
        rho = random_density(8, seed=13)
        rho_ab = SPACE3.partial_trace(rho.mat, (0, 1))
        rhs = operator_ssa_block_sides(NEG_LOG, [rho], [rho_ab], 0.5, "thm62", SPACE3)[1][0]
        assert abs(np.trace(rhs).real - ssa_gap(rho, SPACE3)) < 1e-8

    @pytest.mark.parametrize("variant", ["thm62", "thm63", "cor64", "cor65"])
    @pytest.mark.parametrize("p", [None, 0.5])
    def test_random_instances(self, variant, p):
        f = NEG_LOG if p is None else make_f_p(p)
        for seed in range(10):
            rng = np.random.default_rng(4000 + seed)
            rho = random_density(8, seed=rng)
            sab = random_density(4, seed=rng)
            rep = verify_operator_ssa_block(f, [rho], [sab], 0.5, variant, SPACE3)[0]
            assert rep.passed, f"{variant} seed {seed}: {rep.details}"
            assert rep.details["min_eig_rhs"] >= -1e-9 * max(1.0, rep.details["rhs_scale"])

    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5"])
    @pytest.mark.parametrize("variant, rho_rank, sab_rank, operand", [
        ("cor65", None, 2, "sigma_AB"), ("cor64", 3, None, "rho_ABC")])
    def test_mirrored_variants_need_faithful_operands(self, variant, rho_rank, sab_rank,
                                                      operand, fid):
        # these pairs used to be reported as violations (margins -0.196 to -1.711)
        f = from_id(fid)
        full = (random_density(8, seed=5), random_density(4, seed=6))
        rho = random_density(8, rank=rho_rank, seed=3)
        sab = random_density(4, rank=sab_rank, seed=4)
        for block in ([(rho, sab)], [full, (rho, sab), full]):
            with pytest.raises(InvalidRank, match=f"{variant} needs a faithful {operand}"):
                bounds.verify_operator_ssa_block(f, *zip(*block), 0.5, variant, SPACE3)
        if variant == "cor65" and fid == "f_p:0.5":
            with pytest.raises(InvalidRank, match="cor65 needs a faithful sigma_AB"):
                verify_wyd_operator_block(0.5, [rho], [sab], 0.5, SPACE3)
        assert verify_operator_ssa_block(f, *zip(*[full]), 0.5, variant, SPACE3)[0].passed

    def test_equality_case_product(self):
        rho_ab = random_density(4, seed=14)
        rho_c = random_density(2, seed=15)
        rho = np.kron(rho_ab.mat, rho_c.mat)
        grams, rhs_ops, *_ = operator_ssa_block_sides(NEG_LOG, [rho], [rho_ab.mat], 0.5,
                                                      "thm62", SPACE3)
        gram, rhs = grams[0], rhs_ops[0]
        assert np.abs(gram).max() < 1e-12
        assert np.abs(rhs).max() < 1e-9

    def test_trivial_middle_factor_max_mixed(self):
        # one-dimensional B with a maximally mixed A operator: the traced
        # difference is Tr_A[(ln rho_AC) rho_AC] - (ln rho_C) rho_C + ln(d_A) rho_C
        space = FactorizedSpace((2, 1, 2))
        rho_ac = random_density(4, seed=16)
        sigma_a = np.eye(2, dtype=complex) / 2.0
        rhs = operator_ssa_block_sides(NEG_LOG, [rho_ac], [sigma_a], 0.5, "thm62", space)[1][0]
        rho_c = PsdOperator(space.partial_trace(rho_ac.mat, (2,)))
        expected = (space.partial_trace(
            matrix_log(rho_ac) @ rho_ac.mat, (2,))
            - matrix_log(rho_c) @ rho_c.mat
            + math.log(2.0) * rho_c.mat)
        np.testing.assert_allclose(rhs, hermitize(expected), atol=1e-9)
        assert np.linalg.eigvalsh(rhs).min() > -1e-9


class TestSSA:
    def test_triple_product_equality(self):
        rho = np.kron(np.kron(random_density(2, seed=17).mat,
                            random_density(2, seed=18).mat),
                     random_density(2, seed=19).mat)
        rep, = verify_ssa_block([rho], 0.5, SPACE3)
        assert rep.passed
        assert abs(rep.rhs) < 1e-10          # gap
        assert rep.details["residual_hs"] < 1e-10

    def test_markov_product_equality(self):
        rho = np.kron(random_density(4, seed=20).mat, random_density(2, seed=21).mat)
        rep, = verify_ssa_block([rho], 0.5, SPACE3)
        assert rep.passed
        assert abs(rep.rhs) < 1e-10
        assert rep.details["petz_diff_trace"] < 1e-8

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_random_states(self, beta):
        for seed in range(20):
            rng = np.random.default_rng(5000 + seed)
            rho = random_density(8, seed=rng)
            rep, = verify_ssa_block([rho], beta, SPACE3)
            assert rep.passed, f"seed {seed}"
            assert rep.details["ssa_gap"] >= -1e-9


class TestWyd:
    def test_joint_concavity_commuting_family_matches_scalar(self):
        # diagonal states reduce to the classical power-mean concavity gap
        rng = np.random.default_rng(22)
        p = 0.5
        lams, mus, ws = [], [], (0.3, 0.7)
        comps = []
        for w in ws:
            lam = rng.dirichlet(np.ones(2))
            mu = rng.dirichlet(np.ones(2))
            lams.append(lam)
            mus.append(mu)
            comps.append((w, PsdOperator(np.diag(lam).astype(complex)),
                          PsdOperator(np.diag(mu).astype(complex))))
        lam_mix = sum(w * lam for w, lam in zip(ws, lams))
        mu_mix = sum(w * mu for w, mu in zip(ws, mus))
        scalar = ((mu_mix ** p * lam_mix ** (1 - p)).sum()
                  - sum(w * (mu ** p * lam ** (1 - p)).sum()
                        for w, lam, mu in zip(ws, lams, mus))) / (p * (1 - p))
        rep, = verify_wyd_joint_concavity_block(p, [comps], [np.eye(2)], 0.5)
        assert rep.details["gap"] == pytest.approx(scalar, abs=1e-12)
        assert rep.passed

    @pytest.mark.parametrize("weights", [(0.7, 0.7), (-0.5, 1.5), (0.5, float("nan"))])
    @pytest.mark.parametrize("check", ["wyd_joint_concavity", "joint_convexity"])
    def test_weights_must_be_positive_and_sum_to_one(self, check, weights):
        rng = np.random.default_rng(23)
        comps = [(w, random_density(2, seed=rng), random_density(2, seed=rng)) for w in weights]
        with pytest.raises(InvalidParameter, match="weights"):
            if check == "joint_convexity":
                verify_joint_convexity_block(NEG_LOG, [comps], [np.eye(2)], 0.5)
            else:
                verify_wyd_joint_concavity_block(0.5, [comps], [np.eye(2)], 0.5)

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.5, -0.5])
    def test_sign_carried_through(self, p):
        for seed in range(10):
            rng = np.random.default_rng(6000 + seed)
            probs = rng.dirichlet(np.ones(3))
            comps = [(float(w), random_density(2, seed=rng),
                      random_density(2, seed=rng)) for w in probs]
            k = random_contraction(2, seed=rng)
            rep, = verify_wyd_joint_concavity_block(p, [comps], [k], 0.5)
            assert rep.passed, f"p={p} seed={seed}"

    def test_operator_variant(self):
        for seed in range(8):
            rng = np.random.default_rng(7000 + seed)
            rho = random_density(8, seed=rng)
            sab = random_density(4, seed=rng)
            rep = verify_wyd_operator_block(0.5, [rho], [sab], 0.5, SPACE3)[0]
            assert rep.passed, f"seed {seed}"

    def test_operator_rhs_closed_form(self):
        # traced action difference equals the power trace difference operator
        p = 0.4
        rho = random_density(8, seed=23)
        sab = random_density(4, seed=24)
        rhs = operator_ssa_block_sides(make_f_p(p), [rho], [sab], 0.5, "cor65", SPACE3)[1][0]
        sub_ab = SPACE3.subspace((0, 1))
        sb = PsdOperator(sub_ab.partial_trace(sab.mat, (1,)))
        rho_bc = PsdOperator(SPACE3.partial_trace(rho.mat, (1, 2)))
        sub_bc = SPACE3.subspace((1, 2))
        t1 = SPACE3.partial_trace(
            PsdOperator(rho.mat).power(1 - p) @ SPACE3.embed(sab.power(p), (0, 1)),
            (2,))
        t2 = sub_bc.partial_trace(
            rho_bc.power(1 - p) @ sub_bc.embed(sb.power(p), (0,)), (1,))
        expected = hermitize(t2 - t1) / (p * (1 - p))
        np.testing.assert_allclose(rhs, expected, atol=1e-9)


class TestReportedConstants:
    """Each report carries the ``constants_for`` record at its trial's norms, changed only as
    documented: T* set at thm42's interior optimum, M = N^{-alpha} for ssa and the operator-SSA
    family, nothing for wyd_joint_concavity (``power_family_constants``).  Each seeded block has
    a trial whose envelope M differs from N^{-alpha}, so a swapped convention fails."""

    BETA = 0.25

    def assert_reported(self, reports, wants, m_from_n):
        assert any(want.M != want.N ** (-want.alpha) for want in wants)
        for rep, want in zip(reports, wants, strict=True):
            if m_from_n:
                want = dataclasses.replace(want, M=want.N ** (-want.alpha))
            assert json.dumps(rep.constants.as_dict()) == json.dumps(want.as_dict())

    def test_thm42_sets_the_interior_t_star(self):
        rng = np.random.default_rng(31)
        rhos, sigmas = ([random_density(4, seed=rng) for _ in range(4)] for _ in range(2))
        k1s = [random_contraction(2, seed=rng) for _ in range(4)]
        vs = [random_unitary(2, seed=rng) for _ in range(4)]
        reports = verify_thm42_block(NEG_LOG, rhos, sigmas, k1s, vs, self.BETA, SPACE)
        wants = []
        for rep, rho, sigma, k1 in zip(reports, rhos, sigmas, k1s):
            k_norm, d_norm = op_norm(k1), ModularOperator(sigma, rho).op_norm()
            t_star = optimize_T_scalar(NEG_LOG, self.BETA, k_norm, d_norm,
                                       rep.details["gap"]).T_star
            assert not rep.constants.boundary and T_MIN < t_star
            wants.append(dataclasses.replace(
                constants_for(NEG_LOG, self.BETA, k_norm, d_norm), T_star=t_star))
        self.assert_reported(reports, wants, m_from_n=False)

    def test_ssa_reports_m_from_n(self):
        rng = np.random.default_rng(32)
        rhos = [random_density(8, seed=rng) for _ in range(4)]
        wants = []
        for rho in rhos:
            rho_ab, rho_c = (rho.marginal(SPACE3, keep) for keep in ((0, 1), (2,)))
            d_norm = rho_ab.max_eig() * rho_c.max_eig() / rho.min_positive_eig()
            wants.append(constants_for(NEG_LOG, self.BETA, 1.0, d_norm))
        self.assert_reported(verify_ssa_block(rhos, self.BETA, SPACE3), wants, m_from_n=True)

    def test_operator_ssa_reports_m_from_n(self):
        rng = np.random.default_rng(33)
        rhos = [random_density(8, seed=rng) for _ in range(4)]
        sabs = [random_density(4, seed=rng) for _ in range(4)]
        wants = [constants_for(NEG_LOG, self.BETA, 1.0, sab.max_eig() / rho.min_positive_eig())
                 for rho, sab in zip(rhos, sabs)]
        self.assert_reported(verify_operator_ssa_block(NEG_LOG, rhos, sabs, self.BETA, "thm62",
                                                       SPACE3), wants, m_from_n=True)

    def test_wyd_joint_concavity_reports_the_power_family_record(self):
        p, rng = 0.25, np.random.default_rng(34)
        ks = [random_contraction(2, seed=rng) for _ in range(4)]
        ensembles = [[(float(w), random_density(2, seed=rng), random_density(2, seed=rng))
                      for w in rng.dirichlet(np.ones(3))] for _ in range(4)]
        wants = [power_family_constants(p, self.BETA, op_norm(k),
                                        sum(w / rj.min_positive_eig() for w, rj, _ in comps))
                 for comps, k in zip(ensembles, ks)]
        self.assert_reported(verify_wyd_joint_concavity_block(p, ensembles, ks, self.BETA),
                             wants, m_from_n=False)


class TestCauchySchwarz:
    def test_random_full_rank(self):
        for seed in range(10):
            rng = np.random.default_rng(8000 + seed)
            rho = random_density(8, seed=rng)
            sab = random_density(4, seed=rng)
            rep, = verify_cauchy_schwarz_block([rho], [sab], 0.5, SPACE3)
            assert rep.passed, f"seed {seed}"

    def test_equality_instance_triggers_recovery(self):
        sab = random_density(4, seed=25)
        tau = random_density(2, seed=26)
        rho = np.kron(sab.mat, tau.mat)
        rep, = verify_cauchy_schwarz_block([rho], [sab], 0.5, SPACE3)
        assert rep.passed
        assert abs(rep.details["min_eig_diff"]) < 1e-10
        assert rep.details["petz_recovery_residual"] < 1e-8

    def test_rank_deficient_refused(self):
        rho = random_density(8, rank=4, seed=27)
        sab = random_density(4, seed=28)
        with pytest.raises(DivergentEntropy):
            verify_cauchy_schwarz_block([rho], [sab], 0.5, SPACE3)

    def test_lieb_ruskai(self):
        for seed in range(10):
            rng = np.random.default_rng(9000 + seed)
            x = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            q = random_density(6, seed=rng).mat * 6.0
            rep, = lieb_ruskai_block([x], [q], FactorizedSpace((2, 3)))
            assert rep.passed, f"seed {seed}"


class TestPinskerAndClassical:
    def test_pinsker_report(self):
        rho = random_density(3, seed=29)
        sig = random_density(3, seed=30)
        u = random_unitary(3, seed=31)
        for f in (NEG_LOG, make_f_p(0.5), make_f_p(1.5)):
            rep, = pinsker_block(f, [rho], [sig], [u])
            assert rep.passed

    def test_divergent_vacuous(self):
        # a divergent entropy is raised, so the campaign records the trial as divergent
        rho = random_density(2, seed=32)
        sig = random_density(2, rank=1, seed=33)
        with pytest.raises(DivergentEntropy):
            pinsker_block(NEG_LOG, [rho], [sig], [np.eye(2)])

    def test_classical_reduction_report(self):
        rho = random_density(3, seed=34)
        sig = random_density(3, seed=35)
        rep, = classical_reduction_block(NEG_LOG, [rho], [sig])
        assert rep.passed
        assert rep.details["l1_mismatch"] < 1e-10


class TestEqualitySuite:
    def test_all_three_families(self):
        rng = np.random.default_rng(36)
        reports = equality_suite(NEG_LOG, rng)
        assert len(reports) == 12  # 3 families x (exact + 3 eps rows)
        assert all(r.passed for r in reports)
        by_family = {}
        for r in reports:
            by_family.setdefault(r.inequality_id, []).append(r)
        assert set(by_family) == {"equality_monotonicity",
                                  "equality_joint_convexity",
                                  "equality_operator_ssa"}
        for fam, reps in by_family.items():
            eps0 = reps[0]
            assert eps0.details["gap"] < 1e-10, fam
            assert eps0.details["equality_residual"] < 1e-8, fam
            gaps = [r.details["gap"] for r in reps]
            resids = [r.details["equality_residual"] for r in reps]
            assert gaps == sorted(gaps), fam
            assert resids == sorted(resids), fam

    def test_operator_ssa_forward_implication(self):
        # vanishing traced difference forces the recovery-grid residual small
        from qre.equality import operator_ssa_equality_residuals
        sab = random_density(4, seed=40)
        tau = random_density(2, seed=41)
        rho = np.kron(sab.mat, tau.mat)
        rhs = operator_ssa_block_sides(NEG_LOG, [rho], [sab.mat], 0.5, "thm62", SPACE3)[1][0]
        assert abs(np.trace(rhs).real) < 1e-10
        resid, = operator_ssa_equality_residuals([rho], [sab.mat], SPACE3)
        assert resid < 1e-8


def test_psd_power_zeroes_below_cutoff():
    m = np.diag([1e-30, 4.0]).astype(complex)
    out = PsdOperator(m).power(4.0)
    np.testing.assert_allclose(out, np.diag([0.0, 256.0]), atol=1e-12)


def test_ssa_gap_matches_entropy_combination():
    rho = random_density(8, seed=37)
    s_ab = von_neumann_entropy(SPACE3.partial_trace(rho.mat, (0, 1)))
    s_bc = von_neumann_entropy(SPACE3.partial_trace(rho.mat, (1, 2)))
    s_b = von_neumann_entropy(SPACE3.partial_trace(rho.mat, (1,)))
    s_abc = von_neumann_entropy(rho)
    assert ssa_gap(rho, SPACE3) == pytest.approx(s_ab + s_bc - s_abc - s_b, abs=1e-12)
