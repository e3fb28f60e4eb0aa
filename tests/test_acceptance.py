"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible under ``pytest -s``); the
assertions carry the tolerances, so a failure is always a hard red.
Budgeted runtimes are asserted only where a criterion states one.
"""

import io
import math
import time

import numpy as np
import pytest

from qre import bounds
from qre.bounds import (
    alpha_exponent,
    monotonicity_gap,
    pinsker_block,
    ssa_gap,
    verify_cauchy_schwarz_block,
    verify_joint_convexity_block,
    verify_monotonicity_bound_block,
    verify_operator_ssa_block,
    verify_ssa_block,
    verify_thm42_block,
    verify_wyd_joint_concavity_block,
    verify_wyd_operator_block,
)
from qre.campaign import CampaignConfig, run_campaign
from qre.equality import equality_suite
from qre.cli import main as cli_main
from qre.entropy import (
    classical_reduction,
    quasi_relative_entropy,
    trace_distance_pair,
    umegaki,
    wyd_skew_information,
)
from qre.functions import from_id, loewner_quadrature, make_f_p, make_neg_log
from qre.linalg import (
    FactorizedSpace,
    PsdOperator,
    hermitize,
    random_contraction,
    random_density,
    random_hermitian,
    random_unitary,
    trace_norm,
)
from qre.recovery import equality_condition_residuals

NEG_LOG = make_neg_log()
F_HALF = make_f_p(0.5)
SPACE = FactorizedSpace((2, 2))
SPACE3 = FactorizedSpace((2, 2, 2))


def report(criterion, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance {criterion}: {extra}")
    assert passed, f"acceptance {criterion} failed: {extra}"


def test_criterion_01_integral_representation_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for fid in ("neg_log", "f_p:0.3", "f_p:0.5", "f_p:0.7"):
        f = from_id(fid)
        for x in np.geomspace(0.1, 10.0, 21):
            worst = max(worst, abs(loewner_quadrature(f, float(x)) - float(f(x))))
    elapsed = time.perf_counter() - t0
    report("1 integral representation", worst < 1e-6 and elapsed < 5.0,
           f"max err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_spectral_formula_equivalence():
    t0 = time.perf_counter()
    worst_log, worst_pow = 0.0, 0.0
    for dim in (2, 3):
        rng = np.random.default_rng(100 + dim)
        for _ in range(1000):
            rho = random_density(dim, seed=rng)
            sig = random_density(dim, seed=rng)
            k = random_contraction(dim, seed=rng)
            worst_log = max(worst_log, abs(
                quasi_relative_entropy(NEG_LOG, np.eye(dim), rho, sig)
                - umegaki(rho, sig)))
            p = 0.5
            closed = (np.trace(k @ rho.mat @ k.conj().T).real
                      - np.trace(k.conj().T @ sig.power(p) @ k
                                 @ rho.power(1 - p)).real) / (p * (1 - p))
            worst_pow = max(worst_pow, abs(
                quasi_relative_entropy(F_HALF, k, rho, sig) - closed))
    elapsed = time.perf_counter() - t0
    report("2 spectral formula", worst_log < 1e-9 and worst_pow < 1e-9
           and elapsed < 30.0,
           f"log err {worst_log:.2e}, power err {worst_pow:.2e}, {elapsed:.1f}s")


def test_criterion_03_monotonicity_campaign():
    t0 = time.perf_counter()
    worst = math.inf
    for f in (NEG_LOG, F_HALF):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            k1 = random_contraction(2, seed=rng)
            v = random_unitary(2, seed=rng)
            worst = min(worst, monotonicity_gap(f, k1, v, rho, sig, SPACE))
    elapsed = time.perf_counter() - t0
    report("3 monotonicity 2x10^4 trials", worst >= -1e-9 and elapsed < 120.0,
           f"worst gap {worst:.3e}, {elapsed:.1f}s")


def test_criterion_04_remainder_bound_on_T_grid():
    worst_margin = math.inf
    count = 0
    for f in (NEG_LOG, F_HALF):
        for beta in (0.25, 0.5, 0.75):
            rng = np.random.default_rng(4)
            for _ in range(1000):
                rho = random_density(4, seed=rng)
                sig = random_density(4, seed=rng)
                k1 = random_contraction(2, seed=rng)
                v = random_unitary(2, seed=rng)
                rep = verify_thm42_block(f, [rho], [sig], [k1], [v], beta, SPACE)[0]
                count += 1
                worst_margin = min(worst_margin, rep.gap)
                assert rep.passed, f"{f.name} beta={beta}: {rep.details}"
    report("4 explicit remainder on T grid", True,
           f"{count} instances, worst margin {worst_margin:.3e}")


def test_criterion_05_petz_form_bounds():
    worst = math.inf
    for f in (NEG_LOG, F_HALF):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            k1 = random_contraction(2, seed=rng)
            v = random_unitary(2, seed=rng)
            rep = verify_monotonicity_bound_block(f, [rho], [sig], [k1], [v], 0.5, SPACE)[0]
            assert rep.passed, rep.details
            assert "petz_diff_trace" in rep.details
            worst = min(worst, rep.gap)
    rng = np.random.default_rng(55)
    for _ in range(1000):
        rho = random_density(4, seed=rng)
        sig = random_density(4, seed=rng)
        rep = verify_monotonicity_bound_block(NEG_LOG, [rho], [sig], [np.eye(2)], [np.eye(2)],
                                              0.5, SPACE)[0]
        assert rep.passed and "quartic_lower" in rep.details
    report("5 recovery-map bounds", True, f"worst power-law margin {worst:.3e}")


def test_criterion_06_equality_characterization():
    rng = np.random.default_rng(6)
    for trial in range(100):
        r1 = random_density(2, seed=rng)
        s1 = random_density(2, seed=rng)
        tau = random_density(2, seed=rng)
        k1 = random_contraction(2, seed=rng)
        rho = np.kron(r1.mat, tau.mat)
        sig = np.kron(s1.mat, tau.mat)
        gap = monotonicity_gap(NEG_LOG, k1, np.eye(2), rho, sig, SPACE)
        resid = equality_condition_residuals([rho], [sig], [np.kron(k1, np.eye(2))], SPACE)[0]
        assert abs(gap) < 1e-10, f"trial {trial}: gap {gap}"
        assert resid < 1e-8, f"trial {trial}: residual {resid}"
    # perturbation sweep over the three equality families: co-monotone growth
    for trial in range(25):
        reports = equality_suite(NEG_LOG, rng)
        assert all(r.passed for r in reports), f"sweep {trial}"
    report("6 equality characterization", True,
           "100 equality instances + 25 three-family perturbation sweeps")


def test_criterion_07_joint_convexity():
    worst = math.inf
    for f in (NEG_LOG, F_HALF):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            probs = rng.dirichlet(np.ones(3))
            comps = [(float(w), random_density(2, seed=rng),
                      random_density(2, seed=rng)) for w in probs]
            k = random_contraction(2, seed=rng)
            rep = verify_joint_convexity_block(f, [comps], [k], 0.5)[0]
            assert rep.passed, rep.details
            assert rep.details["gap"] >= -1e-9
            worst = min(worst, rep.details["gap"])
    report("7 joint convexity", True, f"2000 ensembles, smallest gap {worst:.3e}")


def test_criterion_08_ssa_and_operator_ssa():
    rng = np.random.default_rng(8)
    worst_gap = math.inf
    for _ in range(1000):
        rho = random_density(8, seed=rng)
        worst_gap = min(worst_gap, ssa_gap(rho, SPACE3))
    assert worst_gap >= -1e-9
    for _ in range(200):
        rho = random_density(8, seed=rng)
        rep, = verify_ssa_block([rho], 0.5, SPACE3)
        assert rep.passed, rep.details
    for f in (NEG_LOG, F_HALF):
        for variant in ("thm62", "thm63", "cor64", "cor65"):
            for beta in (0.25, 0.5, 0.75):
                for _ in range(50):
                    rho = random_density(8, seed=rng)
                    sab = random_density(4, seed=rng)
                    rep = verify_operator_ssa_block(f, [rho], [sab], beta, variant, SPACE3)[0]
                    assert rep.passed, f"{f.name} {variant} b={beta}: {rep.details}"
    # traced consistency of the log variant at sigma_AB = rho_AB
    worst_tr = 0.0
    for _ in range(100):
        rho = random_density(8, seed=rng)
        rho_ab = SPACE3.partial_trace(rho.mat, (0, 1))
        rhs = bounds.operator_ssa_block_sides(NEG_LOG, [rho], [rho_ab], 0.5,
                                              "thm62", SPACE3)[1][0]
        worst_tr = max(worst_tr, abs(np.trace(rhs).real - ssa_gap(rho, SPACE3)))
    report("8 SSA and operator SSA", worst_tr < 1e-8,
           f"worst scalar gap {worst_gap:.3e}, trace mismatch {worst_tr:.2e}")


def test_criterion_09_constant_wiring(capsys):
    code = cli_main(["bounds", "constants", "--f", "neg_log", "--beta", "0.5"])
    out = dict(line.split("=") for line in capsys.readouterr().out.split())
    with capsys.disabled():
        assert code == 0
        assert float(out["alpha"]) == 0.25
        assert float(out["C"]) == 1.0
        assert float(out["c"]) == 0.0
        # branch agreement at beta = 1/2 for the log and the power family
        for c in (0.0, 0.125, 0.25, 0.375):
            lo = 0.5 * 0.5 / (1.0 + 2.0 * c * 0.5)
            hi = 0.5 * 0.5 / (1.0 + c)
            assert abs(lo - hi) <= 1e-12 * max(lo, hi)
        assert alpha_exponent(0.5, 0.25) == pytest.approx(0.2, abs=1e-15)
        report("9 constant wiring", True, "alpha=0.25 C=1 c=0; branches agree")


def test_criterion_10_pinsker_and_classical_reduction():
    rng = np.random.default_rng(10)
    fns = (NEG_LOG, F_HALF, make_f_p(1.5))
    worst = math.inf
    for _ in range(10_000):
        dim = 2 if rng.random() < 0.7 else 3
        rho = random_density(dim, seed=rng)
        sig = random_density(dim, seed=rng)
        u = random_unitary(dim, seed=rng)
        for f in fns:
            rep, = pinsker_block(f, [rho], [sig], [u])
            assert rep.passed
            worst = min(worst, rep.gap)
    worst_l1 = 0.0
    for _ in range(1000):
        rho = random_density(3, seed=rng)
        sig = random_density(3, seed=rng)
        (p, q, div), = classical_reduction(NEG_LOG, [rho], [sig])
        worst_l1 = max(worst_l1, abs(trace_distance_pair(p, q)
                                     - trace_norm(rho.mat - sig.mat)))
        assert div <= umegaki(rho, sig) + 1e-9
    report("10 Pinsker + classical reduction", worst_l1 < 1e-10,
           f"worst margin {worst:.3e}, l1 mismatch {worst_l1:.2e}")


def test_criterion_11_wyd_family():
    rng = np.random.default_rng(11)
    worst_skew = math.inf
    for p in (0.25, 0.5, 0.75):
        for _ in range(1000):
            rho = random_density(3, seed=rng)
            k = random_hermitian(3, seed=rng)
            worst_skew = min(worst_skew, wyd_skew_information(p, rho, k))
    assert worst_skew >= -1e-10
    for _ in range(300):
        probs = rng.dirichlet(np.ones(3))
        comps = [(float(w), random_density(2, seed=rng),
                  random_density(2, seed=rng)) for w in probs]
        k = random_contraction(2, seed=rng)
        rep, = verify_wyd_joint_concavity_block(0.5, [comps], [k], 0.5)
        assert rep.passed, rep.details
    for _ in range(200):
        rho = random_density(8, seed=rng)
        sab = random_density(4, seed=rng)
        assert verify_wyd_operator_block(0.5, [rho], [sab], 0.5, SPACE3)[0].passed
        assert verify_cauchy_schwarz_block([rho], [sab], 0.5, SPACE3)[0].passed
    # equality instance triggers the recovery condition
    sab = random_density(4, seed=rng)
    tau = random_density(2, seed=rng)
    rep, = verify_cauchy_schwarz_block([np.kron(sab.mat, tau.mat)], [sab], 0.5, SPACE3)
    report("11 WYD family", rep.details["petz_recovery_residual"] < 1e-8,
           f"worst skew {worst_skew:.3e}, "
           f"CS recovery residual {rep.details['petz_recovery_residual']:.2e}")


def test_criterion_12_campaign_determinism():
    config = CampaignConfig(
        inequalities=("monotonicity", "ssa", "pinsker"),
        functions=("neg_log", "f_p:0.5"),
        dims=((2, 2), (2, 2, 2)),
        betas=(0.5,),
        trials=500,
        seed=2026,
    )
    out1, out2 = io.StringIO(), io.StringIO()
    s1 = run_campaign(config, stream=out1)
    s2 = run_campaign(config, stream=out2)
    identical = out1.getvalue() == out2.getvalue()
    report("12 determinism", identical and s1.failures == 0 and s2.failures == 0,
           f"{s1.reports} reports, byte-identical rerun={identical}, "
           f"failures={s1.failures}")
