"""Petz map, monotonicity residuals, equality diagnostics, SSA residuals."""

import numpy as np
import pytest

from qre.errors import InvalidParameter, ShapeMismatch
from qre.linalg import (
    FactorizedSpace,
    PsdOperator,
    hermitize,
    hs_norm,
    op_norm,
    random_contraction,
    random_density,
    random_unitary,
    trace_norm,
)
from qre.recovery import (
    equality_condition_residuals,
    monotonicity_residuals,
    petz_recover,
    ssa_residuals_P,
    ssa_residuals_Q,
)

SPACE = FactorizedSpace((2, 2))
SPACE3 = FactorizedSpace((2, 2, 2))


class TestPetzRecover:
    def test_product_fixed_point(self):
        r1 = random_density(2, seed=1)
        r2 = random_density(2, seed=2)
        rho = np.kron(r1.mat, r2.mat)
        out = petz_recover(rho, r1.mat, SPACE, keep=(0,))
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_recovers_state_from_own_marginal(self):
        rho = random_density(4, seed=3)
        gamma = SPACE.partial_trace(rho.mat, (0,))
        np.testing.assert_allclose(petz_recover(rho, gamma, SPACE, keep=(0,)),
                                   rho.mat, atol=1e-12)

    def test_matches_dense_triple_product(self):
        rho = random_density(4, seed=4)
        gamma = random_density(2, seed=5).mat
        rho1 = PsdOperator(SPACE.partial_trace(rho.mat, (0,)))
        inv_half = rho1.power(-0.5)
        expected = rho.power(0.5) @ np.kron(inv_half @ gamma @ inv_half,
                                            np.eye(2)) @ rho.power(0.5)
        out = petz_recover(rho, gamma, SPACE, keep=(0,))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_trace_rule_on_support(self):
        # Tr R_rho(gamma) equals the overlap of gamma with the marginal's support
        rho = random_density(4, rank=2, seed=6)
        gamma = random_density(2, seed=7).mat
        rho1 = PsdOperator(SPACE.partial_trace(rho.mat, (0,)))
        expected = np.trace(gamma @ rho1.support_projector()).real
        out = petz_recover(rho, gamma, SPACE, keep=(0,))
        assert abs(np.trace(out).real - expected) < 1e-10

    def test_recover_last_factors(self):
        rho = random_density(8, seed=8)
        gamma = SPACE3.partial_trace(rho.mat, (1, 2))
        out = petz_recover(rho, gamma, SPACE3, keep=(1, 2))
        np.testing.assert_allclose(out, rho.mat, atol=1e-11)

    def test_shape_mismatch(self):
        rho = random_density(4, seed=9)
        with pytest.raises(ShapeMismatch):
            petz_recover(rho, np.eye(3), SPACE, keep=(0,))


class TestMonotonicityResidual:
    def test_equal_states_vanish_for_identity_weight(self):
        # with K = I both terms reduce to rho^{1/2}; a noncommuting K leaves a
        # genuine skew remainder even at sigma = rho
        rho = random_density(4, seed=10)
        (resid,), (norm,) = monotonicity_residuals([rho], [rho], [np.eye(2)], SPACE, 0.5,
                                                   [np.eye(2)])
        assert norm < 1e-12
        np.testing.assert_allclose(resid, np.zeros((4, 4)), atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2])
    def test_beta_outside_open_unit_interval(self, beta):
        rho = random_density(4, seed=11)
        with pytest.raises(InvalidParameter):
            monotonicity_residuals([rho], [rho], [np.eye(2)], SPACE, beta, [np.eye(2)])

    def test_product_equality_case(self):
        r1 = random_density(2, seed=12)
        s1 = random_density(2, seed=13)
        tau = random_density(2, seed=14)
        rho = np.kron(r1.mat, tau.mat)
        sig = np.kron(s1.mat, tau.mat)
        for beta in (0.25, 0.5, 0.75):
            _, (norm,) = monotonicity_residuals([rho], [sig], [np.eye(2)], SPACE, beta,
                                                [np.eye(2)])
            assert norm < 1e-12

    def test_recovery_chain_half_exponent(self):
        # ||R_{1/2}||_2 >= 1/2 || Petz(K1* sigma_1 K1) - K* sigma K ||_1
        for seed in range(25):
            rng = np.random.default_rng(seed)
            rho = random_density(4, seed=rng)
            sig = random_density(4, seed=rng)
            k1 = random_contraction(2, seed=rng)
            v = random_unitary(2, seed=rng)
            _, (rnorm,) = monotonicity_residuals([rho], [sig], [k1], SPACE, 0.5, vs=[v])
            sigma1 = SPACE.partial_trace(sig.mat, (0,))
            rec = petz_recover(rho, hermitize(k1.conj().T @ sigma1 @ k1), SPACE, (0,))
            k_full = np.kron(k1, v)
            target = hermitize(k_full.conj().T @ sig.mat @ k_full)
            assert rnorm >= 0.5 * trace_norm(rec - target) - 1e-10

    def test_embedding_matches_direct_formula(self):
        rho = random_density(4, seed=15)
        sig = random_density(4, seed=16)
        k1 = random_contraction(2, seed=17)
        v = random_unitary(2, seed=18)
        beta = 0.3
        (resid,), _ = monotonicity_residuals([rho], [sig], [k1], SPACE, beta, vs=[v])
        rho1 = PsdOperator(SPACE.partial_trace(rho.mat, (0,)))
        sig1 = PsdOperator(SPACE.partial_trace(sig.mat, (0,)))
        k_full = np.kron(k1, v)
        direct = (np.kron(sig1.power(beta), np.eye(2)) @ k_full
                  @ np.kron(rho1.power(-beta), np.eye(2)) @ rho.power(0.5)
                  - sig.power(beta) @ k_full @ rho.power(0.5 - beta))
        np.testing.assert_allclose(resid, direct, atol=1e-12)


class TestEqualityConditionResidual:
    def test_equal_states(self):
        rho = random_density(4, seed=19)
        k = np.eye(4)
        assert equality_condition_residuals([rho], [rho], [k], SPACE)[0] < 1e-10

    def test_product_construction(self):
        r1 = random_density(2, seed=21)
        s1 = random_density(2, seed=22)
        tau = random_density(2, seed=23)
        rho = np.kron(r1.mat, tau.mat)
        sig = np.kron(s1.mat, tau.mat)
        k = np.kron(random_contraction(2, seed=24), np.eye(2))
        assert equality_condition_residuals([rho], [sig], [k], SPACE)[0] < 1e-10

    def test_grows_with_perturbation(self):
        r1 = random_density(2, seed=25)
        s1 = random_density(2, seed=26)
        tau = random_density(2, seed=27)
        noise = random_density(4, seed=28)
        rho = np.kron(r1.mat, tau.mat)
        k = np.kron(np.eye(2), np.eye(2))
        values = []
        for eps in (0.0, 1e-3, 1e-2, 1e-1):
            sig = hermitize((1 - eps) * np.kron(s1.mat, tau.mat) + eps * noise.mat)
            values.append(equality_condition_residuals([rho], [sig], [k], SPACE)[0])
        assert values[0] < 1e-10
        assert values[0] < values[1] < values[2] < values[3]


class TestSsaResiduals:
    def test_markov_product_case_vanishes(self):
        rho_ab = random_density(4, seed=29)
        rho_c = random_density(2, seed=30)
        rho = np.kron(rho_ab.mat, rho_c.mat)
        for beta in (0.25, 0.5, 0.75):
            p = ssa_residuals_P([rho], [rho_ab.mat], SPACE3, beta)[0]
            assert hs_norm(p) < 1e-10

    def test_gram_is_psd(self):
        rho = random_density(8, seed=31)
        sab = random_density(4, seed=32)
        p = ssa_residuals_P([rho.mat], [sab.mat], SPACE3, 0.5)[0]
        gram = SPACE3.partial_trace(p @ p.conj().T, (2,))
        assert np.linalg.eigvalsh(hermitize(gram)).min() > -1e-12

    def test_one_dimensional_middle_factor(self):
        # with a trivial B the residual collapses to the two-factor form
        space = FactorizedSpace((2, 1, 3))
        rho_ac = random_density(6, seed=33)
        sigma_a = random_density(2, seed=34)
        beta = 0.4
        p = ssa_residuals_P([rho_ac.mat], [sigma_a.mat], space, beta)[0]
        rho_c = PsdOperator(space.partial_trace(rho_ac.mat, (2,)))
        direct = (np.kron(np.eye(2), rho_c.power(-beta)) @ rho_ac.power(0.5)
                  - np.kron(PsdOperator(sigma_a.mat).power(beta), np.eye(3))
                  @ rho_ac.power(0.5 - beta))
        np.testing.assert_allclose(p, direct, atol=1e-11)

    def test_q_residual_matches_dense_formula(self):
        rho_ab = random_density(4, seed=35)
        sig = random_density(8, seed=36)
        beta = 0.35
        q = ssa_residuals_Q([rho_ab.mat], [sig.mat], SPACE3, beta)[0]
        sub_ab = SPACE3.subspace((0, 1))
        rho_b = PsdOperator(sub_ab.partial_trace(rho_ab.mat, (1,)))
        sig_bc = PsdOperator(SPACE3.partial_trace(sig.mat, (1, 2)))
        direct = (np.kron(np.eye(2), sig_bc.power(beta))
                  @ np.kron(np.kron(np.eye(2), rho_b.power(-beta)), np.eye(2))
                  @ np.kron(PsdOperator(rho_ab.mat).power(0.5), np.eye(2))
                  - PsdOperator(sig.mat).power(beta)
                  @ np.kron(PsdOperator(rho_ab.mat).power(0.5 - beta), np.eye(2)))
        np.testing.assert_allclose(q, direct, atol=1e-11)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_beta_outside_the_open_interval_rejected(self, beta):
        rho = random_density(8, seed=37).mat
        sab = random_density(4, seed=38).mat
        for residual in (lambda: ssa_residuals_P([rho], [sab], SPACE3, beta)[0],
                         lambda: ssa_residuals_Q([sab], [rho], SPACE3, beta)[0]):
            with pytest.raises(InvalidParameter, match="strictly inside"):
                residual()
