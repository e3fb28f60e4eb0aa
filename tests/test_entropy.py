"""Modular operator, spectral formula, special cases, classical reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qre.bounds import wyd_skew_block
from qre.entropy import (
    ModularOperator,
    apply_f_modulars,
    classical_reduction,
    effective_eigs,
    pinsker_sides,
    quasi_relative_entropy,
    trace_distance_pair,
    umegaki,
    von_neumann_entropy,
    wyd_skew_information,
)
from qre.errors import DivergentEntropy, InvalidMatrix, SingularArgument
from qre.functions import OperatorConvexFunction, make_f_p, make_neg_log
from qre.linalg import (
    DensityMatrix,
    PsdOperator,
    hermitize,
    random_contraction,
    random_density,
    random_hermitian,
    random_unitary,
    trace_norm,
)

NEG_LOG = make_neg_log()
DIAG_RHO = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
DIAG_SIG = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
# Umegaki value of the diagonal fixture, frozen from the scalar formula
DIAG_VALUE = 0.5 * math.log(4.0 / 3.0)


def raw_power_function(beta):
    """x**beta wrapped for the modular calculus (not convex; calculus only)."""
    return OperatorConvexFunction(
        name=f"pow{beta:g}", eval_fn=lambda x: x ** beta,
        second_at_one=beta * (beta - 1.0), at_zero=0.0, recession=math.inf,
        normalized=False)


class TestModularOperator:
    def test_apply_matches_direct_product(self):
        rho = random_density(3, seed=1)
        sig = random_density(3, seed=2)
        x = random_hermitian(3, seed=3)
        delta = ModularOperator(sig, rho)
        np.testing.assert_allclose(delta.apply(x),
                                   sig.mat @ x @ np.linalg.inv(rho.mat), atol=1e-9)

    def test_op_norm(self):
        rho = PsdOperator(np.diag([0.2, 0.8]).astype(complex))
        sig = PsdOperator(np.diag([0.9, 0.1]).astype(complex))
        assert ModularOperator(sig, rho).op_norm() == pytest.approx(0.9 / 0.2)

    def test_generalized_inverse_on_support(self):
        rho = random_density(3, rank=2, seed=4)
        sig = random_density(3, seed=5)
        x = random_hermitian(3, seed=6)
        delta = ModularOperator(sig, rho)
        np.testing.assert_allclose(delta.apply(x), sig.mat @ x @ rho.power(-1.0),
                                   atol=1e-9)


class TestApplyFModular:
    def test_equal_maximally_mixed_gives_zero(self):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3)
        x = random_hermitian(3, seed=7)
        out = apply_f_modulars(NEG_LOG, [rho], [rho], [x])[0]
        np.testing.assert_allclose(out, np.zeros((3, 3)), atol=1e-12)

    def test_power_action_equals_matrix_powers(self):
        # f = x^b turns the modular action on rho^{1/2} into sigma^b rho^{1/2-b}
        rho = random_density(4, seed=8)
        sig = random_density(4, seed=9)
        for beta in (0.25, 0.5, 0.75):
            out = apply_f_modulars(raw_power_function(beta), [sig], [rho], [rho.power(0.5)])[0]
            expected = sig.power(beta) @ rho.power(0.5 - beta)
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_umegaki_integrand_on_commuting_diagonals(self):
        out = apply_f_modulars(NEG_LOG, [DIAG_SIG], [DIAG_RHO], [DIAG_RHO.power(0.5)])[0]
        val = np.trace(DIAG_RHO.power(0.5) @ out).real
        assert abs(val - DIAG_VALUE) < 1e-12

    def test_singular_argument(self):
        rho = random_density(2, seed=10)
        sig = PsdOperator(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(SingularArgument):
            apply_f_modulars(NEG_LOG, [sig], [rho], [np.eye(2, dtype=complex)])

    def test_dimension_mismatch(self):
        rho, sig = random_density(2, seed=10), random_density(2, seed=11)
        with pytest.raises(InvalidMatrix, match="operand dimension"):
            apply_f_modulars(NEG_LOG, [sig], [rho], [np.eye(3, dtype=complex)])
        with pytest.raises(InvalidMatrix, match="different spaces"):
            apply_f_modulars(NEG_LOG, [random_density(3, seed=12)], [rho], [np.eye(2)])


class TestSpectralFormula:
    def test_equal_states_vanish(self):
        rho = random_density(4, seed=11)
        assert abs(quasi_relative_entropy(NEG_LOG, np.eye(4), rho, rho)) < 1e-12

    def test_diagonal_fixture(self):
        val = quasi_relative_entropy(NEG_LOG, np.eye(2), DIAG_RHO, DIAG_SIG)
        assert abs(val - DIAG_VALUE) < 1e-12

    def test_unitary_covariance(self):
        rho = random_density(3, seed=12)
        sig = random_density(3, seed=13)
        u = random_unitary(3, seed=14)
        s_u = quasi_relative_entropy(NEG_LOG, u, rho, sig)
        rotated_rho = DensityMatrix(hermitize(u @ rho.mat @ u.conj().T))
        rotated_sig = hermitize(u.conj().T @ sig.mat @ u)
        s_left = quasi_relative_entropy(NEG_LOG, np.eye(3), rotated_rho, sig)
        s_right = quasi_relative_entropy(NEG_LOG, np.eye(3), rho, rotated_sig)
        assert abs(s_u - s_left) < 1e-9
        assert abs(s_u - s_right) < 1e-9

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_for_unitary_weight(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(3, seed=rng)
        sig = random_density(3, seed=rng)
        u = random_unitary(3, seed=rng)
        assert quasi_relative_entropy(NEG_LOG, u, rho, sig) >= -1e-9

    def test_faithfulness_forward(self):
        sig = random_density(3, seed=15)
        u = random_unitary(3, seed=16)
        rho = DensityMatrix(hermitize(u.conj().T @ sig.mat @ u))
        assert abs(quasi_relative_entropy(NEG_LOG, u, rho, sig)) < 1e-10

    @given(st.floats(0.1, 5.0), st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_scaling(self, c, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(3, seed=rng)
        sig = random_density(3, seed=rng)
        k = random_contraction(3, seed=rng)
        base = quasi_relative_entropy(NEG_LOG, k, rho, sig)
        scaled = quasi_relative_entropy(NEG_LOG, k, PsdOperator(c * rho.mat),
                                        PsdOperator(c * sig.mat))
        assert abs(scaled - c * base) < 1e-9 * max(1.0, abs(base) * c)

    def test_agrees_with_umegaki_on_random_pairs(self):
        for seed in range(50):
            rho = random_density(3, seed=seed)
            sig = random_density(3, seed=seed + 1000)
            lhs = quasi_relative_entropy(NEG_LOG, np.eye(3), rho, sig)
            assert abs(lhs - umegaki(rho, sig)) < 1e-9

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 1.5, -0.5])
    def test_power_family_closed_form(self, p):
        f = make_f_p(p)
        rho = random_density(4, seed=17)
        sig = random_density(4, seed=18)
        k = random_contraction(4, seed=19)
        val = quasi_relative_entropy(f, k, rho, sig)
        closed = (np.trace(k @ rho.mat @ k.conj().T).real
                  - np.trace(k.conj().T @ sig.power(p) @ k
                             @ rho.power(1.0 - p)).real) / (p * (1.0 - p))
        assert abs(val - closed) < 1e-9

    def test_divergent_reports_pair(self):
        rho = random_density(2, seed=20)
        sig = PsdOperator(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(DivergentEntropy) as err:
            quasi_relative_entropy(NEG_LOG, np.eye(2), rho, sig)
        assert err.value.pair is not None

    def test_non_faithful_rho_with_infinite_recession_diverges(self):
        # f'(inf) Tr sigma (I - P_rho) is +inf for f_p:1.5 and 0 for f'(inf) = 0
        rho = random_density(3, rank=2, seed=44)
        sig = random_density(3, seed=45)
        with pytest.raises(DivergentEntropy, match="null mode of rho"):
            quasi_relative_entropy(make_f_p(1.5), np.eye(3), rho, sig)
        for f in (NEG_LOG, make_f_p(0.5)):
            assert np.isfinite(quasi_relative_entropy(f, np.eye(3), rho, sig))
        # a sigma supported inside the support of rho carries no null-mode weight
        inside = PsdOperator(hermitize(rho.power(1.0) @ sig.mat @ rho.power(1.0)))
        assert np.isfinite(quasi_relative_entropy(make_f_p(1.5), np.eye(3), rho, inside))

    def test_degenerate_spectrum_basis_independent(self):
        # identical entropies whatever basis eigh picks inside the degenerate block
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        sig = random_density(4, seed=21)
        k = random_contraction(4, seed=22)
        val = quasi_relative_entropy(NEG_LOG, k, rho, sig)
        u = random_unitary(4, seed=23)
        rho2 = DensityMatrix(hermitize(u @ rho.mat @ u.conj().T))  # still I/4
        val2 = quasi_relative_entropy(NEG_LOG, k, rho2, sig)
        assert abs(val - val2) < 1e-12


class TestUmegaki:
    def test_equal_states(self):
        rho = random_density(3, seed=24)
        assert abs(umegaki(rho, rho)) < 1e-12

    def test_diagonal(self):
        assert abs(umegaki(DIAG_RHO, DIAG_SIG) - DIAG_VALUE) < 1e-14

    def test_pure_in_full_rank(self):
        psi = np.zeros(3, dtype=complex)
        psi[0] = 1.0
        rho = PsdOperator(np.outer(psi, psi.conj()))
        sig = random_density(3, seed=25)
        w, v = np.linalg.eigh(sig.mat)
        log_sig = (v * np.log(w)) @ v.conj().T
        expected = -float(np.real(psi.conj() @ log_sig @ psi))
        assert abs(umegaki(rho, sig) - expected) < 1e-10

    def test_support_violation(self):
        rho = random_density(2, seed=26)
        sig = PsdOperator(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(DivergentEntropy):
            umegaki(rho, sig)


class TestSkewInformation:
    def test_commuting_case(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        k = np.diag([1.0, -2.0]).astype(complex)
        assert abs(wyd_skew_information(0.5, rho, k)) < 1e-14

    def test_pure_state_variance(self):
        rng = np.random.default_rng(27)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        rho = PsdOperator(np.outer(psi, psi.conj()))
        k = random_hermitian(3, seed=28)
        expected = (np.real(psi.conj() @ k @ k @ psi)
                    - np.real(psi.conj() @ k @ psi) ** 2)
        for p in (0.25, 0.5, 0.75):
            assert abs(wyd_skew_information(p, rho, k) - expected) < 1e-10

    @given(st.integers(0, 300), st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed, p):
        rng = np.random.default_rng(seed)
        rho = random_density(3, seed=rng)
        k = random_hermitian(3, seed=rng)
        assert wyd_skew_information(p, rho, k) >= -1e-10

    def test_stack_of_pairs_is_each_pair_alone(self):
        rng = np.random.default_rng(31)
        rhos = [random_density(3, seed=rng) for _ in range(5)]
        ks = np.stack([random_hermitian(3, seed=rng) for _ in range(5)])
        for p in (0.25, 0.5):
            got = wyd_skew_information(p, rhos, ks)
            assert got == [wyd_skew_information(p, DensityMatrix(rho.mat), k)
                           for rho, k in zip(rhos, ks)]

    def test_block_raises_the_first_failing_observable(self):
        # the Ks are checked as one stack; the first that fails raises what it raises alone
        rho = random_density(2, seed=3)
        good = random_hermitian(2, seed=4)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        nan = good.copy()
        nan[0, 0] = np.nan
        wide = np.ones((2, 3), dtype=complex)
        for ks, match in (([good, skew, nan], "deviates from Hermitian"),
                          ([good, nan, skew], "non-finite"),
                          ([good, skew, wide], "deviates from Hermitian"),
                          ([good, wide, skew], "square matrix")):
            with pytest.raises(InvalidMatrix, match=match):
                wyd_skew_block(make_f_p(0.5), [rho] * 3, ks)

    def test_cross_check_against_entropy(self):
        rho = random_density(4, seed=29)
        k = random_hermitian(4, seed=30)
        for p in (0.25, 0.5, 0.75):
            skew = wyd_skew_information(p, rho, k)
            ent = p * (1 - p) * quasi_relative_entropy(make_f_p(p), k, rho, rho)
            assert abs(skew - ent) < 1e-9 * max(1.0, abs(skew))


def j_p_entropy(p, k, rho, sigma):
    """J_p(K, rho, sigma) = S_{g_p}^K(sigma || rho), g_p(x) = x f_{1-p}(1/x) (x ln x at p = 1)."""
    g = (NEG_LOG if p == 1.0 else make_f_p(1.0 - p)).transpose()
    return quasi_relative_entropy(g, k, sigma, rho)


class TestJpEntropy:
    def test_p_one_is_umegaki(self):
        rho = random_density(3, seed=31)
        sig = random_density(3, seed=32)
        assert abs(j_p_entropy(1.0, np.eye(3), rho, sig) - umegaki(rho, sig)) < 1e-9

    def test_equal_states(self):
        rho = random_density(3, seed=33)
        assert abs(j_p_entropy(0.5, np.eye(3), rho, rho)) < 1e-12

    def test_commuting_diagonals_scalar_form(self):
        lam = np.array([0.5, 0.5])
        mu = np.array([0.75, 0.25])
        val = j_p_entropy(0.5, np.eye(2), DensityMatrix(np.diag(lam).astype(complex)),
                          DensityMatrix(np.diag(mu).astype(complex)))
        expected = 4.0 * (1.0 - np.sqrt(lam * mu).sum())
        assert abs(val - expected) < 1e-12

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 1.5, 1.99])
    def test_matches_transposed_entropy(self, p):
        # J_p(K, rho, sigma) = S_{f_{1-p}}^{K*}(rho || sigma)
        rho = random_density(3, seed=34)
        sig = random_density(3, seed=35)
        k = random_contraction(3, seed=36)
        lhs = j_p_entropy(p, k, rho, sig)
        if p == 1.0:
            rhs = quasi_relative_entropy(NEG_LOG, k.conj().T, rho, sig)
        else:
            rhs = quasi_relative_entropy(make_f_p(1.0 - p), k.conj().T, rho, sig)
        assert abs(lhs - rhs) < 1e-9


class TestClassicalReduction:
    def test_equal_states(self):
        rho = random_density(3, seed=37)
        (p, q, div), = classical_reduction(NEG_LOG, [rho], [rho])
        np.testing.assert_allclose(p, q, atol=1e-12)
        assert abs(div) < 1e-12

    def test_diagonal_qubits(self):
        (p, q, _), = classical_reduction(NEG_LOG, [DIAG_RHO], [DIAG_SIG])
        # positive part of rho - sigma = diag(-0.25, 0.25) is the second axis
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(q, [0.25, 0.75], atol=1e-12)
        assert abs(trace_distance_pair(p, q)
                   - trace_norm(DIAG_RHO.mat - DIAG_SIG.mat)) < 1e-12

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_l1_preserved_and_lower_bounds_quantum(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(3, seed=rng)
        sig = random_density(3, seed=rng)
        (p, q, div), = classical_reduction(NEG_LOG, [rho], [sig])
        assert abs(trace_distance_pair(p, q)
                   - trace_norm(rho.mat - sig.mat)) < 1e-10
        assert div <= umegaki(rho, sig) + 1e-9


class TestPinskerSides:
    def test_saturated_at_equal_rotated_states(self):
        sig = random_density(3, seed=38)
        u = random_unitary(3, seed=39)
        rho = DensityMatrix(hermitize(u.conj().T @ sig.mat @ u))
        (lhs,), (rhs,) = pinsker_sides(NEG_LOG, [u], [rho], [sig])
        assert lhs < 1e-18 and abs(rhs) < 1e-10

    def test_diagonal_fixture(self):
        (lhs,), (rhs,) = pinsker_sides(NEG_LOG, [np.eye(2)], [DIAG_RHO], [DIAG_SIG])
        assert abs(lhs - 0.125) < 1e-12
        assert abs(rhs - DIAG_VALUE) < 1e-12


def test_effective_eigs_clusters():
    w = np.array([0.1, 0.1 + 1e-12, 0.5, 0.9])
    out = effective_eigs(w)
    assert out[0] == out[1]
    assert out[2] == 0.5 and out[3] == 0.9


def test_von_neumann_entropy():
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert abs(von_neumann_entropy(rho) - math.log(2)) < 1e-12
    assert abs(quasi_relative_entropy(NEG_LOG, np.eye(2), rho, rho)) < 1e-12
