"""Each Hermitian operator is decomposed once; its marginals are memoised.

Counts are taken with ``unittest.mock`` wrappers around ``numpy.linalg`` on
freshly sampled states, so they cover the whole call, marginals included.
"""

import contextlib
import hashlib
import io
from unittest import mock

import numpy as np
import pytest

from qre import bounds, campaign, entropy, equality, linalg, recovery
from qre.campaign import CampaignConfig, run_campaign, run_single
from qre.entropy import effective_eigs, quasi_relative_entropy
from qre.errors import ShapeMismatch
from qre.functions import from_id, make_neg_log
from qre.linalg import (
    DEGENERACY_TOL,
    DensityMatrix,
    FactorizedSpace,
    PsdOperator,
    hermitize,
    random_contraction,
    random_density,
    random_unitary,
)

SPACE = FactorizedSpace((2, 2))
SPACE3 = FactorizedSpace((2, 2, 2))


@pytest.fixture
def inputs():
    rng = np.random.default_rng(11)
    return (make_neg_log(), random_contraction(2, seed=rng), random_unitary(2, seed=rng),
            random_density(4, seed=rng), random_density(4, seed=rng))


def _count(call):
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        call()
    return {"eigh": eigh.call_count, "eigvalsh": eigvalsh.call_count, "svd": svd.call_count}


class TestDecompositionCounts:
    def test_monotonicity_gap_decomposes_only_the_marginals(self, inputs):
        f, k1, v, rho, sigma = inputs
        got = _count(lambda: bounds.monotonicity_gap(f, k1, v, rho, sigma, SPACE))
        # both marginals as one stack
        assert got == {"eigh": 1, "eigvalsh": 0, "svd": 0}

    def test_thm42_grid(self, inputs):
        f, k1, v, rho, sigma = inputs
        got = _count(lambda: bounds.verify_thm42_block(f, [rho], [sigma], [k1], [v], 0.5,
                                                      SPACE)[0])
        assert got == {"eigh": 1, "eigvalsh": 0, "svd": 1}

    def test_monotonicity_bound_at_half(self, inputs):
        f, k1, v, rho, sigma = inputs
        got = _count(lambda: bounds.verify_monotonicity_bound_block(f, [rho], [sigma], [k1], [v],
                                                                   0.5, SPACE)[0])
        assert got["eigh"] <= 4

    def test_raw_inputs_are_decomposed_once(self, inputs):
        f, k1, v, rho, sigma = inputs
        got = _count(lambda: bounds.verify_thm42_block(f, [rho.mat], [sigma.mat], [k1], [v], 0.5,
                                                      SPACE)[0])
        assert got["eigh"] == 3

    def test_second_call_on_the_same_states_decomposes_nothing(self, inputs):
        f, k1, v, rho, sigma = inputs
        bounds.verify_monotonicity_bound_block(f, [rho], [sigma], [k1], [v], 0.5, SPACE)
        got = _count(lambda: bounds.verify_thm42_block(f, [rho], [sigma], [k1], [v], 0.5,
                                                      SPACE)[0])
        assert got["eigh"] == 0


class TestStackedCallCounts:
    """An eps sweep decomposes each kind of operator as one stack, and takes one batched SVD
    for its grid residual; a campaign block takes one stacked eigh."""

    @pytest.mark.parametrize("inequality, dims, svd", [
        ("equality_monotonicity", (2, 2), 2),        # the contraction, then the residual
        ("equality_joint_convexity", (2, 2), 2),
        ("equality_operator_ssa", (2, 2, 2), 1),     # the residual
    ])
    def test_equality_sweep_svd_calls(self, inequality, dims, svd):
        got = _count(lambda: run_single(inequality, "neg_log", dims, 0.25, 5))
        assert got["svd"] == svd

    @pytest.mark.parametrize("inequality, dims, eigh", [
        # rho and the sigma(eps) as one stack, and one stack of rho's (0,) marginal and theirs
        ("equality_monotonicity", (2, 2), 2),
        # the floored rho, its mixture, the 12 sigma_j(eps) and 4 mixtures as one stack
        ("equality_joint_convexity", (2, 2), 1),
        # rho, the sigma_AB(eps) stack, rho_BC and the stacks of sigma_B and the embeddings
        ("equality_operator_ssa", (2, 2, 2), 6),
    ])
    def test_equality_sweep_eigh_calls(self, inequality, dims, eigh):
        got = _count(lambda: run_single(inequality, "neg_log", dims, 0.25, 5))
        assert got["eigh"] == eigh

    @pytest.mark.parametrize("inequality, dims, calls", [
        ("equality_joint_convexity", (2, 2), 1),
        ("joint_convexity", (2, 2), 1),
        ("equality_monotonicity", (2, 2), 2),             # the full pairs, the reduced pairs
    ])
    def test_spectral_kernel_calls_per_trial(self, inequality, dims, calls):
        with mock.patch.object(entropy, "_spectral_formula",
                               wraps=entropy._spectral_formula) as kernel:
            run_single(inequality, "neg_log", dims, 0.25, 5)
        assert kernel.call_count == calls

    def test_operator_ssa_block_screens_each_spectrum_once(self):
        # one clustering pass a traced term, over every rho and sigma of the 20 trials: the rhos
        # and the sigmas are each one stack of 20, and one effective_eigs call clusters both
        config = CampaignConfig(inequalities=("operator_ssa_thm62",), dims=((2, 2, 2),),
                                betas=(0.5,), trials=20, seed=7)
        with mock.patch.object(entropy, "effective_eigs", wraps=effective_eigs) as ee:
            run_campaign(config, io.StringIO())
        assert [call.args[0].shape for call in ee.call_args_list] == [(40, 8), (40, 4)]

    def test_joint_convexity_sweep_svds_only_the_members_that_can_win(self):
        # 7 blocks of the 20 instances, 4 mixtures x 3 components x 5 betas an instance:
        # one SVD a block, of 201 of the 1,200 members
        config = CampaignConfig(inequalities=("equality_joint_convexity",), dims=((2, 2, 2),),
                                betas=(0.5,), trials=20, seed=7)
        with mock.patch.object(recovery, "op_norm", wraps=recovery.op_norm) as norm:
            run_campaign(config, io.StringIO())
        assert norm.call_count == 7
        assert sum(len(call.args[0]) for call in norm.call_args_list) == 201

    def test_wyd_skew_block_checks_its_observables_once(self):
        # one stacked check of the 20 K, and the one of the 20 sampled rho
        config = CampaignConfig(inequalities=("wyd_skew",), functions=("f_p:0.5",),
                                dims=((2, 2),), betas=(0.5,), trials=20, seed=7)
        with mock.patch.object(linalg, "_checked_spectra", wraps=linalg._checked_spectra) as chk:
            run_campaign(config, io.StringIO())
        assert chk.call_count == 1 + 1

    def test_joint_convexity_cell_eigh_calls(self):
        config = CampaignConfig(inequalities=("joint_convexity",), dims=((2, 2),),
                                betas=(0.5,), trials=20, seed=7)
        got = _count(lambda: run_campaign(config, io.StringIO()))
        # one stacked eigh for the 120 sampled states, then one for the 40 mixtures
        assert got["eigh"] == 1 + 1
        # one batched SVD for the 20 contractions, then one for the 20 ||K|| and
        # one for the 60 equality differences
        assert got["svd"] == 1 + 2

    @pytest.mark.parametrize("inequality, dims, fid, eigh, eigvalsh, svd", [
        # the 100 sampled states; their 100 (0,) marginals.  The contractions; the residuals
        ("equality_monotonicity", (2, 2), "neg_log", 1 + 1, 0, 1 + 1),
        # two blocks (14 and 6 trials) of 18 sampled states each, one stack a block.
        # The contractions and the residuals of each block
        ("equality_joint_convexity", (2, 2), "neg_log", 2, 0, 2 * 2),
        # the 20 rho and the 80 sigma_AB; sigma_B, sigma_AB (x) I_C, sigma_B (x) I_C, rho_BC.
        # The residuals
        ("equality_operator_ssa", (2, 2, 2), "neg_log", 2 + 4, 0, 1),
        # the 120 sampled states; the 40 mixtures.  The contractions; the 20 ||K||
        ("wyd_joint_concavity", (2, 2), "f_p:0.5", 1 + 1, 0, 1 + 1),
        # the 20 rho; the rho_AB, rho_BC, rho_B and rho_C marginals.  The Petz trace norms
        # (at beta = 1/2 only)
        ("ssa", (2, 2, 2), "neg_log", 1 + 4, 0, 1),
        # the 20 rho and the 20 sigma_AB; sigma_B, sigma_AB (x) I_C, sigma_B (x) I_C, rho_BC.
        # The differences on C.  The scales of both sides; the recovery residuals
        ("cauchy_schwarz", (2, 2, 2), "neg_log", 2 + 4, 1, 1 + 1),
        # the 40 sampled states.  The trace norms (the unitaries are drawn by QR)
        ("pinsker", (2, 2), "neg_log", 1, 0, 1),
        # the 40 sampled states; the 20 Jordan-Hahn projectors.  The trace norms
        ("classical_reduction", (2, 2), "neg_log", 1 + 1, 0, 1),
        # the 20 Q (not states: trace d); their C marginals.  Both sides' differences and the
        # first sides, as one stack.  The contractions X
        ("lieb_ruskai", (2, 2), "neg_log", 1 + 1, 1, 1),
        # the 20 sampled rho; their powers and the cross-check kernel decompose nothing
        ("wyd_skew", (2, 2), "f_p:0.5", 1, 0, 0),
    ])
    def test_cell_decomposition_calls(self, inequality, dims, fid, eigh, eigvalsh, svd):
        config = CampaignConfig(inequalities=(inequality,), functions=(fid,), dims=(dims,),
                                betas=(0.5,), trials=20, seed=7)
        got = _count(lambda: run_campaign(config, io.StringIO()))
        assert (got["eigh"], got["eigvalsh"], got["svd"]) == (eigh, eigvalsh, svd)


class TestSamplingCalls:
    """A campaign draw is only its random numbers: its block does the Gram products, the Haar
    QRs and the decompositions, in stacks of at most ``BLOCK_BYTES``."""

    def test_monotonicity_cell_takes_one_qr(self):
        config = CampaignConfig(inequalities=("monotonicity",), dims=((2, 2),), trials=20, seed=7)
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            run_campaign(config, io.StringIO())
        assert qr.call_count == 1         # the 20 unitaries V as one stack

    @pytest.mark.parametrize("name", sorted(campaign.SAMPLERS))
    def test_a_draw_calls_no_linalg(self, name):
        space = FactorizedSpace((2, 2) if name == "monotonicity_sweep" else (2, 2, 2))
        linalg_calls = [call for call in dir(np.linalg) if not call.startswith("_")
                        and callable(getattr(np.linalg, call))
                        and not isinstance(getattr(np.linalg, call), type)]
        assert {"eigh", "qr", "svd", "norm"} <= set(linalg_calls)
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(np.linalg, call,
                                                           wraps=getattr(np.linalg, call)))
                     for call in linalg_calls]
            for seed in range(5):
                campaign.SAMPLERS[name](np.random.default_rng(seed), space, "mixed")
        assert sum(spy.call_count for spy in spies) == 0

    @pytest.mark.parametrize("sweep, dims, grams, hermitized", [
        # Gram products: rho1 and tau floored, sigma1, the noise.  Hermitized: each Gram
        # stack, the two floors, the eps mixtures and the one stacked decomposition
        ("equality_monotonicity", (2, 2), 4, 4 + 2 + 1 + 1),
        # base_r floored, base_s, the noises; each Gram stack, the floor, the eps mixtures,
        # both averages and the decomposition
        ("equality_joint_convexity", (2, 2), 3, 3 + 1 + 1 + 2 + 1),
        # rho_AB and tau floored, the noise; each Gram stack, the floors, the eps mixtures
        # and the decompositions of the rho (8 x 8) and of the sigma_AB (4 x 4)
        ("equality_operator_ssa", (2, 2, 2), 3, 3 + 2 + 1 + 2)])
    def test_a_sweep_block_is_built_in_stacked_calls(self, sweep, dims, grams, hermitized,
                                                     monkeypatch):
        # every instance of a block goes through the same calls, however many it holds
        monkeypatch.setattr(campaign, "BLOCK_BYTES", 1 << 30)
        family, space = campaign.FAMILIES[sweep], FactorizedSpace(dims)
        counts = {}
        for n in (1, 4, 20):
            calls = {"grams": 0, "hermitize": 0}
            real_grams, real_hermitize = linalg._gram_states, linalg.hermitize

            def gram_spy(g):
                calls["grams"] += 1
                return real_grams(g)

            def hermitize_spy(m):
                calls["hermitize"] += 1
                return real_hermitize(m)

            with contextlib.ExitStack() as stack:
                for module in (linalg, equality, campaign):
                    for name, spy in (("_gram_states", gram_spy), ("hermitize", hermitize_spy)):
                        if hasattr(module, name):
                            stack.enter_context(mock.patch.object(module, name, spy))
                block, = campaign.sample_blocks(family, space, range(n))
            assert len(block) == n
            counts[n] = (calls["grams"], calls["hermitize"])
        assert counts == {n: (grams, hermitized) for n in (1, 4, 20)}

    def test_each_state_at_d_64_is_finished_alone(self):
        grams, decomposed = [], []
        real_grams, real_stack = campaign._gram_states, DensityMatrix.stack

        def gram_spy(g):
            grams.append(g.shape)
            return real_grams(g)

        def stack_spy(mats):
            decomposed.append(np.shape(mats))
            return real_stack(mats)

        config = CampaignConfig(inequalities=("monotonicity",), dims=((8, 8),), trials=3, seed=7)
        with mock.patch.object(campaign, "_gram_states", gram_spy), \
                mock.patch.object(DensityMatrix, "stack", stack_spy):
            run_campaign(config, io.StringIO())
        # rho and sigma of each of the 3 trials, one Gram stack and one decomposition each
        assert grams == decomposed == [(1, 64, 64)] * 6


class TestMemoisation:
    def test_marginal_returns_the_same_object(self):
        rho = random_density(8, seed=3)
        assert rho.marginal(SPACE3, (1, 2)) is rho.marginal(SPACE3, [2, 1])
        assert rho.marginal(SPACE3, (1,)) is not rho.marginal(SPACE3, (2,))

    def test_space_psd_returns_operators_as_is(self):
        rho = random_density(4, seed=4)
        assert SPACE.psd(rho) is rho
        fresh = SPACE.psd(rho.mat)
        assert fresh is not rho
        np.testing.assert_array_equal(fresh.eigs, rho.eigs)
        with pytest.raises(ShapeMismatch):
            SPACE3.psd(rho)

    def test_powers_and_marginals_are_bit_equal_to_fresh(self):
        # powers are not memoised: each call raises afresh, into an array of its own
        rho = random_density(8, rank=5, seed=5)
        for beta in (-1.0, -0.25, 0.5, 0.9):
            out = rho.power(beta)
            assert out.flags.writeable and not np.shares_memory(out, rho.power(beta))
            np.testing.assert_array_equal(out, PsdOperator(rho.mat).power(beta))
            np.testing.assert_array_equal(out, _reference_power(rho.mat, beta))
        for keep in ((0,), (1, 2), (0, 2)):
            marg = rho.marginal(SPACE3, keep)
            fresh = PsdOperator(SPACE3.partial_trace(rho.mat, keep))
            np.testing.assert_array_equal(marg.mat, fresh.mat)
            np.testing.assert_array_equal(marg.eigs, fresh.eigs)
            np.testing.assert_array_equal(marg.power(-0.5), fresh.power(-0.5))

    def test_power_kernels_agree_bit_for_bit(self):
        rng = np.random.default_rng(8)
        mats = [random_density(6, rank=int(rng.integers(1, 7)), seed=rng).mat * 3.0
                for _ in range(5)]
        betas = (-0.5, 0.5, 2.0)
        raised = PsdOperator.powers([PsdOperator(m) for m in mats], betas)
        for m, rows in zip(mats, raised):
            for beta, row in zip(betas, rows):
                expected = _reference_power(m, beta)
                np.testing.assert_array_equal(PsdOperator.wrap(m).power(beta), expected)
                np.testing.assert_array_equal(row, expected)


def _reference_power(m, beta):
    """The generalized power as one eigendecomposition and one formula, memo-free."""
    w, v = np.linalg.eigh(hermitize(m))
    cut = len(w) * np.finfo(float).eps * float(np.abs(w).max())
    wp = np.where(w > cut, np.clip(w, cut, None), 1.0) ** beta
    wp[w <= cut] = 0.0
    return hermitize((v * wp) @ v.conj().T)


def _reference_effective_eigs(w, tol=DEGENERACY_TOL):
    """The eigenvalue-by-eigenvalue clustering loop, kept as the oracle; a cluster of one is
    left as it is (its mean would turn -0.0 into 0.0)."""
    w = np.asarray(w, dtype=float)
    if len(w) == 0:
        return w
    scale = max(1.0, float(np.abs(w).max()))
    out = w.copy()
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol * scale:
            if i - start > 1:
                out[start:i] = w[start:i].mean()
            start = i
    return out


class TestEffectiveEigs:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_spectra(self, seed):
        rng = np.random.default_rng(seed)
        w = np.sort(rng.random(int(rng.integers(1, 70))))
        np.testing.assert_array_equal(effective_eigs(w), _reference_effective_eigs(w))

    @pytest.mark.parametrize("k", [2, 8, 13, 32])
    def test_degenerate_spectra(self, k):
        rng = np.random.default_rng(k)
        base = np.sort(rng.random(5))
        w = np.kron(base, np.ones(k))
        # spread each cluster below the degeneracy tolerance, and add a zero block
        w = np.sort(np.concatenate([w + rng.uniform(0, 1e-11, w.size), np.zeros(k)]))
        out = effective_eigs(w)
        np.testing.assert_array_equal(out, _reference_effective_eigs(w))
        assert len(np.unique(out)) == 6

    def test_stack_screening_is_the_one_operator_clustering(self):
        rng = np.random.default_rng(3)
        ops = [random_density(6, seed=rng) for _ in range(4)]
        ops += [PsdOperator(np.diag(w).astype(complex)) for w in
                ([0.25, 0.25, 0.5, 0.0, 0.0, 0.0], [1.0, 1.0 + 1e-12, 2.0, 3.0, 4.0, 5.0])]
        got = effective_eigs(linalg._gathered(ops + ops[:2], "eigs")[0])
        for op, row in zip(ops + ops[:2], got):
            np.testing.assert_array_equal(row, _reference_effective_eigs(op.eigs))
            assert row.tobytes() == effective_eigs(op.eigs).tobytes()
        assert len({len(np.unique(row)) for row in got[4:6]}) == 2

    def test_edge_cases(self):
        for w in ([], [0.3], [0.3, 0.3], [-1.0, 0.0, 0.0, 1e-12, 2.0]):
            np.testing.assert_array_equal(effective_eigs(np.array(w)),
                                          _reference_effective_eigs(np.array(w)))

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_rows_are_the_reference_bytes(self, seed):
        # every cluster length from 1 to 130 (the lengths where numpy's summation order
        # changes twice), each cluster spread below the tolerance or a block of +-0.0; the
        # same row's first two values ahead of a plain tail; rows with no cluster; and rows
        # with a lone +-0.0, alone or beside a cluster
        rng = np.random.default_rng(seed)
        rows = []
        for n in list(range(1, 131)) + [7, 8, 9, 64, 128, 129]:
            d = n + 4
            base = np.sort(rng.uniform(0.5, 2.0, d - n + 1))
            cluster = base[1] + rng.uniform(0.0, 0.5 * DEGENERACY_TOL, n)
            if n % 3 == 0:     # a zero block: a spectrum with a kernel, at either sign
                cluster, base = np.where(rng.random(n) < 0.5, -0.0, 0.0), base + 1.0
            rows.append(np.sort(np.concatenate([base[:1], cluster, base[2:]])))
            rows.append(np.sort(np.concatenate([rows[-1][:2], rng.uniform(3.0, 4.0, d - 2)])))
            rows.append(np.linspace(1.0, 2.0, d))    # no cluster
        for zero in (-0.0, 0.0):
            rows += [np.array([zero, 0.5, 1.0, 1.5]), np.array([-1.0, zero, 0.5, 0.5, 2.0]),
                     np.array([-1.0, -1.0, zero, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])]
        for d in sorted({len(row) for row in rows}):
            stack = np.stack([row for row in rows if len(row) == d])
            got = effective_eigs(stack)
            assert got.shape == stack.shape
            for row, out in zip(stack, got):
                assert out.tobytes() == _reference_effective_eigs(row).tobytes()
                assert out.tobytes() == effective_eigs(row).tobytes()

    def test_lone_negative_zero_keeps_its_sign(self):
        # a cluster of one is left as it is, by the code and by the reference loop
        out = effective_eigs(np.array([[-0.0, 0.5, 0.5]]))
        assert out.tobytes() == np.array([[-0.0, 0.5, 0.5]]).tobytes()

    def test_clustered_makes_one_stacked_call_per_call_with_work(self):
        # mixed rank, every eigenvalue doubled (sigma (x) I), a zero block and a plain spectrum,
        # each decomposed alone and in two stacks of three: one _overlap_grid call clusters the
        # rhos and the sigmas in one effective_eigs call, and each row is the row's own clustering
        rng = np.random.default_rng(5)
        mats = [random_density(8, rank=int(rng.integers(1, 9)), seed=rng).mat for _ in range(4)]
        mats += [np.kron(random_density(4, seed=rng).mat, np.eye(2)) / 2.0,
                 np.diag([0.0, 0.0, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0]).astype(complex)]
        ops = [PsdOperator(m) for m in mats] + PsdOperator.stack(mats[:3]) + PsdOperator.stack(
            mats[3:])
        xm = np.repeat(np.eye(8, dtype=complex)[None], len(ops), axis=0)
        with mock.patch.object(entropy, "effective_eigs", wraps=entropy.effective_eigs) as ee:
            lam, mu = entropy._overlap_grid(make_neg_log(), ops, ops[::-1], xm)[:2]
        assert ee.call_count == 1 and ee.call_args.args[0].shape == (24, 8)
        assert mu.tobytes() == lam[::-1].tobytes()
        for op, row in zip(ops, lam):
            assert row.tobytes() == _reference_effective_eigs(op.eigs).tobytes()


# sha256 of the JSONL this campaign wrote at the commit before decompose-once,
# re-recorded when the window optimum became closed-form (T_star and the thm42
# rhs moved in their last digits) and when monotonicity_bound read ||K^{-1}||
# as ||K1^{-1}|| (details.interchange_rhs of 6 of its 12 lines moved by at most
# 4.7e-16 relative), and when the thm42 digest took K1 and V as well as rho and
# sigma (the inputs_digest of its 12 lines moved; no other field of any line).
# A change that moves any digit of it must explain which and why in CHANGES.md.
GOLDEN_SHA256 = "bcdc323dd8d5afbfcc2058f96d1d88b12513c4f35c7545ea5a71e9ad5c800b7b"
# Tripartite and 3x2 families that go through partial traces and embeddings,
# recorded before their einsum operands were cached per dims.
GOLDEN_TENSOR_SHA256 = "e1d4d7e47d58b4e0252970c4242ad749a0bb0764a49cc9704d54d903d0761162"
# The families no digest above covers (joint convexity, the classical reduction,
# the WYD families and the joint-convexity equality sweep) and the f gating of
# the wyd_* families, recorded before the families moved into one registry,
# re-recorded when the window optimum became closed-form (T_star moved) and
# when wyd_joint_concavity took its constants from the envelope of the raw
# power instead of the printed closed form (its N, M, alpha and lhs moved by
# at most 5.3e-15 relative; no verdict changed), and when the joint-convexity
# equality sweep was built on the whole 2x2 space instead of its first factor
# (its 16 2x2 lines changed instances; its (3,) lines did not move), and when
# wyd_joint_concavity took its gap from the spectral formula of f_p instead of
# its own trace formula (gap, rhs and details.gap of its 16 lines moved by at
# most 2.8e-14 relative; no other field of any line, and no verdict, changed).
GOLDEN_FAMILY_SHA256 = "7e3bbb1e2a3a77ccf3f9db0536d66526d718de35e9b4475c8e46b83ba4b39a2c"

# The d = 64 cells of the monotonicity trio and pinsker, where every state is a stack of
# one, recorded before the stack-of-one eigh took the stacked call.
GOLDEN_LARGE_SHA256 = "964c665f906a25547fca11a626759c01f53bcd424b40fdd17a4037819c214a68"


# equality_suite's JSON lines (neg_log and f_p:0.5, seeds 0, 1 and 2), recorded before
# its instances were built by the sweeps' stacked builders as blocks of one.
GOLDEN_EQUALITY_SUITE_SHA256 = "cbd8c7cfac870eaaa5e51244453910db4692fe89c58a77f1b5ab13faf236f1b9"


def test_golden_equality_suite_digest():
    lines = [r.to_json() for fid in ("neg_log", "f_p:0.5") for seed in (0, 1, 2)
             for r in equality.equality_suite(from_id(fid), np.random.default_rng(seed))]
    assert len(lines) == 72
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_EQUALITY_SUITE_SHA256


def test_golden_campaign_digest():
    config = CampaignConfig(
        inequalities=("monotonicity", "thm42", "monotonicity_bound", "pinsker", "ssa",
                      "operator_ssa_thm62", "equality_monotonicity"),
        functions=("neg_log", "f_p:0.5"), dims=((2, 2), (2, 2, 2)),
        betas=(0.25, 0.5), trials=3, seed=7)
    buf = io.StringIO()
    summary = run_campaign(config, stream=buf)
    assert summary.reports == 84
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_SHA256



def test_golden_tensor_campaign_digest():
    config = CampaignConfig(
        inequalities=("ssa", "operator_ssa_thm63", "operator_ssa_cor64", "operator_ssa_cor65",
                      "wyd_operator", "cauchy_schwarz", "lieb_ruskai", "equality_operator_ssa"),
        functions=("neg_log", "f_p:0.5"), dims=((2, 2, 2), (2, 3, 2), (3, 2)),
        betas=(0.25, 0.75), trials=2, seed=11, rank_policy="mixed")
    buf = io.StringIO()
    summary = run_campaign(config, stream=buf)
    assert (summary.reports, summary.trials, summary.failures) == (106, 82, 0)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_TENSOR_SHA256


def test_golden_family_campaign_digest():
    common = dict(betas=(0.25, 0.75), trials=2, seed=13, rank_policy="mixed")
    configs = (
        CampaignConfig(
            inequalities=("joint_convexity", "classical_reduction", "wyd_skew",
                          "wyd_joint_concavity", "equality_joint_convexity"),
            functions=("neg_log", "f_p:0.5"), dims=((2, 2), (3,)), **common),
        CampaignConfig(
            inequalities=("classical_reduction", "wyd_skew", "wyd_joint_concavity",
                          "wyd_operator"),
            functions=("f_p:1.5", "f_p:-0.5", "neg_power:0.3"), dims=((2, 2, 2),), **common),
    )
    buf = io.StringIO()
    totals = [0, 0, 0]
    for config in configs:
        summary = run_campaign(config, stream=buf)
        for i, n in enumerate((summary.reports, summary.trials, summary.failures)):
            totals[i] += n
    assert totals == [82, 58, 0]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_FAMILY_SHA256


def test_golden_large_campaign_digest():
    config = CampaignConfig(
        inequalities=("monotonicity", "thm42", "monotonicity_bound", "pinsker"),
        functions=("neg_log", "f_p:0.5"), dims=((8, 8),), betas=(0.25, 0.5), trials=2, seed=7)
    buf = io.StringIO()
    summary = run_campaign(config, stream=buf)
    assert (summary.reports, summary.failures) == (24, 0)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_LARGE_SHA256
