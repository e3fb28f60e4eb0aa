"""Stacked spectral kernels give the bits of one-at-a-time calls.

Every comparison here is on the raw bytes of the arrays (so a signed zero or
a last-bit difference fails), or ``==`` on floats.  The per-exponent loops
that the grid residuals replaced are kept below as the oracles.
"""

import collections
import functools
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from qre import bounds, campaign, equality, linalg, recovery
from qre.campaign import FAMILIES, CampaignConfig, run_campaign, run_single, trial_seed
from qre.entropy import (
    OVERLAP_TOL,
    ModularOperator,
    _ratio_weights,
    _zero_mode_message,
    apply_f_modulars,
    effective_eigs,
    quasi_relative_entropies,
    quasi_relative_entropy,
)
from qre.errors import DivergentEntropy, InvalidMatrix, NotPSD, ShapeMismatch, SingularArgument
from qre.functions import from_id
from qre.linalg import (
    DensityMatrix,
    FactorizedSpace,
    PsdOperator,
    generalized_powers,
    hermitize,
    op_norm,
    random_contraction,
    random_density,
    random_hermitian,
    random_state_matrix,
    random_unitary,
    rescale_contractions,
    trace_norm,
)
from qre.recovery import (
    DEFAULT_BETA_GRID,
    _grid_maxima,
    _sandwiches,
    equality_condition_residuals,
    ssa_residuals_P,
    ssa_residuals_Q,
)

BETAS = (0.5, -0.5, -1.0, 1.0, 2.0, 0.1, 0.9)
GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _states(seed, n=6):
    """Full-rank and rank-deficient states of mixed dims, plus a scaled non-state."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        d = (2, 3, 4, 8)[i % 4]
        rank = d if i % 2 else int(rng.integers(1, d))
        out.append(random_density(d, rank=rank, seed=rng))
    out.append(PsdOperator(random_density(4, rank=2, seed=rng).mat * 3.0))
    return out


def _raised(ops, betas):
    """``generalized_powers`` over a list of operators of one dimension."""
    return PsdOperator.powers(ops, betas)


def _by_dim(ops):
    """``ops`` in lists of one dimension each."""
    by_dim = {}
    for op in ops:
        by_dim.setdefault(op.dim, []).append(op)
    return list(by_dim.values())


class TestPowers:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_bit_equal_to_single_powers(self, seed):
        for ops in _by_dim(_states(seed)):
            stack = _raised(ops, BETAS)
            assert stack.shape == (len(ops), len(BETAS), ops[0].dim, ops[0].dim)
            for op, rows in zip(ops, stack):
                fresh = PsdOperator(op.mat)
                for b, row in zip(BETAS, rows):
                    assert_bits(row, fresh.power(b))

    def test_modes_below_the_cutoff_are_zeroed(self):
        op = random_density(6, rank=3, seed=1)
        assert op.rank() == 3
        proj = op.support_projector()
        for b, row in zip(BETAS, _raised([op], BETAS)[0]):
            assert_bits(row, PsdOperator(op.mat).power(b))
            np.testing.assert_allclose(row @ (np.eye(6) - proj), 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_power_is_bit_equal_to_each_power(self, seed):
        for ops in _by_dim(_states(seed, n=12)):
            spectra = (np.stack([op.vecs for op in ops]), np.stack([op.eigs for op in ops]),
                       np.array([op.cutoff for op in ops]))
            for grid in [(b,) for b in BETAS] + [BETAS, GRID]:
                stack = generalized_powers(*spectra, grid)
                assert stack.shape == (len(ops), len(grid)) + ops[0].mat.shape
                assert_bits(generalized_powers(*(x[None] for x in spectra), grid), stack[None])
                for op, rows in zip(ops, stack):
                    for b, row in zip(grid, rows):
                        assert_bits(row, _fresh(op).power(b))

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_bit_equal_to_the_two_dimensional_formula(self, seed):
        for ops in _by_dim(_states(seed)):
            for op, rows in zip(ops, _raised(ops, BETAS)):
                for b, row in zip(BETAS, rows):
                    assert_bits(row, _matrix_power(op, b))


def _matrix_power(op, beta):
    """The generalized power of one matrix with a scalar exponent, as before stacking."""
    w, v, cut = op.eigs, op.vecs, op.cutoff
    wp = np.where(w > cut, np.clip(w, cut, None), 1.0) ** beta
    wp[w <= cut] = 0.0
    m = (v * wp) @ v.conj().T
    return (m + m.conj().T) / 2.0


KEEP_DIMS = ((2, 2, 2), (2, 3, 2), (3, 2))


class TestStackedEmbed:
    @pytest.mark.parametrize("dims", KEEP_DIMS)
    def test_every_keep_set(self, dims):
        space = FactorizedSpace(dims)
        rng = np.random.default_rng(len(dims))
        for r in range(1, len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), r):
                d = space.subspace(keep).dim
                ops = np.stack([random_hermitian(d, seed=rng) for _ in range(4)])
                ops[0, 0, 0] = -0.0
                out = space.embed(ops, keep)
                assert out.shape == (4, space.dim, space.dim)
                for op, row in zip(ops, out):
                    assert_bits(row, space.embed(op, keep))
                grid = ops.reshape(2, 2, d, d)
                assert_bits(space.embed(grid, keep), out.reshape(2, 2, space.dim, space.dim))

    def test_full_keep_stack_is_fresh(self):
        space = FactorizedSpace((2, 2))
        ops = np.stack([random_hermitian(4, seed=s) for s in range(3)])
        out = space.embed(ops, (0, 1))
        assert_bits(out, ops)
        assert not np.shares_memory(out, ops)


class TestStackedPartialTrace:
    @pytest.mark.parametrize("dims", KEEP_DIMS)
    def test_every_keep_set(self, dims):
        space = FactorizedSpace(dims)
        rng = np.random.default_rng(10 + len(dims))
        mats = np.stack([random_hermitian(space.dim, seed=rng)
                         + 1j * random_hermitian(space.dim, seed=rng) for _ in range(4)])
        mats[0, 0, 0] = -0.0
        for r in range(1, len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), r):
                d = space.subspace(keep).dim
                out = space.partial_trace(mats, keep)
                assert out.shape == (4, d, d)
                for m, row in zip(mats, out):
                    assert_bits(row, space.partial_trace(m, keep))
                grid = mats.reshape(2, 2, space.dim, space.dim)
                assert_bits(space.partial_trace(grid, keep), out.reshape(2, 2, d, d))
        whole = space.partial_trace(mats, tuple(range(len(dims))))
        assert_bits(whole, mats)
        assert not np.shares_memory(whole, mats)

    def test_stack_of_the_wrong_dimension(self):
        with pytest.raises(ShapeMismatch):
            FactorizedSpace((2, 2)).partial_trace(np.zeros((3, 2, 2)), (0,))

    @pytest.mark.parametrize("dims", KEEP_DIMS)
    def test_marginals_are_the_memoised_marginal(self, dims):
        space = FactorizedSpace(dims)
        rng = np.random.default_rng(len(dims))
        ops = PsdOperator.stack([random_state_matrix(space.dim, seed=rng) for _ in range(3)])
        assert all(type(op) is PsdOperator for op in ops)
        for keep in ((0,), (len(dims) - 1,), (0, len(dims) - 1)):
            margs = PsdOperator.marginals(ops + ops[:1], space, keep)
            assert margs[3] is margs[0]
            for op, marg in zip(ops, margs):
                assert op.marginal(space, keep) is marg
                alone = PsdOperator(space.partial_trace(op.mat, keep))
                for attr in ("mat", "eigs", "vecs"):
                    assert_bits(getattr(marg, attr), getattr(alone, attr))


class TestOpNorm:
    @pytest.mark.parametrize("norm", [op_norm, trace_norm])
    def test_batched_svd_is_bit_equal(self, norm):
        rng = np.random.default_rng(4)
        mats = np.stack([random_hermitian(5, seed=rng) + 1j * random_hermitian(5, seed=rng)
                         for _ in range(6)])
        norms = norm(mats)
        assert [float(x) for x in norms] == [norm(m) for m in mats]
        assert norm(mats.reshape(2, 3, 5, 5)).shape == (2, 3)
        for m in mats:
            alone, (member,) = norm(m), norm(m[None])
            assert isinstance(alone, float)
            assert_bits(alone, member)

    def test_rescaled_contractions_match_one_at_a_time(self):
        # a contraction's draw: its Gaussian matrix, then its target norm
        draws = [(linalg._ginibre(rng, 3), rng.uniform(0.5, 1.0))
                 for rng in map(np.random.default_rng, range(5))]
        for s, k in enumerate(rescale_contractions(draws)):
            assert_bits(k, random_contraction(3, seed=s))


def _unpruned_grid_maxima(diffs):
    """The fold ``_grid_maxima`` reproduces: one SVD of every member, folded from 0.0."""
    norms = op_norm(diffs)
    return [functools.reduce(max, row, 0.0) for row in norms.reshape(len(norms), -1).tolist()]


def _grid_outcome(call, diffs):
    try:
        return call(diffs)
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)


class TestGridMaxima:
    """``_grid_maxima`` SVDs only the members that can hold their row's maximum, and its
    result is the fold over every member's op norm."""

    @staticmethod
    def _stack(rng, n=4, g=6, d=4):
        diffs = rng.standard_normal((n, g, d, d)) + 1j * rng.standard_normal((n, g, d, d))
        return diffs * rng.random((n, g, 1, 1)) ** 4

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        diffs = self._stack(rng, d=int(rng.integers(1, 9)))
        assert _grid_maxima(diffs) == _unpruned_grid_maxima(diffs)
        assert _grid_maxima(diffs[:, :, None]) == _unpruned_grid_maxima(diffs)

    def test_ties_and_zero_rows(self):
        rng = np.random.default_rng(1)
        diffs = self._stack(rng)
        diffs[0, 3] = diffs[0, 1]           # two members hold the maximum
        diffs[1, 1:] = diffs[1, 0]
        diffs[2] = 0.0
        diffs[3, 2] = -diffs[3, 4]          # equal norms, different matrices
        assert _grid_maxima(diffs) == _unpruned_grid_maxima(diffs)
        assert _grid_maxima(diffs)[2] == 0.0

    def test_frobenius_norm_at_the_row_maximum(self):
        # a rank-one member's Frobenius norm is its op norm, the row's maximum; two other
        # members' Frobenius norms lie above it and their op norms below it, and the last
        # member's Frobenius norm lies below it
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal(4) + 1j, rng.standard_normal(4) - 1j
        rank_one = np.outer(u, v.conj()) * (2.0 / (np.linalg.norm(u) * np.linalg.norm(v)))
        diffs = np.stack([np.stack([np.eye(4) * 1.5, rank_one, np.diag([1.9, 1.9, 1.0, 0.0]),
                                    np.eye(4) * 0.5])]).astype(complex)
        with mock.patch.object(recovery, "op_norm", wraps=op_norm) as norm:
            assert _grid_maxima(diffs) == _unpruned_grid_maxima(diffs)
        assert len(norm.call_args.args[0]) == 3
        assert _grid_maxima(diffs)[0] == op_norm(rank_one)

    @pytest.mark.parametrize("where", [(0, 0), (0, 5), (2, 3)])
    def test_inf_member(self, where):
        diffs = self._stack(np.random.default_rng(3))
        diffs[where][1, 2] = np.inf
        assert _grid_maxima(diffs) == _unpruned_grid_maxima(diffs)

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan)])
    def test_nan_member_raises_as_the_unpruned_fold(self, bad):
        diffs = self._stack(np.random.default_rng(4))
        diffs[1, 4, 0, 0] = bad
        got = _grid_outcome(_grid_maxima, diffs)
        assert got == _grid_outcome(_unpruned_grid_maxima, diffs)
        assert got[0] is np.linalg.LinAlgError

    def test_one_svd_of_the_candidates(self):
        diffs = self._stack(np.random.default_rng(5), n=6, g=10)
        with mock.patch.object(recovery, "op_norm", wraps=op_norm) as norm:
            got = _grid_maxima(diffs)
        assert got == _unpruned_grid_maxima(diffs)
        assert norm.call_count == 1
        assert len(norm.call_args.args[0]) < 60


class TestStackedConstructor:
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_bit_equal_to_one_at_a_time(self, d):
        rng = np.random.default_rng(d)
        mats = [random_state_matrix(d, rank=int(rng.integers(1, d + 1)), seed=rng)
                for _ in range(7)]
        states = DensityMatrix.stack(mats)
        for m, state in zip(mats, states):
            alone = DensityMatrix(m)
            assert type(state) is DensityMatrix
            for attr in ("mat", "eigs", "vecs"):
                assert_bits(getattr(state, attr), getattr(alone, attr))
            assert state.cutoff == alone.cutoff

    @pytest.mark.parametrize("n", [1, 3])
    def test_members_are_read_only_views_of_one_stack(self, n):
        states = DensityMatrix.stack([random_state_matrix(4, seed=s) for s in range(n)])
        for attr in ("mat", "eigs", "vecs"):
            rows = [getattr(state, attr) for state in states]
            base = rows[0].base
            assert base is not None and all(row.base is base for row in rows)
            assert not any(row.flags.writeable for row in rows)
            with pytest.raises(ValueError, match="read-only"):
                rows[-1][0] = 0.0

    def test_caller_input_is_neither_aliased_nor_frozen(self):
        mats = np.stack([random_state_matrix(4, seed=s) for s in range(3)])
        kept = mats.copy()
        for given in (mats, list(mats), mats[:1]):
            states = DensityMatrix.stack(given)
            assert not any(np.shares_memory(state.mat, mats) for state in states)
        assert mats.flags.writeable
        mats[...] = 0.0        # the caller's array stays its own: no member moves
        assert_bits(states[0].mat, kept[0])

    @pytest.mark.parametrize("bad, error", [
        (np.array([[0.5, 0.3], [0.0, 0.5]]), InvalidMatrix),     # not Hermitian
        (np.diag([1.5, -0.5]), NotPSD),                          # negative eigenvalue
        (np.diag([0.7, 0.7]), InvalidMatrix),                    # trace 1.4
    ])
    def test_bad_member_raises_what_it_raises_alone(self, bad, error):
        good = random_state_matrix(2, seed=5)
        with pytest.raises(error) as alone:
            DensityMatrix(bad)
        for position in range(3):
            mats = [good, good, good]
            mats.insert(position, bad)
            with pytest.raises(error) as stacked:
                DensityMatrix.stack(mats)
            assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_entry_is_invalid(self, bad, entry):
        m = np.eye(2, dtype=complex) / 2
        m[entry] = bad
        for build in (PsdOperator, DensityMatrix):
            with pytest.raises(InvalidMatrix, match="non-finite"):
                build(m)
        good = random_state_matrix(2, seed=5)
        for position in range(3):
            mats = [good, good, good]
            mats[position] = m
            with pytest.raises(InvalidMatrix, match="non-finite"):
                DensityMatrix.stack(mats)

    def test_non_finite_member_keeps_the_first_failure(self):
        # the non-finite check runs first, yet an earlier bad member still raises its own
        nan, not_psd = np.diag([np.nan, 1.0]), np.diag([1.5, -0.5])
        with pytest.raises(NotPSD):
            DensityMatrix.stack([not_psd, nan])
        with pytest.raises(InvalidMatrix, match="non-finite"):
            DensityMatrix.stack([nan, not_psd])

    def test_first_bad_member_wins(self):
        not_psd, not_unit = np.diag([1.5, -0.5]), np.diag([0.7, 0.7])
        with pytest.raises(NotPSD):
            DensityMatrix.stack([random_state_matrix(2, seed=6), not_psd, not_unit])
        with pytest.raises(InvalidMatrix, match="trace"):
            DensityMatrix.stack([not_unit, not_psd])

    def test_shape_is_checked(self):
        with pytest.raises(InvalidMatrix):
            DensityMatrix.stack(np.eye(2))
        with pytest.raises(InvalidMatrix):
            DensityMatrix.stack(np.zeros((2, 2, 3)))


# ----------------------------------------------------------------------------
# The per-exponent loops the grid residuals replaced, kept as oracles
# ----------------------------------------------------------------------------

def _loop_equality_condition_residual(rho, sigma, km, space, grid):
    rho1 = rho.marginal(space, (0,))
    sigma1 = sigma.marginal(space, (0,))
    worst = 0.0
    for b in grid:
        lhs = space.embed(sigma1.power(b), (0,)) @ km @ space.embed(rho1.power(-b), (0,))
        rhs = sigma.power(b) @ km @ rho.power(-b)
        worst = max(worst, op_norm(lhs - rhs))
    return worst


def _loop_joint_equality_residual(km, rho, sigma, comps, beta):
    worst = 0.0
    for _, rj, sj in comps:
        diff = sigma.power(beta) @ km @ rho.power(-beta) \
            - sj.power(beta) @ km @ rj.power(-beta)
        worst = max(worst, op_norm(diff))
    return worst


def _loop_operator_ssa_equality_residual(rho, sab, space, grid):
    sub_ab = space.subspace((0, 1))
    sb = sab.marginal(sub_ab, (1,))
    rho_bc = rho.marginal(space, (1, 2))
    worst = 0.0
    for b in grid:
        lhs = space.embed(sb.power(b), (1,)) @ space.embed(rho_bc.power(-b), (1, 2))
        rhs = space.embed(sab.power(b), (0, 1)) @ rho.power(-b)
        worst = max(worst, op_norm(lhs - rhs))
    return worst


def _fresh(op):
    return PsdOperator(op.mat)


class TestGridResiduals:
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_monotonicity(self, seed, n):
        space = FactorizedSpace(((2, 2), (3, 2), (2, 3))[seed % 3])
        rng = np.random.default_rng(seed)
        rho = random_density(space.dim, rank=space.dim - seed % 2, seed=rng)
        sigmas = [random_density(space.dim, seed=rng) for _ in range(n)]
        k = np.kron(random_contraction(space.dims[0], seed=rng), np.eye(space.dims[1]))
        assert GRID == DEFAULT_BETA_GRID    # the residual's grid, which the loop takes as given
        got = equality_condition_residuals([rho], sigmas, [k], space)
        assert got == [_loop_equality_condition_residual(_fresh(rho), _fresh(sigma), k,
                                                         space, GRID) for sigma in sigmas]
        assert [equality_condition_residuals([rho], [sigma], [k], space)[0]
                for sigma in sigmas] == got

    @pytest.mark.parametrize("seed", range(6))
    def test_joint_convexity(self, seed):
        rng = np.random.default_rng(seed)
        d = (2, 3, 4)[seed % 3]
        km = random_contraction(d, seed=rng)
        comps = [(w, random_density(d, seed=rng), random_density(d, seed=rng))
                 for w in (0.3, 0.3, 0.4)]
        (_, rho, sigma), = bounds._mixtures([comps])
        space = FactorizedSpace((d,))
        _, rhos, sigmas = zip(*comps)
        mixed = _sandwiches([sigma], (0,), [rho], (0,), space, GRID, km)
        got, = _grid_maxima((mixed - _sandwiches(sigmas, (0,), rhos, (0,), space, GRID, km))[None])
        fresh = [(w, _fresh(r), _fresh(s)) for w, r, s in comps]
        want = max(_loop_joint_equality_residual(km, _fresh(rho), _fresh(sigma), fresh, b)
                   for b in GRID)
        assert got == want
        report = bounds.verify_joint_convexity_block(from_id("neg_log"), [comps], [km], 0.25)[0]
        one = report.details["equality_residual"]
        assert one == _loop_joint_equality_residual(km, rho, sigma, comps, 0.25)

    @pytest.mark.parametrize("seed", range(3))
    def test_joint_convexity_ensembles_sharing_one_rho(self, seed):
        # the sweep's shape: every component and mixture holds the one rho
        rng = np.random.default_rng(seed)
        d = (2, 3, 4)[seed]
        km = random_contraction(d, seed=rng)
        rho = random_density(d, seed=rng)
        ensembles = []
        for _ in range(4):
            comps = [(w, rho, random_density(d, seed=rng)) for w in (0.3, 0.3, 0.4)]
            ensembles.append((comps, bounds._mixtures([comps])[0][2]))
        space = FactorizedSpace((d,))
        mixed = _sandwiches([sigma for _, sigma in ensembles], (0,), [rho], (0,), space, GRID, km)
        parts = _sandwiches([s for comps, _ in ensembles for _, _, s in comps], (0,),
                            [rho], (0,), space, GRID, km)
        got = _grid_maxima(mixed[:, None] - parts.reshape((4, 3) + mixed.shape[1:]))
        assert got == [max(_loop_joint_equality_residual(
            km, _fresh(rho), _fresh(sigma), [(w, _fresh(r), _fresh(s)) for w, r, s in comps], b)
            for b in GRID) for comps, sigma in ensembles]

    @pytest.mark.parametrize("n", [1, 4])
    def test_joint_convexity_sweep_raises_each_operator_once(self, monkeypatch, n):
        # per instance: 4 mixtures, 12 components and base_r once a side, never once per eps
        raised = []

        def spy(vecs, eigs, cutoffs, betas):
            raised.append(int(np.prod(vecs.shape[:-2])))
            return generalized_powers(vecs, eigs, cutoffs, betas)

        monkeypatch.setattr(linalg, "generalized_powers", spy)
        space, rng = FactorizedSpace((2, 2)), np.random.default_rng(0)
        numbers, build, _ = equality._SWEEP_DRAWS["joint_convexity"]
        instances = build([numbers(rng, space) for _ in range(n)])
        equality.equality_joint_convexity_block(from_id("neg_log"), space, instances)
        assert sum(raised) == 18 * n

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_operator_ssa(self, dims, seed, n):
        space = FactorizedSpace(dims)
        rng = np.random.default_rng(seed)
        rho = random_density(space.dim, seed=rng)
        sabs = [random_density(space.subspace((0, 1)).dim, rank=3 - (seed + i) % 2, seed=rng)
                for i in range(n)]
        assert GRID == DEFAULT_BETA_GRID    # the residual's grid, which the loop takes as given
        got = equality.operator_ssa_equality_residuals([rho], sabs, space)
        assert got == [_loop_operator_ssa_equality_residual(_fresh(rho), _fresh(sab),
                                                            space, GRID) for sab in sabs]


# ----------------------------------------------------------------------------
# The SSA residuals P and Q over a stack of pairs, against the one-pair formula
# ----------------------------------------------------------------------------

def _oracle_P(rho, sab, space, beta):
    """sigma_B^b rho_BC^{-b} rho^{1/2} - sigma_AB^b rho^{1/2-b}, operator by operator."""
    sb = PsdOperator(space.subspace((0, 1)).partial_trace(sab.mat, (1,)))
    rho_bc = PsdOperator(space.partial_trace(rho.mat, (1, 2)))
    return (space.embed(sb.power(beta), (1,)) @ space.embed(rho_bc.power(-beta), (1, 2))
            @ rho.power(0.5)
            - space.embed(sab.power(beta), (0, 1)) @ rho.power(0.5 - beta))


def _oracle_Q(rho_ab, sig, space, beta):
    """sigma_BC^b rho_B^{-b} rho_AB^{1/2} - sigma^b rho_AB^{1/2-b}, operator by operator."""
    rho_b = PsdOperator(space.subspace((0, 1)).partial_trace(rho_ab.mat, (1,)))
    sig_bc = PsdOperator(space.partial_trace(sig.mat, (1, 2)))
    return (space.embed(sig_bc.power(beta), (1, 2)) @ space.embed(rho_b.power(-beta), (1,))
            @ space.embed(rho_ab.power(0.5), (0, 1))
            - sig.power(beta) @ space.embed(rho_ab.power(0.5 - beta), (0, 1)))


class TestSsaResiduals:
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("full_rank", [True, False])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (2, 1, 3)])
    def test_stack_is_bit_equal_to_the_one_pair_formula(self, dims, full_rank, n):
        space = FactorizedSpace(dims)
        d_ab = space.subspace((0, 1)).dim
        rng = np.random.default_rng(sum(dims) + 10 * n + full_rank)

        def states(d):
            return [random_density(d, rank=d if full_rank else max(1, d // 2), seed=rng)
                    for _ in range(n)]

        rhos, sabs = states(space.dim), states(d_ab)
        for beta in (0.25, 0.5, 0.75):
            got = ssa_residuals_P(rhos, sabs, space, beta)
            assert got.shape == (n, space.dim, space.dim)
            for rho, sab, member in zip(rhos, sabs, got):
                assert_bits(member, _oracle_P(_fresh(rho), _fresh(sab), space, beta))
                assert_bits(ssa_residuals_P([rho], [sab], space, beta)[0], member)
            got = ssa_residuals_Q(sabs, rhos, space, beta)
            assert got.shape == (n, space.dim, space.dim)
            for rho, sab, member in zip(rhos, sabs, got):
                assert_bits(member, _oracle_Q(_fresh(sab), _fresh(rho), space, beta))
                assert_bits(ssa_residuals_Q([sab], [rho], space, beta)[0], member)


# ----------------------------------------------------------------------------
# The spectral formula over a stack of pairs, against the one-pair loop
# ----------------------------------------------------------------------------

FUNCTIONS = ("neg_log", "f_p:0.5", "f_p:1.5", "neg_power:0.3")


def _oracle_entropy(f, km, rho, sigma):
    """The one-pair spectral formula as written before stacking, plus the null-mode term.

    Kept columns are fancy-indexed out and summed by a two-dimensional
    einsum; a null mode j of rho that sigma weighs (sum_k mu_k w2[k, j] over
    sigma's modes above its cutoff, beyond OVERLAP_TOL of the largest column
    weight) adds f'(inf) times that weight, or raises where f'(inf) = +inf.
    """
    mu, lam = effective_eigs(sigma.eigs), effective_eigs(rho.eigs)
    keep = lam > rho.cutoff
    mu_zero = mu <= sigma.cutoff
    w2 = np.abs(sigma.vecs.conj().T @ km @ rho.vecs) ** 2
    fmat = np.zeros((len(mu), len(lam)))
    if keep.any():
        if (~mu_zero).any():
            fmat[np.ix_(~mu_zero, keep)] = f(np.outer(mu[~mu_zero], 1.0 / lam[keep]))
        if mu_zero.any() and f.diverges_at_zero:
            bad = w2[np.ix_(mu_zero, keep)]
            if np.any(bad > OVERLAP_TOL * max(1.0, float(w2.max()))):
                k = int(np.where(mu_zero)[0][np.argmax(bad.max(axis=1))])
                j = int(np.where(keep)[0][np.argmax(bad.max(axis=0))])
                raise DivergentEntropy(
                    f"f(0+) diverges on a weighted zero mode of sigma (j={j}, k={k})")
        elif mu_zero.any():
            fmat[np.ix_(mu_zero, keep)] = f.at_zero
    value = float(np.einsum("j,kj,kj->", lam[keep], fmat[:, keep], w2[:, keep]))
    if f.recession == 0.0:
        return value
    cols = [sum(mu[k] * w2[k, j] for k in range(len(mu)) if not mu_zero[k])
            for j in range(len(lam))]
    tol = OVERLAP_TOL * max(1.0, max(cols))
    null = {j: cols[j] for j in range(len(lam)) if not keep[j] and cols[j] > tol}
    if not null:
        return value
    if np.isinf(f.recession):
        j = max(null, key=null.get)
        raise DivergentEntropy(f"f'(inf) = +inf meets sigma's weight {null[j]:.3e} "
                               f"on a null mode of rho (j={j})")
    return value + f.recession * sum(null.values())


def _degenerate(d, k, rng):
    """An operator whose spectrum is kron(w, ones(k)) in a random eigenbasis."""
    w = np.kron(rng.random(d // k) + 0.1, np.ones(k))
    u = random_unitary(d, seed=rng)
    return PsdOperator(hermitize((u * (w / w.sum())) @ u.conj().T))


def _pairs(d, seed):
    """(rho, sigma) pairs at dim d: full rank, rank-deficient rho or sigma, degenerate."""
    rng = np.random.default_rng(seed)
    full = [(random_density(d, seed=rng), random_density(d, seed=rng)) for _ in range(3)]
    low_rho = [(random_density(d, rank=max(1, d // 2), seed=rng), random_density(d, seed=rng))]
    low_sigma = [(random_density(d, seed=rng), random_density(d, rank=max(1, d // 2), seed=rng))]
    k = 2 if d % 2 == 0 else d
    degenerate = [(_degenerate(d, k, rng), random_density(d, seed=rng)),
                  (random_density(d, seed=rng), _degenerate(d, k, rng)),
                  (_degenerate(d, k, rng), _degenerate(d, k, rng))]
    same = [(full[0][0], full[0][0])]
    return full + low_rho + low_sigma + degenerate + same


def _outcome(call):
    try:
        return call()
    except DivergentEntropy as exc:
        return (DivergentEntropy, str(exc))


class TestGatheredOperators:
    """A list of operators is read from the stack they were decomposed in (one fancy index, or
    the stack itself) with the bits of ``np.stack`` of the members: for one whole stack, a
    reordered subset of it and a list that mixes two stacks."""

    LISTS = {"stack": [0, 1, 2, 3, 4, 5], "subset": [4, 1, 1, 3], "mixed": [7, 0, 11, 2, 6]}

    @staticmethod
    def _operators(seed, mixed_rank, d=4):
        """Members of two stacks of six states, and each state decomposed alone."""
        rng = np.random.default_rng(seed)
        mats = [random_state_matrix(d, rank=int(rng.integers(1, d + 1)) if mixed_rank else d,
                                    seed=rng) for _ in range(12)]
        return DensityMatrix.stack(mats[:6]) + DensityMatrix.stack(mats[6:]), [
            DensityMatrix(m) for m in mats]

    @pytest.mark.parametrize("kind", sorted(LISTS))
    def test_powers(self, kind):
        stacked, alone = self._operators(21, mixed_rank=True)
        ops = [stacked[i] for i in self.LISTS[kind]]
        with mock.patch.object(np, "stack", wraps=np.stack) as restack:
            got = PsdOperator.powers(ops, BETAS)
            mats = linalg._as_matrices(ops)
        assert restack.call_count == 0
        assert (mats is ops[0].mat.base) == (kind == "stack")     # the stack's own array
        assert mats.flags.writeable == (kind != "stack")
        assert_bits(mats, np.stack([op.mat for op in ops]))
        assert_bits(got, PsdOperator.powers([alone[i] for i in self.LISTS[kind]], BETAS))
        assert_bits(got, generalized_powers(np.stack([op.vecs for op in ops]),
                                            np.stack([op.eigs for op in ops]),
                                            np.array([op.cutoff for op in ops]), BETAS))

    @pytest.mark.parametrize("fid", FUNCTIONS)
    @pytest.mark.parametrize("kind", sorted(LISTS))
    def test_spectral_formula_and_f_action(self, fid, kind):
        f = from_id(fid)
        stacked, alone = self._operators(22, mixed_rank=False)     # no pair diverges
        at = self.LISTS[kind]
        ks = np.stack([random_contraction(4, seed=i) for i in range(len(at))])

        def outcomes(ops):
            rhos, sigmas = [ops[i] for i in at], [ops[i] for i in at[::-1]]
            return (quasi_relative_entropies(f, ks, rhos, sigmas).tolist(),
                    apply_f_modulars(f, sigmas, rhos, ks).tobytes())

        got = outcomes(stacked)
        assert got == outcomes(alone)
        assert got[0] == [quasi_relative_entropy(f, ks[j], stacked[i], stacked[at[-1 - j]])
                          for j, i in enumerate(at)]


class TestSpectralKernel:
    @pytest.mark.parametrize("fid", FUNCTIONS)
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_stack_is_bit_equal_to_the_one_pair_loop(self, fid, d):
        f = from_id(fid)
        pairs = _pairs(d, d)
        for km in (np.eye(d, dtype=complex), random_contraction(d, seed=d + 1)):
            alone = [_outcome(lambda: _oracle_entropy(f, km, r, s)) for r, s in pairs]
            fine = [(pair, value) for pair, value in zip(pairs, alone)
                    if not isinstance(value, tuple)]
            got = quasi_relative_entropies(f, km, [r for (r, _), _ in fine],
                                           [s for (_, s), _ in fine])
            assert got.shape == (len(fine),)
            for (pair, value), x in zip(fine, got.tolist()):
                assert x == value == quasi_relative_entropy(f, km, *pair)
            # every pair that raises alone raises the same at each position of the stack
            for (r, s), value in zip(pairs, alone):
                if not isinstance(value, tuple):
                    continue
                for position in range(len(fine) + 1):
                    members = [p for p, _ in fine]
                    members.insert(position, (r, s))
                    with pytest.raises(DivergentEntropy) as err:
                        quasi_relative_entropies(f, km, *zip(*members))
                    assert (DivergentEntropy, str(err.value)) == value

    @pytest.mark.parametrize("fid", FUNCTIONS)
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_stack_of_k_is_bit_equal_to_the_one_pair_loop(self, fid, d):
        f = from_id(fid)
        pairs = _pairs(d, d)
        rng = np.random.default_rng(d + 2)
        ks = np.stack([np.eye(d, dtype=complex)]
                      + [random_contraction(d, seed=rng) for _ in pairs[1:]])
        alone = [_outcome(lambda: _oracle_entropy(f, km, r, s)) for km, (r, s) in zip(ks, pairs)]
        fine = [i for i, value in enumerate(alone) if not isinstance(value, tuple)]
        got = quasi_relative_entropies(f, ks[fine], *zip(*[pairs[i] for i in fine]))
        for i, x in zip(fine, got.tolist()):
            assert x == alone[i] == quasi_relative_entropy(f, ks[i], *pairs[i])
        # a pair that raises alone raises the same at each position of the stack,
        # with its own K, and before a later pair that fails its checks
        bad_dim = (random_density(d + 1, seed=rng), random_density(d + 1, seed=rng))
        for i, value in enumerate(alone):
            if not isinstance(value, tuple):
                continue
            for position in range(len(fine) + 1):
                members = fine[:position] + [i] + fine[position:]
                with pytest.raises(DivergentEntropy) as err:
                    quasi_relative_entropies(f, ks[members + [0]],
                                             *zip(*[pairs[j] for j in members], bad_dim))
                assert (DivergentEntropy, str(err.value)) == value

    def test_stack_of_k_must_hold_one_k_per_pair(self):
        rho, sigma = random_density(3, seed=1), random_density(3, seed=2)
        with pytest.raises(ValueError):
            quasi_relative_entropies(from_id("neg_log"), np.stack([np.eye(3)] * 3),
                                     [rho, rho], [sigma, sigma])

    def test_each_kind_of_divergence_is_met(self):
        # f(0+) = +inf on rank-deficient sigma, f'(inf) = +inf on rank-deficient rho
        d = 4
        pairs = _pairs(d, d)
        km = np.eye(d, dtype=complex)
        kinds = {fid: [_outcome(lambda: _oracle_entropy(from_id(fid), km, r, s))
                       for r, s in pairs] for fid in FUNCTIONS}
        assert isinstance(kinds["neg_log"][4], tuple) and "f(0+)" in kinds["neg_log"][4][1]
        assert isinstance(kinds["f_p:1.5"][3], tuple) and "null mode" in kinds["f_p:1.5"][3][1]
        assert not any(isinstance(v, tuple) for v in kinds["f_p:0.5"] + kinds["neg_power:0.3"])

    def test_first_failing_pair_wins(self):
        f = from_id("neg_log")
        rng = np.random.default_rng(3)
        good = (random_density(3, seed=rng), random_density(3, seed=rng))
        bad_sigma = (random_density(3, seed=rng), PsdOperator(np.diag([0.5, 0.5, 0.0])))
        with pytest.raises(DivergentEntropy, match="zero mode"):
            quasi_relative_entropies(f, np.eye(3), *zip(good, bad_sigma, (np.eye(4), np.eye(4))))
        with pytest.raises(InvalidMatrix, match="different spaces"):
            quasi_relative_entropies(f, np.eye(3), *zip(good, (np.eye(3), np.eye(4)), bad_sigma))

    def test_finite_recession_adds_its_term(self):
        # x f(1/x) of f_p:0.5 has f'(inf) = 4: a null mode of rho adds 4 times sigma's weight on it
        g = from_id("f_p:0.5").transpose()
        lam, mu = np.array([0.6, 0.4, 0.0]), np.array([0.2, 0.3, 0.5])
        rho = PsdOperator(np.diag(lam).astype(complex))
        sigma = PsdOperator(np.diag(mu).astype(complex))
        expected = sum(lam[j] * float(g(mu[j] / lam[j])) for j in range(2)) + 4.0 * mu[2]
        got = quasi_relative_entropy(g, np.eye(3), rho, sigma)
        assert got == pytest.approx(expected, rel=1e-13)
        assert got == pytest.approx(_oracle_entropy(g, np.eye(3), rho, sigma), rel=1e-13)


# ----------------------------------------------------------------------------
# Operator-SSA: the f(Delta) action and the block kernel
# ----------------------------------------------------------------------------

def _loop_f_action(f, sigma, rho, x):
    """The one-pair f(Delta_{sigma,rho}) action with two-dimensional products, as it was before
    the stack; the clustered spectra come from ``effective_eigs`` directly."""
    mu, lam = effective_eigs(sigma.eigs), effective_eigs(rho.eigs)
    keep, mu_zero = lam > rho.cutoff, mu <= sigma.cutoff
    phi, psi = sigma.vecs, rho.vecs
    y = phi.conj().T @ np.asarray(x, dtype=complex) @ psi
    weight = np.abs(y) ** 2
    fmat, diverges = _ratio_weights(f, mu[None], lam[None], keep[None], mu_zero[None],
                                    weight.T[None])
    if diverges[0]:
        raise SingularArgument(_zero_mode_message(mu_zero, keep, weight)[0])
    return phi @ np.multiply(fmat[0].T, y, order="C") @ psi.conj().T


def _loop_traced_terms(f, rho, sab, variant, space):
    """The two traced f-actions of one (rho_ABC, sigma_AB) pair, each operator on its own."""
    sub_ab, sub_bc = space.subspace((0, 1)), space.subspace((1, 2))
    full = PsdOperator(space.embed(sab.mat, (0, 1)))
    b_bc = PsdOperator(sub_bc.embed(sub_ab.partial_trace(sab.mat, (1,)), (0,)))
    rho_bc = PsdOperator(space.partial_trace(rho.mat, (1, 2)))
    g = f if variant in ("thm62", "thm63") else f.transpose()
    pairs = ([(full, rho, space, (2,)), (b_bc, rho_bc, sub_bc, (1,))]
             if variant in ("thm62", "cor64") else
             [(rho, full, space, (2,)), (rho_bc, b_bc, sub_bc, (1,))])
    t1, t2 = (hermitize(sp.partial_trace(_loop_f_action(g, left, right, right.mat), keep))
              for left, right, sp, keep in pairs)
    return t1, t2, g


def _loop_operator_ssa_report(f, rho, sab, beta, variant, space):
    """The one-pair operator-SSA report computed operator by operator, as before the stack."""
    sub_ab = space.subspace((0, 1))
    sb = PsdOperator(sub_ab.partial_trace(sab.mat, (1,)))
    rho_bc = PsdOperator(space.partial_trace(rho.mat, (1, 2)))
    t1, t2, g = _loop_traced_terms(f, rho, sab, variant, space)
    if variant in ("thm62", "cor64"):
        resid = (space.embed(sb.power(beta), (1,)) @ space.embed(rho_bc.power(-beta), (1, 2))
                 @ rho.power(0.5)
                 - space.embed(sab.power(beta), (0, 1)) @ rho.power(0.5 - beta))
        gram = hermitize(space.partial_trace(resid @ resid.conj().T, (2,)))
        d_norm = sab.max_eig() / rho.min_positive_eig()
    else:
        resid = (space.embed(rho_bc.power(beta), (1, 2)) @ space.embed(sb.power(-beta), (1,))
                 @ space.embed(sab.power(0.5), (0, 1))
                 - rho.power(beta) @ space.embed(sab.power(0.5 - beta), (0, 1)))
        gram = hermitize(space.partial_trace(resid.conj().T @ resid, (2,)))
        d_norm = rho.max_eig() / sab.min_positive_eig()
    scale = max(op_norm(t1), op_norm(t2), 1e-30)
    rhs_op = hermitize(t1 - t2)
    env = bounds.constants_for(g, beta, 1.0, d_norm)
    n_const, alpha, C, c = env.N, env.alpha, env.C, env.c
    lhs_op = n_const * PsdOperator(gram).power(1.0 / alpha)
    diff_min = float(np.linalg.eigvalsh(rhs_op - lhs_op).min())
    rhs_min = float(np.linalg.eigvalsh(rhs_op).min())
    passed = (diff_min >= -bounds.PSD_REPORT_TOL * scale
              and rhs_min >= -bounds.REPORT_TOL * max(1.0, scale))
    consts = bounds.BoundConstants(bounds.alpha1(beta), bounds.alpha2(beta), alpha, C, c,
                                   n_const, n_const ** (-alpha), float("nan"))
    return bounds._report(f"operator_ssa_{variant}", -diff_min, 0.0, passed, constants=consts,
                          digest=bounds.digest_inputs(rho.mat, sab.mat),
                          notes=f"f={f.name};beta={beta:g};variant={variant}",
                          details={"min_eig_diff": diff_min, "min_eig_rhs": rhs_min,
                                   "rhs_scale": scale,
                                   "gram_trace": float(np.real(np.trace(gram)))})


def _blocks(ineq, dims, fid, n, seed=7):
    """The sampled blocks of n trials' operands, as the campaign draws them."""
    seeds = [trial_seed(seed, ineq, dims, fid, 0.25, t) for t in range(n)]
    return seeds, list(campaign.sample_blocks(FAMILIES[ineq], FactorizedSpace(dims), seeds))


def _block(ineq, dims, fid, n, seed=7):
    """A sampled block of n trials' operands, as the campaign draws it."""
    seeds, blocks = _blocks(ineq, dims, fid, n, seed)
    assert len(blocks) == 1
    return seeds, blocks[0]


OPERATOR_SSA = ("operator_ssa_thm62", "operator_ssa_thm63", "operator_ssa_cor64",
                "operator_ssa_cor65", "wyd_operator")


class TestOperatorSsaBlock:
    @pytest.mark.parametrize("fid", FUNCTIONS)
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_f_action_stack_is_the_one_pair_formula(self, fid, d):
        f = from_id(fid)
        pairs = _pairs(d, d)
        rhos, sigmas = zip(*pairs)
        xs = [r.power(0.5) for r in rhos]
        alone = []
        for sigma, rho, x in zip(sigmas, rhos, xs):
            try:
                alone.append(_loop_f_action(f, sigma, rho, x))
            except SingularArgument as exc:
                alone.append(str(exc))

        def action(members):
            return apply_f_modulars(f, [sigmas[i] for i in members], [rhos[i] for i in members],
                                    [xs[i] for i in members])

        fine = [i for i, a in enumerate(alone) if not isinstance(a, str)]
        got = action(fine)
        for i, member in zip(fine, got):
            assert_bits(member, alone[i])
            assert_bits(action([i])[0], alone[i])
        for i, message in enumerate(alone):
            if isinstance(message, str):
                members = fine[:1] + [i] + fine[1:]
                with pytest.raises(SingularArgument) as err:
                    action(members)
                assert str(err.value) == message
                assert isinstance(err.value, DivergentEntropy)

    @pytest.mark.parametrize("variant", ["thm62", "thm63", "cor64", "cor65"])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
    def test_traced_terms_are_the_one_pair_loop(self, variant, dims):
        space = FactorizedSpace(dims)
        for fid in ("neg_log", "f_p:0.5"):
            f = from_id(fid)
            _, block = _block(f"operator_ssa_{variant}", dims, fid, 5)
            rhos, sabs = zip(*block)
            t1, t2, _ = bounds._traced_terms(f, rhos, sabs, variant, space)
            for i, (rho, sab) in enumerate(block):
                w1, w2, _ = _loop_traced_terms(f, _fresh(rho), _fresh(sab), variant, space)
                assert_bits(t1[i], w1)
                assert_bits(t2[i], w2)

    @pytest.mark.parametrize("n", [1, 3, 20])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
    @pytest.mark.parametrize("ineq", OPERATOR_SSA)
    def test_block_reports_are_the_one_trial_reports(self, ineq, dims, n):
        family = FAMILIES[ineq]
        space = FactorizedSpace(dims)
        for fid in ("neg_log", "f_p:0.5"):
            f = from_id(fid)
            if not family.admits(f, dims):
                continue
            seeds, block = _block(ineq, dims, fid, n)
            got = [r.to_json() for r in family.check(f, space, 0.25, block)]
            assert len(got) == n
            for seed, line in zip(seeds, got):
                ops = next(campaign.sample_blocks(family, space, [seed]))[0]
                alone, = family.check(f, space, 0.25, [ops])
                assert line == alone.to_json()
                rho, sab = (_fresh(op) for op in ops)
                if ineq == "wyd_operator":
                    single = bounds.verify_wyd_operator_block(0.5, [rho], [sab], 0.25, space)[0]
                    loop = _loop_operator_ssa_report(f, rho, sab, 0.25, "cor65", space)
                    loop.inequality_id, loop.notes = single.inequality_id, single.notes
                else:
                    single = bounds.verify_operator_ssa_block(f, [rho], [sab], 0.25, ineq[-5:],
                                                              space)[0]
                    loop = _loop_operator_ssa_report(f, rho, sab, 0.25, ineq[-5:], space)
                assert line == single.to_json() == loop.to_json()

    @pytest.mark.parametrize("ineq", OPERATOR_SSA)
    def test_decompositions_per_block_do_not_grow_with_its_size(self, ineq):
        space = FactorizedSpace((2, 2, 2))
        fid = "f_p:0.5"
        counts = []
        for n in (1, 3, 20):
            _, block = _block(ineq, (2, 2, 2), fid, n)
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                    mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as vals, \
                    mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                FAMILIES[ineq].check(from_id(fid), space, 0.25, block)
            counts.append((eigh.call_count, vals.call_count, svd.call_count))
        # sigma_B, sigma_AB (x) I_C, sigma_B (x) I_C, rho_BC, the Gram matrices;
        # both minimum eigenvalues; the two scales
        assert counts == [(5, 2, 1)] * 3

    def test_divergent_member_stays_in_its_trial(self, monkeypatch):
        # sigma_AB of rank 2 for about a third of the trials: neg_log's f(0+) = +inf
        # meets a weighted zero mode of sigma_AB (x) I_C in the thm62 action
        def sigma_ab(rng, space, policy):
            dim = space.subspace((0, 1)).dim
            rank = 2 if rng.random() < 0.3 else dim
            return DensityMatrix(random_state_matrix(dim, rank=rank, seed=rng))

        monkeypatch.setitem(campaign.SAMPLERS, "sigma_ab", sigma_ab)
        ineq, dims, fid = "operator_ssa_thm62", (2, 2, 2), "neg_log"
        _, block = _block(ineq, dims, fid, 20)
        with pytest.raises(SingularArgument):
            FAMILIES[ineq].check(from_id(fid), FactorizedSpace(dims), 0.25, block)
        got = _cell_lines(ineq, dims, fid, 0.25, 20, 7)
        assert got == _replayed_lines(ineq, dims, fid, 0.25, 20, 7)
        divergent = got.count("divergent=1")
        assert 0 < divergent < 20

    def test_divergent_trial_of_a_raising_small_block_stays_in_its_trial(self):
        # mixed-rank pinsker trials with a rank-deficient sigma diverge for neg_log
        with mock.patch.object(bounds, "pinsker_block", wraps=bounds.pinsker_block) as check:
            got = _cell_lines("pinsker", (2, 2, 2), "neg_log", 0.5, 20, 7)
        assert got == _replayed_lines("pinsker", (2, 2, 2), "neg_log", 0.5, 20, 7)
        assert 1 < got.count("divergent=1") < 20
        # the block raises before it gives an outcome; then each trial is checked alone, once
        assert check.call_count == 1 + 20


# ----------------------------------------------------------------------------
# The monotonicity trio and joint convexity: the block kernel
# ----------------------------------------------------------------------------

def _loop_monotonicity_report(ineq, f, rho, sigma, k1, v, beta, space):
    """One trial's report of a monotonicity-trio family, operator by operator (no block)."""
    rho1 = PsdOperator(space.partial_trace(rho.mat, (0,)))
    sigma1 = PsdOperator(space.partial_trace(sigma.mat, (0,)))
    k_full = np.kron(k1, v)
    gap = (quasi_relative_entropy(f, k_full, rho, sigma)
           - quasi_relative_entropy(f, k1, rho1, sigma1))
    digest = bounds.digest_inputs(rho.mat, sigma.mat, k1, v)
    if ineq == "monotonicity":
        return bounds._report(ineq, 0.0, gap, gap >= -bounds.REPORT_TOL, digest=digest,
                              notes=f"f={f.name}")
    rnorm = float(np.linalg.norm(
        np.kron(sigma1.power(beta) @ k1 @ rho1.power(-beta), v) @ rho.power(0.5)
        - sigma.power(beta) @ k_full @ rho.power(0.5 - beta)))
    k_norm, d_norm = op_norm(k1), ModularOperator(sigma, rho).op_norm()
    consts = bounds.optimize_T_scalar(f, beta, k_norm, d_norm, gap)
    notes = f"f={f.name};beta={beta:g}"
    if ineq == "thm42":
        lhs = np.pi / np.sin(beta * np.pi) * rnorm
        rhs = bounds.thm42_terms(f, beta, consts.T_star, k_norm, d_norm, gap)
        return bounds._report(ineq, lhs, rhs, bounds._rel_pass(lhs, rhs, bounds.REL_INEQ_TOL),
                              constants=consts, digest=digest, notes=notes,
                              details={"gap": gap, "rhs_at_T_star": rhs, "residual_hs": rnorm})
    details = {"residual_hs": rnorm, "gap": gap}
    rhs = consts.M * max(gap, 0.0) ** consts.alpha
    ok = bounds._rel_pass(rnorm, rhs, bounds.REL_INEQ_TOL)
    if beta == 0.5 and rho.rank() == rho.dim:     # the recovery-map forms, on fresh powers
        recovered = rho.power(0.5) @ np.kron(rho1.power(-0.5) @ hermitize(
            k1.conj().T @ sigma1.mat @ k1) @ rho1.power(-0.5), np.eye(v.shape[0])) @ rho.power(0.5)
        petz_lhs = linalg.trace_norm(hermitize(recovered)
                                     - hermitize(k_full.conj().T @ sigma.mat @ k_full))
        details.update(petz_diff_trace=petz_lhs, petz_chain_rhs=2.0 * rnorm)
        x_n = np.linalg.norm(np.kron(sigma1.power(0.5) @ k1 @ rho1.power(-0.5), v)
                             @ rho.power(0.5))
        if x_n + np.linalg.norm(sigma.power(0.5) @ k_full) <= 2.0 + 1e-9:
            ok = ok and bounds._rel_pass(petz_lhs, 2.0 * rnorm, bounds.REL_INEQ_TOL)
        ok = ok and bounds._rel_pass(petz_lhs, 2.0 * rhs, bounds.REL_INEQ_TOL)
        if f.name == "neg_log" and np.allclose(k_full, np.eye(space.dim)):
            details["quartic_lower"] = (np.pi / 4.0) ** 4 / d_norm ** 2 * rnorm ** 4
            ok = ok and bounds._rel_pass(details["quartic_lower"], gap, bounds.REL_INEQ_TOL)
        ok = _interchange_check(k1, v, rho, sigma, rho1, sigma1, space, consts, gap,
                                details) and ok
    return bounds._report(ineq, rnorm, rhs, ok, constants=consts, digest=digest, notes=notes,
                          details=details)


def _interchange_check(k1m, vm, rho, sigma, rho1, sigma1, space, consts, gap, details):
    """Swapped-roles recovery bound of one trial, as before the block (the oracle)."""
    if sigma1.rank() < sigma1.dim or sigma.rank() < sigma.dim:
        return True
    try:
        k1_inv = np.linalg.inv(k1m)
    except np.linalg.LinAlgError:
        return True
    k_inv_norm = op_norm(k1_inv)
    if k_inv_norm > 1e6:
        return True
    k_full = linalg._kron(k1m, vm)
    k_inv = linalg._kron(k1_inv, vm.conj().T)
    sandwich = hermitize(k1_inv.conj().T @ rho1.mat @ k1_inv)
    recovered = recovery.petz_recover(sigma, sandwich, space, keep=(0,))
    lhs = trace_norm(hermitize(k_full.conj().T @ recovered @ k_full) - rho.mat)
    x_mat = (linalg._kron(rho1.power(0.5), np.eye(space.dims[1])) @ k_inv
             @ linalg._kron(sigma1.power(-0.5), np.eye(space.dims[1]))
             @ sigma.power(0.5) @ k_full)
    pair_norm = linalg.hs_norm(x_mat) + math.sqrt(max(rho.trace(), 0.0))
    left_norms = (math.sqrt(rho1.max_eig()) * k_inv_norm
                  / math.sqrt(sigma1.min_positive_eig()))
    rhs = pair_norm * left_norms * consts.M * max(gap, 0.0) ** consts.alpha
    details["interchange_diff_trace"] = lhs
    details["interchange_rhs"] = rhs
    return bounds._rel_pass(lhs, rhs, bounds.REL_INEQ_TOL)


def _loop_joint_convexity_report(f, comps, km, beta):
    """One ensemble's joint-convexity report, operator by operator, as before the block."""
    probs = np.array([w for w, _, _ in comps])
    rho, sigma = (PsdOperator(hermitize(sum(w * x.mat for w, x in zip(probs, xs))))
                  for xs in list(zip(*comps))[1:])
    gap = (sum(w * quasi_relative_entropy(f, km, r, s) for w, r, s in comps)
           - quasi_relative_entropy(f, km, rho, sigma))
    mixed = sigma.power(beta) @ km @ rho.power(-beta)
    norms = np.array([float(np.linalg.norm(mixed @ r.power(0.5)
                                           - s.power(beta) @ km @ r.power(0.5 - beta)))
                      for _, r, s in comps])
    l1 = float((np.sqrt(probs) * norms).sum())
    d_sum = float(sum(w / r.min_positive_eig() for w, r, _ in comps))
    k_norm = op_norm(km)
    consts = bounds.optimize_T_scalar(f, beta, k_norm, d_sum, gap)
    rhs_star = bounds.thm42_terms(f, beta, consts.T_star, k_norm, d_sum, gap)
    power_rhs = consts.M * max(gap, 0.0) ** consts.alpha
    ok = (gap >= -bounds.REPORT_TOL
          and bounds._rel_pass(np.pi / np.sin(beta * np.pi) * l1, rhs_star, bounds.REL_INEQ_TOL)
          and bounds._rel_pass(l1, power_rhs, bounds.REL_INEQ_TOL))
    return bounds._report(
        "joint_convexity", l1, power_rhs, ok, constants=consts,
        digest=bounds.digest_inputs(km, *[r.mat for _, r, _ in comps],
                                    *[s.mat for _, _, s in comps]),
        notes=f"f={f.name};beta={beta:g}",
        details={"gap": gap, "residual_block_l2": float(np.sqrt((probs * norms ** 2).sum())),
                 "equality_residual": _loop_joint_equality_residual(km, rho, sigma, comps, beta),
                 "rhs_at_T_star": rhs_star})


MONOTONICITY_BLOCK = ("monotonicity", "thm42", "monotonicity_bound", "joint_convexity")


class TestMonotonicityBlock:
    @pytest.mark.parametrize("beta", [0.25, 0.5])
    @pytest.mark.parametrize("dims, n", [((2, 2), 1), ((2, 2), 4), ((2, 2), 20),
                                         ((3, 2), 1), ((3, 2), 4), ((3, 2), 20), ((8, 8), 1)])
    @pytest.mark.parametrize("ineq", MONOTONICITY_BLOCK)
    def test_block_reports_are_the_one_trial_reports(self, ineq, dims, n, beta):
        family = FAMILIES[ineq]
        space = FactorizedSpace(dims)
        for fid in ("neg_log", "f_p:0.5"):
            f = from_id(fid)
            seeds, blocks = _blocks(ineq, dims, fid, n)
            got = [r.to_json() for block in blocks for r in family.check(f, space, beta, block)]
            assert len(got) == n
            for seed, line in zip(seeds, got):
                ops = next(campaign.sample_blocks(family, space, [seed]))[0]
                alone, = family.check(f, space, beta, [ops])
                assert line == alone.to_json()
                if ineq == "joint_convexity":
                    comps, km = [(w, _fresh(r), _fresh(s)) for w, r, s in ops[0]], ops[1]
                    single = bounds.verify_joint_convexity_block(f, [comps], [km], beta)[0]
                    loop = _loop_joint_convexity_report(f, comps, km, beta)
                else:
                    rho, sigma, k1, v = _fresh(ops[0]), _fresh(ops[1]), ops[2], ops[3]
                    one = {"monotonicity": lambda: bounds.verify_monotonicity_block(
                               f, [rho], [sigma], [k1], [v], space),
                           "thm42": lambda: bounds.verify_thm42_block(
                               f, [rho], [sigma], [k1], [v], beta, space),
                           "monotonicity_bound": lambda: bounds.verify_monotonicity_bound_block(
                               f, [rho], [sigma], [k1], [v], beta, space)}[ineq]
                    single = one()[0]
                    loop = _loop_monotonicity_report(ineq, f, _fresh(rho), _fresh(sigma), k1, v,
                                                     beta, space)
                assert line == single.to_json() == loop.to_json()

    @staticmethod
    def _counts(ineq, beta, dims=(2, 2)):
        """(eigh, SVD, inv, generalized_powers) calls of a block of n trials, for n = 1, 4, 20."""
        space, fid = FactorizedSpace(dims), "f_p:0.5"
        counts = []
        for n in (1, 4, 20):
            _, block = _block(ineq, dims, fid, n)
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                    mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                    mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv, \
                    mock.patch.object(linalg, "generalized_powers",
                                      wraps=linalg.generalized_powers) as powers:
                FAMILIES[ineq].check(from_id(fid), space, beta, block)
            counts.append((eigh.call_count, svd.call_count, inv.call_count, powers.call_count))
        return counts

    @pytest.mark.parametrize("ineq", MONOTONICITY_BLOCK)
    def test_decompositions_per_block_do_not_grow_with_its_size(self, ineq):
        # the 2N marginals (or the 2N mixtures); ||K1|| (or ||K|| and the equality residuals);
        # the residual's four lists (or the mixtures' two, the components' two and rho_j^{-b})
        assert self._counts(ineq, 0.25) == [{
            "monotonicity": (1, 0, 0, 0), "thm42": (1, 1, 0, 4), "monotonicity_bound": (1, 1, 0, 4),
            "joint_convexity": (1, 2, 0, 5)}[ineq]] * 3

    def test_recovery_forms_per_block_do_not_grow_with_its_size(self):
        # beta = 1/2 adds the two trace norms and ||K1^{-1}||, the stacked K1^{-1}, and the
        # powers of rho_1, sigma_1 and sigma, and petz_recover's two
        assert self._counts("monotonicity_bound", 0.5) == [(1, 4, 1, 9)] * 3

    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_recovery_forms_of_a_mixed_block_are_the_one_trial_loop(self, dims, fid):
        # every gate of the beta = 1/2 forms in one block: a rank-deficient rho (no forms), a
        # rank-deficient sigma, an exactly singular K1, ||K1^{-1}|| > 1e6 (no swapped roles),
        # K1 = V = I (the quartic case for neg_log), and plain trials between them
        space, f = FactorizedSpace(dims), from_id(fid)
        d1, d2 = dims
        rng = np.random.default_rng(sum(dims))
        u, w = random_unitary(d1, seed=rng), random_unitary(d1, seed=rng)
        singular = np.zeros((d1, d1), dtype=complex)
        singular[:, 0] = 0.5 * u[:, 0]
        kinds = {
            "rank-deficient rho": (space.dim - 1, space.dim, None, None),
            "plain": (space.dim, space.dim, None, None),
            "rank-deficient sigma": (space.dim, space.dim - 1, None, None),
            "singular K1": (space.dim, space.dim, singular, None),
            "ill-conditioned K1": (space.dim, space.dim,
                                   u @ np.diag([0.8] + [1e-7] * (d1 - 1)) @ w, None),
            "K1 = V = I": (space.dim, space.dim, np.eye(d1), np.eye(d2)),
        }
        if fid == "neg_log":    # its f(0+) = +inf meets sigma's zero mode: a divergent trial
            del kinds["rank-deficient sigma"]
        trials = []
        for rho_rank, sigma_rank, k1, v in list(kinds.values()) * 2:
            trials.append((random_density(space.dim, rank=rho_rank, seed=rng),
                           random_density(space.dim, rank=sigma_rank, seed=rng),
                           random_contraction(d1, seed=rng) if k1 is None else k1,
                           random_unitary(d2, seed=rng) if v is None else v))
        got = bounds.verify_monotonicity_bound_block(f, *zip(*trials), 0.5, space)
        for kind, report, (rho, sigma, k1, v) in zip(list(kinds) * 2, got, trials):
            loop = _loop_monotonicity_report("monotonicity_bound", f, _fresh(rho), _fresh(sigma),
                                             k1, v, 0.5, space)
            alone, = bounds.verify_monotonicity_bound_block(f, [rho], [sigma], [k1], [v], 0.5,
                                                            space)
            assert report.to_json() == alone.to_json() == loop.to_json()
            forms = "petz_diff_trace" in report.details
            swapped = "interchange_rhs" in report.details
            assert forms == (kind != "rank-deficient rho")
            assert swapped == (kind in ("plain", "K1 = V = I"))
            assert ("quartic_lower" in report.details) == (kind == "K1 = V = I"
                                                           and fid == "neg_log")

    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_petz_chain_gate_is_the_trace_of_gamma(self, dims, fid):
        # K1 of norm in [0.75, 4): (a) ||K1|| > 1 and Tr K1* sigma_1 K1 > 1, where the chain
        # ||R_rho(gamma) - K* sigma K||_1 <= 2 ||R||_2 fails and only the gate keeps the
        # report passing; (b) ||K1|| > 1 and Tr K1* sigma_1 K1 < 1, where the chain applies
        space, f = FactorizedSpace(dims), from_id(fid)
        d1, d2 = dims
        rng = np.random.default_rng(11)
        trials = []
        for _ in range(24):
            rho, sigma = (random_density(space.dim, seed=rng) for _ in range(2))
            k1 = random_contraction(d1, seed=rng)
            trials.append((rho, sigma, k1 * (rng.uniform(0.75, 4.0) / op_norm(k1)),
                           random_unitary(d2, seed=rng)))
        got = bounds.verify_monotonicity_bound_block(f, *zip(*trials), 0.5, space)
        kinds = []
        for report, (rho, sigma, k1, v) in zip(got, trials):
            loop = _loop_monotonicity_report("monotonicity_bound", f, _fresh(rho), _fresh(sigma),
                                             k1, v, 0.5, space)
            assert report.to_json() == loop.to_json()
            rho1, sigma1 = (PsdOperator(space.partial_trace(x.mat, (0,))) for x in (rho, sigma))
            gamma_trace = float(np.trace(k1.conj().T @ sigma1.mat @ k1).real)
            x_hs = np.linalg.norm(np.kron(sigma1.power(0.5) @ k1 @ rho1.power(-0.5), v)
                                  @ rho.power(0.5))
            y_hs = np.linalg.norm(sigma.power(0.5) @ np.kron(k1, v))
            assert x_hs ** 2 == pytest.approx(gamma_trace, rel=1e-12)
            assert y_hs ** 2 == pytest.approx(gamma_trace, rel=1e-12)
            assert abs(gamma_trace - 1.0) > 1e-6
            chain = bounds._rel_pass(report.details["petz_diff_trace"],
                                     report.details["petz_chain_rhs"], bounds.REL_INEQ_TOL)
            if op_norm(k1) > 1.0 and gamma_trace > 1.0 and not chain:
                kinds.append("a")
                assert report.passed
            elif op_norm(k1) > 1.0 and gamma_trace < 1.0:
                kinds.append("b")
                assert chain and report.passed
        assert kinds.count("a") >= 5 and kinds.count("b") >= 2

    @pytest.mark.parametrize("n", [1, 4])
    def test_joint_convexity_raises_each_operator_once(self, monkeypatch, n):
        # per trial: the two mixtures to one exponent each, the three sigma_j to one and the
        # three rho_j to three (1/2, 1/2 - beta, -beta), each once
        raised = []

        def spy(vecs, eigs, cutoffs, betas):
            raised.extend((member.tobytes(), beta) for member in eigs for beta in betas)
            return generalized_powers(vecs, eigs, cutoffs, betas)

        monkeypatch.setattr(linalg, "generalized_powers", spy)
        _, block = _block("joint_convexity", (2, 2), "neg_log", n)
        FAMILIES["joint_convexity"].check(from_id("neg_log"), FactorizedSpace((2, 2)), 0.25, block)
        assert len(raised) == 14 * n
        assert len(set(raised)) == len(raised)

    def test_divergent_member_stays_in_its_trial(self):
        # mixed rank: a rank-deficient sigma meets neg_log's f(0+) = +inf on a weighted zero mode
        ineq, dims, fid = "monotonicity", (2, 2), "neg_log"
        seeds = [trial_seed(7, ineq, dims, fid, 0.25, t) for t in range(20)]
        block, = campaign.sample_blocks(FAMILIES[ineq], FactorizedSpace(dims), seeds, "mixed")
        with pytest.raises(DivergentEntropy):
            FAMILIES[ineq].check(from_id(fid), FactorizedSpace(dims), 0.25, block)
        got = _cell_lines(ineq, dims, fid, 0.25, 20, 7)
        assert got == _replayed_lines(ineq, dims, fid, 0.25, 20, 7)
        assert 0 < got.count("divergent=1") < 20


# ----------------------------------------------------------------------------
# ssa and cauchy_schwarz: the block kernel against the one-trial loop
# ----------------------------------------------------------------------------

def _loop_ssa_report(rho, beta, space):
    """One state's ssa report, operator by operator, with np.kron (no block)."""
    rho = _fresh(rho)
    gap = bounds.ssa_gap(rho, space)
    rho_ab, rho_bc, rho_b, rho_c = (rho.marginal(space, keep)
                                    for keep in ((0, 1), (1, 2), (1,), (2,)))
    term1 = (space.embed(np.kron(rho_b.power(beta), rho_c.power(beta)), (1, 2))
             @ space.embed(rho_bc.power(-beta), (1, 2)) @ rho.power(0.5))
    term2 = np.kron(rho_ab.power(beta), rho_c.power(beta)) @ rho.power(0.5 - beta)
    rnorm = float(np.linalg.norm(term1 - term2))
    d_norm = rho_ab.max_eig() * rho_c.max_eig() / rho.min_positive_eig()
    env = bounds.constants_for(bounds.NEG_LOG, beta, 1.0, d_norm)
    n_const, alpha, C, c = env.N, env.alpha, env.C, env.c
    lhs = n_const * rnorm ** (1.0 / alpha)
    ok = bounds._rel_pass(lhs, gap, bounds.REL_INEQ_TOL) and gap >= -bounds.REPORT_TOL
    details = {"residual_hs": rnorm, "ssa_gap": gap}
    if beta == 0.5:
        recovered = recovery.petz_recover(rho, np.kron(rho_b.mat, rho_c.mat), space, keep=(1, 2))
        petz_l1 = linalg.trace_norm(recovered - np.kron(rho_ab.mat, rho_c.mat))
        inv_norm = 1.0 / rho.min_positive_eig()
        details["petz_diff_trace"] = petz_l1
        details["petz_quartic_lower"] = (np.pi / 8.0) ** 4 / inv_norm ** 2 * petz_l1 ** 4
        ok = ok and bounds._rel_pass(details["petz_quartic_lower"], gap, bounds.REL_INEQ_TOL)
    consts = bounds.BoundConstants(bounds.alpha1(beta), bounds.alpha2(beta), alpha, C, c,
                                   n_const, n_const ** (-alpha), float("nan"))
    return bounds._report("ssa", lhs, gap, ok, constants=consts,
                          digest=bounds.digest_inputs(rho.mat), notes=f"beta={beta:g}",
                          details=details)


def _loop_cauchy_schwarz_report(rho, sab, beta, space):
    """One pair's cauchy_schwarz report, operator by operator (no block)."""
    rho, sab = _fresh(rho), _fresh(sab)
    sub_ab, sub_bc = space.subspace((0, 1)), space.subspace((1, 2))
    sigma_full = space.embed(sab.mat, (0, 1))
    t1 = space.partial_trace(sigma_full @ rho.power(-1.0) @ sigma_full, (2,))
    sb_bc = sub_bc.embed(sab.marginal(sub_ab, (1,)).mat, (0,))
    t2 = sub_bc.partial_trace(sb_bc @ rho.marginal(space, (1, 2)).power(-1.0) @ sb_bc, (1,))
    low = float(np.linalg.eigvalsh(hermitize(t1 - t2)).min())
    scale = max(op_norm(t1), op_norm(t2), 1e-30)
    resid = ssa_residuals_Q([sab], [rho], space, beta)[0]
    gram = hermitize(space.partial_trace(resid.conj().T @ resid, (2,)))
    recovered = recovery.petz_recover(PsdOperator(sigma_full), rho.marginal(space, (1, 2)),
                                      space, keep=(1, 2))
    return bounds._report("cauchy_schwarz", -low, 0.0, low >= -bounds.PSD_REPORT_TOL * scale,
                          digest=bounds.digest_inputs(rho.mat, sab.mat),
                          notes=f"beta={beta:g};N=0 at p=2",
                          details={"min_eig_diff": low, "petz_recovery_residual":
                                   linalg.trace_norm(recovered - rho.mat),
                                   "gram_trace": float(np.real(np.trace(gram))), "n_const": 0.0})


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
def test_ssa_and_cauchy_schwarz_blocks_are_the_one_trial_loop(dims, beta):
    space = FactorizedSpace(dims)
    seeds = [trial_seed(7, "ssa", dims, "neg_log", 0.5, t) for t in range(20)]
    block, = campaign.sample_blocks(FAMILIES["ssa"], space, seeds, "mixed")
    assert any(rho.rank() < rho.dim for rho, in block)
    got = bounds.verify_ssa_block([rho for rho, in block], beta, space)
    assert ([r.to_json() for r in got]
            == [_loop_ssa_report(rho, beta, space).to_json() for rho, in block])
    block, = campaign.sample_blocks(FAMILIES["cauchy_schwarz"], space, seeds)
    got = bounds.verify_cauchy_schwarz_block(*zip(*block), beta, space)
    assert ([r.to_json() for r in got]
            == [_loop_cauchy_schwarz_report(rho, sab, beta, space).to_json()
                for rho, sab in block])


def test_ssa_recovery_form_per_block_does_not_grow_with_its_size():
    # the four marginals; the trace norm; rho to (1/2, 1/2 - beta), rho_C, rho_B, rho_AB and
    # rho_BC^{-beta}, whose -1/2 the Petz form at beta = 1/2 reads from the residual's term 1
    assert TestMonotonicityBlock._counts("ssa", 0.5, (2, 2, 2)) == [(4, 1, 0, 5)] * 3


# ----------------------------------------------------------------------------
# The eps sweeps against their per-eps loops
# ----------------------------------------------------------------------------

def _floored(dim, rng):
    """One floored state of a sweep, drawn from ``rng`` on its own."""
    return equality._floored_state(rng.standard_normal((1, 2, dim, dim)))[0]


def _sweep_instance(name, rng, space):
    """The instance of sweep ``name`` drawn from ``rng``, built as a block of one."""
    numbers, build, _ = equality._SWEEP_DRAWS[name]
    return build([numbers(rng, space)])[0]


def _loop_monotonicity_sweep(f, space, rng):
    d1, d2 = space.dims
    rho1 = _floored(d1, rng)
    sigma1 = random_state_matrix(d1, seed=rng)
    tau = _floored(d2, rng)
    k1 = random_contraction(d1, seed=rng)
    noise = random_state_matrix(space.dim, seed=rng)
    rho = PsdOperator(np.kron(rho1, tau))
    sigma0 = np.kron(sigma1, tau)
    k_full = np.kron(k1, np.eye(d2))
    gaps, resids = [], []
    for eps in equality.EPS_SWEEP:
        sigma = PsdOperator(hermitize((1.0 - eps) * sigma0 + eps * noise))
        gaps.append(bounds.monotonicity_gap(f, k1, np.eye(d2), rho, sigma, space))
        resids.append(_loop_equality_condition_residual(rho, sigma, k_full, space, GRID))
    return equality._sweep_reports("equality_monotonicity", f, gaps, resids,
                                   [bounds.digest_inputs(rho.mat, sigma0, k_full)])[0]


def _loop_joint_convexity_sweep(f, space, rng):
    dim = space.dim
    base_r = PsdOperator(_floored(dim, rng))
    base_s = random_state_matrix(dim, seed=rng)
    km = random_contraction(dim, seed=rng)
    probs = (0.3, 0.3, 0.4)
    noises = [random_state_matrix(dim, seed=rng) for _ in probs]
    mix_r = PsdOperator(hermitize(sum(w * base_r.mat for w in probs)))
    gaps, resids = [], []
    for eps in equality.EPS_SWEEP:
        comps = [(w, base_r, PsdOperator(hermitize((1 - eps) * base_s + eps * ns)))
                 for w, ns in zip(probs, noises)]
        mix_s = PsdOperator(hermitize(sum(w * s.mat for w, _, s in comps)))
        avg = sum(w * quasi_relative_entropy(f, km, r, s) for w, r, s in comps)
        gaps.append(avg - quasi_relative_entropy(f, km, mix_r, mix_s))
        resids.append(max(_loop_joint_equality_residual(km, base_r, mix_s, comps, b)
                          for b in GRID))
    return equality._sweep_reports("equality_joint_convexity", f, gaps, resids,
                                   [bounds.digest_inputs(km, base_r.mat, base_s)])[0]


def _loop_operator_ssa_sweep(f, space, rng):
    sub_ab = space.subspace((0, 1))
    rho_ab = _floored(sub_ab.dim, rng)
    tau = _floored(space.dims[2], rng)
    noise = random_state_matrix(sub_ab.dim, seed=rng)
    rho = PsdOperator(np.kron(rho_ab, tau))
    gaps, resids = [], []
    for eps in equality.EPS_SWEEP:
        sab = PsdOperator(hermitize((1.0 - eps) * rho_ab + eps * noise))
        t1, t2, _ = _loop_traced_terms(f, rho, sab, "thm62", space)
        gaps.append(float(np.real(np.trace(hermitize(t1 - t2)))))
        resids.append(_loop_operator_ssa_equality_residual(rho, sab, space, GRID))
    return equality._sweep_reports("equality_operator_ssa", f, gaps, resids,
                                   [bounds.digest_inputs(rho.mat, rho_ab)])[0]


SWEEPS = {
    "equality_monotonicity": ("monotonicity", equality.equality_monotonicity_block,
                              _loop_monotonicity_sweep),
    "equality_joint_convexity": ("joint_convexity", equality.equality_joint_convexity_block,
                                 _loop_joint_convexity_sweep),
    "equality_operator_ssa": ("operator_ssa", equality.equality_operator_ssa_block,
                              _loop_operator_ssa_sweep),
}


@pytest.mark.parametrize("fid", FUNCTIONS)
@pytest.mark.parametrize("sweep, dims", [
    (sweep, dims) for sweep in sorted(SWEEPS) for dims in ((2, 2), (2, 2, 2), (3, 2))
    if FAMILIES[sweep].nfactors in (None, len(dims))])
def test_sweep_of_one_instance_is_the_per_eps_loop(sweep, dims, fid):
    name, block, loop = SWEEPS[sweep]
    space = FactorizedSpace(dims)
    for seed in range(3):
        instance = _sweep_instance(name, np.random.default_rng(seed), space)
        got = [r.to_json() for r in block(from_id(fid), space, [instance])[0]]
        want = [r.to_json() for r in loop(from_id(fid), space, np.random.default_rng(seed))]
        assert got == want


@pytest.mark.parametrize("fid", ("neg_log", "f_p:0.5"))
@pytest.mark.parametrize("sweep, dims, nblocks", [
    ("equality_monotonicity", (2, 2), 1), ("equality_monotonicity", (3, 3), 2),
    ("equality_joint_convexity", (2, 2), 2), ("equality_joint_convexity", (3,), 1),
    ("equality_joint_convexity", (3, 3), 10),
    ("equality_operator_ssa", (2, 2, 2), 1), ("equality_operator_ssa", (2, 3, 2), 2)])
def test_sweep_block_members_are_the_per_eps_loop(sweep, dims, nblocks, fid):
    # a 20-trial cell, in as many blocks as BLOCK_BYTES makes of it
    f, family, space = from_id(fid), FAMILIES[sweep], FactorizedSpace(dims)
    seeds, blocks = _blocks(sweep, dims, fid, 20)
    assert len(blocks) == nblocks
    got = [[r.to_json() for r in sweep_reports] for block in blocks
           for sweep_reports in family.check(f, space, 0.25, block)]
    assert len(got) == 20
    for seed, lines in zip(seeds, got):
        alone, = family.check(f, space, 0.25, next(campaign.sample_blocks(family, space, [seed])))
        assert lines == [r.to_json() for r in alone]
        assert lines == [r.to_json() for r in SWEEPS[sweep][2](f, space, np.random.default_rng(seed))]


def _rank_deficient_sometimes(sampler, replace):
    """``sampler`` whose draw, in about a third of the trials, ``replace`` gives rank-1 states."""
    def sample(rng, space, policy):
        drawn = sampler(rng, space, policy)
        if rng.random() < 0.35:
            drawn = replace(drawn, lambda dim: DensityMatrix(
                random_state_matrix(dim, rank=1, seed=rng)))
        return drawn
    return sample


def _rank_one_sweep(sweep, state):
    # the sweep's numbers built into its instance alone, then its sigma(eps) replaced
    instance, = sweep.finish([sweep.z], [sweep.arg])
    instance[2] = [state(s.dim) for s in instance[2]]
    return instance


def _rank_one_rho_j(ensemble, state):
    for component in ensemble:
        component[1] = state(len(component[1].z[0]))
    return ensemble


@pytest.mark.parametrize("ineq, operand, dims, fid, replace", [
    ("equality_monotonicity", "monotonicity_sweep", (2, 2), "neg_log", _rank_one_sweep),
    ("equality_joint_convexity", "joint_convexity_sweep", (2,), "neg_log", _rank_one_sweep),
    ("wyd_joint_concavity", "ensemble", (2, 2), "f_p:1.5", _rank_one_rho_j)])
def test_raising_block_gives_the_outcomes_of_its_trials_alone(ineq, operand, dims, fid, replace,
                                                            monkeypatch):
    # rank-1 sigma(eps) meet neg_log's f(0+) = +inf, rank-1 rho_j f_1.5's f'(inf) = +inf
    monkeypatch.setitem(campaign.SAMPLERS, operand,
                        _rank_deficient_sometimes(campaign.SAMPLERS[operand], replace))
    _, block = _block(ineq, dims, fid, 20)
    with pytest.raises(DivergentEntropy):
        FAMILIES[ineq].check(from_id(fid), FactorizedSpace(dims), 0.25, block)
    got = _cell_lines(ineq, dims, fid, 0.25, 20, 7)
    assert got == _replayed_lines(ineq, dims, fid, 0.25, 20, 7)
    divergent = got.count("divergent=1")
    assert 0 < divergent < 20


# ----------------------------------------------------------------------------
# Block sampling: the campaign line is the run_single line
# ----------------------------------------------------------------------------

def _cell_lines(ineq, dims, fid, beta, trials, seed, policy="mixed"):
    config = CampaignConfig(inequalities=(ineq,), functions=(fid,), dims=(dims,),
                            betas=(beta,), trials=trials, seed=seed, rank_policy=policy)
    buf = io.StringIO()
    run_campaign(config, stream=buf)
    return buf.getvalue()


def _replayed_lines(ineq, dims, fid, beta, trials, seed, policy="mixed"):
    lines = []
    for t in range(trials):
        for rep in run_single(ineq, fid, dims, beta, trial_seed(seed, ineq, dims, fid, beta, t),
                              policy):
            lines.append(rep.to_json() + "\n")
    return "".join(lines)


@pytest.mark.parametrize("block_bytes", [campaign.BLOCK_BYTES, 2000])
@pytest.mark.parametrize("ineq", sorted(FAMILIES))
def test_campaign_line_is_the_run_single_line(ineq, block_bytes, monkeypatch):
    monkeypatch.setattr(campaign, "BLOCK_BYTES", block_bytes)
    cells = 0
    for dims in ((2, 2), (2, 2, 2), (3, 2)):
        for fid in ("neg_log", "f_p:0.5"):
            got = _cell_lines(ineq, dims, fid, 0.25, 3, 17)
            assert got == _replayed_lines(ineq, dims, fid, 0.25, 3, 17)
            cells += bool(got)
    assert cells >= 1


@pytest.mark.parametrize("ineq, dims, policy", [
    (ineq, dims, policy) for dims, policy in (((2, 2), "full"), ((2, 2, 2), "mixed"))
    for ineq in sorted(FAMILIES) if FAMILIES[ineq].nfactors in (None, len(dims))])
def test_block_of_twenty_is_its_trials_replayed_alone(ineq, dims, policy):
    # every family checks a 20-trial cell as one block, or as the blocks BLOCK_BYTES makes;
    # at 2x2x2 mixed rank, pinsker at neg_log meets rank-deficient sigmas and its block raises
    fid = "neg_log" if FAMILIES[ineq].admits(from_id("neg_log"), dims) else "f_p:0.5"
    got = _cell_lines(ineq, dims, fid, 0.5, 20, 7, policy)
    assert got == _replayed_lines(ineq, dims, fid, 0.5, 20, 7, policy)
    assert got.count("\n") >= 20
    if (ineq, dims) == ("pinsker", (2, 2, 2)):
        assert 0 < got.count("divergent=1") < 20


@pytest.mark.parametrize("ineq", sorted(FAMILIES))
def test_each_family_raises_each_operator_to_each_exponent_once(ineq):
    # one PsdOperator.powers call per (operator, exponent) over a block, but for two cases:
    # monotonicity_bound at beta = 1/2 raises rho^{1/2}, rho_1^{-1/2} and sigma^{1/2} of each
    # full-rank-rho trial a second time (monotonicity_residuals and petz_recover are public
    # and hand no powers on), and equality_joint_convexity raises base_r once per side
    family, real = FAMILIES[ineq], PsdOperator.powers
    checked = 0
    for dims, fid, beta in itertools.product(((2, 2), (3, 2), (2, 2, 2)),
                                             ("neg_log", "f_p:0.5", "f_p:0.3"), (0.25, 0.5, 0.75)):
        f, space = from_id(fid), FactorizedSpace(dims)
        if not family.admits(f, dims):
            continue
        _, block = _block(ineq, dims, fid, 3)
        calls, alive = [], []

        def spy(ops, betas):
            ops = list(ops)
            alive.append(ops)       # no id is reused while the block is checked
            calls.append({(id(op), b) for op in ops for b in betas})
            return real(ops, betas)

        with mock.patch.object(PsdOperator, "powers", staticmethod(spy)):
            family.check(f, space, beta, block)
        counts = collections.Counter(pair for call in calls for pair in call)
        expected = {}
        if ineq == "monotonicity_bound" and beta == 0.5:
            for rho, sigma, _, _ in block:
                if rho.rank() == rho.dim:
                    rho1, = PsdOperator.marginals([rho], space, (0,))
                    expected.update({(id(rho), 0.5): 2, (id(rho1), -0.5): 2, (id(sigma), 0.5): 2})
        elif ineq == "equality_joint_convexity":
            expected = {(id(instance[0]), -b): 2 for instance, in block for b in GRID}
        assert {pair: n for pair, n in counts.items() if n > 1} == expected
        checked += 1
    assert checked


def test_blocks_keep_to_the_byte_budget():
    sizes = []
    real = DensityMatrix.stack

    def spy(mats, *args, **kwargs):
        states = real(mats, *args, **kwargs)
        sizes.append(sum(s.mat.nbytes for s in states))
        return states

    with mock.patch.object(DensityMatrix, "stack", spy):
        _cell_lines("monotonicity", (2, 2), "neg_log", 0.5, 20, 3)
        # a whole mixed-rank cell in one block, one stack per (dim, rank) in order of first
        # draw: the 37 full-rank states of its 40, then the rank-deficient ones of each rank
        assert sizes == [37 * 16 * 16, 2 * 16 * 16, 16 * 16]
        sizes.clear()
        _cell_lines("joint_convexity", (4, 4), "neg_log", 0.5, 20, 3)
        assert sum(sizes) == 20 * 6 * 16 * 256 and max(sizes) <= campaign.BLOCK_BYTES
        assert len(sizes) > 1
        sizes.clear()
        _cell_lines("monotonicity", (8, 8), "neg_log", 0.5, 3, 3)
        assert sizes == [16 * 64 * 64] * 6          # one state per stack at d = 64


def _state_replay(rng, space, policy):
    dim = space.dim
    if policy == "mixed" and dim > 1 and rng.random() < 0.2:
        return DensityMatrix(random_state_matrix(dim, rank=int(rng.integers(1, dim)), seed=rng))
    return DensityMatrix(random_state_matrix(dim, seed=rng))


def _sweep_replay(name):
    return lambda rng, space, policy: _sweep_instance(name, rng, space)


# operand name -> its draw made one call at a time through the public samplers
PER_CALL_DRAWS = {
    "rho": _state_replay,
    "sigma": _state_replay,
    "sigma_ab": lambda rng, space, policy:
        DensityMatrix(random_state_matrix(space.subspace((0, 1)).dim, seed=rng)),
    "k1": lambda rng, space, policy: random_contraction(space.dims[0], seed=rng),
    "v": lambda rng, space, policy: random_unitary(space.dims[1], seed=rng),
    "u": lambda rng, space, policy: random_unitary(space.dim, seed=rng),
    "k": lambda rng, space, policy: random_contraction(space.dim, seed=rng),
    "h": lambda rng, space, policy: random_hermitian(space.dim, seed=rng),
    "ensemble": lambda rng, space, policy: [
        [float(p), DensityMatrix(random_state_matrix(space.dim, seed=rng)),
         DensityMatrix(random_state_matrix(space.dim, seed=rng))]
        for p in rng.dirichlet(np.ones(3))],
    "x": lambda rng, space, policy: random_contraction(space.dim, seed=rng) * 2.0,
    "q": lambda rng, space, policy: random_state_matrix(space.dim, seed=rng) * space.dim,
    "monotonicity_sweep": _sweep_replay("monotonicity"),
    "joint_convexity_sweep": _sweep_replay("joint_convexity"),
    "operator_ssa_sweep": _sweep_replay("operator_ssa"),
}

# the number of tensor factors a sweep's instance needs
SWEEP_FACTORS = {"monotonicity_sweep": 2, "operator_ssa_sweep": 3}


def _assert_same_draw(got, want):
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_draw(g, w)
    elif isinstance(want, DensityMatrix):
        assert type(got) is DensityMatrix
        for name in ("mat", "eigs", "vecs"):
            assert_bits(getattr(got, name), getattr(want, name))
        assert got.cutoff == want.cutoff and type(got.cutoff) is float
    elif isinstance(want, float):
        assert got == want and type(got) is float
    else:
        assert_bits(got, want)


def test_per_call_draws_cover_every_sampler():
    assert PER_CALL_DRAWS.keys() == campaign.SAMPLERS.keys()


@pytest.mark.parametrize("name, dims, policy, trials", [
    (name, dims, policy, trials)
    for dims, policy, trials in (((2, 2), "full", 20), ((8, 8), "full", 3),
                                 ((2, 2, 2), "full", 20), ((2, 2, 2), "mixed", 20))
    for name in sorted(campaign.SAMPLERS) if SWEEP_FACTORS.get(name, len(dims)) == len(dims)])
def test_stacked_draws_are_the_draws_made_one_call_at_a_time(name, dims, policy, trials):
    # a block draws only random numbers per trial, then finishes every Gram product, QR,
    # rescaling and decomposition in stacks: each operand and each generator's state after
    # drawing are those of the public samplers called one at a time
    space = FactorizedSpace(dims)
    family = campaign.Family(None, (name,), mixed_rank=True)
    seeds = [trial_seed(7, name, dims, policy, 0.5, t) for t in range(trials)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    drawn = [ops for block in campaign.sample_blocks(family, space, rngs, policy) for ops in block]
    assert len(drawn) == trials
    for seed, rng, (got,) in zip(seeds, rngs, drawn):
        replay = np.random.default_rng(seed)
        _assert_same_draw(got, PER_CALL_DRAWS[name](replay, space, policy))
        assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (8, 3), (64, 64)])
def test_ginibre_is_the_two_call_draw(shape):
    rng, two_calls = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(3):
        want = two_calls.standard_normal(shape) + 1j * two_calls.standard_normal(shape)
        assert_bits(linalg._ginibre(rng, *shape), want)
        assert rng.bit_generator.state == two_calls.bit_generator.state


def test_block_sampling_draws_what_each_seed_draws():
    family = FAMILIES["joint_convexity"]
    space = FactorizedSpace((2, 2))
    seeds = [11, 12, 13]
    blocks = campaign.sample_blocks(family, space, seeds)
    for seed, operands in zip(seeds, itertools.chain.from_iterable(blocks)):
        alone = next(campaign.sample_blocks(family, space, [seed]))[0]
        for (p, r, s), (p2, r2, s2) in zip(operands[0], alone[0]):
            assert p == p2
            assert_bits(r.mat, r2.mat)
            assert_bits(s.eigs, s2.eigs)
        assert_bits(operands[1], alone[1])
