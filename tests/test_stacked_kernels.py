"""Stacked spectral kernels give the bits of one-at-a-time calls.

Every comparison here is on the raw bytes of the arrays (so a signed zero or
a last-bit difference fails), or ``==`` on floats.  The per-exponent loops
that the grid residuals replaced are kept below as the oracles.
"""

import io
import itertools
from unittest import mock

import numpy as np
import pytest

from qre import bounds, campaign
from qre.campaign import FAMILIES, CampaignConfig, run_campaign, run_single, trial_seed
from qre.errors import InvalidMatrix, NotPSD
from qre.linalg import (
    DensityMatrix,
    FactorizedSpace,
    PsdOperator,
    op_norm,
    random_contraction,
    random_contraction_draw,
    random_density,
    random_hermitian,
    random_state_matrix,
    rescale_contractions,
)
from qre.recovery import equality_condition_residual

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


class TestPowers:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_bit_equal_to_single_powers(self, seed):
        for op in _states(seed):
            fresh = PsdOperator(op.mat)
            stack = op.powers(BETAS)
            assert stack.shape == (len(BETAS), op.dim, op.dim)
            for b, row in zip(BETAS, stack):
                assert_bits(row, fresh.power(b))

    def test_modes_below_the_cutoff_are_zeroed(self):
        op = random_density(6, rank=3, seed=1)
        assert op.rank() == 3
        proj = op.support_projector()
        for b, row in zip(BETAS, op.powers(BETAS)):
            assert_bits(row, PsdOperator(op.mat).power(b))
            np.testing.assert_allclose(row @ (np.eye(6) - proj), 0.0, atol=1e-12)

    def test_explicit_cutoff_and_memo(self):
        op = random_density(4, seed=2)
        cut = 0.5 * op.eigs[1] + 0.5 * op.eigs[2]
        stack = op.powers(BETAS, cut)
        assert stack is op.powers(list(BETAS), cut)
        assert not stack.flags.writeable
        for b, row in zip(BETAS, stack):
            assert_bits(row, PsdOperator(op.mat).power(b, cut))

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_bit_equal_to_the_two_dimensional_formula(self, seed):
        for op in _states(seed):
            for b, row in zip(BETAS, op.powers(BETAS)):
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


class TestOpNorm:
    def test_batched_svd_is_bit_equal(self):
        rng = np.random.default_rng(4)
        mats = np.stack([random_hermitian(5, seed=rng) + 1j * random_hermitian(5, seed=rng)
                         for _ in range(6)])
        norms = op_norm(mats)
        assert [float(x) for x in norms] == [op_norm(m) for m in mats]
        assert op_norm(mats.reshape(2, 3, 5, 5)).shape == (2, 3)

    def test_rescaled_contractions_match_one_at_a_time(self):
        draws = [random_contraction_draw(3, seed=s) for s in range(5)]
        for s, k in enumerate(rescale_contractions(draws)):
            assert_bits(k, random_contraction(3, seed=s))


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

    def test_members_own_their_arrays(self):
        mats = np.stack([random_state_matrix(4, seed=s) for s in range(3)])
        states = DensityMatrix.stack(mats)
        for state in states:
            for attr in ("mat", "eigs", "vecs"):
                arr = getattr(state, attr)
                assert arr.base is None and not np.shares_memory(arr, mats)
        assert not np.shares_memory(states[0].vecs, states[1].vecs)

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
    @pytest.mark.parametrize("seed", range(6))
    def test_monotonicity(self, seed):
        space = FactorizedSpace(((2, 2), (3, 2), (2, 3))[seed % 3])
        rng = np.random.default_rng(seed)
        rho = random_density(space.dim, rank=space.dim - seed % 2, seed=rng)
        sigma = random_density(space.dim, seed=rng)
        k = np.kron(random_contraction(space.dims[0], seed=rng), np.eye(space.dims[1]))
        got = equality_condition_residual(rho, sigma, k, space, GRID)
        assert got == _loop_equality_condition_residual(_fresh(rho), _fresh(sigma), k,
                                                        space, GRID)

    @pytest.mark.parametrize("seed", range(6))
    def test_joint_convexity(self, seed):
        rng = np.random.default_rng(seed)
        d = (2, 3, 4)[seed % 3]
        km = random_contraction(d, seed=rng)
        comps = [(w, random_density(d, seed=rng), random_density(d, seed=rng))
                 for w in (0.3, 0.3, 0.4)]
        rho, sigma = bounds._mixture(comps)
        got = bounds._joint_equality_residual(km, rho, sigma, comps, GRID)
        fresh = [(w, _fresh(r), _fresh(s)) for w, r, s in comps]
        want = max(_loop_joint_equality_residual(km, _fresh(rho), _fresh(sigma), fresh, b)
                   for b in GRID)
        assert got == want
        one = bounds._joint_equality_residual(km, rho, sigma, comps, (0.25,))
        assert one == _loop_joint_equality_residual(km, rho, sigma, comps, 0.25)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_operator_ssa(self, dims, seed):
        space = FactorizedSpace(dims)
        rng = np.random.default_rng(seed)
        rho = random_density(space.dim, seed=rng)
        sab = random_density(space.subspace((0, 1)).dim, rank=3 - seed % 2, seed=rng)
        got = bounds.operator_ssa_equality_residual(rho, sab, space, GRID)
        assert got == _loop_operator_ssa_equality_residual(_fresh(rho), _fresh(sab),
                                                           space, GRID)


# ----------------------------------------------------------------------------
# Block sampling: the campaign line is the run_single line
# ----------------------------------------------------------------------------

def _cell_lines(ineq, dims, fid, beta, trials, seed):
    config = CampaignConfig(inequalities=(ineq,), functions=(fid,), dims=(dims,),
                            betas=(beta,), trials=trials, seed=seed, rank_policy="mixed")
    buf = io.StringIO()
    run_campaign(config, stream=buf)
    return buf.getvalue()


def _replayed_lines(ineq, dims, fid, beta, trials, seed):
    lines = []
    for t in range(trials):
        for rep in run_single(ineq, fid, dims, beta, trial_seed(seed, ineq, dims, fid, beta, t),
                              "mixed"):
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


def test_blocks_keep_to_the_byte_budget():
    sizes = []
    real = DensityMatrix.stack

    def spy(mats, *args, **kwargs):
        states = real(mats, *args, **kwargs)
        sizes.append(sum(s.mat.nbytes for s in states))
        return states

    with mock.patch.object(DensityMatrix, "stack", spy):
        _cell_lines("monotonicity", (2, 2), "neg_log", 0.5, 20, 3)
        assert sizes == [20 * 2 * 16 * 16]          # a whole cell in one block
        sizes.clear()
        _cell_lines("joint_convexity", (4, 4), "neg_log", 0.5, 20, 3)
        assert sum(sizes) == 20 * 6 * 16 * 256 and max(sizes) <= campaign.BLOCK_BYTES
        assert len(sizes) > 1
        sizes.clear()
        _cell_lines("monotonicity", (8, 8), "neg_log", 0.5, 3, 3)
        assert sizes == [16 * 64 * 64] * 6          # one state per stack at d = 64


def test_block_sampling_draws_what_each_seed_draws():
    family = FAMILIES["joint_convexity"]
    space = FactorizedSpace((2, 2))
    seeds = [11, 12, 13]
    for seed, operands in zip(seeds, campaign.sample_blocks(family, space, seeds)):
        alone = campaign.sample_operands(family, space, np.random.default_rng(seed))
        for (p, r, s), (p2, r2, s2) in zip(operands[0], alone[0]):
            assert p == p2
            assert_bits(r.mat, r2.mat)
            assert_bits(s.eigs, s2.eigs)
        assert_bits(operands[1], alone[1])
