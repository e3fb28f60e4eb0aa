"""Core linear algebra: spectra, powers, partial traces, norms, random ensembles."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qre import linalg
from qre.bounds import wyd_skew_block
from qre.errors import InvalidMatrix, InvalidRank, NotPSD, ShapeMismatch
from qre.functions import make_f_p
from qre.linalg import (
    EPS,
    DensityMatrix,
    FactorizedSpace,
    PsdOperator,
    assert_hermitian,
    hermitize,
    hs_norm,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    random_contraction,
    random_density,
    random_hermitian,
    random_unitary,
    spectral_decompose,
    trace_norm,
)

RNG = np.random.default_rng(2024)


def eig2x2(m):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix (independent oracle)."""
    a, d = m[0, 0].real, m[1, 1].real
    b = m[0, 1]
    disc = np.sqrt((a - d) ** 2 + 4 * abs(b) ** 2)
    return np.array([(a + d - disc) / 2, (a + d + disc) / 2])


class TestSpectralDecompose:
    def test_diagonal(self):
        w, v = spectral_decompose(np.diag([0.25, 0.75]).astype(complex))
        np.testing.assert_allclose(w, [0.25, 0.75])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_degenerate_identity(self):
        w, v = spectral_decompose(np.eye(2) / 2)
        np.testing.assert_allclose(w, [0.5, 0.5])
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)

    def test_pauli_x_against_closed_form(self):
        m = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        w, _ = spectral_decompose(m)
        np.testing.assert_allclose(w, eig2x2(m), atol=1e-14)
        np.testing.assert_allclose(w, [-0.5, 0.5])

    def test_random_2x2_matches_closed_form(self):
        for seed in range(20):
            m = random_hermitian(2, seed=seed)
            w, v = spectral_decompose(m)
            np.testing.assert_allclose(w, eig2x2(m), atol=1e-12)
            np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidMatrix):
            spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stack_members_are_the_one_matrix_spectra(self):
        ms = np.stack([random_hermitian(3, seed=s) for s in range(4)])
        w, v = spectral_decompose(ms)
        for m, wi, vi in zip(ms, w, v):
            w1, v1 = spectral_decompose(m)
            assert np.array_equal(wi, w1) and np.array_equal(vi, v1)


class TestNonFiniteEntries:
    # a NaN deviation compared False, so a NaN matrix passed as Hermitian: its
    # spectrum was NaN, and wyd_skew reported a false violation
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_matrix_rejected(self, bad):
        m = random_hermitian(3, seed=1)
        m[0, 0] = bad
        for call in (assert_hermitian, spectral_decompose):
            with pytest.raises(InvalidMatrix, match="non-finite"):
                call(m)

    @pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
    def test_stack_with_one_bad_member_rejected(self, bad):
        ms = np.stack([random_hermitian(3, seed=s) for s in range(3)])
        ms[1, 2, 0] = bad
        with pytest.raises(InvalidMatrix, match="non-finite"):
            spectral_decompose(ms)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_wyd_skew_rejects_a_non_finite_observable(self, bad):
        h = random_hermitian(2, seed=2)
        h[1, 1] = bad
        with pytest.raises(InvalidMatrix, match="non-finite"):
            wyd_skew_block(make_f_p(0.5), [random_density(2, seed=3)] * 2,
                           [random_hermitian(2, seed=4), h])


class TestMatrixPower:
    def test_generalized_inverse_sqrt(self):
        out = PsdOperator.wrap(np.diag([4.0, 0.0]).astype(complex)).power(-0.5)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity_exponent(self):
        m = random_density(3, seed=5).mat
        np.testing.assert_allclose(PsdOperator.wrap(m).power(1.0), m, atol=1e-14)

    def test_cube_root(self):
        out = PsdOperator.wrap(np.diag([2.0, 8.0]).astype(complex)).power(1 / 3)
        np.testing.assert_allclose(out, np.diag([2 ** (1 / 3), 2.0]), atol=1e-14)

    def test_not_psd_raises(self):
        with pytest.raises(NotPSD):
            PsdOperator.wrap(np.diag([1.0, -1.0]).astype(complex)).power(0.5)

    @given(st.integers(0, 1000), st.sampled_from([0.5, 2.0, -1.0, 1.5]),
           st.sampled_from([0.5, 2.0, -0.5]))
    @settings(max_examples=40, deadline=None)
    def test_power_composition_on_support(self, seed, b1, b2):
        rho = random_density(3, rank=2, seed=seed)
        lhs = PsdOperator.wrap(PsdOperator.wrap(rho.mat).power(b1)).power(b2)
        rhs = PsdOperator.wrap(rho.mat).power(b1 * b2)
        assert np.abs(lhs - rhs).max() < 1e-8


class TestPartialTrace:
    def test_product_state(self):
        a = random_density(2, seed=1).mat
        b = random_density(3, seed=2).mat
        space = FactorizedSpace((2, 3))
        np.testing.assert_allclose(space.partial_trace(np.kron(a, b), (0,)), a,
                                   atol=1e-14)
        np.testing.assert_allclose(space.partial_trace(np.kron(a, b), (1,)), b,
                                   atol=1e-14)

    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        out = FactorizedSpace((2, 2)).partial_trace(rho, (0,))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_against_loop_oracle(self):
        rho = random_density(4, seed=3).mat
        space = FactorizedSpace((2, 2))
        out = space.partial_trace(rho, (1,))
        oracle = np.zeros((2, 2), dtype=complex)
        for j in range(2):
            for jp in range(2):
                for i in range(2):
                    oracle[j, jp] += rho[2 * i + j, 2 * i + jp]
        np.testing.assert_allclose(out, oracle, atol=1e-14)

    def test_trace_preserved(self):
        for seed in range(10):
            rho = random_density(8, seed=seed).mat
            space = FactorizedSpace((2, 2, 2))
            red = space.partial_trace(rho, (0, 2))
            assert abs(np.trace(red) - np.trace(rho)) < 8 * EPS * trace_norm(rho)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            FactorizedSpace((2, 2)).partial_trace(np.eye(3), (0,))


class TestTensorEmbed:
    def test_round_trip_with_partial_trace(self):
        rho = random_density(2, seed=7).mat
        sig = random_density(2, seed=8).mat
        out = FactorizedSpace((2, 2)).partial_trace(np.kron(rho, sig), (0,))
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_embed_matches_kron(self):
        space = FactorizedSpace((2, 3, 2))
        op = random_hermitian(3, seed=9)
        expected = np.kron(np.kron(np.eye(2), op), np.eye(2))
        np.testing.assert_allclose(space.embed(op, (1,)), expected, atol=1e-14)

    def test_embed_nonadjacent_slots(self):
        space = FactorizedSpace((2, 3, 2))
        opa = random_hermitian(2, seed=10)
        opc = random_hermitian(2, seed=11)
        joint = np.kron(opa, opc)
        expected = np.einsum("ac,bd,xy->abxcdy", opa, np.eye(3), opc).reshape(12, 12)
        np.testing.assert_allclose(space.embed(joint, (0, 2)), expected, atol=1e-13)

    def test_dim_one_factor(self):
        space = FactorizedSpace((2, 1, 3))
        assert space.dim == 6
        rho = random_density(6, seed=12).mat
        out = space.partial_trace(rho, (0, 2))
        np.testing.assert_allclose(out, rho, atol=1e-14)


def _oracle_partial_trace(dims, m, keep):
    """The per-call einsum construction the cached plans replaced."""
    n = len(dims)
    t = m.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    sub_dim = int(np.prod([dims[k] for k in keep]))
    return np.einsum(t, row + col, out).reshape(sub_dim, -1)


def _oracle_embed(dims, op, slots):
    n = len(dims)
    sub_dims = tuple(dims[k] for k in slots)
    dim = int(np.prod(dims))
    t = op.reshape(sub_dims + sub_dims)
    operands = [t, [slots[i] for i in range(len(slots))] + [slots[i] + n for i in range(len(slots))]]
    for i in range(n):
        if i not in slots:
            operands += [np.eye(dims[i]), [i, i + n]]
    out = list(range(n)) + [i + n for i in range(n)]
    return np.einsum(*operands, out).reshape(dim, dim)


def _keep_sets(n):
    return [keep for r in range(1, n + 1) for keep in itertools.combinations(range(n), r)]


def _spellings(keep):
    """The same keep set as a tuple, a list, reversed and, for one factor, a bare int."""
    out = [keep, list(keep), tuple(reversed(keep)), keep + keep[:1]]
    if len(keep) == 1:
        out += [keep[0], np.int64(keep[0])]
    return out


class TestTensorPlans:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2), (2, 1, 3)])
    def test_bit_exact_against_per_call_einsum(self, dims):
        space = FactorizedSpace(dims)
        rng = np.random.default_rng(sum(dims))
        m = random_hermitian(space.dim, seed=rng)
        for keep in _keep_sets(len(dims)):
            sub_dim = space.subspace(keep).dim
            op = random_hermitian(sub_dim, seed=rng)
            want_pt = _oracle_partial_trace(dims, m, keep)
            want_emb = _oracle_embed(dims, op, keep)
            for spelling in _spellings(keep):
                assert space.normalize_keep(spelling) == keep
                np.testing.assert_array_equal(space.partial_trace(m, spelling), want_pt)
                np.testing.assert_array_equal(space.embed(op, spelling), want_emb)

    def test_plans_shared_between_equal_spaces(self):
        a, b = FactorizedSpace((2, 3, 2)), FactorizedSpace([2, np.int64(3), 2])
        assert a == b and a.dims == (2, 3, 2)
        for keep in _keep_sets(3):
            assert a.subspace(keep) is b.subspace(keep)
            assert a.subspace(list(reversed(keep))) is b.subspace(keep)
            assert a.normalize_keep(keep) is b.normalize_keep(keep)
            assert all(type(k) is int for k in a.normalize_keep(np.array(keep)))

    def test_identity_factors_read_only_results_fresh(self):
        space = FactorizedSpace((2, 3, 2))
        eyes = [x for x in space._plan((1,)).embed_rest if isinstance(x, np.ndarray)]
        assert [e.shape for e in eyes] == [(2, 2), (2, 2)]
        assert not any(e.flags.writeable for e in eyes)
        op = PsdOperator(random_density(3, seed=5).mat).power(0.5)
        m = PsdOperator(random_density(12, seed=6).mat).power(1.0)
        op.flags.writeable = m.flags.writeable = False      # read-only inputs
        first = space.embed(op, (1,))
        assert first.flags.writeable and not np.shares_memory(first, op)
        first[:] = 0.0
        np.testing.assert_array_equal(space.embed(op, (1,)), _oracle_embed((2, 3, 2), op, (1,)))
        for keep in _keep_sets(3):
            red = space.partial_trace(m, keep)
            assert red.flags.writeable and not np.shares_memory(red, m)
        assert not any(e.flags.writeable for e in eyes)

    @pytest.mark.parametrize("keep", [(0, 1), [1, 0], (0, 1, 0)])
    def test_full_keep_set_returns_a_fresh_copy(self, keep):
        space = FactorizedSpace((2, 3))
        power = PsdOperator(random_density(6, seed=7).mat).power(1.0)
        power.flags.writeable = False
        raw = random_hermitian(6, seed=8)
        for m in (power, raw):
            want = m.copy()
            for call in (space.partial_trace, space.embed):
                out = call(m, keep)
                assert out.flags.writeable and not np.shares_memory(out, m)
                np.testing.assert_array_equal(out, want)
                out[:] = 0.0
            np.testing.assert_array_equal(m, want)

    @pytest.mark.parametrize("cached, invalid", [(1, 1.0), (1, np.float64(1)), ((0, 1), (0.0, 1)),
                                                 ((0, 1), (0, np.float64(1))), ((0, 1), (0, 1.0))])
    def test_cached_keep_is_keyed_by_its_types(self, cached, invalid):
        # a keep is cached as its sorted integer indices, so an equal float never reaches the cache
        space = FactorizedSpace((2, 2, 2))
        assert space.normalize_keep(cached) == space.normalize_keep(cached)
        hits = linalg._compile_plan.cache_info().hits
        assert space.subspace(cached) is space.subspace(cached)
        assert linalg._compile_plan.cache_info().hits == hits + 2
        with pytest.raises(ShapeMismatch):
            space.normalize_keep(invalid)

    def test_unhashable_and_one_pass_keeps_are_normalized(self):
        space = FactorizedSpace((2, 2, 2))
        assert space.normalize_keep([2, 0, 2]) == space.normalize_keep(k for k in (0, 2)) == (0, 2)
        assert space.normalize_keep(frozenset({2, 0})) == (0, 2)

    @pytest.mark.parametrize("keep", [(), [], (3,), (-1,), (0, 3), 5, 1.5, [0.9, 2.7],
                                      (np.float64(1),), ("1",), (0, 1.0)])
    def test_invalid_keep_raises_every_call(self, keep):
        space = FactorizedSpace((2, 2, 2))
        for _ in range(3):
            for call in (space.normalize_keep, space.subspace,
                         lambda k: space.partial_trace(np.eye(8), k),
                         lambda k: space.embed(np.eye(2), k)):
                with pytest.raises(ShapeMismatch):
                    call(keep)


class TestFactorDims:
    def test_numpy_integers_accepted(self):
        space = FactorizedSpace((np.int64(2), np.int32(3)))
        assert space.dims == (2, 3) and all(type(d) is int for d in space.dims)
        assert space.dim == 6 and space.nfactors == 2

    @pytest.mark.parametrize("dims", [(2.5, 2), ("2", 2), (2.0, 2), (np.float64(2), 2),
                                      (), (0, 2), (2, -1), 4, None])
    def test_non_integral_or_non_positive_rejected(self, dims):
        with pytest.raises(ShapeMismatch):
            FactorizedSpace(dims)


class TestNorms:
    def test_signature_example(self):
        m = np.diag([1.0, -1.0])
        t, h, o = trace_norm(m), hs_norm(m), op_norm(m)
        assert (t, o) == (2.0, 1.0)
        assert abs(h - np.sqrt(2)) < 1e-15

    def test_zero(self):
        m = np.zeros((3, 3))
        assert (trace_norm(m), hs_norm(m), op_norm(m)) == (0.0, 0.0, 0.0)

    def test_against_gram_eig_oracle(self):
        m = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
        s_oracle = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
        t, h, o = trace_norm(m), hs_norm(m), op_norm(m)
        assert abs(t - s_oracle.sum()) < 1e-12
        assert abs(h - np.sqrt((s_oracle ** 2).sum())) < 1e-12
        assert abs(o - s_oracle[0]) < 1e-12

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_norm_ordering(self, seed):
        m = random_hermitian(4, seed=seed)
        t, h, o = trace_norm(m), hs_norm(m), op_norm(m)
        assert t >= h - 1e-12 and h >= o - 1e-12


class TestRandomEnsembles:
    def test_density_contract(self):
        rho = random_density(2, rank=2, seed=7)
        assert abs(np.trace(rho.mat) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho.mat).min() > -1e-12

    def test_pure_state(self):
        rho = random_density(4, rank=1, seed=1)
        np.testing.assert_allclose(rho.mat @ rho.mat, rho.mat, atol=1e-12)

    def test_determinism(self):
        a = random_density(4, seed=33).mat
        b = random_density(4, seed=33).mat
        assert a.tobytes() == b.tobytes()

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            random_density(2, rank=3, seed=0)

    def test_unitary(self):
        u = random_unitary(5, seed=2)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)

    def test_contraction(self):
        k = random_contraction(4, seed=3)
        assert op_norm(k) <= 1.0 + 1e-12


class TestWrappers:
    def test_density_validates_trace(self):
        with pytest.raises(InvalidMatrix):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_density_validates_psd(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_psd_operator_power_uses_cache(self):
        rho = PsdOperator(np.diag([4.0, 0.0]).astype(complex))
        np.testing.assert_allclose(rho.power(-0.5), np.diag([0.5, 0.0]), atol=1e-14)
        assert rho.min_positive_eig() == pytest.approx(4.0)
        assert rho.rank() == 1

    def test_support_projector(self):
        rho = PsdOperator(np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(rho.support_projector(), np.diag([0.0, 1.0]),
                                   atol=1e-14)


class TestJsonFormat:
    def test_round_trip(self):
        m = random_hermitian(3, seed=5)
        out = matrix_from_json(json.dumps(matrix_to_json(m)))
        np.testing.assert_allclose(out, m, atol=0)

    def test_malformed(self):
        with pytest.raises(InvalidMatrix):
            matrix_from_json({"dim": 2, "re": [[1.0]]})

    def test_real_only(self):
        out = matrix_from_json({"dim": 1, "re": [[2.0]]})
        np.testing.assert_allclose(out, [[2.0]])

    @pytest.mark.parametrize("dim", [2.9, 2.0, True, "2", None])
    def test_dim_must_be_an_integer(self, dim):
        # int() would read 2.9 as 2 and true as 1
        entries = [[1.0]] if dim is True else [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(InvalidMatrix, match="malformed"):
            matrix_from_json({"dim": dim, "re": entries})
        with pytest.raises(InvalidMatrix, match="malformed"):
            matrix_from_json(json.dumps({"dim": dim, "re": entries}))

    def test_numpy_integer_dim_accepted(self):
        out = matrix_from_json({"dim": np.int64(2), "re": np.eye(2).tolist()})
        np.testing.assert_array_equal(out, np.eye(2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_entry_rejected(self, bad, part):
        obj = matrix_to_json(np.eye(2) / 2)
        obj[part][1][0] = bad
        for form in (obj, json.dumps(obj)):
            with pytest.raises(InvalidMatrix, match="non-finite"):
                matrix_from_json(form)


def test_hermitize_idempotent():
    m = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    h = hermitize(m)
    np.testing.assert_allclose(h, h.conj().T)
    assert hs_norm(hermitize(h) - h) == 0.0
