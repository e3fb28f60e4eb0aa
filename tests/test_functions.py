"""Function registry: evaluations, integral representations, window constants."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qre.bounds import alpha1, alpha2, thm42_terms, window_coefficient
from qre.errors import InvalidParameter, IrregularFunction
from qre.functions import (
    from_id,
    loewner_quadrature,
    make_f_p,
    make_neg_log,
    make_neg_power,
    power_of,
    split_id,
)

GRID = np.geomspace(0.1, 10.0, 21)
WINDOW_FUNCTIONS = [g for fid in ("neg_log", "f_p:0.5", "neg_power:0.3")
                    for g in (from_id(fid), from_id(fid).transpose())]


# ----------------------------------------------------------------------------
# The window-domination constant in its edge form and by grid refinement:
# oracles of the constant that ``qre.bounds.thm42_terms`` computes inline
# ----------------------------------------------------------------------------

def window_edges(T: float, beta: float) -> tuple[float, float]:
    """Two-branch window (T_L, T_R): (T, T^{beta/(1-beta)}) below beta=1/2, mirrored above."""
    if T <= 1.0:
        raise InvalidParameter(f"window parameter T must exceed 1, got {T}")
    if not 0.0 < beta < 1.0:
        raise InvalidParameter(f"beta must lie in (0,1), got {beta}")
    if beta <= 0.5:
        return T, T ** (beta / (1.0 - beta))
    return T ** ((1.0 - beta) / beta), T


def window_constant(f, T: float, beta: float, grid: bool = False) -> float:
    """Least C with dt <= C dmu_f(t) on [1/T_L, T_R].

    For the power-law densities kappa t^q the supremum of 1/mu sits at the
    left window edge for q >= 0 (the right one for q < 0); ``grid=True``
    refines it on log grids instead.
    """
    if not f.regular:
        raise IrregularFunction(f"{f.name} is not regular; no window constant exists")
    t_left, t_right = window_edges(T, beta)
    if grid:
        return sup_inverse_density(f, 1.0 / t_left, t_right)
    if f.mu_q >= 0:
        return float(f.power_law_C() * t_left ** f.mu_q)
    return float(f.power_law_C() * t_right ** f.mu_q)


def sup_inverse_density(f, lo, hi, rel_tol=1e-6):
    """sup of 1/mu_f on [lo, hi], on log grids doubled until it settles to rel_tol."""
    pts = 65
    best = 0.0
    while True:
        t = np.geomspace(lo, hi, pts)
        dens = f.mu_density(t)
        if np.any(dens <= 0.0):
            raise IrregularFunction(f"{f.name} density vanishes on the window")
        cur = float(np.max(1.0 / dens))
        if best > 0.0 and abs(cur - best) <= rel_tol * cur:
            return cur
        best = cur
        pts = 2 * pts - 1
        if pts > 1 << 20:
            return cur


def second_derivative(f, x=1.0, h=1e-4):
    """Five-point finite-difference second derivative (independent oracle)."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


class TestNegLog:
    def test_normalization(self):
        f = make_neg_log()
        assert f(1.0) == 0.0

    def test_loewner_triple(self):
        f = make_neg_log()
        assert (f.loewner_a, f.loewner_b) == (0.0, 0.0)
        np.testing.assert_allclose(f.mu_density(GRID), np.ones_like(GRID))

    def test_quadrature_at_two(self):
        f = make_neg_log()
        assert abs(loewner_quadrature(f, 2.0) - (-math.log(2.0))) < 1e-6

    def test_divergent_at_zero(self):
        assert make_neg_log().diverges_at_zero


class TestNegPower:
    def test_loewner_b(self):
        f = make_neg_power(0.5)
        assert abs(f.loewner_b - math.sqrt(2) / 2) < 1e-15

    def test_mu_density_at_one(self):
        p = 0.3
        f = make_neg_power(p)
        assert abs(f.mu_density(1.0) - math.sin(p * math.pi) / math.pi) < 1e-15

    def test_quadrature_at_three(self):
        f = make_neg_power(0.5)
        assert abs(loewner_quadrature(f, 3.0) - (-math.sqrt(3))) < 1e-6

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter):
            make_neg_power(1.2)


class TestFp:
    @pytest.mark.parametrize("p", [-0.5, 0.3, 0.5, 0.7, 1.5])
    def test_normalization(self, p):
        assert abs(make_f_p(p)(1.0)) < 1e-15

    @pytest.mark.parametrize("p", [-0.5, 0.25, 0.5, 0.75, 1.5])
    def test_unit_curvature_at_one(self, p):
        f = make_f_p(p)
        assert abs(second_derivative(f) - 1.0) < 1e-6
        assert f.second_at_one == 1.0

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_quadrature_fidelity(self, p):
        f = make_f_p(p)
        for x in GRID:
            assert abs(loewner_quadrature(f, float(x)) - float(f(x))) < 1e-6

    def test_measure_normalization_folded(self):
        p = 0.4
        f = make_f_p(p)
        expected = math.sin(p * math.pi) / (math.pi * p * (1 - p))
        assert abs(f.mu_density(1.0) - expected) < 1e-15

    @pytest.mark.parametrize("p", [-0.5, 1.5])
    def test_outside_unit_interval_is_irregular(self, p):
        f = make_f_p(p)
        assert not f.regular
        with pytest.raises(IrregularFunction):
            thm42_terms(f, 0.5, 10.0, 1.0, 1.0, 0.1)
        with pytest.raises(IrregularFunction):
            loewner_quadrature(f, 2.0)

    def test_p_boundary_rejected(self):
        with pytest.raises(InvalidParameter):
            make_f_p(0.0)
        with pytest.raises(InvalidParameter):
            make_f_p(1.0)
        with pytest.raises(InvalidParameter):
            make_f_p(2.5)


class TestTranspose:
    def test_eval_matches_definition(self):
        f = make_f_p(0.3)
        g = f.transpose()
        np.testing.assert_allclose(g(GRID), GRID * f(1.0 / GRID), atol=1e-14)

    def test_measure_exponent_flips(self):
        f = make_f_p(0.3)
        g = f.transpose()
        assert g.mu_q == pytest.approx(0.7)
        assert g.mu_kappa == pytest.approx(f.mu_kappa)

    def test_x_log_x(self):
        g = make_neg_log().transpose()
        np.testing.assert_allclose(g(GRID), GRID * np.log(GRID), atol=1e-14)
        assert g.mu_q == 1.0
        assert g.at_zero == 0.0

    def test_g_p_duality(self):
        # g_p(x) = x f_{1-p}(1/x), the transform pairing the two entropy orders
        for p in (0.25, 0.5, 1.5):
            f = make_f_p(1.0 - p)
            g = f.transpose()
            np.testing.assert_allclose(g(GRID), GRID * f(1.0 / GRID), atol=1e-13)

    def test_g_1_is_x_log_x(self):
        # x ln x, the p = 1 member of the g_p family, is the limit of its neighbours
        for p in (1.0 - 1e-7, 1.0 + 1e-7):
            g = make_f_p(1.0 - p).transpose()
            np.testing.assert_allclose(g(GRID), GRID * np.log(GRID), atol=1e-5)


class TestMidpointConvexity:
    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5", "f_p:0.3", "f_p:1.5",
                                     "f_p:-0.5", "neg_power:0.5"])
    def test_grid(self, fid):
        f = from_id(fid)
        xs = np.geomspace(0.1, 10.0, 15)
        for x in xs:
            for y in xs:
                mid = f((x + y) / 2)
                assert mid <= (f(x) + f(y)) / 2 + 1e-12


class TestRegularityWindows:
    def test_window_edges_low_branch(self):
        tl, tr = window_edges(9.0, 1 / 3)
        assert tl == 9.0
        assert abs(tr - 3.0) < 1e-12

    def test_window_edges_high_branch(self):
        tl, tr = window_edges(9.0, 2 / 3)
        assert tr == 9.0
        assert abs(tl - 3.0) < 1e-12

    def test_window_edges_validation(self):
        with pytest.raises(InvalidParameter):
            window_edges(0.5, 0.5)
        with pytest.raises(InvalidParameter):
            window_edges(2.0, 1.0)

    def test_neg_log_constant_is_one(self):
        f = make_neg_log()
        for T in (2.0, 10.0, 1e4):
            for beta in (0.25, 0.5, 0.75):
                assert window_constant(f, T, beta) == 1.0

    @pytest.mark.parametrize("p,beta", [(0.3, 0.25), (0.5, 0.5), (0.7, 0.75)])
    def test_power_closed_form(self, p, beta):
        f = make_f_p(p)
        T = 4.0
        t_left, _ = window_edges(T, beta)
        expected = math.pi * p * (1 - p) / math.sin(p * math.pi) * t_left ** p
        assert abs(window_constant(f, T, beta) - expected) < 1e-12 * expected

    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.35", "neg_power:0.6"])
    def test_grid_sup_matches_closed_form(self, fid):
        f = from_id(fid)
        for T, beta in ((3.0, 0.3), (12.0, 0.6)):
            closed = window_constant(f, T, beta)
            gridded = window_constant(f, T, beta, grid=True)
            assert abs(closed - gridded) < 2e-6 * closed

    @given(st.floats(1.5, 1e6), st.floats(1.1, 2.0), st.sampled_from([0.25, 0.5, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_T(self, T, factor, beta):
        f = make_f_p(0.5)
        c1 = window_constant(f, T, beta)
        c2 = window_constant(f, T * factor, beta)
        assert c2 >= c1 - 1e-12 * c1

    @pytest.mark.parametrize("f", WINDOW_FUNCTIONS, ids=lambda g: g.name)
    def test_thm42_terms_reads_the_edge_form(self, f):
        # the inline window constant of thm42_terms is the edge form, bit for bit
        k_norm, d_norm, gap = 0.8, 7.0, 0.03
        for beta in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9):
            for T in (1.0 + 1e-9, 1.5, 2.0, 30.0, 1e4, 1e9):
                c_win = window_constant(f, T, beta)
                expected = (window_coefficient(beta, k_norm, d_norm) / T ** alpha1(beta)
                            + T ** alpha2(beta) * math.sqrt(c_win) * math.sqrt(gap))
                assert thm42_terms(f, beta, T, k_norm, d_norm, gap) == expected

    def test_power_law_c_branches(self):
        f = make_f_p(0.5)
        assert f.power_law_c(0.25) == pytest.approx(0.25)
        assert f.power_law_c(0.75) == pytest.approx(0.5 * 0.25 / 1.5)
        assert make_neg_log().power_law_c(0.3) == 0.0


class TestFromId:
    def test_parses(self):
        assert from_id("neg_log").name == "neg_log"
        assert from_id("f_p:0.5").name == "f_p:0.5"
        assert from_id("neg_power:0.5").name == "neg_power:0.5"

    @pytest.mark.parametrize("bad", ["", "f_p", "f_p:x", "unknown", "f_p:2.5", "neg_log:1"])
    def test_rejects(self, bad):
        with pytest.raises(InvalidParameter):
            from_id(bad)

    def test_split_id(self):
        assert split_id(" neg_log ") == ("neg_log", None)
        assert split_id("f_p:-0.5") == ("f_p", -0.5)
        assert split_id("neg_power:0.3") == ("neg_power", 0.3)
        with pytest.raises(InvalidParameter):
            split_id("f_p:x")

    @pytest.mark.parametrize("fid, p", [("f_p:0.5", 0.5), ("f_p:1.5", 1.5), ("f_p:-0.5", -0.5),
                                        ("neg_power:0.5", None), ("neg_log", None)])
    def test_power_of(self, fid, p):
        assert power_of(from_id(fid)) == p

    @pytest.mark.parametrize("fid, p", [("f_p:0.1234567", 0.1234567), ("f_p:-0.1234567", -0.1234567),
                                        ("f_p:1.0000001", 1.0000001), ("f_p:1e-07", 1e-07)])
    def test_power_survives_its_name(self, fid, p):
        # a name of six significant digits read back 0.123457: the skew information was
        # computed at the rounded p and its cross-check at the given one
        f = from_id(fid)
        assert f.name == fid and power_of(f) == p
        if 0.0 < p < 1.0:
            assert from_id(f"neg_power:{p!r}").name == f"neg_power:{p!r}"


_NO_SCIPY_CHILD = """
import io, sys
import qre, qre.cli
from qre.campaign import FAMILIES, CampaignConfig, run_campaign
from qre.linalg import random_density, save_matrix

for policy in ("full", "mixed"):
    cfg = CampaignConfig(inequalities=tuple(FAMILIES), functions=("neg_log", "f_p:0.5"),
                         dims=((2, 2), (2, 2, 2)), betas=(0.25, 0.5, 0.75), trials=2,
                         seed=5, rank_policy=policy)
    assert run_campaign(cfg, stream=io.StringIO()).trials > 0
save_matrix("rho.json", random_density(4, seed=1).mat)
save_matrix("sigma.json", random_density(4, seed=2).mat)
assert qre.cli.main(["bounds", "constants", "--f", "f_p:0.5", "--beta", "0.5"]) == 0
assert qre.cli.main(["verify", "monotonicity", "--rho", "rho.json", "--sigma", "sigma.json",
                     "--dims", "2,2"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(repr(qre.loewner_quadrature(qre.from_id("neg_log"), 2.0)))
"""


def test_campaigns_and_cli_load_no_scipy(tmp_path):
    # scipy's import was most of every campaign process's set-up time and memory,
    # and only the quadrature uses it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    modules, value = proc.stdout.strip().splitlines()[-2:]
    assert modules == "[]"
    assert value == "-0.6931471805599456"
