"""Command-line interface: subcommands, fixtures, exit codes."""

import json

import numpy as np
import pytest

from qre.bounds import envelope_constants
from qre.campaign import FAMILIES, parse_dims, run_single, sample_blocks
from qre.cli import EXIT_INPUT, EXIT_PASS, EXIT_VIOLATION, main, verifiable
from qre.functions import from_id
from qre.linalg import FactorizedSpace, random_density, random_unitary, save_matrix


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    save_matrix(tmp_path / "rho_diag.json", np.diag([0.5, 0.5]).astype(complex))
    save_matrix(tmp_path / "sigma_diag.json", np.diag([0.75, 0.25]).astype(complex))
    save_matrix(tmp_path / "rho4.json", random_density(4, seed=1).mat)
    save_matrix(tmp_path / "sigma4.json", random_density(4, seed=2).mat)
    save_matrix(tmp_path / "rho8.json", random_density(8, seed=3).mat)
    save_matrix(tmp_path / "sab.json", random_density(4, seed=4).mat)
    paths["dir"] = tmp_path
    return tmp_path


class TestVerify:
    def test_pinsker_diagonal_fixture(self, fixtures, capsys):
        code = main(["verify", "pinsker", "--f", "f_p:0.5",
                     "--rho", str(fixtures / "rho_diag.json"),
                     "--sigma", str(fixtures / "sigma_diag.json"), "--json"])
        assert code == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        # lhs = 1/2 * ||rho - sigma||_1^2 = 0.125; rhs = 4 (1 - sum sqrt(lam mu))
        assert payload["lhs"] == pytest.approx(0.125, abs=1e-12)
        expected_rhs = 4.0 * (1.0 - (np.sqrt([0.75 * 0.5, 0.25 * 0.5])).sum())
        assert payload["rhs"] == pytest.approx(expected_rhs, abs=1e-12)

    def test_monotonicity(self, fixtures):
        code = main(["verify", "monotonicity",
                     "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", "2,2"])
        assert code == EXIT_PASS

    def test_thm42(self, fixtures):
        code = main(["verify", "thm42", "--beta", "0.25",
                     "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", "2,2"])
        assert code == EXIT_PASS

    @pytest.mark.parametrize("inequality", ["thm42", "monotonicity_bound"])
    def test_equal_states(self, inequality, tmp_path):
        # a gap of roundoff size puts the window optimum far beyond any fixed cap
        for seed in range(40):
            save_matrix(tmp_path / "r.json", random_density(4, seed=seed).mat)
            code = main(["verify", inequality, "--rho", str(tmp_path / "r.json"),
                         "--sigma", str(tmp_path / "r.json")])
            assert code == EXIT_PASS, seed

    def test_ssa(self, fixtures):
        code = main(["verify", "ssa", "--rho", str(fixtures / "rho8.json"),
                     "--dims", "2x2x2"])
        assert code == EXIT_PASS

    def test_operator_ssa(self, fixtures):
        code = main(["verify", "operator_ssa_thm62",
                     "--rho", str(fixtures / "rho8.json"),
                     "--sigma", str(fixtures / "sab.json"), "--dims", "2x2x2"])
        assert code == EXIT_PASS

    def test_malformed_matrix_is_input_error(self, fixtures):
        bad = fixtures / "bad.json"
        bad.write_text("{not json")
        code = main(["verify", "pinsker", "--rho", str(bad),
                     "--sigma", str(fixtures / "sigma_diag.json")])
        assert code == EXIT_INPUT

    def test_missing_sigma_is_input_error(self, fixtures):
        code = main(["verify", "monotonicity",
                     "--rho", str(fixtures / "rho4.json"), "--dims", "2,2"])
        assert code == EXIT_INPUT

    def test_divergent_exit_code(self, fixtures, tmp_path):
        save_matrix(tmp_path / "pure.json", np.diag([1.0, 0.0]).astype(complex))
        code = main(["verify", "monotonicity",
                     "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(tmp_path / "pure4.json")])
        assert code == EXIT_INPUT  # file does not exist
        save_matrix(tmp_path / "pure4.json",
                    np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex))
        code = main(["verify", "monotonicity",
                     "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(tmp_path / "pure4.json"), "--dims", "2,2"])
        assert code == 3

    def test_pinsker_divergent_exit_code(self, fixtures, tmp_path):
        save_matrix(tmp_path / "pure4.json",
                    np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex))
        code = main(["verify", "pinsker", "--f", "neg_log",
                     "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(tmp_path / "pure4.json")])
        assert code == 3

    def test_operator_ssa_divergent_f_action_exit_code(self, fixtures, tmp_path, capsys):
        # neg_log's f(0+) = +inf meets a weighted zero mode of sigma_AB (x) I_C
        save_matrix(tmp_path / "sab2.json", random_density(4, rank=2, seed=4).mat)
        code = main(["verify", "operator_ssa_thm62", "--f", "neg_log",
                     "--rho", str(fixtures / "rho8.json"),
                     "--sigma", str(tmp_path / "sab2.json"), "--dims", "2x2x2"])
        assert code == 3
        assert "divergent entropy: f(0+) diverges" in capsys.readouterr().err

    @pytest.mark.parametrize("inequality, fid, rho_rank, sab_rank, operand", [
        ("operator_ssa_cor65", "neg_log", None, 2, "sigma_AB"),
        ("operator_ssa_cor65", "f_p:0.5", None, 2, "sigma_AB"),
        ("operator_ssa_cor64", "neg_log", 3, None, "rho_ABC"),
        ("operator_ssa_cor64", "f_p:0.5", 3, None, "rho_ABC"),
        ("wyd_operator", "f_p:0.5", None, 2, "sigma_AB")])
    def test_mirrored_variant_below_full_rank_is_input_error(self, tmp_path, capsys, inequality,
                                                             fid, rho_rank, sab_rank, operand):
        save_matrix(tmp_path / "rho.json", random_density(8, rank=rho_rank, seed=3).mat)
        save_matrix(tmp_path / "sab.json", random_density(4, rank=sab_rank, seed=4).mat)
        code = main(["verify", inequality, "--f", fid, "--beta", "0.5",
                     "--rho", str(tmp_path / "rho.json"),
                     "--sigma", str(tmp_path / "sab.json"), "--dims", "2x2x2"])
        assert code == EXIT_INPUT
        assert f"needs a faithful {operand}" in capsys.readouterr().err

    @pytest.mark.parametrize("inequality", ["monotonicity", "thm42", "monotonicity_bound"])
    def test_non_unitary_v_is_input_error(self, fixtures, inequality, capsys):
        save_matrix(fixtures / "v_bad.json", np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex))
        code = main(["verify", inequality, "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", "2,2",
                     "--v", str(fixtures / "v_bad.json")])
        assert code == EXIT_INPUT
        assert "--v is not unitary" in capsys.readouterr().err

    @pytest.mark.parametrize("inequality", ["monotonicity", "thm42", "monotonicity_bound"])
    def test_unitary_v_accepted(self, fixtures, inequality):
        save_matrix(fixtures / "v.json", random_unitary(2, seed=5))
        code = main(["verify", inequality, "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", "2,2",
                     "--v", str(fixtures / "v.json")])
        assert code == EXIT_PASS

    def test_pinsker_non_unitary_k_is_input_error(self, fixtures, capsys):
        save_matrix(fixtures / "k_bad.json", 0.5 * np.eye(4, dtype=complex))
        code = main(["verify", "pinsker", "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"),
                     "--k", str(fixtures / "k_bad.json")])
        assert code == EXIT_INPUT
        assert "--k is not unitary" in capsys.readouterr().err

    def test_pinsker_unitary_k_accepted(self, fixtures):
        save_matrix(fixtures / "u.json", random_unitary(4, seed=6))
        code = main(["verify", "pinsker", "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"),
                     "--k", str(fixtures / "u.json")])
        assert code == EXIT_PASS

    @pytest.mark.parametrize("inequality", ["monotonicity", "thm42", "monotonicity_bound"])
    @pytest.mark.parametrize("k", [np.diag([1.5, 0.5]), np.array([[0.9, 0.9], [0.0, 0.1]]),
                                   (1.0 + 1e-9) * np.eye(2)])
    def test_non_contraction_k_is_input_error(self, fixtures, inequality, k, capsys):
        save_matrix(fixtures / "k_big.json", k.astype(complex))
        code = main(["verify", inequality, "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", "2,2",
                     "--k", str(fixtures / "k_big.json")])
        assert code == EXIT_INPUT
        assert "--k is not a contraction" in capsys.readouterr().err

    @pytest.mark.parametrize("inequality", ["monotonicity", "thm42", "monotonicity_bound"])
    @pytest.mark.parametrize("k", [np.diag([1.0, 0.5]), (1.0 + 1e-11) * np.eye(2),
                                   random_unitary(2, seed=9)])
    def test_contraction_k_accepted(self, fixtures, inequality, k, capsys):
        save_matrix(fixtures / "k.json", k.astype(complex))
        code = main(["verify", inequality, "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", "2,2",
                     "--k", str(fixtures / "k.json")])
        assert code != EXIT_INPUT
        assert "not a contraction" not in capsys.readouterr().err


# the flag each operand is read from by ``qre verify``
FLAGS = {"rho": "--rho", "sigma": "--sigma", "sigma_ab": "--sigma", "k1": "--k",
         "v": "--v", "u": "--k"}


class TestVerifySharesTheCampaignCheck:
    def test_choices_come_from_the_registry(self):
        assert set(verifiable()) == {
            "monotonicity", "thm42", "monotonicity_bound", "ssa", "operator_ssa_thm62",
            "operator_ssa_thm63", "operator_ssa_cor64", "operator_ssa_cor65", "pinsker",
            "classical_reduction", "wyd_operator", "cauchy_schwarz"}

    @pytest.mark.parametrize("inequality", verifiable())
    def test_verify_matches_run_single(self, inequality, tmp_path, capsys):
        family = FAMILIES[inequality]
        dims = (2, 2, 2) if family.nfactors == 3 else (2, 2)
        seed = 20260 + len(inequality)
        want, = run_single(inequality, "f_p:0.5", dims, 0.25, seed)
        operands = next(sample_blocks(family, FactorizedSpace(dims), [seed]))[0]
        argv = ["verify", inequality, "--f", "f_p:0.5", "--beta", "0.25",
                "--dims", "x".join(map(str, dims)), "--json"]
        for name, operand in zip(family.operands, operands):
            save_matrix(tmp_path / f"{name}.json", operand)
            argv += [FLAGS[name], str(tmp_path / f"{name}.json")]
        code = main(argv)
        got = json.loads(capsys.readouterr().out)
        assert code == (EXIT_PASS if want.passed else EXIT_VIOLATION)
        for key in ("lhs", "rhs", "gap", "passed"):
            assert got[key] == getattr(want, key), key


class TestFunctionRequirements:
    def test_pinsker_needs_a_normalized_f(self, fixtures, capsys):
        code = main(["verify", "pinsker", "--f", "neg_power:0.3",
                     "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json")])
        assert code == EXIT_INPUT
        assert "normalized" in capsys.readouterr().err

    @pytest.mark.parametrize("fid", ["neg_log", "f_p:1.5", "neg_power:0.5"])
    def test_wyd_operator_needs_f_p_in_the_unit_interval(self, fixtures, fid):
        code = main(["verify", "wyd_operator", "--f", fid,
                     "--rho", str(fixtures / "rho8.json"),
                     "--sigma", str(fixtures / "sab.json"), "--dims", "2x2x2"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("inequality", ["thm42", "monotonicity_bound", "operator_ssa_thm62",
                                            "operator_ssa_thm63", "operator_ssa_cor64",
                                            "operator_ssa_cor65"])
    def test_window_families_need_a_regular_f(self, fixtures, inequality, capsys):
        rho, dims = ("rho8.json", "2x2x2") if "ssa" in inequality else ("rho4.json", "2x2")
        sigma = "sab.json" if "ssa" in inequality else "sigma4.json"
        code = main(["verify", inequality, "--f", "f_p:1.5", "--rho", str(fixtures / rho),
                     "--sigma", str(fixtures / sigma), "--dims", dims])
        assert code == EXIT_INPUT
        assert "a regular f (window constants)" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_matrix_is_input_error(self, tmp_path, bad, capsys):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = bad
        save_matrix(tmp_path / "bad4.json", m)
        path = str(tmp_path / "bad4.json")
        code = main(["verify", "monotonicity", "--rho", path, "--sigma", path, "--dims", "2x2"])
        assert code == EXIT_INPUT
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("inequality, flag, dim", [
        (inequality, flag, 2) for inequality in ("monotonicity", "thm42", "monotonicity_bound")
        for flag in ("--k", "--v")] + [("pinsker", "--k", 4)])
    def test_non_finite_operand_is_input_error(self, fixtures, inequality, flag, dim, bad,
                                               capsys):
        # a NaN deviation compares False, so the unitary and contraction checks alone would pass
        # such a file on, and the check would report a violation (exit 1)
        m = np.eye(dim, dtype=complex)
        m[0, 0] = bad
        save_matrix(fixtures / "bad.json", m)
        code = main(["verify", inequality, "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", "2x2",
                     flag, str(fixtures / "bad.json")])
        assert code == EXIT_INPUT
        assert "non-finite" in capsys.readouterr().err

    def test_wrong_number_of_factors_is_input_error(self, fixtures):
        code = main(["verify", "ssa", "--rho", str(fixtures / "rho4.json"), "--dims", "2x2"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("dims", ["2x", "x2", "2xx2"])
    def test_empty_dims_factor_is_input_error(self, fixtures, dims, capsys):
        code = main(["verify", "classical_reduction", "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", dims])
        assert code == EXIT_INPUT
        assert f"bad dims {dims!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["2_2", "+2x2", "\uff12x2"])
    def test_non_digit_dims_factor_is_input_error(self, fixtures, dims, capsys):
        # int() took each of these; "2_2" ran as one 22-dimensional factor
        code = main(["verify", "classical_reduction", "--rho", str(fixtures / "rho4.json"),
                     "--sigma", str(fixtures / "sigma4.json"), "--dims", dims])
        assert code == EXIT_INPUT
        assert f"bad dims {dims!r}" in capsys.readouterr().err


class TestBoundsConstants:
    def test_log_constants(self, capsys):
        code = main(["bounds", "constants", "--f", "neg_log", "--beta", "0.5"])
        assert code == EXIT_PASS
        out = dict(line.split("=") for line in capsys.readouterr().out.split())
        assert float(out["alpha"]) == 0.25
        assert float(out["C"]) == 1.0
        assert float(out["c"]) == 0.0
        assert float(out["N"]) > 0

    def test_power_constants(self, capsys):
        code = main(["bounds", "constants", "--f", "f_p:0.5", "--beta", "0.5"])
        assert code == EXIT_PASS
        out = dict(line.split("=") for line in capsys.readouterr().out.split())
        assert float(out["alpha"]) == pytest.approx(0.2)
        assert float(out["c"]) == pytest.approx(0.25)


    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5", "neg_power:0.3"])
    @pytest.mark.parametrize("beta", ["0.25", "0.5", "0.75"])
    def test_printed_set_is_coherent(self, fid, beta, capsys):
        # N is the envelope of the printed C and c, not of another function's measure
        args = ["bounds", "constants", "--f", fid, "--beta", beta, "--knorm", "0.8", "--dd", "3"]
        assert main(args) == EXIT_PASS
        out = {k: float(v) for k, v in (line.split("=") for line in capsys.readouterr().out.split())}
        m_const, n_const, alpha = envelope_constants(out["C"], out["c"], float(beta), 0.8, 3.0)
        assert out["N"] == n_const and out["alpha"] == alpha

    def test_p_option_is_gone(self):
        with pytest.raises(SystemExit):
            main(["bounds", "constants", "--f", "neg_log", "--beta", "0.5", "--p", "0.5"])

    @pytest.mark.parametrize("fid", ["f_p:1.5", "f_p:-0.5"])
    def test_f_without_window_constants_is_input_error(self, fid, capsys):
        assert main(["bounds", "constants", "--f", fid, "--beta", "0.5"]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("beta", ["0.25", "0.5", "0.75"])
    def test_power_constants_read_from_the_function(self, beta, capsys):
        printed = []
        for fid in ("neg_power:0.5", "f_p:0.5"):
            assert main(["bounds", "constants", "--f", fid, "--beta", beta]) == EXIT_PASS
            printed.append(dict(line.split("=") for line in capsys.readouterr().out.split()))
        for key in ("c", "alpha", "N"):
            assert printed[0][key] == printed[1][key], key
        assert float(printed[0]["N"]) > 0

    @pytest.mark.parametrize("norms", [["--knorm", "-1"], ["--dd", "-1"], ["--knorm", "-5"],
                                       ["--knorm", "0", "--dd", "0"], ["--knorm", "nan"],
                                       ["--knorm", "inf"], ["--dd", "inf"]])
    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5"])
    def test_unusable_norms_are_input_error(self, fid, norms, capsys):
        # once a ZeroDivisionError, a complex N, N=nan or N=0.0
        assert main(["bounds", "constants", "--f", fid, "--beta", "0.5", *norms]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite, >= 0, not both 0" in captured.err

    def test_zero_k_norm_alone_is_valid(self, capsys):
        args = ["bounds", "constants", "--f", "neg_log", "--beta", "0.5", "--knorm", "0"]
        assert main(args) == EXIT_PASS
        assert float(dict(line.split("=") for line in capsys.readouterr().out.split())["N"]) > 0


# the verify choices whose check reads beta
BETA_FAMILIES = [name for name in verifiable() if FAMILIES[name].uses_beta]
OUTSIDE_BETAS = ["0", "1", "1.5", "-0.2", "nan"]


class TestBetaOutsideTheOpenInterval:
    def test_the_families(self):
        assert BETA_FAMILIES == ["thm42", "monotonicity_bound", "ssa", "operator_ssa_thm62",
                                 "operator_ssa_thm63", "operator_ssa_cor64",
                                 "operator_ssa_cor65", "wyd_operator", "cauchy_schwarz"]

    @pytest.mark.parametrize("beta", OUTSIDE_BETAS)
    @pytest.mark.parametrize("inequality", BETA_FAMILIES)
    def test_verify_is_input_error(self, fixtures, capsys, inequality, beta):
        family = FAMILIES[inequality]
        rho, sigma, dims = (("rho8", "sab", "2x2x2") if family.nfactors == 3
                            else ("rho4", "sigma4", "2x2"))
        fid = "neg_log" if family.admits(from_id("neg_log"), parse_dims(dims)) else "f_p:0.5"
        code = main(["verify", inequality, "--f", fid, "--beta", beta,
                     "--rho", str(fixtures / f"{rho}.json"),
                     "--sigma", str(fixtures / f"{sigma}.json"), "--dims", dims])
        assert code == EXIT_INPUT
        assert "beta must lie strictly inside (0,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", OUTSIDE_BETAS)
    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5", "neg_power:0.3"])
    def test_constants_is_input_error(self, capsys, fid, beta):
        assert main(["bounds", "constants", "--f", fid, "--beta", beta]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "beta must lie strictly inside (0,1)" in captured.err
        assert captured.out == ""


class TestReprCheck:
    @pytest.mark.parametrize("fid", ["neg_log", "f_p:0.5", "neg_power:0.3"])
    def test_fidelity(self, fid, capsys):
        assert main(["repr", "check", "--f", fid]) == EXIT_PASS

    def test_irregular_rejected(self):
        assert main(["repr", "check", "--f", "f_p:1.5"]) == EXIT_INPUT

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
    def test_unusable_tol_is_input_error(self, capsys, tol):
        # nan and -1 printed the quadrature error and exited 1, as a violation would
        assert main(["repr", "check", "--f", "neg_log", f"--tol={tol}"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "--tol must be positive and finite" in captured.err
        assert captured.out == ""


class TestCampaignCommand:
    def test_campaign_runs_and_is_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "reports.jsonl"
        cfg.write_text(
            "inequalities = monotonicity, pinsker\n"
            "functions = neg_log\n"
            "dims = 2x2\n"
            "trials = 4\n"
            "seed = 9\n"
            f"output = {out}\n")
        assert main(["campaign", "--config", str(cfg)]) == EXIT_PASS
        first = out.read_bytes()
        assert main(["campaign", "--config", str(cfg)]) == EXIT_PASS
        assert out.read_bytes() == first
        assert b"monotonicity" in first

    @pytest.mark.parametrize("line", ["functions = neg_log, bogus", "dims = 2x2, 2x0",
                                      "dims = 2x2, 2x", "functions = neg_log, neg_log",
                                      "dims = 2x2, 2x2", "betas = 0.5, 0.5",
                                      "functions = f_p:0.5, f_p:0.50"])
    def test_bad_config_writes_nothing(self, tmp_path, line):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "reports.jsonl"
        cfg.write_text(f"inequalities = monotonicity\ntrials = 2\n{line}\noutput = {out}\n")
        assert main(["campaign", "--config", str(cfg)]) == EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("field", ["inequalities", "functions", "dims", "betas"])
    def test_empty_list_is_input_error(self, tmp_path, capsys, field):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "reports.jsonl"
        cfg.write_text("inequalities = monotonicity\n" * (field != "inequalities")
                       + f"{field} =\noutput = {out}\n")
        assert main(["campaign", "--config", str(cfg)]) == EXIT_INPUT
        assert f"{field} must list at least one entry" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_inequality_is_input_error(self, tmp_path, capsys):
        # it ran as trials=24 reports=24, only 3 of the 24 lines distinct
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "reports.jsonl"
        cfg.write_text("inequalities = monotonicity, monotonicity\nfunctions = neg_log, neg_log\n"
                       f"dims = 2x2, 2x2\ntrials = 3\noutput = {out}\n")
        assert main(["campaign", "--config", str(cfg)]) == EXIT_INPUT
        assert "inequalities repeats an entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines", ["inequalities = ssa\ninequalities = pinsker",
                                       "inequalities = ssa\ntrials = 3\ntrials = 5"])
    def test_repeated_key_writes_nothing(self, tmp_path, capsys, lines):
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "reports.jsonl"
        cfg.write_text(f"{lines}\noutput = {out}\n")
        assert main(["campaign", "--config", str(cfg)]) == EXIT_INPUT
        assert "is given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_output_path_is_input_error(self, tmp_path, capsys):
        # an empty path wrote no file, and the campaign still exited 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("inequalities = pinsker\ntrials = 2\noutput =\n")
        assert main(["campaign", "--config", str(cfg)]) == EXIT_INPUT
        assert "output path must not be empty" in capsys.readouterr().err

    def test_empty_output_flag_is_input_error(self, tmp_path, capsys):
        # "--output ''" was dropped, and the config's own path was written instead
        cfg = tmp_path / "c.cfg"
        out = tmp_path / "reports.jsonl"
        cfg.write_text(f"inequalities = pinsker\ntrials = 2\noutput = {out}\n")
        assert main(["campaign", "--config", str(cfg), "--output", ""]) == EXIT_INPUT
        assert "output path must not be empty" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["campaign", "--config", str(tmp_path / "nope.cfg")]) == EXIT_INPUT
