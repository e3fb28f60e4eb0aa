"""Campaign harness: config parsing, determinism, replay, divergent accounting."""

import io
import json

import numpy as np
import pytest

from qre.campaign import (
    FAMILIES,
    CampaignConfig,
    parse_config,
    parse_dims,
    run_campaign,
    run_single,
    sample_blocks,
    trial_seed,
)
from qre.errors import InvalidParameter, QREError
from qre.functions import from_id
from qre.linalg import FactorizedSpace

# the families whose theorem needs the window constants of a regular f
WINDOW_FAMILIES = ("thm42", "monotonicity_bound", "joint_convexity", "operator_ssa_thm62",
                   "operator_ssa_thm63", "operator_ssa_cor64", "operator_ssa_cor65")

BASE_CONFIG = """
# acceptance-style campaign
inequalities = monotonicity, ssa, pinsker
functions = neg_log, f_p:0.5
dims = 2x2, 2x2x2
betas = 0.5
trials = 5
seed = 11
rank_policy = full
"""


class TestConfig:
    def test_parse(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.inequalities == ("monotonicity", "ssa", "pinsker")
        assert cfg.functions == ("neg_log", "f_p:0.5")
        assert cfg.dims == ((2, 2), (2, 2, 2))
        assert cfg.trials == 5 and cfg.seed == 11

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameter):
            CampaignConfig(inequalities=("monotonicity",), trials=0)

    @pytest.mark.parametrize("field, value", [("trials", 2.5), ("trials", True), ("trials", "3"),
                                              ("seed", 1.5), ("seed", False), ("seed", None)])
    def test_non_integer_trials_or_seed_rejected_before_any_report(self, field, value, tmp_path):
        # trials=2.5 left an empty JSONL and a TypeError; seed=1.5 hashed as "1.5"
        out = tmp_path / "reports.jsonl"
        with pytest.raises(InvalidParameter, match=f"{field} must be an integer"):
            CampaignConfig(inequalities=("monotonicity",), output_path=str(out),
                           **{"trials": 2, field: value})
        assert not out.exists()

    def test_numpy_integer_trials_and_seed_accepted(self):
        config = CampaignConfig(inequalities=("monotonicity",), trials=np.int64(2),
                                seed=np.uint8(3))
        assert config.trials == 2 and config.seed == 3

    def test_bad_beta_rejected(self):
        with pytest.raises(InvalidParameter):
            CampaignConfig(inequalities=("monotonicity",), betas=(1.5,))

    def test_unknown_inequality_rejected(self):
        with pytest.raises(InvalidParameter):
            CampaignConfig(inequalities=("nonsense",))

    def test_bad_line_rejected(self):
        with pytest.raises(InvalidParameter):
            parse_config("inequalities monotonicity")

    def test_parse_dims(self):
        assert parse_dims("2x2x2") == (2, 2, 2)
        assert parse_dims("2,3") == (2, 3)
        with pytest.raises(InvalidParameter):
            parse_dims("2xa")
        assert parse_dims(" 2 x 3 ") == (2, 3)
        # int() also takes "2_2" (as 22), "+2" and full-width digits
        for bad in ("2x", "x2", "2xx2", "2,,3", "", "2_2", "+2", "2x-2", "\uff12", "2.0"):
            with pytest.raises(InvalidParameter, match="bad dims"):
                parse_dims(bad)
        with pytest.raises(InvalidParameter, match="bad dims"):
            parse_config("inequalities = monotonicity\ndims = 2_2\n")

    @pytest.mark.parametrize("bad", [dict(functions=("neg_log", "bogus")),
                                     dict(functions=("f_p:2.5",)),
                                     dict(dims=((2, 2), (2, 0))),
                                     dict(dims=((2, 2), (2.5, 2)))])
    def test_bad_function_or_dims_rejected_before_any_report(self, bad, tmp_path):
        out = tmp_path / "reports.jsonl"
        stream = io.StringIO()
        with pytest.raises(QREError):
            config = CampaignConfig(inequalities=("monotonicity",), trials=2,
                                    output_path=str(out), **bad)
            run_campaign(config, stream)
        assert stream.getvalue() == "" and not out.exists()

    @pytest.mark.parametrize("field", ["inequalities", "functions", "dims", "betas"])
    def test_empty_list_rejected(self, field):
        # an empty list would run no trial and pass vacuously
        with pytest.raises(InvalidParameter, match=f"{field} must list"):
            CampaignConfig(**{"inequalities": ("monotonicity",), field: ()})
        with pytest.raises(InvalidParameter, match=f"{field} must list"):
            parse_config("inequalities = monotonicity\n" * (field != "inequalities")
                         + f"{field} =\n")

    @pytest.mark.parametrize("field, value, text", [
        ("inequalities", ("monotonicity", "thm42", "monotonicity"),
         "monotonicity, thm42, monotonicity"),
        ("functions", ("neg_log", "neg_log"), "neg_log, neg_log"),
        ("dims", ((2, 2), (2, 2)), "2x2, 2x2"),
        ("betas", (0.25, 0.5, 0.25), "0.25, 0.5, 0.25")])
    def test_repeated_entry_rejected(self, field, value, text):
        # a repeated entry ran its cells twice and counted every trial twice
        with pytest.raises(InvalidParameter, match=f"{field} repeats an entry"):
            CampaignConfig(**{"inequalities": ("monotonicity",), field: value})
        with pytest.raises(InvalidParameter, match=f"{field} repeats an entry"):
            parse_config("inequalities = monotonicity\n" * (field != "inequalities")
                         + f"{field} = {text}\n")

    @pytest.mark.parametrize("functions", [("f_p:0.5", "f_p:0.50"), ("f_p:0.5", "f_p:5e-1")])
    def test_function_spelled_twice_rejected(self, functions):
        # the repeat check compared strings: "f_p:0.5, f_p:0.50" ran every trial twice
        with pytest.raises(InvalidParameter, match="functions repeats an entry"):
            CampaignConfig(inequalities=("pinsker",), functions=functions, trials=2)
        with pytest.raises(InvalidParameter, match="functions repeats an entry"):
            parse_config(f"inequalities = pinsker\nfunctions = {', '.join(functions)}\n")

    def test_empty_output_path_rejected(self):
        # "output =" parsed to "", and the campaign then wrote no file at all
        with pytest.raises(InvalidParameter, match="output path must not be empty"):
            CampaignConfig(inequalities=("pinsker",), output_path="")
        with pytest.raises(InvalidParameter, match="output path must not be empty"):
            parse_config("inequalities = pinsker\noutput =\n")

    @pytest.mark.parametrize("key, first, second", [
        ("inequalities", "ssa", "pinsker"), ("trials", "3", "5"), ("seed", "1", "1"),
        ("output", "a.jsonl", "b.jsonl")])
    def test_repeated_key_rejected(self, key, first, second):
        # the last value used to win: "ssa" then "pinsker" ran pinsker alone
        text = f"{key} = {first}\nfunctions = neg_log\n{key} = {second}\n"
        with pytest.raises(InvalidParameter, match=f"config key {key!r} is given more than once"):
            parse_config("inequalities = monotonicity\n" * (key != "inequalities") + text)

    @pytest.mark.parametrize("line", ["trails = 5", "tol.monotonicity = 1e-6"])
    def test_unknown_key_rejected(self, line):
        with pytest.raises(InvalidParameter, match="unknown config key"):
            parse_config(f"inequalities = monotonicity\n{line}\n")


class TestUnroundedPower:
    """A power p is named by its shortest round-trip repr, so every check reads the p given."""

    def test_close_powers_are_two_functions(self):
        config = CampaignConfig(inequalities=("wyd_skew",), functions=("f_p:0.1234567",
                                                                       "f_p:0.1234568"))
        assert config.functions == ("f_p:0.1234567", "f_p:0.1234568")

    @pytest.mark.parametrize("fid", ["f_p:0.1234567", "f_p:0.123457"])
    def test_skew_cell_at_a_seven_digit_power_passes(self, fid):
        # at six significant digits the skew information was computed at 0.123457 and its
        # cross-check at 0.1234567: 20 of 20 trials failed
        config = CampaignConfig(inequalities=("wyd_skew",), functions=(fid,), trials=20, seed=7)
        summary = run_campaign(config, io.StringIO())
        assert (summary.reports, summary.failures) == (20, 0)


class TestBetaNearOne:
    """N = M^{-1/alpha} leaves the float range as beta -> 1; the checks still give verdicts."""

    @pytest.mark.parametrize("beta", [0.99, 0.999, 0.999999])
    def test_remainder_families_give_verdicts(self, beta):
        # ZeroDivisionError (N underflowed to 0.0) or OverflowError before
        config = CampaignConfig(
            inequalities=("ssa", "operator_ssa_thm62", "operator_ssa_cor64", "wyd_operator",
                          "wyd_joint_concavity"),
            functions=("f_p:0.5",), dims=((2, 2, 2),), betas=(beta,), trials=4, seed=3)
        summary = run_campaign(config, io.StringIO())
        assert (summary.reports, summary.failures) == (20, 0)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        cfg = parse_config(BASE_CONFIG)
        out1, out2 = io.StringIO(), io.StringIO()
        s1 = run_campaign(cfg, stream=out1)
        s2 = run_campaign(cfg, stream=out2)
        assert out1.getvalue() == out2.getvalue()
        assert s1.passes == s2.passes and s1.failures == 0

    def test_trial_seed_stable(self):
        s = trial_seed(11, "monotonicity", (2, 2), "neg_log", 0.5, 3)
        assert s == trial_seed(11, "monotonicity", (2, 2), "neg_log", 0.5, 3)
        assert s != trial_seed(11, "monotonicity", (2, 2), "neg_log", 0.5, 4)
        assert s != trial_seed(12, "monotonicity", (2, 2), "neg_log", 0.5, 3)

    def test_replay_from_report_fields(self):
        seed = trial_seed(7, "monotonicity_bound", (2, 2), "neg_log", 0.5, 0)
        first = run_single("monotonicity_bound", "neg_log", (2, 2), 0.5, seed)
        second = run_single("monotonicity_bound", "neg_log", (2, 2), 0.5, seed)
        assert [r.to_json() for r in first] == [r.to_json() for r in second]
        assert first[0].seed == seed

    @pytest.mark.parametrize("inequality, policy, match", [
        ("monotonicity", "Mixed", "rank_policy must be full|mixed"),
        ("monotonicity", "", "rank_policy must be full|mixed"),
        ("monotonicty", "full", "unknown inequalities"),
        ("nonsense", "mixed", "unknown inequalities")])
    def test_replay_rejects_unknown_fields(self, inequality, policy, match):
        # "Mixed" replayed as full rank: every line of a mixed cell came out different
        with pytest.raises(InvalidParameter, match=match):
            run_single(inequality, "neg_log", (2, 2), 0.5, 3, policy)

    def test_reports_are_json_lines(self):
        cfg = CampaignConfig(inequalities=("pinsker",), trials=3, seed=5)
        out = io.StringIO()
        run_campaign(cfg, stream=out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 3
        for line in lines:
            payload = json.loads(line)
            assert payload["inequality_id"] == "pinsker"
            assert "inputs_digest" in payload and "seed" in payload


class TestApplicability:
    def test_dims_filtering(self):
        # ssa only runs on tripartite factorizations
        cfg = CampaignConfig(inequalities=("ssa",), dims=((2, 2),), trials=3)
        summary = run_campaign(cfg)
        assert summary.reports == 0

    def test_beta_free_inequalities_run_once(self):
        cfg = CampaignConfig(inequalities=("pinsker",), betas=(0.25, 0.5, 0.75),
                             trials=2, seed=3)
        summary = run_campaign(cfg)
        assert summary.reports == 2

    def test_wyd_skips_non_power_functions(self):
        cfg = CampaignConfig(inequalities=("wyd_skew",), functions=("neg_log",),
                             trials=2)
        summary = run_campaign(cfg)
        assert summary.reports == 0

    def test_wyd_runs_power_functions(self):
        cfg = CampaignConfig(inequalities=("wyd_skew",), functions=("f_p:0.5",),
                             dims=((2,),), trials=4, seed=2)
        summary = run_campaign(cfg)
        assert summary.reports == 4 and summary.failures == 0

    def test_equality_joint_convexity_builds_on_its_dims(self):
        digests = {run_single("equality_joint_convexity", "neg_log", dims, 0.5, 123)[0].inputs_digest
                   for dims in ((2, 2), (2, 2, 2), (2,))}
        assert len(digests) == 3

    def test_pinsker_skips_unnormalized_functions(self):
        cfg = CampaignConfig(inequalities=("pinsker",), functions=("neg_power:0.3",),
                             dims=((2, 2), (2, 2, 2)), trials=20, seed=3)
        summary = run_campaign(cfg)
        assert summary.reports == 0 and summary.trials == 0
        assert run_single("pinsker", "neg_power:0.3", (2, 2), 0.5, 1) == []


class TestRegistry:
    def test_f_requirements(self):
        wanted = {"neg_log": {"pinsker", *WINDOW_FAMILIES},
                  "f_p:0.5": {"pinsker", "wyd_skew", "wyd_joint_concavity", "wyd_operator",
                              *WINDOW_FAMILIES},
                  "f_p:1.5": {"pinsker", "wyd_joint_concavity"},
                  "f_p:-0.5": {"pinsker", "wyd_joint_concavity"},
                  "neg_power:0.3": set(WINDOW_FAMILIES)}
        for fid, admitted in wanted.items():
            f = from_id(fid)
            got = {name for name, family in FAMILIES.items() if family.requires is not None
                   and family.admits(f, (2,) * (family.nfactors or 2))}
            assert got == admitted, fid

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_check_returns_a_list_of_one_outcome_per_trial(self, name):
        # a check builds its list whole, so a block that raises has given no outcome
        family = FAMILIES[name]
        dims = (2,) * (family.nfactors or 2)
        f = next(f for f in map(from_id, ("neg_log", "f_p:0.5")) if family.admits(f, dims))
        space = FactorizedSpace(dims)
        block = next(sample_blocks(family, space, [3, 4]))
        assert len(block) == 2
        outcomes = family.check(f, space, 0.5, block)
        assert isinstance(outcomes, list) and len(outcomes) == 2

    @pytest.mark.parametrize("inequality", WINDOW_FAMILIES)
    def test_window_families_skip_irregular_functions(self, inequality):
        dims = (2, 2, 2) if FAMILIES[inequality].nfactors == 3 else (2, 2)
        cfg = CampaignConfig(inequalities=(inequality,), functions=("f_p:1.5", "f_p:-0.5"),
                             dims=(dims,), trials=2, seed=3)
        summary = run_campaign(cfg)
        assert summary.reports == 0 and summary.trials == 0
        assert run_single(inequality, "f_p:1.5", dims, 0.5, 1) == []


class TestMixedRankPolicy:
    def test_divergent_counted_separately(self):
        cfg = CampaignConfig(inequalities=("monotonicity",), functions=("neg_log",),
                             dims=((2, 2),), trials=120, seed=19,
                             rank_policy="mixed")
        summary = run_campaign(cfg)
        assert summary.failures == 0
        assert summary.divergent > 0
        assert summary.per_inequality["monotonicity"]["divergent"] == summary.divergent

    def test_divergent_pinsker_counted_separately(self):
        cfg = CampaignConfig(inequalities=("pinsker",), functions=("neg_log", "f_p:0.5"),
                             dims=((2, 2, 2),), betas=(0.25,), trials=20, seed=7,
                             rank_policy="mixed")
        out = io.StringIO()
        summary = run_campaign(cfg, stream=out)
        assert summary.divergent == 4 and summary.failures == 0
        assert summary.per_inequality["pinsker"]["divergent"] == 4
        divergent = [json.loads(line) for line in out.getvalue().splitlines()
                     if "divergent=1" in line]
        assert len(divergent) == 4
        assert all(rep["details"]["divergent"] == 1.0 for rep in divergent)

    @pytest.mark.parametrize("ineq", ["monotonicity", "pinsker"])
    def test_non_faithful_rho_with_infinite_recession_is_divergent(self, ineq):
        # f_p:1.5 has f'(inf) = +inf, so S_f is infinite when sigma weighs a null mode of rho.
        # Dropping that term once gave 49 (monotonicity) and 56 (pinsker) false violations
        # here; now a trial is divergent exactly when its rho is rank-deficient.
        cfg = CampaignConfig(inequalities=(ineq,), functions=("f_p:1.5",), dims=((2, 2),),
                             trials=300, seed=5, rank_policy="mixed")
        out = io.StringIO()
        summary = run_campaign(cfg, stream=out)
        assert summary.failures == 0
        space = FactorizedSpace((2, 2))
        for line in out.getvalue().splitlines():
            rep = json.loads(line)
            rho = next(sample_blocks(FAMILIES[ineq], space, [rep["seed"]], "mixed"))[0][0]
            assert bool(rep["details"].get("divergent")) == (rho.rank() < rho.dim)
            if rep["details"].get("divergent"):
                assert "null mode of rho" in rep["notes"]
        assert summary.divergent == {"monotonicity": 60, "pinsker": 59}[ineq]

    def test_summary_totals_are_those_of_its_inequalities(self, monkeypatch):
        # divergent pinsker trials at 2x2x2, and one family made to fail a report per block
        real = FAMILIES["classical_reduction"]

        def failing_check(f, space, beta, block):
            reports = real.check(f, space, beta, block)
            reports[0].passed, reports[0].gap = False, -1.0
            return reports

        monkeypatch.setitem(FAMILIES, "classical_reduction", real._replace(check=failing_check))
        cfg = CampaignConfig(inequalities=("pinsker", "classical_reduction", "monotonicity"),
                             functions=("neg_log", "f_p:0.5"), dims=((2, 2), (2, 2, 2)),
                             trials=20, seed=7, rank_policy="mixed")
        out = io.StringIO()
        summary = run_campaign(cfg, stream=out)
        stats = summary.per_inequality.values()
        assert summary.divergent > 0 and summary.failures > 0
        assert summary.failures == len(summary.failing)
        assert all(line.startswith("classical_reduction ") for line in summary.failing)
        for key in ("reports", "passes", "divergent"):
            assert getattr(summary, key) == sum(s[key] for s in stats), key
        assert summary.worst_margin == min(s["worst_margin"] for s in stats)
        # and the totals are those of the written lines
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        counted = [r for r in lines if not r["details"].get("divergent")]
        assert summary.reports == len(lines)
        assert summary.divergent == len(lines) - len(counted)
        assert summary.passes == sum(r["passed"] for r in counted)
        assert summary.failures == sum(not r["passed"] for r in counted)
        assert summary.worst_margin == min(r["gap"] for r in counted) == -1.0

    def test_full_policy_never_divergent(self):
        cfg = CampaignConfig(inequalities=("monotonicity",), functions=("neg_log",),
                             dims=((2, 2),), trials=50, seed=19)
        summary = run_campaign(cfg)
        assert summary.divergent == 0 and summary.failures == 0
