"""Smoke test: each experiment script under ``scripts/`` runs to completion at tiny size.

The scripts import entry points that no other test calls, so deleting one of
them would otherwise go unnoticed.
"""

import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_verification_campaign.py", ["--trials", "2", "--seed", "7", "--output", "{tmp}/c.jsonl"]),
    ("bound_tightness_profile.py", ["--trials", "2", "--betas", "0.25", "0.75"]),
    ("equality_perturbation_sweep.py", []),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / script)] + [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_profile_rejects_fewer_than_one_trial(tmp_path):
    # --trials 0 crashed on an unbound report
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "bound_tightness_profile.py"), "--trials", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "--trials: must be at least 1" in proc.stderr


@pytest.mark.parametrize("script, seed", [
    ("bound_tightness_profile.py", "-1"),
    ("equality_perturbation_sweep.py", "-5"),
])
def test_negative_seed_is_input_error(tmp_path, script, seed):
    # numpy's "expected non-negative integer" traceback ended both with exit 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / script), "--seed", seed]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert f"--seed: must be at least 0, got {seed}" in proc.stderr
    assert not proc.stdout


@pytest.mark.parametrize("args, message", [
    (["--functions", "bogus"], "--functions: unknown function id 'bogus'"),
    (["--functions", "neg_log", "f_p:1.5"], "--functions: f_p:1.5 is not a regular f"),
    (["--betas", "0.5", "1.5"], "--betas: each must lie in (0,1), got [1.5]"),
    (["--betas", "nan"], "--betas: each must lie in (0,1), got [nan]"),
    (["--functions"], "expected at least one argument"),
    (["--betas"], "expected at least one argument"),
])
def test_profile_input_error_is_exit_2(tmp_path, args, message):
    # the first three ended in a traceback with exit 1; the empty lists printed only the header
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "bound_tightness_profile.py"),
           "--trials", "2"] + args
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not proc.stdout


def test_profile_with_every_trial_filtered_out_says_so(monkeypatch, capsys):
    # np.median([]) printed nan with a RuntimeWarning
    spec = importlib.util.spec_from_file_location(
        "bound_tightness_profile", ROOT / "scripts" / "bound_tightness_profile.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    check = script.verify_monotonicity_bound_block

    def without_gap(*args):
        reports = check(*args)
        for report in reports:
            report.details["gap"] = 0.0
        return reports

    monkeypatch.setattr(script, "verify_monotonicity_bound_block", without_gap)
    monkeypatch.setattr(sys, "argv", ["bound_tightness_profile.py", "--trials", "2",
                                      "--functions", "neg_log", "--betas", "0.5"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert script.main() == 0
    out = capsys.readouterr().out
    assert "no trial with lhs > 1e-12 and a positive gap" in out
    assert "nan" not in out


@pytest.mark.parametrize("args, message", [
    (["--trials", "0"], "trials must be >= 1"),
    (["--inequalities", "pinsker", "bogus"], "invalid choice: 'bogus'"),
    (["--inequalities"], "expected at least one argument"),
    (["--inequalities", "pinsker", "pinsker"], "inequalities repeats an entry"),
])
def test_campaign_script_input_error_is_exit_2(tmp_path, args, message):
    # each ended in a traceback with exit 1, the code of a failing trial
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "run_verification_campaign.py"),
           "--output", str(tmp_path / "c.jsonl")] + args
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "c.jsonl").exists()


@pytest.mark.parametrize("output", ["{tmp}/missing/c.jsonl", "{tmp}"])
def test_campaign_script_unwritable_output_is_exit_2(tmp_path, output):
    # a missing directory and a directory each ended in a traceback with exit 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "run_verification_campaign.py"),
           "--trials", "1", "--inequalities", "pinsker", "--output", output.format(tmp=tmp_path)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "cannot write --output" in proc.stderr and "Traceback" not in proc.stderr
