"""Smoke test: each experiment script under ``scripts/`` runs to completion at tiny size.

The scripts import entry points that no other test calls, so deleting one of
them would otherwise go unnoticed.
"""

import os
import subprocess
import sys
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
