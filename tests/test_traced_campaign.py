"""A campaign traced as perfbench traces it writes the bytes of an untraced one.

``perfbench/run.py --trace 1`` replaces every public callable of ``qre`` with a
timing wrapper, then checks that the traced passes' JSONL has the digest of the
plain passes'; a mismatch makes the run ``correct: false`` and exit 1.  Here one
3-trial cell of every family runs under the same tracer, at 2x2 with full rank
and at 2x2x2 with mixed rank.
"""

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402

from qre.campaign import FAMILIES, CampaignConfig, run_campaign  # noqa: E402
from qre.functions import from_id  # noqa: E402

TRIALS = 3


@pytest.mark.parametrize("ineq, dims, policy", [
    (ineq, dims, policy) for dims, policy in (((2, 2), "full"), ((2, 2, 2), "mixed"))
    for ineq in sorted(FAMILIES) if FAMILIES[ineq].nfactors in (None, len(dims))])
def test_traced_cell_writes_the_untraced_bytes(ineq, dims, policy):
    fid = "neg_log" if FAMILIES[ineq].admits(from_id("neg_log"), dims) else "f_p:0.5"
    config = CampaignConfig(inequalities=(ineq,), functions=(fid,), dims=(dims,), betas=(0.5,),
                            trials=TRIALS, seed=7, rank_policy=policy)
    plain, traced = io.StringIO(), io.StringIO()
    assert run_campaign(config, plain).trials == TRIALS
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        run_campaign(config, traced)
    finally:
        tracer.uninstall()
    assert plain.getvalue() and traced.getvalue() == plain.getvalue()
    assert len(layers.run_single_ms(tracer.spans)) == TRIALS
