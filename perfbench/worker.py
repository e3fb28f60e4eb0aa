"""One workload process: set up, run timed passes, check outputs, report.

Started by ``run.py``.  It prints ``READY`` once set-up is done (import of
``qre``, the cell configs, an untimed warm-up pass of one trial per cell),
then ``SLICE <seconds>``, the median time of the reference slice right after
set-up, then, unless ``--setup-only``, one ``RESULT <json>`` line.

A *pass* runs every cell of the workload once, one ``run_campaign`` call
after another (a closed loop in one process).  Passes repeat until
``--seconds`` have elapsed; every pass does the same work, so its JSONL must
be byte-identical to the first pass's.  With ``--trace 1`` the first half of
the time runs plain passes and the second half traced passes.
"""

import os

# pinned before numpy is imported anywhere in this process
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import SLICE_NOMINAL_S, reference_kernel  # noqa: E402
from workloads import TRIALS_PER_CELL, WORKLOADS, FAMILIES  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
REPLAYS_PER_CELL = 2
SETUP_SLICES = 25    # reference slices right after set-up, to scale setup_s
ORACLE_PER_CELL = 5


@dataclass
class Pass:
    wall: float
    cell_seconds: list[float]
    completed: list[int]
    errors: list[str | None]
    sha256: str
    texts: list[str]    # per-cell JSONL; kept for the first pass only
    slice_s: float    # mean time of the reference slices run between cells; not in wall


def run_pass(campaign, configs, tracer=None, reference=None) -> Pass:
    seconds, completed, errors, texts = [], [], [], []
    reference_s = 0.0
    start = time.perf_counter()
    for i, config in enumerate(configs):
        if reference is not None:
            reference_s += reference()
        if tracer is not None:
            tracer.cell = i
        stream = io.StringIO()
        t0 = time.perf_counter()
        try:
            done, error = campaign.run_campaign(config, stream).trials, None
        except Exception as exc:  # noqa: BLE001 - a raising cell is recorded, not fatal
            done, error = 0, type(exc).__name__
        seconds.append(time.perf_counter() - t0)
        completed.append(done)
        errors.append(error)
        texts.append(stream.getvalue())
    if reference is not None:
        reference_s += reference()
    wall = time.perf_counter() - start - reference_s
    sha = hashlib.sha256("".join(texts).encode()).hexdigest()
    slice_s = reference_s / (len(configs) + 1)
    return Pass(wall, seconds, completed, errors, sha, texts, slice_s)


def timed_passes(campaign, configs, seconds, tracer=None, after_pass=None,
                 reference=None) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        p = run_pass(campaign, configs, tracer, reference)
        if after_pass is not None:
            after_pass(p)
        if passes:
            p.texts = []    # the digest is enough; keeps memory flat across passes
        passes.append(p)
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))

    # ---- set-up: import, configs, untimed warm-up --------------------------
    from qre import campaign

    workload = WORKLOADS[args.workload]
    cells = workload.cells()

    def configs_for(trials):
        return [campaign.CampaignConfig(
            inequalities=(c.inequality,), functions=(c.function,), dims=(c.dims,),
            betas=(c.beta,), trials=trials, seed=args.seed,
            rank_policy=workload.rank_policy) for c in cells]

    configs = configs_for(TRIALS_PER_CELL)
    run_pass(campaign, configs_for(1))
    print("READY", flush=True)
    reference = reference_kernel()
    slices = [reference() for _ in range(SETUP_SLICES)]
    print(f"SLICE {statistics.median(slices)!r}", flush=True)
    if args.setup_only:
        return 0

    # ---- timed region -------------------------------------------------------
    if args.trace:
        plain = timed_passes(campaign, configs, args.seconds / 2)
        traced, layer_rows, trial_ms, first_spans = trace_passes(
            campaign, configs, args.seconds / 2)
    else:
        plain = timed_passes(campaign, configs, args.seconds, reference=reference)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- accounting and checks (untimed) -----------------------------------
    import checks
    from envinfo import environment
    from qre import linalg

    first = plain[0]
    problems = []
    shas = {p.sha256 for p in plain + traced}
    if len(shas) != 1:
        problems.append(f"passes disagree: {len(shas)} distinct JSONL digests")

    attempted = failed = completed = divergent = reports = 0
    raised = []
    oracle_checked = replayed = 0
    pick = random.Random(args.seed)
    for i, cell in enumerate(cells):
        trials = checks.trials_of(first.texts[i])
        bad, div, reps = checks.tally(first.texts[i])
        divergent += div
        reports += reps
        attempted += TRIALS_PER_CELL
        completed += first.completed[i]
        if first.errors[i] is not None:
            failed += TRIALS_PER_CELL
            info = checks.first_raising_trial(campaign, cell, workload.rank_policy,
                                              args.seed, TRIALS_PER_CELL)
            raised.append({"cell": cell.label, "error": first.errors[i], "replay": info})
        else:
            failed += bad
        extra = max(0, min(REPLAYS_PER_CELL - 1, len(trials) - 1))
        sample = trials[:1] + pick.sample(trials[1:], extra)
        replayed += len(sample)
        problems += checks.replay_mismatches(campaign, cell, workload.rank_policy, sample)
        if cell.inequality in checks.ORACLE_FAMILIES:
            n, bad_oracle = checks.oracle_disagreements(
                linalg, cell, workload.rank_policy, trials, ORACLE_PER_CELL)
            oracle_checked += n
            problems += bad_oracle
    if completed < 1:
        problems.append("no trial completed")
    if oracle_checked < 1 and any(c.inequality in checks.ORACLE_FAMILIES for c in cells):
        problems.append("no trial was checked against the oracle")

    walls = [p.wall for p in plain]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trials_per_cell": TRIALS_PER_CELL,
        "cells": len(cells),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_seconds": walls,
        "trials_per_s": statistics.median(completed / p.wall for p in plain),
        "jsonl_sha256": first.sha256,
        "failed_share": failed / attempted,
        "raised_cells": raised,
        "replayed_trials": replayed,
        "oracle_checked": oracle_checked,
        "problems": problems[:20],
        "environment": environment(ROOT),
    }
    if args.trace:
        layer = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        layer["trace.overhead"] = (statistics.median(p.wall for p in traced)
                                   / statistics.median(walls))
        cuts = statistics.quantiles(trial_ms, n=100)
        layer["campaign.trial_ms_p50"] = cuts[49]
        layer["campaign.trial_ms_p99"] = cuts[98]
        layer["campaign.divergent_share"] = divergent / reports
        layer["reports.bytes"] = len("".join(first.texts).encode()) / completed
        layer.update(family_ms_per_trial(cells, plain))
        metrics = layer
        record["run_single_samples"] = len(trial_ms)
        write_spans(workload.name, first_spans)
    else:
        record["slice_ms"] = [p.slice_s * 1e3 for p in plain]
        metrics = {
            "trials_per_s_norm": statistics.median(
                completed / p.wall * p.slice_s / SLICE_NOMINAL_S for p in plain),
            "peak_rss_mb": peak_rss_mb,
        }

    # Each distinct trial counts once: every pass repeats the same trials, so
    # the counts depend on the workload and seed only, not on machine speed.
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics, "record": record}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def trace_passes(campaign, configs, seconds):
    """Traced passes: per-pass layer metrics, pooled run_single times, first pass's spans."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    rows, trial_ms, kept = [], [], []

    def after(p):
        done = sum(p.completed)
        rows.append(layers.span_metrics(tracer.spans, done, p.wall))
        trial_ms.extend(layers.run_single_ms(tracer.spans))
        if not kept:
            kept.append(tracer.spans)

    layers.install(tracer)
    try:
        passes = timed_passes(campaign, configs, seconds, tracer, after)
    finally:
        tracer.uninstall()
    return passes, rows, trial_ms, kept[0]


def family_ms_per_trial(cells, passes) -> dict[str, float]:
    """Median over plain passes of cell time per attempted trial, by family."""
    out = {}
    for family in FAMILIES:
        idx = [i for i, c in enumerate(cells) if c.inequality == family]
        value = 0.0
        if idx:
            value = statistics.median(
                sum(p.cell_seconds[i] for i in idx) * 1e3 / (TRIALS_PER_CELL * len(idx))
                for p in passes)
        out[f"campaign.{family}.ms_per_trial"] = value
    return out


def write_spans(workload: str, spans) -> None:
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans-{workload}.jsonl.gz", "wt") as fh:
        fh.write('["name","start","end","parent","cell"]\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
