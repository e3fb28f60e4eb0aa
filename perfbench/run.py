#!/usr/bin/env python3
"""Campaign-throughput benchmark for qre.

    python3 perfbench/run.py --workload campaign-2x2 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --repeat 3
    python3 perfbench/run.py --workload campaign-2x2x2 --seed 7 --trace 1

Each run starts fresh worker processes (perfbench/worker.py) with BLAS
pinned to one thread: with ``--trace 0``, eight that only set up, then
one that sets up and measures.  ``setup_s`` is the median set-up time over
all of them, from process start to ready, each scaled to nominal machine
speed by the reference slice (perfbench/reference.py).  With ``--trace 0``
the result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an output check fails and 2 when the benchmark cannot run.  A record of
each run (environment, seeds, pass times, JSONL digest, raising cells) is
printed before that line and written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
RUN_MARGIN_S = 120.0     # set-up samples and untimed checks, beyond --seconds
SETUP_ONLY_WORKERS = 8    # plus the measuring worker: 9 set-up samples per run

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from reference import SLICE_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNITS = {"trials_per_s_norm": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    return proc, start


def _until_ready(proc: subprocess.Popen, start: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.wait()
        raise BenchError(f"worker exited before set-up finished (code {proc.returncode})")
    return time.perf_counter() - start


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with code {proc.returncode}")
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int, setup_only: int) -> dict:
    """One run: ``setup_only`` set-up samples, then the measuring worker."""
    deadline = time.perf_counter() + seconds + RUN_MARGIN_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups, slices = [], []
    for i in range(setup_only + 1):
        extra = ["--setup-only"] if i < setup_only else ["--trace", str(trace)]
        proc, start = _spawn(common + extra)
        try:
            setups.append(_until_ready(proc, start))
            out = _finish(proc, deadline - time.perf_counter())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        slices.append(float(_tagged(out, "SLICE")))
    result = json.loads(_tagged(out, "RESULT"))
    record = result["record"]
    record["setup_samples_s"] = setups
    record["setup_slice_ms"] = [s * 1e3 for s in slices]
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            t * SLICE_NOMINAL_S / s for t, s in zip(setups, slices))
    return result


def _tagged(out: str, tag: str) -> str:
    """The text after ``tag`` on the last line of ``out`` that starts with it."""
    lines = [ln for ln in out.splitlines() if ln.startswith(tag + " ")]
    if not lines:
        raise BenchError(f"worker printed no {tag} line")
    return lines[-1][len(tag) + 1:]


def unit_of(name: str, trace: int) -> str:
    return layers.UNITS[name] if trace else UNITS[name]


def print_run(result: dict, trace: int) -> None:
    record = result["record"]
    print(f"{record['workload']} seed={record['seed']} passes={record['passes']} "
          f"traced_passes={record['traced_passes']} cells={record['cells']} "
          f"trials/cell={record['trials_per_cell']}")
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name:44s} {value:14.6g} {unit_of(name, trace)}")
    if not trace:
        print(f"  {'trials_per_s (unscaled)':44s} {record['trials_per_s']:14.6g} 1/s")
        print(f"  {'failed_share':44s} {record['failed_share']:14.6g} share")
    for cell in record["raised_cells"]:
        print(f"  raised: {cell['cell']} {cell['error']} first={cell['replay']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("record " + json.dumps(record, sort_keys=True))


def save(result: dict, trace: int) -> None:
    record = result["record"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7, help="root seed of the campaign")
    ap.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload with --workload all; medians are reported")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qre" / "__init__.py").is_file():
        print(f"perfbench: no qre package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    repeat = args.repeat if args.workload == "all" else 1
    setup_only = 0 if args.trace else SETUP_ONLY_WORKERS
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            runs = []
            for _ in range(repeat):
                result = run_once(name, args.seed, args.seconds, args.trace, setup_only)
                result["record"]["runs"] = repeat
                print_run(result, args.trace)
                save(result, args.trace)
                runs.append(result)
            correct = correct and all(r["correct"] for r in runs)
            attempted += sum(r["attempted"] for r in runs)
            failed += sum(r["failed"] for r in runs)
            for key in runs[0]["metrics"]:
                value = statistics.median(r["metrics"][key] for r in runs)
                label = key if len(names) == 1 else f"{name}.{key}"
                metrics[label] = {"value": value, "unit": unit_of(key, args.trace)}
            if len(names) > 1:
                print(f"== {name}: median of {len(runs)} run(s)")
                for key in sorted(runs[0]["metrics"]):
                    m = metrics[f"{name}.{key}"]
                    print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
                if not args.trace:
                    share = statistics.median(r["record"]["failed_share"] for r in runs)
                    print(f"  {'failed_share':44s} {share:14.6g} share")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
