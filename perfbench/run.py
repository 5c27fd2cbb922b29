"""tropnc benchmark: one workload per run, every answer checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fan_weight --seed 1 --seconds 24 --trace 0

Workloads: fan_weight, ladder_roundtrip, bounded_complex, cli_mix (see
perfbench/README.md for their inputs and why each exists).  The run is a
closed loop with one caller and no threads.  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced run.  The program under test is the tropnc package in
this checkout's src/; without it the run fails and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS, layer_metrics
from worker import HERE, ROOT, SRC, child_env

WORKLOADS = ("fan_weight", "ladder_roundtrip", "bounded_complex", "cli_mix")
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Extra set-up-only processes per in-process run; with the measuring
# process itself, set-up is the median of three.
SETUP_PROBES = 2
# Every child is killed once the run has taken this long, well inside
# the 180 s a run may take.
DEADLINE_S = 170


class RunFailed(RuntimeError):
    pass


def pin_to_one_cpu():
    """Run this process and every process it starts on one CPU.  The
    speed gauge must read the CPU the timed work runs on: on the 2-vCPU
    machine the baseline was recorded on, the two vCPUs often ran at
    different speeds, and a `tropnc --help` child timed unpinned varied
    with a coefficient of variation of 0.24 after scaling, against 0.02
    pinned."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def worker(argv: list[str], started: float) -> dict:
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {argv} passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"worker {argv} exited {proc.returncode}: "
                        f"{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def measure(args) -> tuple[dict, dict]:
    started = time.perf_counter()
    prime = subprocess.run([sys.executable, "-c", "import tropnc.cli"], capture_output=True,
                           env=child_env(), cwd=ROOT, timeout=60)
    if prime.returncode != 0:
        raise RunFailed(f"cannot import tropnc: {prime.stderr.decode()[-2000:]}")

    common = ["--workload", args.workload]
    if args.tiny:
        common.append("--tiny")
    setups = []
    if args.workload != "cli_mix" and not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(common + ["--setup-only"], started))
    out = worker(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], started)
    setups.append(out)
    out["setup_wall_s"] = statistics.median(s["setup_wall_s"] for s in setups)

    timing = out["timing"]
    if timing is None:
        raise RunFailed(f"no item succeeded: {out['errors'][:3]}")
    if args.trace:
        values = layer_metrics(out["layers"])
        values["trace.untraced_round_s"] = out["untraced_round_s"]
        values["trace.traced_round_s"] = out["traced_round_s"]
        values["trace.overhead_s"] = out["traced_round_s"] - out["untraced_round_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        values = {name: timing[name] for name in ("items_per_s", "item_p50_ms", "item_p90_ms")}
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = out["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return out, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small items per workload, for the self-tests")
    args = parser.parse_args()

    if not (SRC / "tropnc" / "__init__.py").is_file():
        print(f"error: no tropnc package under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    try:
        out, metrics = measure(args)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(out["errors"])
    for error in out["errors"][:5]:
        print(f"failed item: {error}", file=sys.stderr)
    samples = out["timing"]["samples"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {out['attempted']} item runs "
          f"in {out['timing']['rounds']} rounds, {failed} failed; {samples} timed samples, "
          f"{samples - int(samples * 0.9)} beyond p90")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "wall" in out:
        wall = out["wall"]
        print(f"  wall time, unscaled: set-up {out['setup_wall_s']:.6g} s, "
              f"{wall['items_per_s']:.6g} items/s, p50 {wall['item_p50_ms']:.6g} ms, "
              f"p90 {wall['item_p90_ms']:.6g} ms")
    correct = failed == 0 and out.get("answers_match", True)
    if not out.get("answers_match", True):
        print("traced answers differ from untraced answers", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
