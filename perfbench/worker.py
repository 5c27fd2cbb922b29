"""One workload process: set up, run timed rounds, judge every answer.

Started by run.py, never by hand.  Prints one JSON object on its last
stdout line.  In-process workloads time `import tropnc` plus their
warm-up as set-up; cli_mix times cold `python -m tropnc.cli --help`
processes instead and spends its rounds on tropnc subprocesses.

A round runs every item of the workload's fixed list once, each item just
after a reading of the machine-speed gauge (speed.py).  A run times as
many rounds as fit in --seconds, and at least MIN_ROUNDS; every
successful item run is one sample of the end-to-end timings, which are
the samples' scaled times.  Their wall times are reported beside them,
for reading only.  With --trace 1 the worker runs
TRACE_ROUNDS untraced and as many traced rounds, alternating, and
reports the per-layer sums over the traced set-up and the traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HELP_SAMPLES = 5
CLI_TIMEOUT_S = 60
MIN_ROUNDS = 2
TRACE_ROUNDS = 2


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: tropnc from this
    checkout's src, a fixed hash seed, and bytecode caching left on, so
    the cache that run.py primes is the one every process reads."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONOPTIMIZE"):
        env.pop(name, None)
    return env


def run_round(workload, items, call) -> dict:
    """Time `call(item)` once per item and judge each answer outside the
    timing.  times[i] is item i's wall time and scaled[i] that time at the
    gauge's nominal machine speed (speed.py); both are None when item i
    failed."""
    times, fingerprints, errors = [], [], []
    gauge = speed.Gauge()
    for item in items:
        gauge.sample()
        start = time.perf_counter()
        try:
            answer = call(item)
        except Exception as exc:  # any exception is a failed item, never a crash
            errors.append(f"{type(exc).__name__}: {exc}")
            times.append(None)
            fingerprints.append(None)
            continue
        elapsed = time.perf_counter() - start
        problem = workload.check(item, answer)
        if problem is not None:
            errors.append(problem)
        times.append(elapsed if problem is None else None)
        fingerprints.append(workload.fingerprint(answer))
    gauge.sample()
    scaled = [None if t is None else t * gauge.scale(i) for i, t in enumerate(times)]
    return {"times": times, "scaled": scaled, "errors": errors, "fingerprints": fingerprints}


def timing_metrics(rounds: list[list]) -> dict | None:
    """End-to-end timings of rounds over the same items.  Throughput counts
    each item with the median of its successful runs, so that one run
    scaled wrongly (a long item during which the machine changed speed)
    does not move it; the percentiles pool every successful item run as
    one sample.  None when no item succeeded."""
    times = [t for ts in rounds for t in ts if t is not None]
    if not times:
        return None
    per_item = [statistics.median(ok) for ts in zip(*rounds)
                if (ok := [t for t in ts if t is not None])]
    deciles = statistics.quantiles(times, n=10, method="inclusive") if len(times) > 1 else [times[0]] * 9
    return {
        "samples": len(times),
        "rounds": len(rounds),
        "items_per_s": len(per_item) / sum(per_item),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_p90_ms": deciles[8] * 1000,
    }


def timed_rounds(workload, items, call, seconds: float, who: int) -> dict:
    """Rounds over all items, as many as fit in `seconds` judged by the
    last round's length, and always at least MIN_ROUNDS.  Peak memory of
    `who` (getrusage) is read after MIN_ROUNDS rounds: tropnc's heap keeps
    growing over repeated bounded-complex rounds, so a later reading would
    depend on how many rounds the machine's speed let in."""
    rounds, walls, errors = [], [], []
    peak = None
    start = time.perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        result = run_round(workload, items, call)
        rounds.append(result["scaled"])
        walls.append(result["times"])
        errors += result["errors"]
        last = time.perf_counter() - begun
        if len(rounds) == MIN_ROUNDS:
            peak = peak_rss_mb(who)
    return {"timing": timing_metrics(rounds), "wall": timing_metrics(walls), "errors": errors,
            "attempted": len(rounds) * len(items), "peak_rss_mb": peak}


def fastest_total(rounds: list[list]) -> float:
    """Sum over items of each item's fastest round; failed items left out."""
    return sum(min(ts) for ts in zip(*rounds) if None not in ts)


def traced_rounds(workload, items, plain_call, traced_call, tracer) -> dict:
    """TRACE_ROUNDS untraced and as many traced rounds, alternating,
    so that drift of the machine's speed falls on both kinds alike.  The
    answers of every round must match."""
    plain, traced, errors, fingerprints = [], [], [], []
    for _ in range(TRACE_ROUNDS):
        plain_round = run_round(workload, items, plain_call)
        if tracer is not None:
            tracer.install()
        try:
            traced_round = run_round(workload, items, traced_call)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for kind, result in ((plain, plain_round), (traced, traced_round)):
            kind.append(result["times"])
            errors += result["errors"]
            fingerprints.append(result["fingerprints"])
    return {
        "timing": timing_metrics(plain + traced),
        "errors": errors,
        "attempted": 2 * TRACE_ROUNDS * len(items),
        "untraced_round_s": fastest_total(plain),
        "traced_round_s": fastest_total(traced),
        "answers_match": all(f == fingerprints[0] for f in fingerprints),
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def in_process(args) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tropnc  # imports every core module

    if not Path(tropnc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tropnc imported from {tropnc.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload.warm_up()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_wall_s = time.perf_counter() - start
    setup = {"setup_s": setup_wall_s * speed.scale_now(), "setup_wall_s": setup_wall_s}
    if args.setup_only:
        return setup

    items = workload.items(args.seed, load_golden(args))
    if args.trace:
        out = traced_rounds(workload, items, workload.run, workload.run, tracer)
        out["layers"] = tracer.sums()
    else:
        out = timed_rounds(workload, items, workload.run, args.seconds, resource.RUSAGE_SELF)
    out.update(setup)
    return out


def cli_process(prefix: list[str], item, traces: list | None = None):
    argv, stdin = item.args
    proc = subprocess.run(prefix + argv, input=stdin, capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)
    if traces is not None:
        lines = [line for line in proc.stderr.decode().splitlines()
                 if line.startswith(tracing.TRACE_PREFIX)]
        traces.append(json.loads(lines[-1][len(tracing.TRACE_PREFIX):]) if lines else None)
    return proc.returncode, proc.stdout


def cli_mix(args) -> dict:
    module = [sys.executable, "-m", "tropnc.cli"]
    help_times = []
    gauge = speed.Gauge()
    for _ in range(HELP_SAMPLES + 1):  # the first run is untimed, so every timed one is warm
        gauge.sample()
        start = time.perf_counter()
        proc = subprocess.run(module + ["--help"], capture_output=True,
                              env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"tropnc --help failed: {proc.stderr.decode()[-500:]}")
        help_times.append(time.perf_counter() - start)
    gauge.sample()
    help_scaled = [t * gauge.scale(i) for i, t in enumerate(help_times)][1:]

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    items = workload.items(args.seed, load_golden(args))

    def plain(item):
        return workloads.cli_answer(*cli_process(module, item))

    if args.trace:
        traces: list = []
        traced_prefix = [sys.executable, str(HERE / "cli_traced.py")]
        process_s = []

        def traced(item):
            start = time.perf_counter()
            answer = workloads.cli_answer(*cli_process(traced_prefix, item, traces))
            process_s.append(time.perf_counter() - start)
            return answer

        out = traced_rounds(workload, items, plain, traced, None)
        sums: dict[str, float] = {"cli.process_s": sum(process_s)}
        for trace in traces:
            if trace is None:
                out["errors"].append("traced CLI child printed no trace")
                continue
            tracing.merge(sums, trace)
        out["layers"] = sums
    else:
        out = timed_rounds(workload, items, plain, args.seconds, resource.RUSAGE_CHILDREN)
    out["setup_s"] = statistics.median(help_scaled)
    out["setup_wall_s"] = statistics.median(help_times[1:])
    return out


def load_golden(args) -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)[args.workload]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = cli_mix(args) if args.workload == "cli_mix" else in_process(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
