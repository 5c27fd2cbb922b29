"""Regenerate perfbench/golden.json from the tropnc in this checkout.

Usage, from the root of a checkout:  python3 perfbench/make_golden.py

The golden answers are meant to come from a known-good commit; a later
change that alters an answer must fail the benchmark, not regenerate
this file.  Every pool entry is also checked here against the
self-contained oracles (positivity, psi(rho(t)) == t, the dilate bound,
exit code 0), so no pool entry is golden for a wrong answer.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from worker import HERE, ROOT, SRC, child_env

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from tropnc import combinat, ladder, ncfan, planar, weight  # noqa: E402
from workloads import Item  # noqa: E402


def ladder_golden() -> dict:
    run = workloads.LadderRoundtrip(tiny=False)
    out = {}
    for stratum, (size, _) in workloads.LADDER_STRATA.items():
        out[stratum] = []
        for i in range(size):
            t = workloads.ladder_pool_entry(stratum, i)
            pi, cert, back = run.run(Item((t,)))
            if not cert.ok or back != t:
                raise SystemExit(f"ladder pool entry {stratum}:{i} fails its oracle")
            out[stratum].append(workloads.ladder_answer(pi))
        print(f"ladder_roundtrip {stratum}: {size}", file=sys.stderr)
    return out


def bounded_golden() -> dict:
    run = workloads.BoundedComplex(tiny=False)
    pool = []
    for k, n in workloads.BOUNDED_SIZES:
        warm = ncfan.t_vector(combinat.noncyclic_subsets(k, n)[-1])
        for hi in workloads.BOUNDED_HIS:
            for i in range(workloads.BOUNDED_PER_HI):
                t = workloads.bounded_pool_entry(k, n, hi, i)
                if t == warm:
                    raise SystemExit(f"bounded pool entry {k},{n}:{hi}:{i} is the warm-up point")
                pi = ladder.rho(t)
                start = time.perf_counter()
                report, edges = run.run(Item((pi,)))
                cost = time.perf_counter() - start
                expected = weight.closed_form_tropical(ladder.grid_of(t))
                if not report.within_dilate or report.pk_weight != expected:
                    raise SystemExit(f"bounded pool entry {k},{n}:{hi}:{i} fails its oracle")
                pool.append((cost, {
                    "k": k, "n": n,
                    "rows": [[int(v) for v in row] for row in t.rows],
                    "support": sum(1 for c in planar.planar_expand(pi).values() if c != 0),
                    "digest": workloads.bounded_answer(report, edges),
                }))
    pool.sort(key=lambda entry: entry[0])
    print(f"bounded_complex: {len(pool)}, {sum(c for c, _ in pool):.1f} s in all", file=sys.stderr)
    report, edges = run.run(Item((workloads.vector_312(),)))
    if not report.within_dilate or report.pk_weight != 4:
        raise SystemExit("the (3,12) example fails its oracle")
    return {"pool": [entry for _, entry in pool], "3,12": workloads.bounded_answer(report, edges)}


def cli_golden() -> dict:
    out = {}
    for stratum, (_, size, _) in workloads.CLI_STRATA.items():
        out[stratum] = []
        for i in range(size):
            argv, stdin = workloads.cli_pool_entry(stratum, i)
            proc = subprocess.run([sys.executable, "-m", "tropnc.cli", *argv], input=stdin,
                                  capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
            if proc.returncode != 0:
                raise SystemExit(f"cli pool {stratum}:{i} exited {proc.returncode}")
            out[stratum].append(workloads.cli_answer(proc.returncode, proc.stdout))
        print(f"cli_mix {stratum}: {size}", file=sys.stderr)
    return out


def main():
    golden = {
        "ladder_roundtrip": ladder_golden(),
        "bounded_complex": bounded_golden(),
        "cli_mix": cli_golden(),
        "fan_weight": {},
    }
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
