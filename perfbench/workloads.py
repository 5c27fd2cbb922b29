"""Workload definitions: seeded inputs, the timed call, and the answer oracle.

Inputs come from the run's seed.  Workloads whose oracle needs a golden
value draw their inputs from a fixed pool whose entries each carry the
answer digest the seed commit produced (golden.json, written by
make_golden.py).  The run's seed picks which pool entries are used and
in what order, with fixed counts per stratum, so that every seed gives
the same mix of sizes and nearly the same total cost.

This module imports tropnc at the top level; the worker imports it only
after timing set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from tropnc import combinat, ladder, ncfan, planar, pluecker, troplin, weight
from tropnc.ncfan import TPoint

# Planar-basis coefficients of the weight-four example vector at (3, 12)
# (the same vector as the test suite's diameter example).
COEFFS_312 = {
    (1, 4, 11): -1, (1, 4, 12): 1, (1, 8, 10): -1, (1, 8, 11): 1,
    (1, 9, 10): 1, (2, 4, 7): -1, (2, 4, 11): 1, (2, 5, 7): 1,
    (3, 4, 7): 1, (5, 7, 10): -1, (5, 8, 10): 1, (6, 7, 10): 1,
}

# Wall-clock budget handed to the bounded-complex enumeration per item;
# overrunning it raises TimeBudgetExceeded, which counts as a failure.
BOUNDED_BUDGET_S = 30.0


@dataclass
class Item:
    """One timed unit of work with what the oracle needs to judge it."""

    args: tuple
    expect: dict = field(default_factory=dict)


def digest(obj) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def grid(rng: random.Random, k: int, n: int, hi: int) -> TPoint:
    return TPoint.of(k, n, [[rng.randint(0, hi) for _ in range(n - k)] for _ in range(k - 1)])


def rows_json(t: TPoint) -> list[list[str]]:
    return [[str(v) for v in row] for row in t.rows]


def vector_json(pi) -> dict[str, str]:
    """Every Plücker entry as "i,j,...": "p/q", read through the public
    indexing so the digest does not depend on the internal layout."""
    return {",".join(map(str, I)): str(pi[I])
            for I in itertools.combinations(range(1, pi.n + 1), pi.k)}


def pick(rng: random.Random, strata: dict, counts: dict) -> list[tuple[str, int]]:
    """Seeded choice of `counts[s]` distinct pool indices per stratum, shuffled."""
    chosen = [(s, i) for s, count in counts.items()
              for i in rng.sample(range(strata[s]), count)]
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------- fan_weight

FAN_SIZES = ((3, 7), (4, 7))


class FanWeight:
    """weight_report on rho(t), t a known combination over one maximal
    noncrossing collection; every weight must equal the multiplicity sum."""

    name = "fan_weight"

    def __init__(self, tiny: bool):
        self.per_size = 2 if tiny else 20

    def warm_up(self):
        # Multiplicity 5 on every ray lies outside the generated items
        # (integer multiplicities <= 3, rational ones <= 7/2).
        for k, n in FAN_SIZES:
            coll = combinat.maximal_noncrossing_collections(k, n)[0]
            weight.weight_report(ladder.rho(_combine(k, n, coll, [5] * len(coll))))

    def items(self, seed: int, golden: dict) -> list[Item]:
        rng = random.Random(f"fan_weight:{seed}")
        out = []
        for k, n in FAN_SIZES:
            colls = combinat.maximal_noncrossing_collections(k, n)
            for i in range(self.per_size):
                coll = colls[rng.randrange(len(colls))]
                while True:
                    if i % 4 == 3:
                        mults = [Fraction(rng.randint(0, 7), rng.choice((2, 3))) for _ in coll]
                    else:
                        mults = [rng.randint(0, 3) for _ in coll]
                    if sum(mults) > 0:
                        break
                pi = ladder.rho(_combine(k, n, coll, mults))
                out.append(Item((pi,), {"weight": Fraction(sum(mults))}))
        rng.shuffle(out)
        return out

    def run(self, item: Item):
        return weight.weight_report(*item.args)

    def fingerprint(self, report):
        return [str(report.pk_weight), str(report.nc_weight), str(report.bridge_value), report.agree]

    def check(self, item: Item, report) -> str | None:
        w = item.expect["weight"]
        if not (report.agree and report.pk_weight == report.nc_weight == report.bridge_value == w):
            return f"weights {report.pk_weight}, {report.nc_weight}, {report.bridge_value} != {w}"
        return None


def _combine(k: int, n: int, coll, mults) -> TPoint:
    t = TPoint.zero(k, n)
    for J, m in zip(coll, mults):
        if m:
            t = t + ncfan.t_vector(J).scale(m)
    return t


# ---------------------------------------------------------- ladder_roundtrip

# stratum -> (pool size, items per round).  The (5,10) grids are the top
# fifth of item times, so the 90th percentile falls inside them and the
# median inside the (5,9) grids, never at the border between the two.
LADDER_STRATA = {"5,9": (200, 32), "5,10": (100, 8)}
LADDER_HI = 4


def ladder_pool_entry(stratum: str, i: int) -> TPoint:
    k, n = map(int, stratum.split(","))
    return grid(random.Random(f"ladder_roundtrip:{stratum}:{i}"), k, n, LADDER_HI)


def ladder_answer(pi) -> str:
    return digest(vector_json(pi))


class LadderRoundtrip:
    """rho, the positivity certificate and psi on integer grids; psi must
    give the grid back and the vector must match its golden digest."""

    name = "ladder_roundtrip"

    def __init__(self, tiny: bool):
        self.counts = {s: 2 if tiny else count for s, (_, count) in LADDER_STRATA.items()}

    def warm_up(self):
        # Entries 0 and 6 alternate, a row spread the pool (entries 0..4) never has.
        for stratum in LADDER_STRATA:
            k, n = map(int, stratum.split(","))
            t = TPoint.of(k, n, [[6 * ((i + j) % 2) for j in range(n - k)] for i in range(k - 1)])
            self.run(Item((t,)))

    def items(self, seed: int, golden: dict) -> list[Item]:
        rng = random.Random(f"ladder_roundtrip:{seed}")
        pools = {s: size for s, (size, _) in LADDER_STRATA.items()}
        out = []
        for stratum, i in pick(rng, pools, self.counts):
            t = ladder_pool_entry(stratum, i)
            out.append(Item((t,), {"digest": golden[stratum][i]}))
        return out

    def run(self, item: Item):
        (t,) = item.args
        pi = ladder.rho(t)
        cert = pluecker.is_positive_tropical(pi)
        return pi, cert, ncfan.psi(pi)

    def fingerprint(self, answer):
        pi, cert, back = answer
        return [ladder_answer(pi), cert.ok, rows_json(back)]

    def check(self, item: Item, answer) -> str | None:
        pi, cert, back = answer
        if not cert.ok:
            return f"positivity certificate failed: {cert.violation}"
        if back != item.args[0]:
            return "psi(rho(t)) != t"
        if ladder_answer(pi) != item.expect["digest"]:
            return "Plücker vector digest differs from golden"
        return None


# ----------------------------------------------------------- bounded_complex

BOUNDED_SIZES = ((3, 9), (3, 10), (4, 8))
BOUNDED_HIS = (1, 2, 3, 4)
BOUNDED_PER_HI = 15
BOUNDED_MAX_SUPPORT = 12
# The pool in golden.json is sorted by item cost.  A run uses its cheapest
# 120 entries and takes one of every consecutive three, so every seed gets
# nearly the same total cost.
BOUNDED_USED, BOUNDED_GROUP, BOUNDED_TAKE = 120, 3, 1


def bounded_pool_entry(k: int, n: int, hi: int, i: int) -> TPoint:
    """A grid with entries in [0, hi] whose parametrized vector has planar
    support in [1, 12].  Rejection sampling makes this slow, so
    golden.json stores the grid rows and runs read them from there."""
    rng = random.Random(f"bounded_complex:{k},{n}:{hi}:{i}")
    while True:
        t = grid(rng, k, n, hi)
        support = sum(1 for c in planar.planar_expand(ladder.rho(t)).values() if c != 0)
        if 1 <= support <= BOUNDED_MAX_SUPPORT:
            return t


def vector_312():
    return planar.planar_combination(3, 12, COEFFS_312)


def bounded_answer(report, edges) -> str:
    return digest({
        "vertices": [[str(v) for v in w] for w in report.vertices],
        "edges": [list(e) for e in edges],
        "pk_weight": str(report.pk_weight),
        "spread": str(report.max_coordinate_spread),
        "within_dilate": report.within_dilate,
    })


class BoundedComplex:
    """diameter_check, then the edges of the balanced representative;
    checked against the dilate bound, the expected weight and golden
    vertex and edge lists."""

    name = "bounded_complex"

    def __init__(self, tiny: bool):
        self.tiny = tiny
        self.groups = 2 if tiny else None
        self.sizes = BOUNDED_SIZES + (() if tiny else ((3, 12),))

    def warm_up(self):
        # A single-ray vector (planar support 1, weight 1) per size; the pool
        # excludes it (make_golden.py checks) and (3,12) only uses COEFFS_312.
        for k, n in self.sizes:
            J = combinat.noncyclic_subsets(k, n)[-1]
            self.run(Item((ladder.rho(ncfan.t_vector(J)),)))

    def items(self, seed: int, golden: dict) -> list[Item]:
        rng = random.Random(f"bounded_complex:{seed}")
        pool = golden["pool"][:BOUNDED_USED]
        groups = [pool[g:g + BOUNDED_GROUP] for g in range(0, len(pool), BOUNDED_GROUP)]
        out = []
        for group in groups[:self.groups]:
            for entry in rng.sample(group, BOUNDED_TAKE):
                t = TPoint.of(entry["k"], entry["n"], entry["rows"])
                expected = weight.closed_form_tropical(ladder.grid_of(t))
                out.append(Item((ladder.rho(t),),
                                {"weight": expected, "digest": entry["digest"]}))
        rng.shuffle(out)
        if not self.tiny:
            # First, so that its peak memory, the run's largest, always
            # comes on the same heap state.
            out.insert(0, Item((vector_312(),),
                               {"weight": Fraction(4), "digest": golden["3,12"]}))
        return out

    def run(self, item: Item):
        (pi,) = item.args
        report = troplin.diameter_check(pi, time_budget_s=BOUNDED_BUDGET_S)
        balanced = troplin.balanced_representative(pi)
        return report, troplin.bounded_complex_edges(balanced, report.vertices)

    def fingerprint(self, answer):
        return bounded_answer(*answer)

    def check(self, item: Item, answer) -> str | None:
        report, edges = answer
        if not report.within_dilate:
            return "vertex spread exceeds the weight dilate"
        if report.pk_weight != item.expect["weight"]:
            return f"weight {report.pk_weight} != {item.expect['weight']}"
        if bounded_answer(report, edges) != item.expect["digest"]:
            return "vertex/edge digest differs from golden"
        return None


# ------------------------------------------------------------------ cli_mix

# stratum -> (subcommand, pool size, count per round).  Most invocations
# are light; verify (3,6) is mid-weight and decompose/weight at (3,7) pay
# the ~1 s cold cone scan, so the 90th percentile falls inside the verify
# group and the median inside the light ones.  Duality draws from its
# first five sizes only: (4,8) costs four times the others, and drawing it
# on some seeds and not on others would move every timing.
CLI_STRATA = {
    "duality": ("duality", 5, 2),
    "verify": ("verify", 30, 6),
    "decompose-3,6": ("decompose", 40, 7),
    "decompose-3,7": ("decompose", 10, 1),
    "weight-3,6": ("weight", 40, 7),
    "weight-3,7": ("weight", 10, 1),
    "psi": ("psi", 30, 7),
    "rho": ("rho", 30, 7),
    "bounded": ("bounded", 30, 6),
    "diameter": ("diameter", 30, 6),
}
CLI_TINY = {"duality": 1, "verify": 1, "decompose-3,6": 1, "weight-3,6": 1,
            "psi": 1, "rho": 1, "bounded": 1, "diameter": 1}
DUALITY_KN = ((2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (4, 8))
CLI_INPUT_KN = ((3, 6), (3, 7), (4, 8))


def cli_pool_entry(stratum: str, i: int) -> tuple[list[str], bytes | None]:
    """argv (after the program name) and stdin bytes of pool entry i."""
    command = CLI_STRATA[stratum][0]
    rng = random.Random(f"cli_mix:{stratum}:{i}")
    if command == "duality":
        k, n = DUALITY_KN[i]
        return ["duality", "--k", str(k), "--n", str(n)], None
    if command == "verify":
        return ["verify", "--k", "3", "--n", "6", "--seed", str(i)], None
    if "-" in stratum:
        k, n = map(int, stratum.split("-")[1].split(","))
    elif command in ("bounded", "diameter"):
        k, n = CLI_INPUT_KN[i % 2]
    else:
        k, n = CLI_INPUT_KN[i % 3]
    t = grid(rng, k, n, 3)
    if command in ("decompose", "rho"):
        payload = {"k": k, "n": n, "rows": rows_json(t)}
    else:
        payload = {"k": k, "n": n, "entries": vector_json(ladder.rho(t))}
    return [command, "--in", "-"], json.dumps(payload).encode()


def cli_answer(returncode: int, stdout: bytes) -> dict:
    return {"exit": returncode, "stdout": hashlib.sha256(stdout).hexdigest()[:20]}


class CliMix:
    """Sequential tropnc processes; exit code and stdout digest are golden."""

    name = "cli_mix"

    def __init__(self, tiny: bool):
        self.counts = CLI_TINY if tiny else {s: c for s, (_, _, c) in CLI_STRATA.items()}

    def items(self, seed: int, golden: dict) -> list[Item]:
        rng = random.Random(f"cli_mix:{seed}")
        pools = {s: size for s, (_, size, _) in CLI_STRATA.items()}
        out = []
        for stratum, i in pick(rng, pools, self.counts):
            argv, stdin = cli_pool_entry(stratum, i)
            out.append(Item((argv, stdin), golden[stratum][i]))
        return out

    def fingerprint(self, answer):
        return answer

    def check(self, item: Item, answer) -> str | None:
        if answer != item.expect:
            return f"{item.args[0][0]}: got {answer}, golden {item.expect}"
        return None


WORKLOADS = {w.name: w for w in (FanWeight, LadderRoundtrip, BoundedComplex, CliMix)}
