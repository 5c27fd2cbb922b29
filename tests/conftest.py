"""Shared helpers for the test suite: seeded generators and frozen fixtures."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import tropnc
from tropnc import ladder, ncfan, planar
from tropnc.combinat import maximal_noncrossing_collections, noncrossing, noncyclic_subsets
from tropnc.ncfan import TPoint
from tropnc.pluecker import PlueckerVector


# Every shape 2 <= k <= n - 2 with n <= 10, and the desk-scale (6, 12): the
# shapes on which the fan rays are checked against written-out intervals.
RAY_SHAPES = [(k, n) for n in range(4, 11) for k in range(2, n - 1)] + [(6, 12)]

# The (3,6) nodes 1,2,4 and 1,4,5 are noncrossing, and both lie in the
# walk's start cone, as does the weight-two point `t` on their rays.
# `patched` is walk tables whose rows have both bits of that pair cleared,
# so a walk to `t` ends on a support that its own rows say crosses.
CROSSING_WALK_TABLES = (
    "from tropnc import ncfan",
    "tables = ncfan._walk_tables(3, 6)",
    "t = ncfan.t_vector(tables.nodes[0]) + ncfan.t_vector(tables.nodes[5])",
    "cleared = list(tables.rows)",
    "cleared[0] &= ~(1 << 5)",
    "cleared[5] &= ~1",
    "patched = ncfan._WalkTables(tables.nodes, tuple(cleared), tables.start, tables.start_inv)",
)
CROSSING_WALK_ERROR = "rays 1,2,4 and 1,4,5 of the walk's last cone cross"


def rng_for(name: str) -> random.Random:
    """Deterministic per-test generator."""
    return random.Random(f"tropnc:{name}")


def random_tpoint(rng: random.Random, k: int, n: int, lo: int = 0, hi: int = 4) -> TPoint:
    return TPoint.of(
        k, n, [[rng.randint(lo, hi) for _ in range(n - k)] for _ in range(k - 1)]
    )


def random_rational_tpoint(rng: random.Random, k: int, n: int) -> TPoint:
    return TPoint.of(
        k,
        n,
        [
            [Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(n - k)]
            for _ in range(k - 1)
        ],
    )


def random_vector(rng: random.Random, k: int, n: int) -> PlueckerVector:
    """Arbitrary rational vector (not necessarily positive)."""
    return PlueckerVector.from_function(
        k, n, lambda I: Fraction(rng.randint(-10, 10), rng.randint(1, 4))
    )


def random_positive_vector(rng: random.Random, k: int, n: int) -> PlueckerVector:
    """Positive tropical vector: the parametrization of a random integer point."""
    return ladder.rho(random_tpoint(rng, k, n))


def random_tableau_point(rng: random.Random, k: int, n: int, max_weight: int):
    """A fan point with known noncrossing multiplicities summing <= max_weight."""
    colls = maximal_noncrossing_collections(k, n)
    coll = colls[rng.randrange(len(colls))]
    while True:
        mults = [rng.randint(0, 2) for _ in coll]
        if 1 <= sum(mults) <= max_weight:
            break
    t = TPoint.zero(k, n)
    for K, m in zip(coll, mults):
        if m:
            t = t + ncfan.t_vector(K).scale(m)
    return t, {K: m for K, m in zip(coll, mults) if m}


def run_optimized(*code_lines) -> subprocess.CompletedProcess:
    """Run Python code under -O, which strips every assert."""
    env = dict(os.environ, PYTHONPATH=str(Path(tropnc.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-O", "-c", "\n".join(code_lines)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@lru_cache(maxsize=None)
def literal_rows(k: int, n: int) -> tuple[int, ...]:
    """The full compatibility graph by the literal `noncrossing` on every
    pair, as bitmask rows over `noncyclic_subsets(k, n)` (the oracle of
    `combinat.compatibility_rows`)."""
    nodes = noncyclic_subsets(k, n)
    rows = [0] * len(nodes)
    for i, j in itertools.combinations(range(len(nodes)), 2):
        if noncrossing(nodes[i], nodes[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def canon(point) -> tuple[Fraction, ...]:
    """Canonical representative modulo all-ones: subtract the first coordinate."""
    vals = [Fraction(v) for v in point]
    return tuple(v - vals[0] for v in vals)


# Planar-basis coefficients of the weight-four example vector at (3, 12).
COEFFS_312 = {
    (1, 4, 11): -1,
    (1, 4, 12): 1,
    (1, 8, 10): -1,
    (1, 8, 11): 1,
    (1, 9, 10): 1,
    (2, 4, 7): -1,
    (2, 4, 11): 1,
    (2, 5, 7): 1,
    (3, 4, 7): 1,
    (5, 7, 10): -1,
    (5, 8, 10): 1,
    (6, 7, 10): 1,
}
TABLEAU_312 = ((1, 9, 10), (2, 5, 7), (3, 4, 12), (6, 8, 11))


def vector_312() -> PlueckerVector:
    return planar.planar_combination(3, 12, COEFFS_312)


def ci_grid_612() -> TPoint:
    """The (6, 12) grid of the CI desk-scale steps: `random.Random(612)`,
    entries 0 to 4."""
    rng = random.Random(612)
    return TPoint.of(6, 12, [[rng.randint(0, 4) for _ in range(6)] for _ in range(5)])
