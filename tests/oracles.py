"""Brute-force references that production code replaced with closed forms.

Each function here is the scan a faster path in `src/tropnc` is tested
against; none of them runs in the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from tropnc import ladder, ncfan
from tropnc.combinat import (
    DecoratedOSP,
    KSubset,
    _prefix_chain,
    compatibility_rows,
    tableau,
)
from tropnc.exact import InvariantError, as_fraction, scaled
from tropnc.pluecker import lex_rank


def positroid_bases(partition: DecoratedOSP) -> frozenset[tuple[int, ...]]:
    """Bases of the positroid cut out by the chain conditions
    |B ∩ (S_1 ∪ ... ∪ S_a)| >= r_1 + ... + r_a for a < l (the oracle of
    `planar.corank_vector`)."""
    chain = _prefix_chain(partition)
    k = sum(partition.decorations)
    return frozenset(
        cand for cand in itertools.combinations(range(1, partition.n + 1), k)
        if all(len(prefix.intersection(cand)) >= need for prefix, need in chain)
    )


def one_family_subsets(k: int, n: int) -> list[tuple[int, ...]]:
    """Every k-subset of [n] with exactly one path family, found by
    enumerating up to two families of each (the oracle of the hole-free
    seeds of `ladder._plan`)."""
    return [
        elems for elems in lex_rank(k, n)
        if len(list(itertools.islice(ladder._path_families(KSubset(n, elems)), 2))) == 1
    ]


def three_term_reference(pi):
    """The three-term scan written out over Fraction entries: the first
    violation in scan order as (S, (a, b, c, d), lhs, rhs), else None (the
    oracle of `pluecker.is_positive_tropical`)."""
    ground = range(1, pi.n + 1)
    for S in itertools.combinations(ground, pi.k - 2):
        rest = [x for x in ground if x not in S]
        for a, b, c, d in itertools.combinations(rest, 4):
            def at(*pair):
                return pi[S + pair]

            lhs = at(a, c) + at(b, d)
            rhs = min(at(a, b) + at(c, d), at(a, d) + at(b, c))
            if lhs != rhs:
                return S, (a, b, c, d), lhs, rhs
    return None


def det(matrix) -> Fraction:
    """Determinant of a square matrix by Fraction-exact Gaussian elimination
    (the tests' check of cone unimodularity; production never forms one)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    result = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return result


def inverse(matrix) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, by Gauss-Jordan elimination with
    partial pivoting on [matrix | identity]; None when singular."""
    size = len(matrix)
    aug = [
        [as_fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / lead
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [[a / row[i] for a in row[size:]] for i, row in enumerate(aug)]


def _cone_matrix(coll) -> list[list[int]]:
    """The matrix whose columns are the lattice coordinates of the rays,
    read as `ncfan._lattice` of `ncfan._ray`."""
    return [list(row) for row in zip(*(ncfan._lattice(ncfan._ray(J)) for J in coll))]


def _integer_inverse(matrix) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, as ints, by `inverse`."""
    inv = inverse(matrix)
    if inv is None or any(v.denominator != 1 for row in inv for v in row):
        raise InvariantError(f"cone matrix has no integer inverse: {matrix}")
    return [[int(v) for v in row] for row in inv]


def greedy_start(k: int, n: int) -> tuple[int, ...]:
    """A maximal noncrossing collection by greedy search in node order: a
    node joins when the rows of the nodes already chosen all have its bit
    (the oracle of the closed-form start cone of `ncfan._walk_tables`)."""
    rows = compatibility_rows(k, n)
    start, allowed = [], (1 << len(rows)) - 1
    for i in range(len(rows)):
        if allowed >> i & 1:
            start.append(i)
            allowed &= rows[i]
    return tuple(start)


class DecompositionError(InvariantError):
    """Raised when the cone scan fails; signals a fan completeness or
    uniqueness violation, i.e. a bug, not a data condition."""


@lru_cache(maxsize=None)
def _inverses(k: int, n: int) -> tuple[list[list[int]], ...]:
    """The integer inverse ray matrix of every maximal cone of `ncfan.audit_fan`,
    each inverted on its own."""
    return tuple(_integer_inverse(_cone_matrix(coll)) for coll in ncfan.audit_fan(k, n))


def scan(t):
    """Decompose t by solving the system on every maximal cone, independently
    of the flip step (the oracle of `ncfan.nc_decompose`).

    Raises DecompositionError if no cone accepts or two cones accept with
    different positive supports (completeness/uniqueness).
    """
    target, scale = scaled(ncfan.lattice_coords(t))
    found = set()
    for coll, inv in zip(ncfan.audit_fan(t.k, t.n), _inverses(t.k, t.n)):
        mu = [sum(a * b for a, b in zip(row, target)) for row in inv]
        if all(m >= 0 for m in mu):
            found.add(tuple((J, Fraction(m, scale)) for J, m in zip(coll, mu) if m > 0))
    if not found:
        raise DecompositionError(f"no cone contains the point {t!r}")
    if len(found) > 1:
        raise DecompositionError(f"multiple distinct decompositions for {t!r}")
    return tableau(t.k, t.n, found.pop())
