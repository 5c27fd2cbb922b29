"""Brute-force references that production code replaced with closed forms.

Each function here is the scan a faster path in `src/tropnc` is tested
against; none of them runs in the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from tropnc import ladder, ncfan
from tropnc.combinat import DecoratedOSP, KSubset, _prefix_chain, tableau
from tropnc.exact import InvariantError, scaled
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


class DecompositionError(InvariantError):
    """Raised when the cone scan fails; signals a fan completeness or
    uniqueness violation, i.e. a bug, not a data condition."""


@lru_cache(maxsize=None)
def _inverses(k: int, n: int) -> tuple[list[list[int]], ...]:
    """The integer inverse ray matrix of every maximal cone of `ncfan.audit_fan`,
    each inverted on its own."""
    return tuple(ncfan._integer_inverse(ncfan._cone_matrix(coll))
                 for coll in ncfan.audit_fan(k, n))


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
