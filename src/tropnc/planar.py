"""Planar basis vectors and planar cross-ratios.

Two independent constructions of the basis vector attached to a k-subset
are kept side by side on purpose, both in closed form: one from directed
distances on the hypersimplex edge graph, counted per cyclic shift
(`_distance`), one as the corank function of a positroid, read from its
prefix chain.  Each is the oracle for the other.  The cross-ratio side
produces, for each subset, a signed exponent vector over its cubical
array; the associated tropical functional is the dual linear form.

`planar_expand` evaluates every cross-ratio at once in scaled integers:
it reads a vector's scaled form (`pi.scaled()`, rank-ordered integers
over one scale) and sums it over a per-(k, n) table of each cubical
array as two getters of ranks (`operator.itemgetter`), its +1 terms and
its -1 terms, built on bitmasks (each submask M of J's cyclic endpoints
gives the term (J & ~M) | rotl(M)); `cubical_array` and `tropical_u` are
its references.  `planar_combination` sums basis vectors, in rank order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, lt

from .combinat import (
    KSubset,
    _endpoints,
    _prefix_chain,
    cyclic_endpoints,
    dosp,
    is_cyclic_interval,
    ksubset,
    mod1,
    noncyclic_subsets,
)
from .exact import InvariantError, as_fraction, record
from .pluecker import PlueckerVector, _mask_ranks, _masks, lex_rank, linear_combination


def _distance(src: tuple[int, ...], dst: tuple[int, ...], n: int) -> int:
    """Minimal number of moves replacing j by j-1 (mod n) from src to dst.

    The moves match src to dst by a cyclic shift r of dst, each j_a
    travelling (j_a - i_{a+r}) mod n steps, so the distance is
    sum(src) - sum(dst) + n * min over r of #{a : j_a < i_{a+r}}.
    """
    k = len(src)
    return sum(src) - sum(dst) + n * min([sum(map(lt, src, dst[r:] + dst[:r])) for r in range(k)])


def directed_distance(src: KSubset, dst: KSubset) -> int:
    """Minimal number of single-element cyclic decrements from src to dst."""
    if (src.k, src.n) != (dst.k, dst.n):
        raise ValueError("mismatched (k, n)")
    return _distance(src.elems, dst.elems, src.n)


@lru_cache(maxsize=None)
def planar_basis_vector(J: KSubset) -> PlueckerVector:
    """Basis vector with entries d(e_J, e_I) / n over all k-subsets I."""
    k, n = J.k, J.n
    return PlueckerVector._of_scaled(k, n, [_distance(J.elems, I, n) for I in lex_rank(k, n)], n)


@lru_cache(maxsize=None)
def corank_vector(J: KSubset) -> PlueckerVector:
    """Corank function of the positroid attached to J's decorated ordered
    set partition.  The positroid is cut out by the lower bounds
    |B ∩ P_a| >= R_a on its prefix chain (`combinat._prefix_chain`), so
    corank(I) = max(0, max over a of R_a - |I ∩ P_a|)."""
    if is_cyclic_interval(J):
        raise ValueError(f"corank vector needs a noncyclic subset, got {J.elems}")
    chain = _prefix_chain(dosp(J))
    return PlueckerVector._of_scaled(J.k, J.n, [
        max(0, *[need - len(prefix.intersection(I)) for prefix, need in chain])
        for I in lex_rank(J.k, J.n)
    ], 1)


@record
class CrossRatioExponent:
    """Signed exponent vector of a planar cross-ratio over its cubical array."""

    J: KSubset
    exponents: dict


@lru_cache(maxsize=None)
def cubical_array(J: KSubset) -> CrossRatioExponent:
    """Shifted sets J_M for M over the cyclic endpoints of J, with sign
    (-1)^(|M|+1); the M = {} term is J itself with sign -1."""
    n = J.n
    endpoints = cyclic_endpoints(J)
    exponents: dict[tuple[int, ...], int] = {}
    for r in range(len(endpoints) + 1):
        for M in itertools.combinations(endpoints, r):
            shifted = set(J.elems)
            for m in M:
                shifted.remove(m)
                shifted.add(mod1(m + 1, n))
            key = tuple(sorted(shifted))
            if len(key) != J.k or key in exponents:
                raise InvariantError(f"cubical array of {J.elems} collides at {key}")
            exponents[key] = (-1) ** (len(M) + 1)
    if sum(exponents.values()) != 0:
        raise InvariantError(f"cubical array of {J.elems} has a nonzero signed sum")
    return CrossRatioExponent(J, exponents)


def tropical_u(J: KSubset, pi: PlueckerVector) -> Fraction:
    """The tropical cross-ratio functional: signed sum over the cubical
    array (the `Fraction` reference of `planar_expand`)."""
    if (J.k, J.n) != (pi.k, pi.n):
        raise ValueError("mismatched (k, n)")
    array = cubical_array(J)
    return sum((sign * pi[M] for M, sign in array.exponents.items()), Fraction(0))


def _cubical_masks(J: int, n: int) -> tuple[list[int], list[int]]:
    """The +1 and the -1 terms of the cubical array of a subset bitmask J:
    moving an endpoint to its successor toggles two bits of its own."""
    plus, minus, ends = [], [J], _endpoints(J, n)
    while ends:
        e = ends & -ends
        ends ^= e
        flip = e | (e << 1 if e >> (n - 1) == 0 else 1)
        plus, minus = plus + [x ^ flip for x in minus], minus + [x ^ flip for x in plus]
    return plus, minus


@lru_cache(maxsize=None)
def _expansion_table(k: int, n: int) -> tuple[tuple[itemgetter, itemgetter], ...]:
    """Per noncyclic J in `noncyclic_subsets` order, getters of the ranks
    of its cubical array's +1 and -1 terms: with m >= 2 endpoints, 2^m
    distinct k-subsets, half of each sign (a getter of one returns a scalar)."""
    get = _mask_ranks(k, n).get
    table = []
    for J in _masks(k, n):
        m = _endpoints(J, n).bit_count()
        if m < 2:
            continue
        plus, minus = _cubical_masks(J, n)
        plus, minus = list(map(get, plus)), list(map(get, minus))
        if min(len(plus), len(minus)) < 2:
            fault = "a sign with fewer than two terms"
        elif len(plus) != len(minus):
            fault = "a nonzero signed sum"
        elif len({*plus, *minus} - {None}) != 1 << m:
            fault = f"terms that are not {1 << m} distinct k-subsets"
        else:
            table.append((itemgetter(*plus), itemgetter(*minus)))
            continue
        elems = tuple(i + 1 for i in range(n) if J >> i & 1)
        raise InvariantError(f"cubical array of {elems} has {fault}")
    return tuple(table)


def _expand(k: int, n: int, vals) -> list[int]:
    """scale * u_J for every noncyclic J in `noncyclic_subsets` order, from
    a vector's scaled form (`PlueckerVector.scaled`) in rank order."""
    return [sum(plus(vals)) - sum(minus(vals)) for plus, minus in _expansion_table(k, n)]


def _scaled_expansion(pi: PlueckerVector) -> tuple[list[int], int]:
    """scale * u_J(pi) for every noncyclic J in `noncyclic_subsets` order,
    and the scale of pi's scaled form."""
    vals, scale = pi.scaled()
    return _expand(pi.k, pi.n, vals), scale


def planar_expand(pi: PlueckerVector) -> dict[KSubset, Fraction]:
    """Coefficient map J -> u_J(pi) over all noncyclic J; the combination
    sum of c_J times the planar basis reproduces pi modulo lineality."""
    us, scale = _scaled_expansion(pi)
    return {
        J: Fraction(u, scale) for J, u in zip(noncyclic_subsets(pi.k, pi.n), us)
    }


def planar_combination(k: int, n: int, coeffs) -> PlueckerVector:
    """Exact linear combination sum of c_J * basis vector, sparse input.

    Keys may be KSubset or plain element tuples; zero coefficients are fine.
    """
    return linear_combination(k, n, (
        (c, planar_basis_vector(J if isinstance(J, KSubset) else ksubset(n, J)))
        for J, c in coeffs.items() if as_fraction(c) != 0
    ))
