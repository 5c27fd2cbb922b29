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
its -1 terms; `tropical_u` is the `Fraction` reference it is tested
against.  `planar_combination` sums basis vectors into one vector, value
by value in rank order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, lt

from .combinat import (
    KSubset,
    _prefix_chain,
    cyclic_endpoints,
    dosp,
    is_cyclic_interval,
    ksubset,
    mod1,
    noncyclic_subsets,
)
from .exact import InvariantError, as_fraction, record
from .pluecker import PlueckerVector, lex_rank, linear_combination


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


@lru_cache(maxsize=None)
def _expansion_table(k: int, n: int) -> tuple[tuple[itemgetter, itemgetter], ...]:
    """Per noncyclic J in `noncyclic_subsets` order, getters of the
    lexicographic ranks of its cubical array's +1 terms, then of its -1
    terms.  A getter of one rank returns a scalar, not a tuple; a noncyclic
    J has two cyclic endpoints or more, so each sign has two terms or more,
    and a sign with fewer is an InvariantError."""
    rank = lex_rank(k, n)
    table = []
    for J in noncyclic_subsets(k, n):
        exponents = cubical_array(J).exponents
        terms = [[rank[M] for M, s in exponents.items() if s == sign] for sign in (1, -1)]
        if min(map(len, terms)) < 2:
            raise InvariantError(f"cubical array of {J.elems} has a sign with fewer than two terms")
        table.append(tuple(itemgetter(*ranks) for ranks in terms))
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
