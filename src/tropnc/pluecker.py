"""Tropical Plücker vectors over exact rationals.

A vector assigns a rational to every k-subset of [n].  The module covers
lineality shifts, the three-term positivity certificate, equivalence
modulo the lineality space, and the two families of face restriction
maps (to the facets x_l = 1 and x_l = 0 of the hypersimplex).

The positivity scan reads the entries once, in lexicographic rank order
and scaled to integers (`scaled_entries`), and runs over a per-(k, n)
table of the six ranks each three-term relation compares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .combinat import KSubset
from .exact import (
    Rational,
    SchemaError,
    as_fraction,
    format_fraction,
    json_fraction,
    json_kn,
    scaled,
)


def _key(subset) -> tuple[int, ...]:
    if isinstance(subset, KSubset):
        return subset.elems
    return tuple(sorted(subset))


class PlueckerVector:
    """Total map from k-subsets of [n] to exact rationals."""

    __slots__ = ("k", "n", "entries")

    def __init__(self, k: int, n: int, entries: Mapping):
        self.k = k
        self.n = n
        cooked = {_key(I): as_fraction(v) for I, v in entries.items()}
        expected = list(itertools.combinations(range(1, n + 1), k))
        if sorted(cooked) != expected:
            missing = set(expected) - set(cooked)
            extra = set(cooked) - set(expected)
            raise ValueError(
                f"entries must cover all k-subsets exactly; missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}"
            )
        self.entries = cooked

    @classmethod
    def zero(cls, k: int, n: int) -> "PlueckerVector":
        return cls(k, n, {I: 0 for I in itertools.combinations(range(1, n + 1), k)})

    @classmethod
    def from_function(cls, k: int, n: int, fn) -> "PlueckerVector":
        return cls(k, n, {I: fn(I) for I in itertools.combinations(range(1, n + 1), k)})

    def __getitem__(self, subset) -> Fraction:
        return self.entries[_key(subset)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlueckerVector)
            and (self.k, self.n) == (other.k, other.n)
            and self.entries == other.entries
        )

    def __add__(self, other: "PlueckerVector") -> "PlueckerVector":
        self._check_shape(other)
        return PlueckerVector(
            self.k, self.n, {I: v + other.entries[I] for I, v in self.entries.items()}
        )

    def __sub__(self, other: "PlueckerVector") -> "PlueckerVector":
        self._check_shape(other)
        return PlueckerVector(
            self.k, self.n, {I: v - other.entries[I] for I, v in self.entries.items()}
        )

    def __neg__(self) -> "PlueckerVector":
        return self.scale(-1)

    def scale(self, c: Rational) -> "PlueckerVector":
        c = as_fraction(c)
        return PlueckerVector(self.k, self.n, {I: c * v for I, v in self.entries.items()})

    def support(self) -> list[tuple[int, ...]]:
        return [I for I, v in sorted(self.entries.items()) if v != 0]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries.values())

    def _check_shape(self, other: "PlueckerVector"):
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError(
                f"mismatched (k, n): ({self.k},{self.n}) vs ({other.k},{other.n})"
            )

    def __repr__(self) -> str:
        nonzero = len(self.support())
        return f"PlueckerVector(k={self.k}, n={self.n}, nonzero={nonzero})"


def lineality_vector(k: int, n: int, x: Sequence[Rational]) -> PlueckerVector:
    """The lineality element with entries sum(x_i for i in I)."""
    if len(x) != n:
        raise ValueError(f"need {n} coordinates, got {len(x)}")
    xs = [as_fraction(v) for v in x]
    return PlueckerVector.from_function(k, n, lambda I: sum(xs[i - 1] for i in I))


def lineality_basis(k: int, n: int, i: int) -> PlueckerVector:
    """The torus incidence vector: 1 on subsets containing i, else 0."""
    return PlueckerVector.from_function(k, n, lambda I: int(i in I))


def lineality_shift(pi: PlueckerVector, x: Sequence[Rational]) -> PlueckerVector:
    """Entrywise pi_I - sum(x_i for i in I)."""
    return pi - lineality_vector(pi.k, pi.n, x)


@dataclass(frozen=True)
class PositivityCertificate:
    """Outcome of the three-term relation scan.

    On failure, `violation` holds the lexicographically first offending
    (S, (a, b, c, d)) together with the two sides of the relation.
    """

    ok: bool
    violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=None)
def lex_rank(k: int, n: int) -> dict[tuple[int, ...], int]:
    """The rank of every k-subset of [n] in lexicographic order."""
    return {I: r for r, I in enumerate(itertools.combinations(range(1, n + 1), k))}


def scaled_entries(pi: PlueckerVector) -> tuple[list[int], int]:
    """The entries of pi in lexicographic rank order, as integers over
    one common denominator: (ints, scale)."""
    entries = pi.entries
    return scaled(entries[I] for I in lex_rank(pi.k, pi.n))


@lru_cache(maxsize=None)
def _three_term_table(k: int, n: int) -> tuple[tuple, ...]:
    """One row per S in C([n], k-2) and a < b < c < d outside S, in scan
    order: S, (a, b, c, d), and the ranks of Sac, Sbd, Sab, Scd, Sad, Sbc."""
    rank = lex_rank(k, n)
    ground = range(1, n + 1)
    table = []
    for S in itertools.combinations(ground, k - 2):
        rest = [x for x in ground if x not in S]
        for a, b, c, d in itertools.combinations(rest, 4):
            pairs = ((a, c), (b, d), (a, b), (c, d), (a, d), (b, c))
            table.append((S, (a, b, c, d), *(rank[tuple(sorted(S + p))] for p in pairs)))
    return tuple(table)


def is_positive_tropical(pi: PlueckerVector) -> PositivityCertificate:
    """Check pi_{Sac} + pi_{Sbd} = min(pi_{Sab} + pi_{Scd}, pi_{Sad} + pi_{Sbc})
    for every S in C([n], k-2) and a < b < c < d disjoint from S.

    The entries are read once as scaled integers; the scan runs over the
    rank rows of `_three_term_table`."""
    vals, scale = scaled_entries(pi)
    for S, quad, ac, bd, ab, cd, ad, bc in _three_term_table(pi.k, pi.n):
        lhs = vals[ac] + vals[bd]
        r1 = vals[ab] + vals[cd]
        r2 = vals[ad] + vals[bc]
        rhs = r1 if r1 < r2 else r2
        if lhs != rhs:
            return PositivityCertificate(
                False, (S, quad, Fraction(lhs, scale), Fraction(rhs, scale))
            )
    return PositivityCertificate(True)


def equivalent_mod_lineality(a: PlueckerVector, b: PlueckerVector) -> bool:
    """True iff every tropical cross-ratio agrees on a and b."""
    a._check_shape(b)
    from . import planar

    return planar.planar_expand(a) == planar.planar_expand(b)


def _drop_index(I: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """Order-preserving relabeling [n] \\ {ell} -> [n-1]."""
    return tuple(x - 1 if x > ell else x for x in I)


def face_restrict_one(pi: PlueckerVector, ell: int) -> PlueckerVector:
    """Restriction to the facet x_ell = 1: keep entries with ell in I,
    reindexed along [n] \\ {ell} ~ [n-1]; lands in (k-1, n-1)."""
    k, n = pi.k, pi.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell out of range: {ell}")
    if k - 1 < 2 or n - 1 < (k - 1) + 2:
        raise ValueError(f"restriction leaves the domain: (k,n)=({k - 1},{n - 1})")
    out = {}
    for I, v in pi.entries.items():
        if ell in I:
            out[_drop_index(tuple(x for x in I if x != ell), ell)] = v
    return PlueckerVector(k - 1, n - 1, out)


def face_restrict_zero(pi: PlueckerVector, ell: int) -> PlueckerVector:
    """Restriction to the facet x_ell = 0: keep entries with ell not in I,
    reindexed; lands in (k, n-1)."""
    k, n = pi.k, pi.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell out of range: {ell}")
    if n - 1 < k + 2:
        raise ValueError(f"restriction leaves the domain: (k,n)=({k},{n - 1})")
    out = {}
    for I, v in pi.entries.items():
        if ell not in I:
            out[_drop_index(I, ell)] = v
    return PlueckerVector(k, n - 1, out)


def face_restrict_zero_multi(pi: PlueckerVector, keep: Sequence[int]) -> PlueckerVector:
    """Iterated x_ell = 0 restriction onto the ordered image `keep`."""
    keep_set = set(keep)
    out = pi
    for ell in sorted(set(range(1, pi.n + 1)) - keep_set, reverse=True):
        out = face_restrict_zero(out, ell)
    return out


def to_json_dict(pi: PlueckerVector) -> dict:
    return {
        "k": pi.k,
        "n": pi.n,
        "entries": {
            ",".join(str(x) for x in I): format_fraction(v)
            for I, v in sorted(pi.entries.items())
        },
    }


def from_json_dict(obj) -> PlueckerVector:
    """Decode {"k", "n", "entries"}.  A label is comma-separated ASCII
    decimal integers naming its subset in any order; a second label naming
    the same subset is a SchemaError."""
    k, n = json_kn(obj, "entries")
    if not isinstance(obj["entries"], dict):
        raise SchemaError("/entries", "expected an object of 'i,j,...' keys")
    entries = {}
    for label, value in obj["entries"].items():
        pointer = f"/entries/{label}"
        parts = label.split(",")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise SchemaError(pointer, "bad subset label")
        elems = tuple(sorted(map(int, parts)))
        if elems in entries:
            raise SchemaError(pointer, "second spelling of an already given subset")
        entries[elems] = json_fraction(value, pointer)
    # Counted before the constructor lists all C(n, k) subsets, so that a
    # tiny input naming a huge (k, n) fails at once.
    if not 0 <= k <= n or len(entries) != math.comb(n, k):
        raise SchemaError(
            "/entries", f"need one entry per {k}-subset of [{n}], got {len(entries)}"
        )
    try:
        return PlueckerVector(k, n, entries)
    except ValueError as exc:
        raise SchemaError("/entries", str(exc)) from None
