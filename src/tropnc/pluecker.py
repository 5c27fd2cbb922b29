"""Tropical Plücker vectors over exact rationals.

A vector is C(n, k) rationals, one per k-subset I of [n] (one per vertex
e_I of the hypersimplex), held as integers over their least common
denominator (`pi.scaled()`, formed with the vector and indexed by rank in
the kernels) in the lexicographic rank order of `lex_rank(k, n)`, the
single definition of that order.  `pi[I]`, `pi.items()` (pairs in rank
order) and `pi.values` read the `Fraction`s the vector was made from, or
ones made on first read.  `from_json_dict` is the one place that checks
that labels cover every subset.

The module also covers sums, linear combinations and lineality elements,
all formed on the scaled integers, the three-term positivity certificate,
equivalence modulo the lineality space, and the two families of face
restriction maps (to the facets x_l = 1 and x_l = 0 of the hypersimplex).

The certificate decides positivity on the C(n, k) - k(n-k) - 1
three-term relations that `ladder._plan(k, n)` applies as its steps:
1. a vector that satisfies them is the plan's output from its own values
   on the k(n-k)+1 seeds, the rectangle subsets, which form a cluster
   (Scott, "Grassmannians and cluster algebras", Proc. LMS 2006), since
   each step fixes its target from entries already known;
2. the plan checks, once per (k, n), that the linear map from (grid,
   lineality shift) to seed values has full rank, so some
   min-over-path-families vector q, shifted by a lineality element, has
   the same seed values;
3. q is positive (Speyer-Williams, "The tropical totally positive
   Grassmannian", J. Algebraic Combin. 2005), so it satisfies every step
   and is the plan's output from the same seed values: the vector is q.
So the certificate runs the plan's own step loop, `ladder._fill`, on a
copy of the vector's row and compares: until the first failing step every
entry a step reads is the vector's own, so that step writes a value the
vector lacks, and no later step writes its target again.
Only a vector that fails a step is scanned over every relation, in
order of S and then of its quadruple, to name the lexicographically
first violation; no table of the relations is built.  Per S the scan
reads the C(n-k+2, 2) entries S + {x, y} once, each by the rank of its
bitmask (`_mask_ranks`), and checks the quadruples in order.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .combinat import KSubset, cyc_interval, gap_interval
from .exact import (
    InvariantError,
    Rational,
    SchemaError,
    as_fraction,
    coordinates,
    format_fraction,
    json_fraction,
    json_kn,
    record,
    scaled,
)


def _key(subset) -> tuple[int, ...]:
    if isinstance(subset, KSubset):
        return subset.elems
    return tuple(sorted(subset))


@lru_cache(maxsize=None)
def lex_rank(k: int, n: int) -> dict[tuple[int, ...], int]:
    """The rank of every k-subset of [n] in lexicographic order."""
    return {I: r for r, I in enumerate(itertools.combinations(range(1, n + 1), k))}


@lru_cache(maxsize=None)
def _masks(k: int, n: int) -> tuple[int, ...]:
    """Every k-subset of [n] in rank order as a bitmask, bit i - 1 for i."""
    return tuple(map(sum, itertools.combinations([1 << i for i in range(n)], k)))


@lru_cache(maxsize=None)
def _mask_ranks(k: int, n: int) -> dict[int, int]:
    """The rank of each k-subset bitmask."""
    return {m: i for i, m in enumerate(_masks(k, n))}


@lru_cache(maxsize=None)
def _gap_ranks(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """Per j in range(n), the ranks of the cyclic interval `cyc_interval(j)`
    and of its gap interval `gap_interval(j)`: the cyclic-gap pairs that
    the bridge weight and the balancing shift difference."""
    rank = lex_rank(k, n)
    return tuple((rank[cyc_interval(j, k, n)], rank[gap_interval(j, k, n)]) for j in range(n))


def _check_count(k: int, n: int, count: int):
    if count != math.comb(n, k):
        raise ValueError(
            f"need one value per {k}-subset of [{n}], {math.comb(n, k)} in all; got {count}"
        )


class PlueckerVector:
    """One exact rational per k-subset of [n], in `lex_rank(k, n)` order,
    held as `scaled()`; the `Fraction` view `values` is the one it was made
    from or made on first read, and `troplin._roof_sum` keeps its roof sum."""

    __slots__ = ("k", "n", "_values", "_scaled", "_roof")

    def __init__(self, k: int, n: int, values: Iterable[Rational]):
        values = tuple(map(as_fraction, values))
        _check_count(k, n, len(values))
        self.k = k
        self.n = n
        self._values = values
        self._scaled = scaled(values)
        self._roof = None

    @classmethod
    def _of_scaled(cls, k: int, n: int, ints: Iterable[int], scale: int) -> "PlueckerVector":
        """The vector with entries int / scale, stored over the least scale."""
        ints = list(ints)
        _check_count(k, n, len(ints))
        if scale <= 0:
            raise ValueError(f"the scale must be positive, got {scale}")
        common = math.gcd(scale, *ints)
        if common > 1:
            ints, scale = [v // common for v in ints], scale // common
        pi = cls.__new__(cls)
        pi.k, pi.n, pi._values, pi._scaled, pi._roof = k, n, None, (ints, scale), None
        return pi

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as `Fraction`s in rank order, made on first read."""
        if self._values is None:
            ints, scale = self._scaled
            self._values = tuple(Fraction(v, scale) for v in ints)
        return self._values

    def scaled(self) -> tuple[list[int], int]:
        """(ints, scale) over the least scale, `exact.scaled(self.values)`,
        shared: callers read the list and never change it."""
        return self._scaled

    @classmethod
    def zero(cls, k: int, n: int) -> "PlueckerVector":
        return cls(k, n, (Fraction(0),) * math.comb(n, k))

    @classmethod
    def from_function(cls, k: int, n: int, fn) -> "PlueckerVector":
        return cls(k, n, [fn(I) for I in lex_rank(k, n)])

    def __getitem__(self, subset) -> Fraction:
        return self.values[lex_rank(self.k, self.n)[_key(subset)]]

    def items(self) -> Iterable[tuple[tuple[int, ...], Fraction]]:
        """An iterator over the (subset, value) pairs, in rank order."""
        return zip(lex_rank(self.k, self.n), self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlueckerVector)
            and (self.k, self.n) == (other.k, other.n)
            and self.scaled() == other.scaled()
        )

    def __add__(self, other: "PlueckerVector") -> "PlueckerVector":
        return linear_combination(self.k, self.n, ((1, self), (1, other)))

    def __sub__(self, other: "PlueckerVector") -> "PlueckerVector":
        return linear_combination(self.k, self.n, ((1, self), (-1, other)))

    def __neg__(self) -> "PlueckerVector":
        return self.scale(-1)

    def scale(self, c: Rational) -> "PlueckerVector":
        return linear_combination(self.k, self.n, ((c, self),))

    def support(self) -> list[tuple[int, ...]]:
        return [I for I, v in self.items() if v != 0]

    def is_zero(self) -> bool:
        return not any(self.scaled()[0])

    def __repr__(self) -> str:
        nonzero = len(self.support())
        return f"PlueckerVector(k={self.k}, n={self.n}, nonzero={nonzero})"


def linear_combination(k: int, n: int, terms) -> PlueckerVector:
    """The sum of c * v over the (c, v) pairs of `terms`, on the scaled
    integers: the sum so far and c * v meet over the lcm of their scales."""
    acc, scale = [0] * math.comb(n, k), 1
    for c, v in terms:
        if (v.k, v.n) != (k, n):
            raise ValueError(f"mismatched (k, n): ({k},{n}) vs ({v.k},{v.n})")
        c = as_fraction(c)
        ints, s = v.scaled()
        s *= c.denominator
        common = math.lcm(scale, s)
        up, factor = common // scale, c.numerator * (common // s)
        acc = [a * up + factor * x for a, x in zip(acc, ints)]
        scale = common
    return PlueckerVector._of_scaled(k, n, acc, scale)


def _subset_sums(w: Sequence[int], k: int):
    """sum(w_i, i in I) for every k-subset I, in rank order: the order in
    which `itertools.combinations` yields the subsets of positions."""
    return map(sum, itertools.combinations(w, k))


def lineality_vector(k: int, n: int, x: Sequence[Rational]) -> PlueckerVector:
    """The lineality element with entries sum(x_i for i in I)."""
    ints, scale = scaled(coordinates(x, n))
    return PlueckerVector._of_scaled(k, n, _subset_sums(ints, k), scale)


def lineality_basis(k: int, n: int, i: int) -> PlueckerVector:
    """The torus incidence vector: 1 on subsets containing i, else 0."""
    return PlueckerVector.from_function(k, n, lambda I: int(i in I))


def lineality_shift(pi: PlueckerVector, x: Sequence[Rational]) -> PlueckerVector:
    """Entrywise pi_I - sum(x_i for i in I)."""
    return pi - lineality_vector(pi.k, pi.n, x)


@record
class PositivityCertificate:
    """Outcome of the three-term relation scan.

    On failure, `violation` holds the lexicographically first offending
    (S, (a, b, c, d)) together with the two sides of the relation.
    """

    ok: bool
    violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        """The violation as one line, its two sides as "p/q" rationals."""
        S, quad, lhs, rhs = self.violation
        return (f"S = {S}, (a, b, c, d) = {quad}: pi_Sac + pi_Sbd = {format_fraction(lhs)} "
                f"but min(pi_Sab + pi_Scd, pi_Sad + pi_Sbc) = {format_fraction(rhs)}")


def is_positive_tropical(pi: PlueckerVector) -> PositivityCertificate:
    """Check pi_{Sac} + pi_{Sbd} = min(pi_{Sab} + pi_{Scd}, pi_{Sad} + pi_{Sbc})
    for every S in C([n], k-2) and a < b < c < d disjoint from S.

    With no such relation (k <= 1 or k >= n - 1) the vector is positive
    and no plan is built.  Otherwise the vector is positive exactly when
    `ladder._fill` gives it back from its own seed values (see the module
    docstring); when it does not, `_first_violation` names the first
    failing relation."""
    k, n = pi.k, pi.n
    if k <= 1 or k >= n - 1:
        return PositivityCertificate(True)
    from . import ladder

    vals = pi.scaled()[0]
    filled = list(vals)
    ladder._fill(k, n, filled)
    if filled == vals:
        return PositivityCertificate(True)
    violation = _first_violation(pi)
    if violation is None:
        raise InvariantError(
            f"({k},{n}): a step of the three-term plan fails, "
            "but no three-term relation does"
        )
    return PositivityCertificate(False, violation)


@lru_cache(maxsize=None)
def _quadruple_pairs(m: int) -> tuple[tuple[int, ...], ...]:
    """Per a < b < c < d in range(m), in order, the ranks of ac, bd, ab,
    cd, ad and bc among the pairs of range(m)."""
    rank = {pair: r for r, pair in enumerate(itertools.combinations(range(m), 2))}
    return tuple(tuple(rank[pair] for pair in ((a, c), (b, d), (a, b), (c, d), (a, d), (b, c)))
                 for a, b, c, d in itertools.combinations(range(m), 4))


def _first_violation(pi: PlueckerVector) -> tuple | None:
    """The first failing three-term relation in scan order, S in
    lexicographic order and then a < b < c < d outside S, as (S, (a, b, c,
    d), lhs, rhs), or None when every relation holds.  Per S, with mask m,
    each entry S + {x, y} is read once, at the rank of m | pair."""
    k, n = pi.k, pi.n
    quadruples = _quadruple_pairs(n - k + 2)
    vals, scale = pi.scaled()
    rank, pairs = _mask_ranks(k, n), _masks(2, n)
    for S, m in zip(itertools.combinations(range(1, n + 1), k - 2), _masks(k - 2, n)):
        e = [vals[rank[m | pair]] for pair in pairs if not m & pair]
        outside = [x for x in range(1, n + 1) if x not in S]
        for quad, (ac, bd, ab, cd, ad, bc) in zip(itertools.combinations(outside, 4), quadruples):
            lhs = e[ac] + e[bd]
            left = e[ab] + e[cd]
            right = e[ad] + e[bc]
            rhs = left if left < right else right
            if lhs != rhs:
                return S, quad, Fraction(lhs, scale), Fraction(rhs, scale)
    return None


def equivalent_mod_lineality(a: PlueckerVector, b: PlueckerVector) -> bool:
    """True iff every tropical cross-ratio vanishes on a - b: they are
    linear, and vanish exactly on the lineality space.  Vectors of two
    shapes are a ValueError, from the subtraction."""
    from . import planar

    return not any(planar._scaled_expansion(a - b)[0])


# Dropping an element that every kept subset contains, or that none
# contains, and relabeling [n] \\ {ell} ~ [n-1] keeps lexicographic order,
# so each restriction keeps its values in rank order.


def face_restrict_one(pi: PlueckerVector, ell: int) -> PlueckerVector:
    """Restriction to the facet x_ell = 1: keep entries with ell in I,
    reindexed along [n] \\ {ell} ~ [n-1]; lands in (k-1, n-1)."""
    k, n = pi.k, pi.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell out of range: {ell}")
    if k - 1 < 2 or n - 1 < (k - 1) + 2:
        raise ValueError(f"restriction leaves the domain: (k,n)=({k - 1},{n - 1})")
    return PlueckerVector(k - 1, n - 1, [v for I, v in pi.items() if ell in I])


def face_restrict_zero(pi: PlueckerVector, ell: int) -> PlueckerVector:
    """Restriction to the facet x_ell = 0: keep entries with ell not in I,
    reindexed; lands in (k, n-1)."""
    k, n = pi.k, pi.n
    if not 1 <= ell <= n:
        raise ValueError(f"ell out of range: {ell}")
    if n - 1 < k + 2:
        raise ValueError(f"restriction leaves the domain: (k,n)=({k},{n - 1})")
    return PlueckerVector(k, n - 1, [v for I, v in pi.items() if ell not in I])


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
            ",".join(str(x) for x in I): format_fraction(v) for I, v in pi.items()
        },
    }


def _comb_up_to(n: int, k: int, bound: int) -> int | None:
    """C(n, k), or None once a partial product C(n, i) passes `bound`."""
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count > bound:
            return None
    return count


def from_json_dict(obj) -> PlueckerVector:
    """Decode {"k", "n", "entries"}.  A label is comma-separated ASCII
    decimal integers naming a k-subset of [n] in any order; a label naming
    no k-subset, or the same subset as another label, is a SchemaError at
    that label.  This is the one check that the labels cover every subset:
    C(n, k) distinct k-subsets are all of them."""
    k, n = json_kn(obj, "entries")
    if not isinstance(obj["entries"], dict):
        raise SchemaError("/entries", "expected an object of 'i,j,...' keys")
    entries = {}
    for label, value in obj["entries"].items():
        pointer = f"/entries/{label}"
        parts = label.split(",")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise SchemaError(pointer, "bad subset label")
        try:
            elems = tuple(sorted(map(int, parts)))
        except ValueError:  # a part past Python's digit limit for int conversion
            raise SchemaError(pointer, f"names no {k}-subset of [{n}]") from None
        if len(elems) != k or len(set(elems)) != k or not 1 <= elems[0] <= elems[-1] <= n:
            raise SchemaError(pointer, f"names no {k}-subset of [{n}]")
        if elems in entries:
            raise SchemaError(pointer, "second spelling of an already given subset")
        entries[elems] = json_fraction(value, pointer)
    # Counted before the subsets are ranked, so that a tiny input naming a
    # huge (k, n) fails at once.
    if not 0 <= k <= n or _comb_up_to(n, k, len(entries)) != len(entries):
        raise SchemaError(
            "/entries", f"need one entry per {k}-subset of [{n}], got {len(entries)}"
        )
    return PlueckerVector(k, n, [entries[I] for I in lex_rank(k, n)])
