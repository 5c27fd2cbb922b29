"""Cyclic combinatorics of k-subsets of [n] = {1, ..., n}.

This module is the indexing and predicate layer for everything else:
cyclic intervals, weak separation, the noncrossing predicate, noncrossing
collections, decorated ordered set partitions, and noncrossing set
partitions.  All index arithmetic is cyclic with representatives in
[1, n], never 0, and subsets are stored sorted ascending.  Each cyclic
endpoint of J (an element whose successor is not in J) ends one block of
`dosp`, the first holding 1; `noncyclic_subsets` reads them on bitmasks.

The noncrossing predicate `noncrossing` is implemented literally,
window by window, with no shortcut formulas, so that it can serve as the
oracle for everything built on top of it.  The collections, the
tableaux and the fan read noncrossing compatibility from
`compatibility_rows` instead: one cached tuple per (k, n) of bitmask rows
over `noncyclic_subsets`, all built in one pass that applies the chord
rule to every node at once on per-position bitmasks.  The tests check the
rows against `noncrossing` on every pair up to n = 10, and CI on every
pair at (6, 12).
One fixed-size search lists noncrossing collections; the maximal ones are
those of size (k-1)(n-k-1), counted against the hook-length formula.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .exact import InvariantError, as_fraction, record


def mod1(x: int, n: int) -> int:
    """Reduce x (mod n) into the representative range [1, n]."""
    return (x - 1) % n + 1


@record(order=True)
class KSubset:
    """A sorted k-element subset of [n], with 2 <= k <= n-2 and n >= 4."""

    n: int
    elems: tuple[int, ...]

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"ground set too small: n={self.n}")
        k = len(self.elems)
        if not 2 <= k <= self.n - 2:
            raise ValueError(f"need 2 <= k <= n-2, got k={k}, n={self.n}")
        if list(self.elems) != sorted(set(self.elems)):
            raise ValueError(f"elements must be strictly increasing: {self.elems}")
        if self.elems[0] < 1 or self.elems[-1] > self.n:
            raise ValueError(f"elements out of range [1, {self.n}]: {self.elems}")

    @property
    def k(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, x: int) -> bool:
        return x in self.elems

    def label(self) -> str:
        """Comma-joined serialization, e.g. "1,3,5"."""
        return ",".join(str(e) for e in self.elems)


def _trusted(n: int, elems: tuple[int, ...]) -> KSubset:
    """A KSubset without `__post_init__`'s checks, for one valid by construction."""
    J = object.__new__(KSubset)
    object.__setattr__(J, "n", n)
    object.__setattr__(J, "elems", elems)
    return J


def ksubset(n: int, elems) -> KSubset:
    """Build a KSubset from any iterable of distinct elements of [n]."""
    return KSubset(n, tuple(sorted(elems)))


def all_ksubsets(k: int, n: int) -> list[KSubset]:
    """All k-subsets of [n] in lexicographic order."""
    return [KSubset(n, elems) for elems in itertools.combinations(range(1, n + 1), k)]


def cyclic_endpoints(J: KSubset) -> tuple[int, ...]:
    """Elements j of J whose cyclic successor j+1 lies outside J."""
    return tuple(j for j in J.elems if mod1(j + 1, J.n) not in J)


def is_cyclic_interval(J: KSubset) -> bool:
    """True iff J = {a, a+1, ..., a+k-1} modulo n for some a."""
    return len(cyclic_endpoints(J)) == 1


def cyc_interval(j: int, k: int, n: int) -> tuple[int, ...]:
    """The cyclic interval {j+1, ..., j+k} (mod n), sorted."""
    return tuple(sorted(mod1(j + i, n) for i in range(1, k + 1)))


def _prefix(elems: tuple[int, ...]) -> int:
    """The length i of the longest prefix [1, i] of a sorted subset."""
    i = 0
    while i < len(elems) and elems[i] == i + 1:
        i += 1
    return i


def _holes(elems: tuple[int, ...]) -> int:
    """The holes of a sorted subset: the numbers in the span of R, the
    subset minus its longest prefix [1, i], that R misses (0 when R is
    empty)."""
    i = _prefix(elems)
    return elems[-1] - elems[i] + 1 - (len(elems) - i) if i < len(elems) else 0


def gap_interval(j: int, k: int, n: int) -> tuple[int, ...]:
    """The gap interval {j+1, ..., j+k-1, j+k+1} (mod n), sorted."""
    elems = [mod1(j + i, n) for i in range(1, k)] + [mod1(j + k + 1, n)]
    return tuple(sorted(elems))


def _endpoints(J: int, n: int) -> int:
    """The elements of a subset bitmask J whose cyclic successor is not in J."""
    return J & ~(J >> 1 | (J & 1) << (n - 1))


@lru_cache(maxsize=None)
def noncyclic_subsets(k: int, n: int) -> tuple[KSubset, ...]:
    """All k-subsets of [n] with two cyclic endpoints or more, in order."""
    from .pluecker import _masks  # the same subsets, in the same order
    KSubset(n, tuple(range(1, k + 1)))  # checks (k, n) once; every subset below is valid
    keep = (_endpoints(m, n).bit_count() > 1 for m in _masks(k, n))
    subsets = itertools.compress(itertools.combinations(range(1, n + 1), k), keep)
    return tuple(_trusted(n, elems) for elems in subsets)


def _check_same_shape(I: KSubset, J: KSubset):
    if (I.k, I.n) != (J.k, J.n):
        raise ValueError(f"mismatched (k, n): ({I.k},{I.n}) vs ({J.k},{J.n})")


def cyclic_sign_changes(vec) -> int:
    """Number of sign changes in a vector read cyclically, zeros skipped."""
    signs = [1 if v > 0 else -1 for v in vec if v != 0]
    if not signs:
        return 0
    return sum(1 for i, s in enumerate(signs) if s != signs[(i + 1) % len(signs)])


def _weakly_separated_sets(a: tuple[int, ...], b: tuple[int, ...], n: int) -> bool:
    diff = [0] * n
    for x in a:
        diff[x - 1] += 1
    for x in b:
        diff[x - 1] -= 1
    return cyclic_sign_changes(diff) <= 2


def weakly_separated(I: KSubset, J: KSubset) -> bool:
    """True iff e_I - e_J has at most two cyclic sign changes."""
    _check_same_shape(I, J)
    return _weakly_separated_sets(I.elems, J.elems, I.n)


def noncrossing(I: KSubset, J: KSubset) -> bool:
    """Window-by-window noncrossing test.

    For every window 1 <= a < b <= k the pair must either be weakly
    separated on the window {i_a..i_b} vs {j_a..j_b}, or have differing
    interiors {i_{a+1}..i_{b-1}} vs {j_{a+1}..j_{b-1}} (set inequality).
    """
    _check_same_shape(I, J)
    n, k = I.n, I.k
    ie, je = I.elems, J.elems
    for a in range(k):
        for b in range(a + 1, k):
            if set(ie[a + 1:b]) != set(je[a + 1:b]):
                continue
            if not _weakly_separated_sets(ie[a:b + 1], je[a:b + 1], n):
                return False
    return True


def crossing(I: KSubset, J: KSubset) -> bool:
    return not noncrossing(I, J)


@lru_cache(maxsize=None)
def compatibility_rows(k: int, n: int) -> tuple[int, ...]:
    """The noncrossing compatibility graph on `noncyclic_subsets(k, n)`:
    bit i of row j is set iff i != j and nodes i and j are noncrossing.

    With equal interiors on a window a < b, e_I - e_J on the window is
    e_{i_a} + e_{i_b} - e_{j_a} - e_{j_b}, which has four cyclic sign
    changes exactly when the chords (i_a, i_b) and (j_a, j_b) interleave.
    That chord rule is applied to every node at once, on bitmasks over the
    nodes: `at[p][v]` holds the nodes whose p-th element is v, `below[p][v]`
    those whose p-th element is less than v, and `agree` those that match
    row j's node strictly inside the window.
    """
    nodes = noncyclic_subsets(k, n)
    at = [[0] * (n + 1) for _ in range(k)]
    for i, J in enumerate(nodes):
        for p, v in enumerate(J.elems):
            at[p][v] |= 1 << i
    below = [list(itertools.accumulate(masks, operator.or_, initial=0)) for masks in at]
    full = (1 << len(nodes)) - 1
    rows = []
    for j, J in enumerate(nodes):
        je = J.elems
        cross = 0
        for a in range(k - 1):
            x, lo = je[a], below[a]
            agree = full
            for b in range(a + 1, k):
                y, hi = je[b], below[b]
                # i_a < x < i_b < y, or x < i_a < y < i_b
                cross |= agree & (lo[x] & hi[y] & ~hi[x + 1] | lo[y] & ~lo[x + 1] & ~hi[y + 1])
                agree &= at[b][y]
                if not agree:
                    break
        rows.append(full & ~cross & ~(1 << j))
    return tuple(rows)


@lru_cache(maxsize=None)
def _node_ids(k: int, n: int) -> dict[KSubset, int]:
    """Each noncyclic k-subset's place in `noncyclic_subsets(k, n)`."""
    return {J: i for i, J in enumerate(noncyclic_subsets(k, n))}


def noncrossing_collections(k: int, n: int, size: int) -> list[tuple[KSubset, ...]]:
    """All collections of exactly `size` pairwise-noncrossing noncyclic
    k-subsets, in lexicographic order (deterministic backtracking)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    nodes, rows = noncyclic_subsets(k, n), compatibility_rows(k, n)
    out: list[tuple[KSubset, ...]] = []

    def extend(chosen: list[int], candidates: list[int]):
        if len(chosen) == size:
            out.append(tuple(nodes[i] for i in chosen))
            return
        need = size - len(chosen)
        for pos, i in enumerate(candidates):
            if len(candidates) - pos < need:
                break
            chosen.append(i)
            row = rows[i]
            extend(chosen, [j for j in candidates[pos + 1:] if row >> j & 1])
            chosen.pop()

    extend([], list(range(len(nodes))))
    return out


def _maximal_cone_count(k: int, n: int) -> int:
    """The number of maximal noncrossing cones at (k, n): the standard
    Young tableaux of a k x (n-k) rectangle, by the hook-length formula."""
    return factorial(k * (n - k)) // prod(i + j + 1 for i in range(k) for j in range(n - k))


@lru_cache(maxsize=None)
def maximal_noncrossing_collections(k: int, n: int) -> tuple[tuple[KSubset, ...], ...]:
    """All inclusion-maximal noncrossing collections, sorted lexicographically.

    The noncrossing complex is pure of dimension (k-1)(n-k-1) - 1
    (Santos-Stump-Welker), so these are the collections of that size;
    their number must be the hook-length count (InvariantError otherwise).
    """
    colls = tuple(noncrossing_collections(k, n, (k - 1) * (n - k - 1)))
    expected = _maximal_cone_count(k, n)
    if len(colls) != expected:
        raise InvariantError(f"({k},{n}): {len(colls)} maximal noncrossing collections, "
                             f"not the hook-length count {expected}")
    return colls


@record
class DecoratedOSP:
    """Decorated ordered set partition (r_1..r_l, S_1..S_l) of [n].

    Blocks are cyclic intervals listed in cyclic order anchored so that
    1 lies in S_1; each block is stored in cyclic traversal order (gap
    elements first, then the run), so the last r_a elements of S_a are
    the run I_a.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    decorations: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.decorations):
            raise ValueError("block/decoration length mismatch")
        seen = sorted(x for block in self.blocks for x in block)
        if seen != list(range(1, self.n + 1)):
            raise ValueError("blocks must partition [n]")
        if len(self.blocks) >= 2:
            for block, r in zip(self.blocks, self.decorations):
                if not 1 <= r <= len(block) - 1:
                    raise ValueError(f"decoration {r} out of range for block {block}")

    @property
    def length(self) -> int:
        return len(self.blocks)

    def subset(self) -> KSubset:
        """Reconstruct J as the union of the last r_a elements per block."""
        elems = []
        for block, r in zip(self.blocks, self.decorations):
            elems.extend(block[len(block) - r:])
        return ksubset(self.n, elems)


def dosp(J: KSubset) -> DecoratedOSP:
    """Decorated ordered set partition of J: per cyclic endpoint e, in
    increasing order, the interval (e', e] from the endpoint e' cyclically
    before it, decorated by its number of elements of J."""
    n, ends = J.n, cyclic_endpoints(J)
    blocks = []
    for prev, end in zip(ends[-1:] + ends[:-1], ends):
        stop = end + n if end <= prev else end  # one endpoint: the whole circle after it
        blocks.append(tuple(mod1(x, n) for x in range(prev + 1, stop + 1)))
    decorations = tuple(sum(x in J for x in block) for block in blocks)
    return DecoratedOSP(n, tuple(blocks), decorations)


def _prefix_chain(partition: DecoratedOSP) -> list[tuple[frozenset[int], int]]:
    """The pairs (S_1 ∪ ... ∪ S_a, r_1 + ... + r_a) for a < l: the chain of
    prefixes whose lower bounds cut out the positroid of `partition`."""
    chain = []
    acc: set[int] = set()
    need = 0
    for block, r in zip(partition.blocks[:-1], partition.decorations[:-1]):
        acc |= set(block)
        need += r
        chain.append((frozenset(acc), need))
    return chain


def is_noncrossing_partition(blocks, n: int) -> bool:
    """Standard noncrossing test for a set partition of [n]: no quadruple
    a < b < c < d with a, c in one block and b, d in another."""
    owner = {}
    for idx, block in enumerate(blocks):
        for x in block:
            if x in owner:
                raise ValueError(f"element {x} repeated across blocks")
            owner[x] = idx
    if sorted(owner) != list(range(1, n + 1)):
        raise ValueError("blocks must partition [n]")
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
            return False
    return True


@record
class NoncrossingTableau:
    """Multiset of pairwise-noncrossing noncyclic k-subsets with positive
    rational multiplicities (integer multiplicities are the classical
    tableaux; rationals house general fan coordinates)."""

    k: int
    n: int
    entries: tuple[tuple[KSubset, Fraction], ...]

    def __post_init__(self):
        seen = set()
        for J, mult in self.entries:
            if (J.k, J.n) != (self.k, self.n):
                raise ValueError(f"entry {J} has wrong shape")
            if is_cyclic_interval(J):
                raise ValueError(f"cyclic entry {J.elems} not allowed")
            if mult <= 0:
                raise ValueError(f"multiplicity of {J.elems} must be positive")
            if J in seen:
                raise ValueError(f"duplicate entry {J.elems}")
            seen.add(J)
        ids, rows = _node_ids(self.k, self.n), compatibility_rows(self.k, self.n)
        for (I, _), (J, _) in itertools.combinations(self.entries, 2):
            if not rows[ids[J]] >> ids[I] & 1:
                raise ValueError(f"entries {I.elems} and {J.elems} cross")

    def weight(self) -> Fraction:
        return sum((m for _, m in self.entries), Fraction(0))

    def support(self) -> tuple[KSubset, ...]:
        return tuple(J for J, _ in self.entries)


def tableau(k: int, n: int, entries) -> NoncrossingTableau:
    """Build a tableau from (subset, multiplicity) pairs, sorted lex."""
    cooked = sorted(((J, as_fraction(m)) for J, m in entries), key=lambda e: e[0])
    return NoncrossingTableau(k, n, tuple(cooked))
