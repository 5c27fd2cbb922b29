"""The noncrossing fan: ray vectors, projections, and decomposition.

Points of the target space are (k-1) rows of (n-k) rationals, each row
taken modulo the all-ones vector; the canonical representative subtracts
the row minimum, and a `TPoint` holds it as integers over their least
common scale (`t.scaled()`), which `psi` writes and `rho` and the walk
read.  `_ray` is the one source of fan rays: J's canonical ray as 0/1
integer rows, straight from the interval formula, which `t_vector`, the
walk and the audit all read.  `psi`, the sum of u_J times the ray of J,
is read in closed form: each grid cell is a +-1 sum of at most six
Plücker entries (`_psi_table`), grid face weights read off rectangle
minors (Speyer-Williams, "The tropical totally positive Grassmannian",
2005); the planar expansion composed with the rays is its test oracle.
`_lattice` is the one lattice routine: each row minus its last entry,
for a ray, a point or `psi`'s scaled rows alike.

Decomposition walks the flip graph of maximal noncrossing collections
(a visibility walk, Devillers-Pion-Teillaud 2002).  It starts in the
rectangle cone, whose inverse ray matrix is first differences, and,
while some cone coordinate of the point is negative, flips the most
negative ray to its unique partner by an exact rank-one step; a walk
that comes back to a cone, or ends on a crossing positive support,
raises `InvariantError`.  Flip partners are read off the compatibility
rows (`combinat.compatibility_rows`, built in one pass per (k, n)); a
walk builds the sparse rays only of the cones on its path.  `audit_fan`
checks the whole fan with the same steps from the start cone and returns
its maximal cones.  The brute-force decomposition on every cone is the
walk's test oracle, kept with the tests, never a fallback.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter

from .combinat import (
    KSubset,
    NoncrossingTableau,
    _holes,
    _maximal_cone_count,
    _prefix,
    compatibility_rows,
    noncyclic_subsets,
)
from .exact import (
    InvariantError,
    Rational,
    as_fraction,
    format_fraction,
    json_rows,
    record,
    scaled,
)
from .pluecker import PlueckerVector, lex_rank


# Work done since import by `nc_decompose` and `weight_report`: walks run
# and flips made.
WALK_COUNTS = {"walks": 0, "flips": 0}


def _canonical(k: int, n: int, rows) -> list:
    """The entries of k-1 rows of n-k numbers, row after row, each row less
    its minimum; ValueError for any other shape."""
    if len(rows) != k - 1 or any(len(row) != n - k for row in rows):
        raise ValueError(f"rows must be (k-1) x (n-k) for (k,n)=({k},{n})")
    lows = [min(row, default=0) for row in rows]
    return [v - low for row, low in zip(rows, lows) for v in row]


class TPoint:
    """(k-1) rows of length (n-k), each modulo all-ones, held as integers
    over their least common scale with each row's minimum at 0
    (`t.scaled()`); the `Fraction` rows `t.rows` are made on first read.
    It keeps the contract of a `record` by hand: fields k, n and rows by
    position or keyword and in the repr, == and hash only against a
    TPoint, AttributeError on assigning or deleting a field."""

    k: int
    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __new__(cls, k: int, n: int, rows):
        if any(min(row, default=0) for row in rows):
            raise ValueError("each row's minimum must be 0; TPoint.of shifts rows there")
        return cls.of(k, n, rows)

    @classmethod
    def _of_scaled(cls, k: int, n: int, rows, scale: int) -> "TPoint":
        """The point of int rows over a positive scale, in canonical form."""
        ints = _canonical(k, n, rows)
        common = math.gcd(scale, *ints)
        if common > 1:
            ints, scale = [v // common for v in ints], scale // common
        t = object.__new__(cls)
        for name, value in (("k", k), ("n", n), ("_scaled", (tuple(ints), scale))):
            object.__setattr__(t, name, value)
        return t

    @classmethod
    def of(cls, k: int, n: int, rows) -> "TPoint":
        rows = [scaled(map(as_fraction, row)) for row in rows]
        scale = math.lcm(*(s for _, s in rows))
        return cls._of_scaled(k, n, [[v * (scale // s) for v in ints] for ints, s in rows], scale)

    @classmethod
    def zero(cls, k: int, n: int) -> "TPoint":
        return cls._of_scaled(k, n, [[0] * (n - k)] * (k - 1), 1)

    def scaled(self) -> tuple[tuple[int, ...], int]:
        """(ints, scale): the entries, row after row, are ints / scale."""
        return self._scaled

    def _grid(self) -> list[tuple[int, ...]]:
        """The rows of `scaled()`'s integers."""
        ints, width = self._scaled[0], self.n - self.k
        return [ints[r * width:(r + 1) * width] for r in range(self.k - 1)]

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as `Fraction`s, made on first read."""
        scale = self._scaled[1]
        return tuple(tuple(Fraction(v, scale) for v in row) for row in self._grid())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.n, self._scaled) == (other.k, other.n, other._scaled)

    def __hash__(self):
        return hash((self.k, self.n, self._scaled))

    def __repr__(self):
        return f"{type(self).__qualname__}(k={self.k!r}, n={self.n!r}, rows={self.rows!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TPoint._of_scaled, (self.k, self.n, self._grid(), self._scaled[1])

    def __add__(self, other: "TPoint") -> "TPoint":
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("mismatched (k, n)")
        (_, s), (_, t) = self._scaled, other._scaled
        return TPoint._of_scaled(self.k, self.n, [
            [a * t + b * s for a, b in zip(r1, r2)] for r1, r2 in zip(self._grid(), other._grid())
        ], s * t)

    def __sub__(self, other: "TPoint") -> "TPoint":
        return self + other.scale(-1)

    def scale(self, c: Rational) -> "TPoint":
        c = as_fraction(c)
        rows = [[c.numerator * v for v in row] for row in self._grid()]
        return TPoint._of_scaled(self.k, self.n, rows, c.denominator * self._scaled[1])

    def is_zero(self) -> bool:
        return not any(self._scaled[0])

    def is_integral(self) -> bool:
        return self._scaled[1] == 1


def _ray(J: KSubset) -> tuple[tuple[int, ...], ...]:
    """The canonical ray of J as 0/1 int rows: row i is 1 on
    [j_i - i + 1, j_{i+1} - i - 1] cut to [1, n - k]; a full row, like an
    empty one, is 0 modulo all-ones."""
    width = J.n - J.k
    elems = J.elems
    rows = []
    for i in range(1, J.k):
        lo, hi = elems[i - 1] - i + 1, elems[i] - i - 1
        row = tuple(int(lo <= s <= hi) for s in range(1, width + 1))
        rows.append((0,) * width if all(row) else row)
    return tuple(rows)


def _lattice(rows) -> tuple:
    """Quotient coordinates of rows: each row minus its last entry, the
    last entry dropped, concatenated.

    These identify each row copy of the quotient lattice with Z^(n-k-1),
    so unimodularity can be read off integer determinants.
    """
    return tuple(v - row[-1] for row in rows for v in row[:-1])


def t_vector(J: KSubset) -> TPoint:
    """Ray vector of J (`_ray`) as a `TPoint`."""
    return TPoint._of_scaled(J.k, J.n, _ray(J), 1)


def _span(a: int, b: int) -> tuple[int, ...]:
    """The interval [a, b] of integers, empty when b < a."""
    return tuple(range(a, b + 1))


def _psi_cell(k: int, n: int, r: int, c: int) -> tuple[set, set]:
    """The k-subsets read by psi's cell at row r, column c, with sign +1
    and with sign -1, before a subset on both sides cancels; m = n - k:
    + [1, r+1] ∪ [c+r+1, c+k-1], [1, r-1] ∪ [c+r, c+k], [1, r] ∪ [m+r+1, n];
    - [1, r] ∪ [c+r, c+k-1], [1, r] ∪ [c+r+1, c+k], [1, r-1] ∪ {r+1} ∪ [m+r+1, n]."""
    head, tail = _span(1, r), _span(n - k + r + 1, n)
    plus = {(*head, r + 1, *_span(c + r + 1, c + k - 1)), (*head[:-1], *_span(c + r, c + k)),
            (*head, *tail)}
    minus = {(*head, *_span(c + r, c + k - 1)), (*head, *_span(c + r + 1, c + k)),
             (*head[:-1], r + 1, *tail)}
    return plus, minus


@lru_cache(maxsize=None)
def _psi_table(k: int, n: int) -> tuple[tuple[itemgetter, itemgetter], ...]:
    """Per grid cell, at flat index (r - 1)(n - k) + (c - 1), getters of the
    lexicographic ranks that psi adds and subtracts there (`_psi_cell`).

    psi ignores lineality, so each element must occur as often in the +
    subsets as in the - subsets, and there must be as many of each; each
    sign needs two ranks, so that its getter returns a tuple.
    InvariantError otherwise.
    """
    rank = lex_rank(k, n)
    table = []
    for r in range(1, k):
        for c in range(1, n - k + 1):
            plus, minus = _psi_cell(k, n, r, c)
            plus, minus = plus - minus, minus - plus
            elements = [Counter(e for S in side for e in S) for side in (plus, minus)]
            if len(plus) != len(minus) or elements[0] != elements[1]:
                raise InvariantError(f"psi cell ({r}, {c}) does not cancel lineality: "
                                     f"+ {sorted(plus)}, - {sorted(minus)}")
            if min(len(plus), len(minus)) < 2:
                raise InvariantError(f"psi cell ({r}, {c}) has a sign with fewer than two terms")
            table.append(tuple(itemgetter(*sorted(rank[S] for S in side)) for side in (plus, minus)))
    return tuple(table)


def _psi_grid(k: int, n: int, vals) -> list[list[int]]:
    """scale * psi, its rows not yet in canonical form, from a vector's
    scaled form (`PlueckerVector.scaled`) in rank order."""
    width = n - k
    cells = [sum(plus(vals)) - sum(minus(vals)) for plus, minus in _psi_table(k, n)]
    return [cells[r:r + width] for r in range(0, len(cells), width)]


def psi(pi: PlueckerVector) -> TPoint:
    """Projection along the planar basis, sum of u_J(pi) times the ray of J,
    read off `_psi_table`: the integer rows of `_psi_grid` over pi's scale."""
    vals, scale = pi.scaled()
    return TPoint._of_scaled(pi.k, pi.n, _psi_grid(pi.k, pi.n, vals), scale)


def lattice_coords(t: TPoint) -> tuple[Fraction, ...]:
    """Quotient coordinates of t (`_lattice` of its rows)."""
    return _lattice(t.rows)


@lru_cache(maxsize=None)
def _sparse_ray(J: KSubset) -> tuple[tuple[int, int], ...]:
    """The nonzero (coordinate, value) pairs of the lattice coordinates of J's ray."""
    return tuple((c, v) for c, v in enumerate(_lattice(_ray(J))) if v)


def _flip_partner(tables: _WalkTables, coll, i: int) -> int:
    """The unique node outside `coll` compatible with every ray but coll[i]:
    the AND of the other rays' rows, without coll[i], must have one bit."""
    rows = tables.rows
    common = (1 << len(rows)) - 1
    for p, j in enumerate(coll):
        if p != i:
            common &= rows[j]
    common &= ~(1 << coll[i])
    count = common.bit_count()
    if count != 1:
        raise InvariantError(
            f"facet of collection {[tables.nodes[j].label() for j in coll]} without ray "
            f"{tables.nodes[coll[i]].label()} has {count} flip partners, not 1"
        )
    return common.bit_length() - 1


@record
class _WalkTables:
    nodes: tuple[KSubset, ...]
    rows: tuple[int, ...]
    start: tuple[int, ...]
    start_inv: tuple[tuple[int, ...], ...]


def _check_compatible(nodes, rows, ids, cone: str):
    """Raise InvariantError if two of the nodes `ids` cross on `rows`, read either way."""
    mask = sum(1 << j for j in ids)
    for j in ids:
        crossing = mask & ~rows[j] & ~(1 << j)
        if crossing:
            other = nodes[(crossing & -crossing).bit_length() - 1]
            raise InvariantError(f"rays {nodes[j].label()} and {other.label()} of {cone} cross")


@lru_cache(maxsize=None)
def _walk_tables(k: int, n: int) -> _WalkTables:
    """The nodes, compatibility rows and start cone of (k, n), with the
    start cone's integer inverse ray matrix in closed form.

    The start cone is the noncyclic rectangles [1, i] ∪ [j+1, j+k-i]
    (`combinat._holes` is 0) in node order.  Such a ray is 1 on [1, j-i]
    in row i: in `_lattice` coordinates a prefix of block i, and each of
    the k-1 blocks gets every length 1, ..., n-k-1 once.  So the inverse
    is first differences: e_L - e_(L+1) in its block for the prefix of
    length L (e_L at L = n-k-1).  Each ray must be its prefix, the cone
    pairwise compatible with (k-1)(n-k-1) rays, which makes it unimodular
    and maximal; InvariantError otherwise.  The sparse rays
    (`_sparse_ray`) are built when a walk first flips to them.
    """
    nodes, rows = noncyclic_subsets(k, n), compatibility_rows(k, n)
    width, size = n - k - 1, (k - 1) * (n - k - 1)
    start = tuple(j for j, J in enumerate(nodes) if not _holes(J.elems))
    if len(start) != size:
        raise InvariantError(f"{len(start)} noncyclic rectangles, not (k-1)(n-k-1) = {size}")
    _check_compatible(nodes, rows, start, "the start cone")
    inv = []
    for J in (nodes[j] for j in start):
        i, length = _prefix(J.elems), J.elems[-1] - k
        lo, hi = (i - 1) * width, (i - 1) * width + length - 1
        if _lattice(_ray(J)) != tuple(int(lo <= c <= hi) for c in range(size)):
            raise InvariantError(f"start ray {J.label()} is not the prefix [1, {length}] of row {i}")
        inv.append(tuple(int(c == hi) - int(c == hi + 1 < lo + width) for c in range(size)))
    return _WalkTables(nodes, rows, start, tuple(inv))


def _check_pivot(pivot: int, old: KSubset, new: KSubset):
    """Require pivot -1 to flip `old` to `new`: the pivot, new's coordinate on
    old, is det(new cone) / det(old cone), negative iff new is across."""
    if pivot != -1:
        raise InvariantError(f"flip of {old.label()} to {new.label()} has pivot {pivot}, not -1")


def _flip(inv, i: int, old: KSubset, new: KSubset) -> list[list[int]]:
    """Inverse after ray i (`old`) becomes `new` (pivot checked by `_check_pivot`), by the
    exact rank-one step; trailing entries (the walk's mu) go alike, rows it leaves are shared."""
    ray = _sparse_ray(new)
    c = [sum([row[j] * v for j, v in ray]) for row in inv]
    _check_pivot(c[i], old, new)
    pivot_row = [-a for a in inv[i]]
    return [
        pivot_row if r == i else [a - cr * b for a, b in zip(row, pivot_row)] if cr else row
        for r, (row, cr) in enumerate(zip(inv, c))
    ]


def _choose_flip(mu) -> int | None:
    """Position of the most negative coordinate (lowest on ties), if any."""
    low = min(mu)
    return mu.index(low) if low < 0 else None


def _walk(k: int, n: int, target: list[int]) -> tuple[list[int], list[int]]:
    """The flip walk to `lattice_coords` times a positive scale, in ints:
    the node ids of its last cone and the target's cone coordinates mu
    there, all >= 0.  Each mu scales with the target, the walk does not.

    The current cone's integer inverse ray matrix, each row extended by mu,
    changes by `_flip`; a revisited cone raises InvariantError naming it,
    and so does a positive support that crosses (`_check_compatible`).
    """
    tables = _walk_tables(k, n)
    coll = list(tables.start)
    inv = [[*row, sum(a * b for a, b in zip(row, target))] for row in tables.start_inv]
    visited = {frozenset(coll)}
    WALK_COUNTS["walks"] += 1
    while (i := _choose_flip([row[-1] for row in inv])) is not None:
        new = _flip_partner(tables, coll, i)
        inv = _flip(inv, i, tables.nodes[coll[i]], tables.nodes[new])
        coll[i] = new
        WALK_COUNTS["flips"] += 1
        key = frozenset(coll)
        if key in visited:
            raise InvariantError(
                "flip walk revisited the cone of collection "
                f"{[tables.nodes[j].label() for j in coll]}"
            )
        visited.add(key)
    mu = [row[-1] for row in inv]
    support = [j for j, m in zip(coll, mu) if m > 0]
    _check_compatible(tables.nodes, tables.rows, support, "the walk's last cone")
    return coll, mu


def nc_decompose(t: TPoint) -> NoncrossingTableau:
    """Unique expression of t as a nonnegative combination of pairwise
    noncrossing rays, by `_walk` to `_lattice` of t's integer rows over
    t's scale; entries in node-id order, which is lexicographic."""
    scale = t.scaled()[1]
    coll, mu = _walk(t.k, t.n, _lattice(t._grid()))
    nodes = _walk_tables(t.k, t.n).nodes
    return NoncrossingTableau(t.k, t.n, tuple(
        (nodes[j], Fraction(m, scale)) for j, m in sorted(zip(coll, mu)) if m > 0
    ))


@lru_cache(maxsize=None)
def audit_fan(k: int, n: int) -> tuple[tuple[KSubset, ...], ...]:
    """Check the whole fan at (k, n) by a search over its flip graph, and
    return its maximal cones in lexicographic order.

    From the walk's start cone (unimodular: its inverse is integral),
    every facet of every cone reached must have one flip partner
    (`_flip_partner`) with pivot -1 (`_check_pivot`), so every cone reached
    is unimodular and every partner lies across its facet; a new cone's
    inverse comes by the walk's rank-one step (`_flip`).  The search must
    reach the hook-length count of cones.  Raises InvariantError otherwise.
    Cached per (k, n), so that each shape is audited once.
    """
    tables = _walk_tables(k, n)
    nodes = tables.nodes
    start = sum(1 << j for j in tables.start)
    cones = {start: tables.start}
    todo = [(start, tables.start, tables.start_inv)]
    while todo:
        mask, coll, inv = todo.pop()
        for i, old in enumerate(coll):
            new = _flip_partner(tables, coll, i)
            flipped = mask ^ (1 << old) ^ (1 << new)
            if flipped in cones:
                pivot = sum([inv[i][j] * v for j, v in _sparse_ray(nodes[new])])
                _check_pivot(pivot, nodes[old], nodes[new])
            else:
                cones[flipped] = coll[:i] + (new,) + coll[i + 1:]
                todo.append((flipped, cones[flipped], _flip(inv, i, nodes[old], nodes[new])))
    expected = _maximal_cone_count(k, n)
    if len(cones) != expected:
        raise InvariantError(f"flip search reached {len(cones)} maximal cones, "
                             f"not the hook-length count {expected}")
    return tuple(
        tuple(nodes[j] for j in c) for c in sorted(tuple(sorted(c)) for c in cones.values())
    )


def nc_weight(t: TPoint) -> Fraction:
    """Sum of the decomposition coefficients."""
    return nc_decompose(t).weight()


def d1_project(t: TPoint) -> TPoint:
    """Drop row 1 and shift the remaining rows down: lands in (k-1, n-1)."""
    if t.k < 3:
        raise ValueError("projection needs k >= 3")
    return TPoint._of_scaled(t.k - 1, t.n - 1, t._grid()[1:], t.scaled()[1])


def to_json_dict(t: TPoint) -> dict:
    scale = t.scaled()[1]
    return {
        "k": t.k,
        "n": t.n,
        "rows": [[format_fraction(Fraction(v, scale)) for v in row] for row in t._grid()],
    }


def from_json_dict(obj) -> TPoint:
    return json_rows(obj, TPoint.of)


def tableau_to_json_dict(tab: NoncrossingTableau) -> dict:
    return {
        "k": tab.k,
        "n": tab.n,
        "entries": [[J.label(), format_fraction(m)] for J, m in tab.entries],
    }
