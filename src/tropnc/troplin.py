"""Tropical linear spaces and their bounded complexes.

A tropical Plücker vector, read as a height function on hypersimplex
vertices, induces a matroid at every shift point w; looplessness puts w
on the tropical linear space and coloop-freeness on its bounded part.
The planar cross-ratios u_J(pi) of a vector are the coefficients of its
central roof function, a sum of roofs.  Everything here reads its vector
alone, in scaled integers: the coefficients come from `planar._expand`
on the vector's scaled form (`pi.scaled()`), over the least scale that
clears the values and k times each coefficient (a larger one could make
a fractional breakpoint look whole); each roof has an integer row, k
times its central vector in rank order (`_roof_row`, cached per subset), so
the central representative is an integer sum of rows over that scale;
`_roof_sum` forms both its lineality shifts by `_gap_shift`, from the n
cyclic-gap differences: y carries it to the caller's vector, and yb
balances it (`balanced_representative`, every gap weight/n).
A vector is a plain row of integers in rank order; every subset sum,
sum(w_i, i in I) for all k-subsets I at once, comes from the kernel of
the lineality elements, `pluecker._subset_sums`: `map(sum,
itertools.combinations(w, k))`, whose subsets come in rank order.

`bounded_complex_vertices` walks the bounded complex of a positive
vector vertex to vertex, on the central roof function: its values are
the central representative's, and it starts at the function's gradient
at the perturbed centre of the hypersimplex.  Every cell is a
positroid polytope, cut out in the hypersimplex by x(S) <= r(S) over
the cyclic intervals S (Ardila–Rincón–Williams, "Positroids and
non-crossing partitions", Trans. AMS 2016), so every edge at a vertex
runs along some e_S and ends at an exact integer breakpoint; the
bounded complex is connected (Speyer), so the walk reaches every vertex.
It steps only along edges, and crosses each once (`_walk`).  Every query
and the CLI go through `_complex`, which alone refuses a vector that is
not positive tropical (`ValueError`) and walks the roof sum `_roof_sum`
forms once per vector; a lineality shift only translates a tropical
linear space (Speyer, "Tropical linear spaces", SIAM J. Discrete Math.
2008), so one translation moves the walk's vertices to the caller's
vector, or to the balanced one.  A walk that finds more vertices than the
hypersimplex has alcoves (`_vertex_bound`) raises `InvariantError`,
budget or not.

Every argmin set is a rank set: one int over the C(n,k) subset ranks,
bit i for the subset of rank i.  Cached per (k, n) are the subset
bitmasks and their ranks (`pluecker._masks`, `_mask_ranks`), the rank
set elem[e] of the subsets holding e (`_elem_sets`); per interval S, one
table (`_interval_table`): the step direction, the counts |I ∩ S|, and
by count c the ranks, their rank set sets[c] and above[c], that of all
larger counts.  Only the start is scanned: along e_S a subset off the top
face with at most r(S) elements in S ends above it, so the far end's
argmin set is `top | hits`, the hits reaching the breakpoint
(`_breakpoint`).  The walk reads a vertex's values only against their
least one, so a step along e_S subtracts t|I ∩ S| from each and adds no
constant; it returns each vertex with its argmin set and its values.

At a vertex the walk reads every interval rank from the Grassmann
necklace of the argmin matroid (Oh, "Positroids and Schubert
matroids"): the greedy basis g_a in the order a < a+1 < ... < a-1
attains the rank of each prefix of that order, so r([a, a+size)) =
|g_a ∩ [a, a+size)| for any matroid.  The greedy is a chain of ANDs
(`_greedy`): with C the rank set of the bases holding the elements
taken, x is taken when C & elem[x] is not empty, and C shrinks to it.
The top face of S = [a, b] is M|S ⊕ M/S, so `_edge_intervals` skips S
on its ranks alone when b+1 or a-1 is a loop of M/S (adding it leaves
the rank unchanged) or a or b is a coloop of M|S (removing it lowers
the rank); of the rest, not yet crossed, it keeps S when `_face` calls
the top face A & sets[r] an edge, and A & above[r] not empty means A is
no matroid.  `subdifferential_at` tests a point on x(S) <= r(S) at the
ranks of the sets the walk returns.

One classifier, `_face`, reads every argmin rank set A, the walk's and
the edge test's, in one pass over the exchange rows of A's least basis
B (`_exchange_rows`, made on B's first use): per x outside B, the
hit A & X_x, X_x the rank set of x's k exchanges B - y + x.  By basis
exchange, an empty hit makes x a loop, a y in B that no hit holds is a
coloop, and the hits join the fundamental graph, whose components are
the matroid's.  It also serves `face_dimension_at`.  Outside points are
read by `exact.coordinates`, which checks their length, and
`_scaled_row` puts them on pi's scale.
`_edges` reads value rows alone, the walk's on the CLI's path and each
point's in `bounded_complex_edges`, and keeps a pair when `_face` calls
its midpoint's argmin set an edge, classifying each distinct set once
per call.  `Matroid`, `argmin_matroid`, `is_connected`,
`grassmann_necklace`, `in_linear_space` and `matroid_polytope_contains`
are the `Fraction` references of the README's "Reference
implementations", and the tests keep the Minkowski sum of the roofs'
sector gradients as the walk's oracle.  Every invariant is an
explicit raise of `InvariantError`, so the checks survive `python -O`.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import add, le, mul, or_, sub

from . import planar
from .combinat import (
    KSubset,
    dosp,
    is_cyclic_interval,
    mod1,
    noncyclic_subsets,
)
from .exact import InvariantError, Rational, coordinates, format_fraction, record
from .pluecker import (
    PlueckerVector,
    _gap_ranks,
    _mask_ranks,
    _masks,
    _subset_sums,
    is_positive_tropical,
)


class TimeBudgetExceeded(RuntimeError):
    """Raised when the vertex walk overruns its optional wall-clock budget."""


@record
class Matroid:
    """Rank-k matroid on [n] given by its explicit basis list."""

    k: int
    n: int
    bases: frozenset

    def __post_init__(self):
        if not self.bases:
            raise ValueError("a matroid needs at least one basis")
        for B in self.bases:
            if len(B) != self.k or not all(1 <= x <= self.n for x in B):
                raise ValueError(f"bad basis {B}")

    @cached_property
    def _bitmasks(self) -> tuple[int, ...]:
        """Each basis as a bitmask, bit x - 1 for element x, built once."""
        return tuple(sum(1 << (x - 1) for x in B) for B in self.bases)

    def rank(self, subset) -> int:
        m = reduce(or_, (1 << (x - 1) for x in subset), 0)
        return max(map(int.bit_count, map(m.__and__, self._bitmasks)))


def argmin_matroid(pi: PlueckerVector, w: Sequence[Rational]) -> Matroid:
    """Bases are the subsets minimizing pi_I - sum(w_i, i in I)."""
    ws = coordinates(w, pi.n)
    vals = {I: v - sum(ws[i - 1] for i in I) for I, v in pi.items()}
    best = min(vals.values())
    return Matroid(pi.k, pi.n, frozenset(I for I, v in vals.items() if v == best))


def loops(M: Matroid) -> tuple[int, ...]:
    """Elements lying in no basis."""
    used = set().union(*M.bases)
    return tuple(sorted(set(range(1, M.n + 1)) - used))


def coloops(M: Matroid) -> tuple[int, ...]:
    """Elements lying in every basis."""
    inter = set.intersection(*(set(B) for B in M.bases))
    return tuple(sorted(inter))


def components_partition(M: Matroid) -> tuple[tuple[int, ...], ...]:
    """Connected components: transitive closure of single exchanges,
    equivalently the finest partition on which every basis has constant
    intersection counts."""
    block = {x: frozenset([x]) for x in range(1, M.n + 1)}
    for a, b in itertools.combinations([set(B) for B in M.bases], 2):
        diff = a ^ b
        if len(diff) == 2:
            x, y = diff
            if block[x] is not block[y]:
                merged = block[x] | block[y]
                block.update(dict.fromkeys(merged, merged))
                if len(merged) == M.n:
                    break
    return tuple(sorted({tuple(sorted(c)) for c in block.values()}))


def is_connected(M: Matroid) -> bool:
    return len(components_partition(M)) == 1


def grassmann_necklace(M: Matroid) -> list[tuple[int, ...]]:
    """The n greedy lexicographic minima in the cyclically shifted orders
    a < a+1 < ... < a-1.  Requires a loopless matroid."""
    if loops(M):
        raise ValueError(f"matroid has loops {loops(M)}; necklace undefined")
    bases = [set(B) for B in M.bases]
    necklace = []
    for a in range(1, M.n + 1):
        order = [mod1(a + i, M.n) for i in range(M.n)]
        chosen: set[int] = set()
        for x in order:
            if len(chosen) == M.k:
                break
            trial = chosen | {x}
            if any(trial <= B for B in bases):
                chosen = trial
        if len(chosen) != M.k:
            raise InvariantError(f"greedy basis from {a} has rank {len(chosen)}, not {M.k}")
        necklace.append(tuple(sorted(chosen)))
    return necklace


def in_linear_space(pi: PlueckerVector, w: Sequence[Rational]) -> bool:
    """Membership via the (k+1)-subset test: every minimum is achieved
    at least twice.  Independent of the matroid characterization."""
    k, n = pi.k, pi.n
    ws = coordinates(w, n)
    for tau in itertools.combinations(range(1, n + 1), k + 1):
        vals = [pi[tuple(x for x in tau if x != i)] + ws[i - 1] for i in tau]
        m = min(vals)
        if vals.count(m) < 2:
            return False
    return True


def in_bounded_part(pi: PlueckerVector, w: Sequence[Rational]) -> bool:
    """Loopless and coloopless shift matroid; pi must be a tropical
    Plücker vector (`face_dimension_at`)."""
    return isinstance(face_dimension_at(pi, w), int)


@record
class CentralRoof:
    """The cyclic family of weight vectors defining a central roof.

    For the decorated partition (r_1..r_d, S_1..S_d) of J, the a-th
    vector is W_a = sum over p of (r_{a+1} + ... + r_{a+p}) e_{S_{a+p}},
    indices mod d; the roof is -(1/k) min_a W_a . x.
    """

    J: KSubset
    W: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def central_roof(J: KSubset) -> CentralRoof:
    if is_cyclic_interval(J):
        raise ValueError(f"central roof needs a noncyclic subset, got {J.elems}")
    part = dosp(J)
    d = part.length
    n = J.n
    vectors = []
    for a in range(1, d + 1):
        W = [0] * n
        acc = 0
        for p in range(1, d + 1):
            acc += part.decorations[(a + p - 1) % d]
            for x in part.blocks[(a + p - 1) % d]:
                W[x - 1] = acc
        vectors.append(tuple(W))
    return CentralRoof(J, tuple(vectors))


@lru_cache(maxsize=None)
def _roof_row(J: KSubset) -> tuple[int, ...]:
    """k times the roof of J at every hypersimplex vertex e_I, in rank
    order: the integer -min_a W_a(I)."""
    dots = [_subset_sums(W, J.k) for W in central_roof(J).W]
    return tuple(-v for v in map(min, *dots))  # a noncyclic J has two blocks or more


@lru_cache(maxsize=None)
def _start_sector(J: KSubset) -> tuple[int, ...]:
    """J's sector W_a at the centre perturbed by sum_(j < n-1) eps^(j+1) (e_j - e_(n-1))."""
    return min(central_roof(J).W, key=lambda W: (sum(W), [x - W[-1] for x in W[:-1]]))


def central_pluecker_vector(J: KSubset) -> PlueckerVector:
    """The central vector with entries equal to roof values at e_I."""
    return PlueckerVector._of_scaled(J.k, J.n, _roof_row(J), J.k)


def _roof_sum(pi: PlueckerVector):
    """The central representative of pi in scaled integers, with its two
    lineality shifts, as (scale, terms, central, y, yb): the scale, the
    least that clears pi's values and k times each nonzero planar
    coefficient u_J(pi) (a larger one could make a fractional breakpoint
    look integral to `_breakpoint`); the (J, factor = scale * u_J / k)
    pairs; the sum of factor times roof row, in rank order, over the
    scale; the central shift y, with central_I = pi_I + y(I) + c over the
    scale for one constant c, the expansion check; and the balancing shift
    yb of n times the sum, over n times the scale.  Kept in pi's `_roof`
    slot, so the check runs once per vector; callers never change the lists."""
    if pi._roof is not None:
        return pi._roof
    k, n = pi.k, pi.n
    vals, s = pi.scaled()
    support = [(J, u) for J, u in zip(noncyclic_subsets(k, n), planar._expand(k, n, vals)) if u]
    # u_J = u / s, whose denominator is s / gcd(u, s).
    scale = math.lcm(s, *(k * (s // math.gcd(u, s)) for _, u in support))
    terms = []
    central = [0] * len(vals)
    for J, u in support:
        factor, rest = divmod(u * scale, s * k)
        if rest:
            factor = Fraction(u * scale, s * k)
            raise InvariantError(f"scale {scale} leaves roof factor {factor} fractional")
        terms.append((J, factor))
        central = list(map(add, central, map(mul, _roof_row(J), itertools.repeat(factor))))
    diff = [c - v * (scale // s) for c, v in zip(central, vals)]
    y = _gap_shift(diff, 0, k, n)
    if len(set(_values(diff, y, k))) != 1:
        raise InvariantError("the planar coefficients do not expand the vector modulo lineality")
    # Over n * scale, so that the target weight / n is an integer.
    yb = _gap_shift([n * c for c in central], k * sum(f for _, f in terms), k, n)
    pi._roof = scale, terms, central, y, yb
    return pi._roof


def central_representative(pi: PlueckerVector) -> PlueckerVector:
    """Planar-coefficient combination of central roofs; equivalent to pi
    modulo lineality, and piecewise-linear as a function on the
    hypersimplex (no affine offset)."""
    scale, _, central, _, _ = _roof_sum(pi)
    return PlueckerVector._of_scaled(pi.k, pi.n, central, scale)


def _gap_shift(row, target, k: int, n: int):
    """The lineality shift y, with y_1 = 0, that makes every cyclic-gap
    difference of row_I - sum(y_i for i in I) equal to `target`.  The j-th
    difference moves by y_{j+k+1} - y_{j+k}, so the n differences fix y
    modulo all-ones once they sum to n * target; `_roof_sum` passes a
    central representative less pi, target 0, and the representative with
    its claimed weight, so any other sum is an InvariantError."""
    delta = [0] * (n + 1)
    for j, (c, g) in enumerate(_gap_ranks(k, n)):
        delta[mod1(j + k, n)] = row[c] - row[g] - target
    if sum(delta) != 0:
        raise InvariantError("the planar coefficients do not expand the vector modulo lineality")
    y = [0] * n
    for m in range(1, n):
        y[m] = y[m - 1] - delta[m]
    return y


def balanced_representative(pi: PlueckerVector) -> PlueckerVector:
    """Lineality shift of the central representative making all n
    cyclic-gap differences equal to (total weight)/n: `_roof_sum`'s yb."""
    k, n = pi.k, pi.n
    scale, _, central, _, yb = _roof_sum(pi)
    return PlueckerVector._of_scaled(k, n, _values([n * c for c in central], yb, k), n * scale)


@record
class BoundedComplexReport:
    """Vertices of the bounded complex plus the dilate bookkeeping.

    Vertices are points of R^n modulo all-ones, canonicalized by
    subtracting the first coordinate; the spread is the largest
    coordinate difference within a single vertex, maximized over
    vertices, which bounds the whole complex by convexity.
    """

    vertices: tuple[tuple[Fraction, ...], ...]
    pk_weight: Fraction
    max_coordinate_spread: Fraction
    within_dilate: bool

    def to_json_dict(self, edges) -> dict:
        return {
            "vertices": [[format_fraction(v) for v in w] for w in self.vertices],
            "edges": [list(e) for e in edges],
            "pk_weight": format_fraction(self.pk_weight),
            "max_coordinate_spread": format_fraction(self.max_coordinate_spread),
            "within_dilate": self.within_dilate,
        }


def bounded_complex_vertices(
    pi_hat: PlueckerVector, *, time_budget_s: float | None = None
) -> BoundedComplexReport:
    """Enumerate the vertices of the bounded complex of the positive
    vector pi_hat by walking its edges.

    The start is the gradient of the central roof function at the centre
    of the hypersimplex, perturbed lexicographically.  Every cell is a
    positroid polytope, so each edge at a vertex w leaves it along some
    e_S, S a proper cyclic interval, and ends at the first breakpoint of
    w + t e_S; the bounded complex is connected, so the walk reaches every
    vertex.  All in scaled integers; pi_hat may be any lineality
    representative: the central shift carries the central walk's vertices
    back.  A vector that is not positive tropical is a ValueError: the walk
    would be incomplete.
    """
    return _complex(pi_hat, False, time_budget_s)[0]


def _complex(pi: PlueckerVector, balance: bool, time_budget_s: float | None):
    """The report of the bounded complex of the positive vector pi, or of
    its balanced representative when `balance`, and the walk's argmin rank
    sets and value rows, in the order of the report's vertices.  Each
    integer vertex w of the central walk moves by one translation: to
    w - y, y the central shift, or balanced, to n*w - yb over n times the
    scale, yb the balancing shift; all have first coordinate 0.  A vector
    that is not positive tropical is a ValueError, here alone."""
    cert = is_positive_tropical(pi)
    if not cert.ok:
        raise ValueError(f"vector is not positive tropical: {cert.describe()}")
    k, n = pi.k, pi.n
    scale, terms, central, y, yb = _roof_sum(pi)
    total = k * sum(f for _, f in terms)  # the weight, over scale
    times, move = (n, yb) if balance else (1, y)
    points, sets, rows = zip(*_walk(k, n, central, terms, time_budget_s))
    found = [tuple(times * v - d for v, d in zip(w, move)) for w in points]
    scale, total = times * scale, times * total
    spread = max(max(w) - min(w) for w in found)
    fraction = {v: Fraction(v, scale) for v in set(itertools.chain.from_iterable(found))}
    vertices = tuple(tuple(map(fraction.__getitem__, w)) for w in found)
    report = BoundedComplexReport(vertices, Fraction(total, scale), Fraction(spread, scale),
                                  spread <= total)
    return report, sets, rows


def _complex_with_edges(pi: PlueckerVector, balance: bool, time_budget_s: float | None):
    """`_complex`'s report and its edges, read off the walk's value rows,
    the central representative's: each is a constant from pi's at its
    vertex, balanced or not, so the edges are pi's."""
    report, _, rows = _complex(pi, balance, time_budget_s)
    return report, _edges(pi.k, pi.n, rows)


def _walk(k: int, n: int, central, terms, time_budget_s: float | None):
    """The (vertex, argmin rank set, value row) triples of the bounded
    complex of the central roof function, sorted, each vertex as integers
    over the roof scale: from -sum(factor * `_start_sector`(J)) over the
    `_roof_sum` terms, each row `_values(central, w)` up to one constant.

    Each step is an edge, crossed once: `_edge_intervals` yields only
    edges, and a step from w along e_S that ends at a vertex not yet left
    records [n] - S as crossed there, since -e_S is e_([n] - S) modulo
    all-ones and the step back along it ends at w.  A far end's argmin set
    is `top | hits`, and `_face` must call it a vertex."""
    deadline = time.monotonic() + time_budget_s if time_budget_s is not None else None

    start = [0] * n
    for J, factor in terms:
        start = list(map(sub, start, map(factor.__mul__, _start_sector(J))))

    def over_budget():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(f"vertex walk over its {time_budget_s} s budget")

    full = (1 << n) - 1
    bound = _vertex_bound(k, n)
    w = tuple(v - start[0] for v in start)
    vals = _values(central, w, k)
    A = _argmin(vals)
    over_budget()
    if _face(A, k, n) != 0:
        raise InvariantError("the perturbed centre's roof gradient is not a vertex")
    sets = {w: (A, vals)}  # the vertices' argmin rank sets and value rows
    crossed = {w: set()}  # per vertex not yet left, the intervals already crossed to it
    todo = [w]
    while todo:
        w = todo.pop()
        A, vals = sets[w]
        best = min(vals)
        for s, r, top in _edge_intervals(A, k, n, crossed.pop(w)):
            direction, counts, ranks, _, _ = _interval_table(k, n, s)
            t, hits = _breakpoint(vals, ranks, best, r)
            nxt = tuple(map(add, w, map(t.__mul__, direction)))
            if nxt not in sets:
                over_budget()
                far = top | hits
                if _face(far, k, n) != 0:
                    S = [i + 1 for i in range(n) if s >> i & 1]
                    raise InvariantError(f"the edge along e_S, S = {S}, ends off a vertex")
                if len(sets) == bound:
                    raise InvariantError(f"({k},{n}): the walk found more than {bound} "
                                         "vertices, the alcoves of the hypersimplex")
                # w + t e_S; the walk reads values only against their minimum
                sets[nxt] = far, list(map(sub, vals, map(t.__mul__, counts)))
                crossed[nxt] = set()
                todo.append(nxt)
            if nxt in crossed:
                crossed[nxt].add(full ^ s)

    # One positive scale: the integer tuples sort as the vertices do.
    return sorted((w, A, vals) for w, (A, vals) in sets.items())


@lru_cache(maxsize=None)
def _vertex_bound(k: int, n: int) -> int:
    """The Eulerian number A(n-1, k-1), the number of alcoves of the
    hypersimplex Delta(k, n).  Every cell of a positive vector's subdivision
    is a positroid polytope, a union of alcoves (Lam-Postnikov, "Alcoved
    polytopes I", Discrete Comput. Geom. 2007), and each vertex of the
    bounded complex is a maximal cell, so no walk finds more vertices."""
    return sum((-1) ** i * math.comb(n, i) * (k - i) ** (n - 1) for i in range(k))


@lru_cache(maxsize=None)
def _elem_sets(k: int, n: int) -> tuple[int, ...]:
    """Per element e (0-based), the rank set of the k-subsets holding e."""
    masks = _masks(k, n)
    return tuple(sum(1 << i for i, m in enumerate(masks) if m >> e & 1) for e in range(n))


@lru_cache(maxsize=None)
def _interval_table(k: int, n: int, s: int):
    """The walk's table of the cyclic interval S, a bitmask: e_S less s_1
    times all-ones (steps keep w_1 = 0); the counts |I ∩ S| of the k-subsets
    I in rank order, as bytes; and per count c, the ranks with that count,
    their rank set, and the rank set of all counts above c."""
    direction = tuple((s >> i & 1) - (s & 1) for i in range(n))
    counts = bytes((m & s).bit_count() for m in _masks(k, n))
    ranks = tuple(tuple(i for i, c in enumerate(counts) if c == g) for g in range(max(counts) + 1))
    sets = tuple(sum(1 << i for i in g) for g in ranks)
    above = tuple(reduce(or_, sets[c + 1:], 0) for c in range(len(sets)))
    return direction, counts, ranks, sets, above


def _scaled_row(pi: PlueckerVector, points):
    """pi's row in rank order and the points (`exact.coordinates`), as
    integers over one common scale."""
    points = [coordinates(w, pi.n) for w in points]
    ints, s = pi.scaled()
    scale = math.lcm(s, *(v.denominator for w in points for v in w))
    points = [[v.numerator * (scale // v.denominator) for v in w] for w in points]
    return [v * (scale // s) for v in ints], points


def _values(row, w_scaled: Sequence[int], k: int) -> list[int]:
    """pi_I - sum(w_i, i in I) for every entry of the row, in rank order."""
    return list(map(sub, row, _subset_sums(w_scaled, k)))


def _argmin(vals: list[int]) -> int:
    """The rank set of the subsets that attain the least value."""
    best = min(vals)
    return sum(1 << i for i, v in enumerate(vals) if v == best)


@lru_cache(maxsize=None)
def _exchange_rows(k: int, n: int, b: int) -> tuple:
    """The basis B of rank b as a bitmask, and per x outside it, made on
    B's first use: the rank set X_x of x's k exchanges B - y + x, and each
    exchange's rank bit with y's bit."""
    rank, B = _mask_ranks(k, n), _masks(k, n)[b]
    rows = []
    for x in range(n):
        if not B >> x & 1:
            pairs = tuple((1 << rank[B ^ 1 << x ^ 1 << y], 1 << y) for y in range(n) if B >> y & 1)
            rows.append((reduce(or_, (r for r, _ in pairs)), pairs))
    return B, tuple(rows)


def _breakpoint(vals, ranks, best: int, r: int) -> tuple[int, int]:
    """The least t > 0 at which a subset I with c = |I & S| > r reaches
    the top face's value along w + t e_S, the far end of the edge, and the
    rank set of the subsets that reach it there (the hits); `ranks[c]`
    holds the ranks with count c, whose least value gives c's step.  t
    must exist and be a positive integer."""
    steps = {c: min(map(vals.__getitem__, g)) - best for c, g in enumerate(ranks) if c > r and g}
    if not steps:
        raise InvariantError("a face with no loop and no coloop has an unbounded edge")
    t = min(num // (c - r) for c, num in steps.items())
    if t <= 0 or all(num != t * (c - r) for c, num in steps.items()):
        least = min(Fraction(num, c - r) for c, num in steps.items())
        raise InvariantError(f"the breakpoint {least} of an edge is not a positive integer")
    hits = sum(1 << i for c, num in steps.items() if num == t * (c - r)
               for i in ranks[c] if vals[i] == best + num)
    return t, hits


@lru_cache(maxsize=None)
def _spans(n: int) -> tuple[tuple[int, ...], ...]:
    """spans[a][size]: the bitmask of the cyclic interval [a, a+size), for
    every 0-based start a and every size from 0 to n."""
    return tuple(
        tuple(sum(1 << (a + i) % n for i in range(size)) for size in range(n + 1))
        for a in range(n)
    )


def _greedy(A: int, k: int, n: int) -> list[list[int]]:
    """The interval ranks of the matroid whose bases are the rank set A,
    read off its Grassmann necklace: per 0-based start a, the prefix ranks
    |g_a ∩ [a, a+size)| for every size from 0 to n, g_a the greedy basis
    in the order a < a+1 < ... < a-1.  The chain runs over all n
    elements: once C is one basis, no later element meets it."""
    elem = _elem_sets(k, n)
    out = []
    for a in range(n):
        C, r, ranks = A, 0, [0]
        for e in elem[a:] + elem[:a]:
            if C & e:
                C &= e
                r += 1
            ranks.append(r)
        out.append(ranks)
    return out


def _edge_intervals(A: int, k: int, n: int, crossed):
    """Each proper cyclic interval S (a bitmask) whose top face, the bases
    in the rank set A with the most elements in S, is an edge (`_face` 1),
    with its rank r(S) and that face, leaving out the intervals in
    `crossed`.  The ranks of S, of S with a neighbour added and of S with
    an end removed come from the greedy bases; S is skipped before its top
    face is formed when they show a loop or coloop of M|S ⊕ M/S."""
    spans = _spans(n)
    ranks = _greedy(A, k, n)
    for a in range(n):
        here, after, before = ranks[a], ranks[(a + 1) % n], ranks[a - 1]
        for size in range(1, n):
            r = here[size]
            if here[size + 1] == r or before[size + 1] == r:  # b+1 or a-1 a loop of M/S
                continue
            if after[size - 1] < r or here[size - 1] < r:  # a or b a coloop of M|S
                continue
            s = spans[a][size]
            if s in crossed:
                continue
            _, _, _, sets, above = _interval_table(k, n, s)
            if A & above[r]:
                S = [i + 1 for i in range(n) if s >> i & 1]
                raise InvariantError(
                    f"the argmin set is no matroid: a basis has more than the greedy rank {r} "
                    f"in S = {S}"
                )
            top = A & sets[r]
            if _face(top, k, n) == 1:
                yield s, r, top


def _face(A: int, k: int, n: int):
    """The face whose argmin bases are the rank set A: "outside" when they
    have a loop, "unbounded" when they have a coloop, and otherwise the
    number of components less one, in one pass over the exchange rows of
    the least basis B: x outside B is a loop iff its hit A & X_x is empty,
    y in B a coloop iff no hit holds an exchange B - y + x, and the hits'
    y sets merge into disjoint classes of B, one per component of the
    fundamental graph.  On a rank set that is no matroid, "outside" and
    "unbounded" come at least as often as its elements' rank sets give."""
    B, rows = _exchange_rows(k, n, (A & -A).bit_length() - 1)
    classes = []
    for X, pairs in rows:
        hit = A & X
        if not hit:
            return "outside"
        merged = 0
        for r, y in pairs:
            if hit & r:
                merged |= y
        apart = []
        for c in classes:
            if c & merged:
                merged |= c
            else:
                apart.append(c)
        apart.append(merged)
        classes = apart
    if reduce(or_, classes, 0) != B:
        return "unbounded"
    return len(classes) - 1


def face_dimension_at(pi: PlueckerVector, w: Sequence[Rational]):
    """Dimension of the face through w, or "outside" when w misses the
    linear space, "unbounded" when the face through w is unbounded.  pi
    must be a tropical Plücker vector, which the constructor does not
    check: the verdict is defined only where the argmin set is a matroid."""
    row, (point,) = _scaled_row(pi, [w])
    return _face(_argmin(_values(row, point, pi.k)), pi.k, pi.n)


def matroid_polytope_contains(M: Matroid, x: Sequence[Rational]) -> bool:
    """Exact membership in the basis polytope via the rank inequalities
    x(A) <= rank(A) together with x >= 0 and x([n]) = k."""
    xs = coordinates(x, M.n)
    if any(v < 0 for v in xs) or sum(xs) != M.k:
        return False
    return all(sum(xs[i - 1] for i in A) <= M.rank(A)
               for size in range(1, M.n) for A in itertools.combinations(range(1, M.n + 1), size))


def subdifferential_at(pi_hat: PlueckerVector, x: Sequence[Rational]) -> list[tuple[Fraction, ...]]:
    """All bounded-complex vertices whose shift matroid polytope contains
    the strictly interior point x of the hypersimplex: x(S) <= r(S) on
    every cyclic interval S, r read off the greedy bases of the argmin
    rank set the walk found at the vertex."""
    k, n = pi_hat.k, pi_hat.n
    xs = coordinates(x, n)
    if sum(xs) != k or any(not 0 < v < 1 for v in xs):
        raise ValueError("x must be strictly interior: 0 < x_i < 1, sum = k")
    report, sets, _ = _complex(pi_hat, False, None)
    # x([a, a+size)) for every 0-based start a and size, in the order of `_greedy`'s ranks
    sums = [s for a in range(n) for s in itertools.accumulate(xs[a:] + xs[:a], initial=0)]
    out = []
    for w, A in zip(report.vertices, sets):
        ranks = itertools.chain.from_iterable(_greedy(A, k, n))
        if all(map(le, sums, ranks)):
            out.append(w)
    return out


def bounded_complex_edges(
    pi_hat: PlueckerVector, vertices: Sequence[Sequence[Rational]]
) -> list[tuple[int, int]]:
    """Vertex pairs whose exact midpoint lies on a one-dimensional face,
    read by `_edges` off each point's value row pi_I - sum(w_i, i in I)
    over one common scale."""
    row, points = _scaled_row(pi_hat, vertices)
    return _edges(pi_hat.k, pi_hat.n, [_values(row, w, pi_hat.k) for w in points])


def _edges(k: int, n: int, rows) -> list[tuple[int, int]]:
    """The pairs (i < j) of value rows whose midpoint `_face` calls an edge.
    Twice the midpoint's row is the sum of the two rows, which is at least
    the sum of their minima, with equality exactly where both rows are
    least: so when the two argmin sets meet, the midpoint's argmin set is
    their intersection, and otherwise the argmin of the summed rows.
    Neither moves when a constant is added to one row, so each row may
    carry a constant of its own, as the walk's rows do."""
    tops = list(map(_argmin, rows))
    edge = {}  # per distinct midpoint argmin set, whether `_face` calls it an edge
    edges = []
    for i, j in itertools.combinations(range(len(rows)), 2):
        top = tops[i] & tops[j] or _argmin(list(map(add, rows[i], rows[j])))
        if top not in edge:
            edge[top] = _face(top, k, n) == 1
        if edge[top]:
            edges.append((i, j))
    return edges


def diameter_check(
    pi: PlueckerVector, *, time_budget_s: float | None = None
) -> BoundedComplexReport:
    """Balanced representative, vertex enumeration, and the dilate bound:
    every vertex spread must be at most the total weight.  Convexity of
    the dilated region makes the vertex check sufficient."""
    return _complex(pi, True, time_budget_s)[0]
