"""Tropical linear spaces and their bounded complexes.

A tropical Plücker vector, read as a height function on hypersimplex
vertices, induces a matroid at every shift point w; looplessness puts w
on the tropical linear space and coloop-freeness on its bounded part.
The planar cross-ratios u_J(pi) of a vector are the coefficients of its
central roof function, a sum of roofs; its cell gradients, the vertices
of the bounded complex, lie in the Minkowski sum of each roof's sector
gradients.  Everything here reads its vector alone, and the whole vertex
path is one integer pass: each roof has an integer row, k times its
central vector in rank order (`_roof_row`, cached per subset), so the
central representative is an integer sum of rows over one scale; one
routine, `_gap_shift`, finds a lineality shift from the n cyclic-gap
differences, both to balance (`balanced_representative`, every gap
weight/n) and to carry the candidates back to the caller's vector; the
candidates are built roof by roof, modulo all-ones at every step.
`diameter_check` balances, then enumerates.

`_shift_face` is the one classifier of shift points, in scaled integers
over `_scaled_table`; vertex filtering, `bounded_complex_edges`,
`face_dimension_at` and `in_bounded_part` all use it.  `argmin_matroid`,
`loops`, `coloops`, `components_partition`, `in_linear_space` and
`central_roof_value` are the `Fraction` reference the tests check
against.  Every invariant is an explicit raise of `InvariantError`, so
the checks survive `python -O`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Sequence

from . import planar
from .combinat import (
    KSubset,
    cyc_interval,
    dosp,
    gap_interval,
    is_cyclic_interval,
    mod1,
)
from .exact import InvariantError, Rational, as_fraction, format_fraction, scaled
from .pluecker import PlueckerVector, lex_rank


class TimeBudgetExceeded(RuntimeError):
    """Raised when vertex enumeration overruns its optional wall-clock budget."""


@dataclass(frozen=True)
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

    def rank(self, subset) -> int:
        sset = set(subset)
        return max(len(sset & set(B)) for B in self.bases)


def uniform_matroid(k: int, n: int) -> Matroid:
    return Matroid(k, n, frozenset(itertools.combinations(range(1, n + 1), k)))


def basis_exchange_ok(M: Matroid) -> bool:
    """Exchange axiom sanity check on the explicit basis list."""
    for B1, B2 in itertools.permutations(M.bases, 2):
        for i in set(B1) - set(B2):
            if not any(
                tuple(sorted(set(B1) - {i} | {j})) in M.bases
                for j in set(B2) - set(B1)
            ):
                return False
    return True


def argmin_matroid(pi: PlueckerVector, w: Sequence[Rational]) -> Matroid:
    """Bases are the subsets minimizing pi_I - sum(w_i, i in I)."""
    ws = [as_fraction(v) for v in w]
    if len(ws) != pi.n:
        raise ValueError(f"need {pi.n} coordinates, got {len(ws)}")
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
    parent = list(range(M.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    bases = [set(B) for B in M.bases]
    classes = M.n
    for a, b in itertools.combinations(bases, 2):
        diff = a ^ b
        if len(diff) == 2:
            x, y = diff
            if find(x) != find(y):
                union(x, y)
                classes -= 1
                if classes == 1:
                    break
    groups: dict[int, list[int]] = {}
    for x in range(1, M.n + 1):
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


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
    ws = [as_fraction(v) for v in w]
    k, n = pi.k, pi.n
    if len(ws) != n:
        raise ValueError(f"need {n} coordinates, got {len(ws)}")
    for tau in itertools.combinations(range(1, n + 1), k + 1):
        vals = [pi[tuple(x for x in tau if x != i)] + ws[i - 1] for i in tau]
        m = min(vals)
        if vals.count(m) < 2:
            return False
    return True


def in_bounded_part(pi: PlueckerVector, w: Sequence[Rational]) -> bool:
    """Loopless and coloopless shift matroid."""
    return isinstance(face_dimension_at(pi, w), int)


@dataclass(frozen=True)
class CentralRoof:
    """The cyclic family of weight vectors defining a central roof.

    For the decorated partition (r_1..r_d, S_1..S_d) of J, the a-th
    vector is W_a = sum over p of (r_{a+1} + ... + r_{a+p}) e_{S_{a+p}},
    indices mod d; the roof is -(1/k) min_a W_a . x.
    """

    J: KSubset
    W: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return self.J.k


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


def central_roof_value(J: KSubset, x: Sequence[Rational]) -> Fraction:
    """Evaluate the roof -(1/k) min_a W_a . x at a point of R^n."""
    xs = [as_fraction(v) for v in x]
    if len(xs) != J.n:
        raise ValueError(f"need {J.n} coordinates, got {len(xs)}")
    best = min(sum(c * v for c, v in zip(W, xs)) for W in central_roof(J).W)
    return -Fraction(best, 1) / J.k


@lru_cache(maxsize=None)
def _roof_row(J: KSubset) -> tuple[int, ...]:
    """k times the roof of J at every hypersimplex vertex e_I, in rank
    order: the integer -min_a W_a(I)."""
    vectors = central_roof(J).W
    return tuple(-min(sum(W[i - 1] for i in I) for W in vectors) for I in lex_rank(J.k, J.n))


def central_pluecker_vector(J: KSubset) -> PlueckerVector:
    """The central vector with entries equal to roof values at e_I."""
    return PlueckerVector(J.k, J.n, [Fraction(v, J.k) for v in _roof_row(J)])


def _roof_sum(pi: PlueckerVector):
    """The central representative of pi in scaled integers: the scale,
    which clears pi's values and k times each nonzero planar coefficient
    u_J(pi); pi's `_scaled_table`; the (J, factor = scale * u_J / k)
    pairs; and the sum of factor times roof row, in rank order."""
    k = pi.k
    support = [(J, c) for J, c in planar.planar_expand(pi).items() if c]
    scale, table = _scaled_table(pi, [k * c.denominator for _, c in support])
    terms = []
    central = [0] * len(table)
    for J, c in support:
        factor = Fraction(c * scale, k)
        if factor.denominator != 1:
            raise InvariantError(f"scale {scale} leaves roof factor {factor} fractional")
        terms.append((J, factor.numerator))
        central = [a + factor.numerator * r for a, r in zip(central, _roof_row(J))]
    return scale, table, terms, central


def central_representative(pi: PlueckerVector) -> PlueckerVector:
    """Planar-coefficient combination of central roofs; equivalent to pi
    modulo lineality, and piecewise-linear as a function on the
    hypersimplex (no affine offset)."""
    scale, _, _, central = _roof_sum(pi)
    return PlueckerVector(pi.k, pi.n, [Fraction(v, scale) for v in central])


def _gap_shift(row, target, k: int, n: int):
    """The lineality shift y, with y_1 = 0, that makes every cyclic-gap
    difference of row_I - sum(y_i for i in I) equal to `target`, and that
    shifted row.  The j-th difference moves by y_{j+k+1} - y_{j+k}, so the
    n differences fix y modulo all-ones once they sum to n * target; every
    caller passes a central representative and the weight its planar
    coefficients claim, so any other sum is an InvariantError."""
    rank = lex_rank(k, n)
    delta = [0] * (n + 1)
    for j in range(n):
        d = row[rank[cyc_interval(j, k, n)]] - row[rank[gap_interval(j, k, n)]]
        delta[mod1(j + k, n)] = d - target
    if sum(delta) != 0:
        raise InvariantError("the planar coefficients do not expand the vector modulo lineality")
    y = [0] * n
    for m in range(1, n):
        y[m] = y[m - 1] - delta[m]
    return y, [v - sum(y[i - 1] for i in I) for I, v in zip(rank, row)]


def balanced_representative(pi: PlueckerVector) -> PlueckerVector:
    """Lineality shift of the central representative making all n
    cyclic-gap differences equal to (total weight)/n."""
    k, n = pi.k, pi.n
    scale, _, terms, central = _roof_sum(pi)
    # Over n * scale, so that the target weight / n is an integer.
    _, row = _gap_shift([n * v for v in central], k * sum(f for _, f in terms), k, n)
    return PlueckerVector(k, n, [Fraction(v, n * scale) for v in row])


@dataclass(frozen=True)
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
    """Enumerate the vertices of the bounded complex of pi_hat.

    The candidates are the Minkowski sum of each roof's sector gradients,
    built roof by roof modulo all-ones, so a partial sum reached twice is
    extended once; a candidate is a vertex exactly when its shift matroid
    is connected.  All in scaled integers; pi_hat may be any lineality
    representative (the shift to its own cyclic-gap differences realigns
    the candidates, and every entry is checked against it).
    """
    deadline = time.monotonic() + time_budget_s if time_budget_s is not None else None
    k, n = pi_hat.k, pi_hat.n
    scale, table, terms, central = _roof_sum(pi_hat)
    wt = Fraction(k * sum(f for _, f in terms), scale)
    if not terms:
        return BoundedComplexReport((), wt, Fraction(0), True)

    # The shift that gives central - pi_hat zero gaps must leave it constant.
    y, rest = _gap_shift([c - v for c, v in zip(central, (v for _, _, v in table))], 0, k, n)
    if len(set(rest)) != 1:
        raise InvariantError("the planar coefficients do not expand the vector modulo lineality")

    # Partial sums with first coordinate 0, one per class modulo all-ones.
    level = {tuple(-v for v in y)}
    for J, factor in terms:
        sectors = [tuple(-factor * (x - W[0]) for x in W) for W in central_roof(J).W]
        grown = set()
        for acc in level:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeBudgetExceeded("assignment enumeration over budget")
            grown.update(tuple(map(add, acc, W)) for W in sectors)
        level = grown

    vertices = []
    for w_scaled in level:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded("matroid filtering over budget")
        if _shift_face(table, w_scaled) == 0:
            vertices.append(tuple(Fraction(v, scale) for v in w_scaled))

    vertices.sort()
    spread = max((max(wv) - min(wv) for wv in vertices), default=Fraction(0))
    return BoundedComplexReport(tuple(vertices), wt, spread, spread <= wt)


def _scaled_table(pi: PlueckerVector, denominators):
    """Put pi over one common denominator that also clears `denominators`:
    the scale and a list of (subset, 0-based indices, scaled entry)."""
    ints, scale = scaled(pi.values, denominators)
    return scale, [(I, tuple(i - 1 for i in I), v) for I, v in zip(lex_rank(pi.k, pi.n), ints)]


def _shift_face(table, w_scaled: Sequence[int]):
    """The face through a shift point, both scaled as by `_scaled_table`:
    "outside" when the argmin matroid has a loop, "unbounded" when it has
    a coloop, and otherwise its number of components minus one."""
    vals = [v - sum(w_scaled[i] for i in idx) for _, idx, v in table]
    best = min(vals)
    argmin = [I for (I, _, _), val in zip(table, vals) if val == best]
    if len(set().union(*argmin)) != len(w_scaled):
        return "outside"
    if set(argmin[0]).intersection(*argmin[1:]):
        return "unbounded"
    M = Matroid(len(argmin[0]), len(w_scaled), frozenset(argmin))
    return len(components_partition(M)) - 1


def face_dimension_at(pi: PlueckerVector, w: Sequence[Rational]):
    """Dimension of the face through w, or "outside" when w misses the
    linear space, "unbounded" when the face through w is unbounded."""
    ws = [as_fraction(v) for v in w]
    if len(ws) != pi.n:
        raise ValueError(f"need {pi.n} coordinates, got {len(ws)}")
    scale, table = _scaled_table(pi, [v.denominator for v in ws])
    return _shift_face(table, [int(v * scale) for v in ws])


def matroid_polytope_contains(M: Matroid, x: Sequence[Rational]) -> bool:
    """Exact membership in the basis polytope via the rank inequalities
    x(A) <= rank(A) together with x >= 0 and x([n]) = k."""
    xs = [as_fraction(v) for v in x]
    if len(xs) != M.n:
        raise ValueError(f"need {M.n} coordinates")
    if any(v < 0 for v in xs) or sum(xs) != M.k:
        return False
    ground = range(1, M.n + 1)
    for size in range(1, M.n):
        for A in itertools.combinations(ground, size):
            if sum(xs[i - 1] for i in A) > M.rank(A):
                return False
    return True


def subdifferential_at(pi_hat: PlueckerVector, x: Sequence[Rational]) -> list[tuple[Fraction, ...]]:
    """All bounded-complex vertices whose shift matroid polytope contains
    the strictly interior point x of the hypersimplex."""
    xs = [as_fraction(v) for v in x]
    if sum(xs) != pi_hat.k or any(not 0 < v < 1 for v in xs):
        raise ValueError("x must be strictly interior: 0 < x_i < 1, sum = k")
    report = bounded_complex_vertices(pi_hat)
    out = []
    for w in report.vertices:
        M = argmin_matroid(pi_hat, w)
        if matroid_polytope_contains(M, xs):
            out.append(w)
    return out


def bounded_complex_edges(
    pi_hat: PlueckerVector, vertices: Sequence[Sequence[Rational]]
) -> list[tuple[int, int]]:
    """Vertex pairs whose exact midpoint lies on a one-dimensional face; the
    scale clears twice every vertex denominator, so midpoints are integers."""
    verts = [[as_fraction(v) for v in w] for w in vertices]
    if any(len(w) != pi_hat.n for w in verts):
        raise ValueError(f"every vertex needs {pi_hat.n} coordinates")
    scale, table = _scaled_table(pi_hat, [2 * v.denominator for w in verts for v in w])
    scaled = [[int(v * scale) for v in w] for w in verts]
    return [
        (i, j)
        for (i, a), (j, b) in itertools.combinations(enumerate(scaled), 2)
        if _shift_face(table, [(x + y) // 2 for x, y in zip(a, b)]) == 1
    ]


def diameter_check(
    pi: PlueckerVector, time_budget_s: float | None = None
) -> BoundedComplexReport:
    """Balanced representative, vertex enumeration, and the dilate bound:
    every vertex spread must be at most the total weight.  Convexity of
    the dilated region makes the vertex check sufficient."""
    return bounded_complex_vertices(balanced_representative(pi), time_budget_s=time_budget_s)
