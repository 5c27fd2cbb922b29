"""Tropical linear spaces and their bounded complexes.

A tropical Plücker vector, read as a height function on hypersimplex
vertices, induces a matroid at every shift point w; looplessness puts w
on the tropical linear space and coloop-freeness on its bounded part.
Central roof functions turn the planar-basis expansion into a concrete
piecewise-linear convex function (summed into one vector, value by value
in rank order) whose cell gradients enumerate the complex's vertices;
the balanced representative pins the translation so the whole complex
sits inside the weight-fold dilate of the fundamental alcoved region.

`_shift_face` is the one classifier of shift points, in scaled integers
over `_scaled_table`, which scales a vector's rank-ordered values once
and pairs each with its subset; vertex filtering,
`bounded_complex_edges`, `face_dimension_at` and `in_bounded_part` all
use it.  `argmin_matroid`, `loops`, `coloops`, `components_partition`
and `in_linear_space` are the `Fraction` reference the tests check it
against.

Every function here reads its vector alone: the roof coefficients are
the planar cross-ratios u_J(pi), so each function takes its support from
`planar.planar_expand` of the vector it is given; no caller passes an
expansion in.  `diameter_check` is the one diameter path: balance the
vector (`balanced_representative`, the only place that balances), then
enumerate the vertices of the balanced representative.  Every invariant
the enumeration relies on is checked by an explicit raise of
`InvariantError`, so the checks survive `python -O`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
from .pluecker import PlueckerVector, lex_rank, lineality_shift, linear_combination


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
    roof = central_roof(J)
    best = min(sum(c * v for c, v in zip(W, xs)) for W in roof.W)
    return -Fraction(best, 1) / J.k


@lru_cache(maxsize=None)
def central_pluecker_vector(J: KSubset) -> PlueckerVector:
    """The central vector with entries equal to roof values at e_I."""
    roof = central_roof(J)
    k = J.k

    def entry(I: tuple[int, ...]) -> Fraction:
        best = min(sum(W[i - 1] for i in I) for W in roof.W)
        return -Fraction(best, k)

    return PlueckerVector.from_function(k, J.n, entry)


def _central(pi: PlueckerVector) -> tuple[list[tuple[KSubset, Fraction]], PlueckerVector]:
    """The nonzero planar coefficients of pi, in subset order, and the
    central representative they combine to."""
    support = [(J, c) for J, c in planar.planar_expand(pi).items() if c]
    return support, linear_combination(
        pi.k, pi.n, ((c, central_pluecker_vector(J)) for J, c in support)
    )


def central_representative(pi: PlueckerVector) -> PlueckerVector:
    """Planar-coefficient combination of central roofs; equivalent to pi
    modulo lineality, and piecewise-linear as a function on the
    hypersimplex (no affine offset)."""
    return _central(pi)[1]


def _lineality_solve(diff: PlueckerVector) -> list[Fraction]:
    """Recover y with diff_I = sum(y_i, i in I).  Every caller passes a
    central representative minus its own vector, so a diff outside the
    lineality space is an InvariantError."""
    k, n = diff.k, diff.n
    offsets = [Fraction(0)] * n
    for i in range(2, n + 1):
        S = [x for x in range(1, n + 1) if x not in (1, i)][: k - 1]
        key_i = tuple(sorted(S + [i]))
        key_1 = tuple(sorted(S + [1]))
        offsets[i - 1] = diff[key_i] - diff[key_1]
    base = tuple(range(1, k + 1))
    t = (diff[base] - sum(offsets[i - 1] for i in base)) / k
    y = [o + t for o in offsets]
    if any(sum(y[i - 1] for i in I) != v for I, v in diff.items()):
        raise InvariantError("the planar coefficients do not expand the vector modulo lineality")
    return y


def balanced_representative(pi: PlueckerVector) -> PlueckerVector:
    """Lineality shift of the central representative making all n
    cyclic-gap differences equal to (total weight)/n."""
    support, central = _central(pi)
    wt = sum((c for _, c in support), Fraction(0))
    k, n = pi.k, pi.n
    delta = [Fraction(0)] * (n + 1)
    for j in range(n):
        m = mod1(j + k, n)
        delta[m] = (
            central[cyc_interval(j, k, n)]
            - central[gap_interval(j, k, n)]
            - Fraction(wt, n)
        )
    if sum(delta) != 0:
        raise InvariantError("cyclic-gap differences do not sum to zero")
    y = [Fraction(0)] * n
    for m in range(1, n):
        y[m] = y[m - 1] - delta[m]
    return lineality_shift(central, y)


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

    Candidate gradients run over all choices of one roof sector per
    nonzero coefficient; a candidate is a vertex exactly when its shift
    matroid is connected.  The whole scan runs in scaled integer
    arithmetic; pi_hat may be any lineality representative (the recovered
    shift realigns the candidates).
    """
    deadline = time.monotonic() + time_budget_s if time_budget_s is not None else None
    k, n = pi_hat.k, pi_hat.n
    support, central = _central(pi_hat)
    wt = sum((c for _, c in support), Fraction(0))
    if not support:
        return BoundedComplexReport((), wt, Fraction(0), True)

    y = _lineality_solve(central - pi_hat)

    scale, table = _scaled_table(
        pi_hat, [k * c.denominator for _, c in support] + [v.denominator for v in y]
    )
    base = [int(-v * scale) for v in y]
    contribs = []
    for J, c in support:
        factor = Fraction(-c * scale, k)
        if factor.denominator != 1:
            raise InvariantError(f"scale {scale} leaves roof factor {factor} fractional")
        contribs.append([tuple(int(factor) * x for x in W) for W in central_roof(J).W])

    candidates: dict[tuple[int, ...], tuple[int, ...]] = {}
    _sector_sums(contribs, 0, base, candidates, deadline)

    vertices = []
    for w_scaled in candidates.values():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded("matroid filtering over budget")
        if _shift_face(table, w_scaled) == 0:
            vertices.append(tuple(Fraction(v - w_scaled[0], scale) for v in w_scaled))

    vertices.sort()
    spread = max((max(wv) - min(wv) for wv in vertices), default=Fraction(0))
    return BoundedComplexReport(tuple(vertices), wt, spread, spread <= wt)


def _sector_sums(contribs, level: int, acc: list[int], candidates: dict, deadline):
    """Add acc plus one sector vector per remaining level to `candidates`,
    keyed modulo all-ones.  A module-level function, not a closure: a
    recursive closure is a reference cycle that keeps `candidates` alive
    until the next full garbage collection."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded("assignment enumeration over budget")
    if level == len(contribs):
        candidates.setdefault(tuple(v - acc[0] for v in acc), tuple(acc))
        return
    for W in contribs[level]:
        _sector_sums(contribs, level + 1, [a + wv for a, wv in zip(acc, W)], candidates, deadline)


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
