"""Min-plus Plücker evaluation over the ladder network.

The network has k horizontal rails and a vertical edge of weight y[l][t]
from rail l to rail l+1 at each position t in [1, n-k].  A subset J
activates the sources [k] minus (J ∩ [k]) and the sinks {j - k} for the
large elements of J; the topmost active source exits at the rightmost
sink.  The Plücker coordinate of J is the minimum of total vertical
weight over the non-intersecting path families of J.

Every vector so obtained is positive tropical (Speyer-Williams, "The
tropical totally positive Grassmannian", J. Algebraic Combin. 2005), so
each three-term relation pi_Sac + pi_Sbd = min(pi_Sab + pi_Scd, pi_Sad +
pi_Sbc), for S a (k-2)-subset and a < b < c < d outside it, fixes pi_Sbd
from the other five entries.  `_plan` builds, once per (k, n), one such
step per subset from the subset alone.  For a k-subset I let [1, i] be
its longest prefix and R = I minus [1, i]; the holes of I are the numbers
in R's span that R misses (none when R is empty; `combinat._holes`).
- The hole-free subsets are the k(n-k)+1 rectangles [1, i] ∪ [j+1,
  j+k-i], a cluster (Scott, "Grassmannians and cluster algebras", Proc.
  LMS 2006), and the seeds; the noncyclic ones start the fan walk
  (`ncfan._walk_tables`).  Read with rail k as row 1, a rectangle's
  sources and sinks are a row and a column interval, one of them starting
  at 1: an initial minor, with one path family (Fomin-Zelevinsky, "Total
  positivity: tests and parametrizations", Math. Intelligencer 2000),
  which `_rectangle_family` writes down.
- Any other I has p = min R < q = max R and a hole c between them (the
  largest), and a = i + 1 < p is not in I.  With S = I minus {p, q} and
  b = p, d = q, the step fills pi_I = pi_Sbd from Sab, Scd, Sad, Sbc and
  Sac.
- The steps run by (holes, lexicographic rank), and each input comes
  earlier.  Sab and Sad put a = i + 1 where I has p > i + 1, so they are
  lexicographically smaller, and their rest lies in R's span, so they
  have no more holes.  Sbc, Scd and Sac fill the hole c without widening
  R's span, so they have fewer holes.  `_plan` still checks each step's
  inputs and raises `InvariantError` on one not yet known.
`_evaluate` sums the seeds over grid integers with one scale, applies
the steps in order and hands the integers and their scale to the vector
as its scaled form, so no `Fraction` is built: `rho` reads a point's
integers (`TPoint.scaled`), and `pluecker_vector_of_grid` scales a
grid's rationals once.  No family is enumerated on that path:
`tropical_pluecker`, the minimum over the `PathFamily` objects of
`enumerate_path_families`, is the `Fraction` reference the plan and the
closed form are tested against.

The steps also decide positivity (`pluecker.is_positive_tropical`): a
vector that satisfies them is the plan's output from its seed values,
so the certificate is `_fill`, the one step loop, on a copy of the
vector's own row, compared with the row.
`_plan` checks that the seed incidence [family edges | subset indicator],
the linear map from (grid, lineality shift) to seed values, has full
rank k(n-k)+1, so those seed values are also those of some rho vector
shifted by a lineality element, which is positive and satisfies every
step, and so equals the vector.  The rank is taken over GF(2) on bitmask
rows: a nonzero minor mod 2 is an odd, so nonzero, integer minor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combinat import KSubset, _holes, _prefix
from .exact import InvariantError, as_fraction, record, scaled
from .ncfan import TPoint
from .pluecker import PlueckerVector, lex_rank


@record
class LadderPoint:
    """A (k-1) x (n-k) grid of vertical edge weights (no quotient)."""

    k: int
    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.k - 1 or any(len(r) != self.n - self.k for r in self.rows):
            raise ValueError(f"rows must be (k-1) x (n-k) for (k,n)=({self.k},{self.n})")

    @classmethod
    def of(cls, k: int, n: int, rows) -> "LadderPoint":
        return cls(k, n, tuple(tuple(as_fraction(v) for v in row) for row in rows))

    @classmethod
    def zero(cls, k: int, n: int) -> "LadderPoint":
        return cls.of(k, n, [[0] * (n - k) for _ in range(k - 1)])

    def __add__(self, other: "LadderPoint") -> "LadderPoint":
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("mismatched (k, n)")
        return LadderPoint.of(
            self.k,
            self.n,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def weight(self, level: int, pos: int) -> Fraction:
        """Vertical edge weight at level in [1, k-1], position in [1, n-k]."""
        return self.rows[level - 1][pos - 1]


def grid_of(t: TPoint) -> LadderPoint:
    """The canonical grid representative of a quotient point."""
    return LadderPoint(t.k, t.n, t.rows)


@record
class PathFamily:
    """Non-intersecting family: per active source, its descent positions.

    Source r descends through levels r, ..., k-1 at weakly increasing
    positions; `paths` maps each active source to that position tuple.
    """

    paths: tuple[tuple[int, tuple[int, ...]], ...]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All traversed vertical edges as (level, position) pairs."""
        return tuple((source + i, t) for source, descents in self.paths
                     for i, t in enumerate(descents))

    def degree(self) -> int:
        return sum(len(d) for _, d in self.paths)


def _path_families(J: KSubset):
    """Yield every non-intersecting family from the active sources to the
    sinks of J as its `paths` tuple, by recursive descent that only enters
    branches the lower paths can still complete."""
    k, n = J.k, J.n
    small = set(J.elems) & set(range(1, k + 1))
    sources = [r for r in range(1, k + 1) if r not in small]
    sinks = sorted(j - k for j in J.elems if j > k)
    m = len(sources)
    if len(sinks) != m:
        raise InvariantError(f"{J.elems}: {m} active sources but {len(sinks)} sinks")
    # topmost source pairs with the rightmost sink
    sink_of = {sources[i]: sinks[m - 1 - i] for i in range(m)}
    # least[idx][level - source]: the smallest descent position at `level`
    # that leaves room below for the paths idx+1, ..., m-1 at their own
    # least positions.  A lower path descends through level l strictly left
    # of the upper path's descent through level l-1, and the upper path
    # reaches rail k strictly right of the lower path's sink.
    least = [[1] * (k - r) for r in sources]
    for idx in reversed(range(m - 1)):
        lower, floor = sources[idx + 1], 1
        for pos, level in enumerate(range(sources[idx], k)):
            if lower <= level + 1 < k:
                floor = max(floor, least[idx + 1][level + 1 - lower] + 1)
            if level == k - 1:
                floor = max(floor, sink_of[lower] + 1)
            least[idx][pos] = floor

    def descend(idx: int, prev: tuple[int, ...] | None, prev_source: int | None,
                chosen: list[tuple[int, tuple[int, ...]]]):
        if idx == m:
            yield tuple(chosen)
            return
        r = sources[idx]
        sink = sink_of[r]
        levels = list(range(r, k))
        if not levels:
            # bottom-rail source: interval [0, sink] on rail k, no descents
            chosen.append((r, ()))
            yield from descend(idx + 1, None, r, chosen)
            chosen.pop()
            return

        def caps(level: int) -> int:
            # stay strictly left of the previous (upper) path on this rail
            if prev is None:
                return n - k
            return prev[level - 1 - prev_source] - 1

        def build(pos: int, t_acc: list[int]):
            level = levels[pos]
            lo = max(t_acc[-1] if t_acc else 1, least[idx][pos])
            hi = min(caps(level), sink)
            for t in range(lo, hi + 1):
                if level == k - 1:
                    chosen.append((r, tuple(t_acc + [t])))
                    yield from descend(idx + 1, tuple(t_acc + [t]), r, chosen)
                    chosen.pop()
                else:
                    t_acc.append(t)
                    yield from build(pos + 1, t_acc)
                    t_acc.pop()

        yield from build(0, [])

    yield from descend(0, None, None, [])


@lru_cache(maxsize=None)
def enumerate_path_families(J: KSubset) -> tuple[PathFamily, ...]:
    """All non-intersecting families from the active sources to the sinks
    of J, as `PathFamily` objects (the reference enumeration)."""
    return tuple(PathFamily(paths) for paths in _path_families(J))


def tropical_pluecker(J: KSubset, y: LadderPoint) -> Fraction:
    """Minimum over families of the summed vertical-edge weights (the
    `Fraction` reference of `pluecker_vector_of_grid`)."""
    if (J.k, J.n) != (y.k, y.n):
        raise ValueError("mismatched (k, n)")
    totals = [sum((y.weight(l, t) for l, t in family.edges()), Fraction(0))
              for family in enumerate_path_families(J)]
    if not totals:
        raise InvariantError(f"{J.elems} admits no path family")
    return min(totals)


def _rectangle_family(elems: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    """The flat edges of the rectangle [1, i] ∪ [j+1, j+k-i]'s one path
    family, by source and then level: each source r <= k-1 outside it
    descends through levels r, ..., k-1, all at column j - r + 1."""
    i = _prefix(elems)
    j = elems[-1] - k + i
    return tuple((level - 1) * (n - k) + j - r
                 for r in range(i + 1, k) if r not in elems for level in range(r, k))


def _gf2_rank(rows: list[int]) -> int:
    """The rank over GF(2) of bitmask rows, by elimination on leading bits."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


@lru_cache(maxsize=None)
def _plan(k: int, n: int) -> tuple[tuple, tuple]:
    """The evaluation plan of `pluecker_vector_of_grid` at (k, n).

    Seeds: (rank, flat grid indices) of each hole-free subset's one path
    family (`_rectangle_family`), a flat index being (level - 1) * (n - k)
    + (position - 1); the seed incidence must have full rank.  Steps:
    (target, ab, cd, ad, bc, other) ranks, in evaluation order, of the
    relation pi_target = min(pi_ab + pi_cd, pi_ad + pi_bc) - pi_other, one
    per subset with holes (see the module docstring for both)."""
    cells = (k - 1) * (n - k)
    ranks = lex_rank(k, n)
    rectangles = [elems for elems in ranks if not _holes(elems)]
    seeds = [(ranks[elems], _rectangle_family(elems, k, n)) for elems in rectangles]
    incidence = [sum(1 << e for e in edges) | sum(1 << (cells + x - 1) for x in elems)
                 for elems, (_, edges) in zip(rectangles, seeds)]
    if len(seeds) != k * (n - k) + 1:
        raise InvariantError(
            f"({k},{n}): {len(seeds)} hole-free subsets, not k(n-k)+1 = {k * (n - k) + 1}"
        )
    found = _gf2_rank(incidence)
    if found != len(seeds):
        raise InvariantError(
            f"({k},{n}): the seed incidence has rank {found} over GF(2), "
            f"not k(n-k)+1 = {len(seeds)}"
        )
    known = [False] * len(ranks)
    for rank, _ in seeds:
        known[rank] = True
    steps = []
    # sorted is stable, so subsets with as many holes stay in rank order
    for elems in sorted(filter(_holes, ranks), key=_holes):
        i = _prefix(elems)
        b, d = elems[i], elems[-1]
        c = d - 1
        while c in elems:
            c -= 1
        S = elems[:i] + elems[i + 1:-1]
        step = tuple(ranks[tuple(sorted(S + pair))] for pair in (
            (b, d), (i + 1, b), (c, d), (i + 1, d), (b, c), (i + 1, c)))
        if not all(known[rank] for rank in step[1:]):
            raise InvariantError(
                f"({k},{n}): the three-term step for {elems} reads a subset not yet known"
            )
        known[step[0]] = True
        steps.append(step)
    return tuple(seeds), tuple(steps)


def _fill(k: int, n: int, vals: list):
    """Apply the steps of `_plan(k, n)` to the rank-order row vals in
    place: each fills its target by its three-term relation."""
    for target, ab, cd, ad, bc, other in _plan(k, n)[1]:
        x = vals[ab] + vals[cd]
        z = vals[ad] + vals[bc]
        vals[target] = (x if x < z else z) - vals[other]


def _evaluate(k: int, n: int, ws, scale: int) -> PlueckerVector:
    """The vector of the grid with flat entries ws / scale, by `_plan` in
    integers: each seed is the sum of its one family's weights, and
    `_fill` gives the rest."""
    at = ws.__getitem__
    vals = [0] * len(lex_rank(k, n))
    for rank, edges in _plan(k, n)[0]:
        vals[rank] = sum(map(at, edges))
    _fill(k, n, vals)
    return PlueckerVector._of_scaled(k, n, vals, scale)


def pluecker_vector_of_grid(y: LadderPoint) -> PlueckerVector:
    """All tropical Plücker coordinates of a grid point (`_evaluate` of
    the grid scaled to integers)."""
    return _evaluate(y.k, y.n, *scaled(v for row in y.rows for v in row))


def rho(t: TPoint) -> PlueckerVector:
    """Positive parametrization at the canonical grid representative,
    read off t's integers (`TPoint.scaled`)."""
    return _evaluate(t.k, t.n, *t.scaled())
