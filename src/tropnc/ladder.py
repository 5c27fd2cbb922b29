"""Min-plus Plücker evaluation over the ladder network.

The network has k horizontal rails and a vertical edge of weight y[l][t]
from rail l to rail l+1 at each position t in [1, n-k].  A subset J
activates the sources [k] minus (J ∩ [k]) and the sinks {j - k} for the
large elements of J; the topmost active source exits at the rightmost
sink.  Plücker coordinates are minima of total vertical weight over
non-intersecting path families, enumerated explicitly (tropical
cancellation rules out a determinant shortcut).

The families depend only on (k, n), so `_family_table` enumerates them
once per (k, n), subset by subset in `lex_rank` order, as tuples of flat
grid indices; `pluecker_vector_of_grid` scales the grid to integers over
one common denominator and builds the vector's rank-ordered values
directly, each the minimum of integer sums over that subset's row of the
table.  `tropical_pluecker` over the `PathFamily` objects of
`enumerate_path_families` is the `Fraction` reference it is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinat import KSubset
from .exact import InvariantError, as_fraction, scaled
from .ncfan import TPoint
from .pluecker import PlueckerVector, lex_rank


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PathFamily:
    """Non-intersecting family: per active source, its descent positions.

    Source r descends through levels r, ..., k-1 at weakly increasing
    positions; `paths` maps each active source to that position tuple.
    """

    paths: tuple[tuple[int, tuple[int, ...]], ...]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All traversed vertical edges as (level, position) pairs."""
        out = []
        for source, descents in self.paths:
            out.extend((source + i, t) for i, t in enumerate(descents))
        return tuple(out)

    def degree(self) -> int:
        return sum(len(d) for _, d in self.paths)


def _path_families(J: KSubset):
    """Yield every non-intersecting family from the active sources to the
    sinks of J as its `paths` tuple, by recursive descent with interlacing
    pruning."""
    k, n = J.k, J.n
    small = set(J.elems) & set(range(1, k + 1))
    sources = [r for r in range(1, k + 1) if r not in small]
    sinks = sorted(j - k for j in J.elems if j > k)
    m = len(sources)
    if len(sinks) != m:
        raise InvariantError(f"{J.elems}: {m} active sources but {len(sinks)} sinks")
    # topmost source pairs with the rightmost sink
    sink_of = {sources[i]: sinks[m - 1 - i] for i in range(m)}

    def descend(idx: int, prev: tuple[int, ...] | None, prev_source: int | None,
                chosen: list[tuple[int, tuple[int, ...]]]):
        if idx == m:
            yield tuple(chosen)
            return
        r = sources[idx]
        sink = sink_of[r]
        next_sink = sink_of[sources[idx + 1]] if idx + 1 < m else None
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
            lo = t_acc[-1] if t_acc else 1
            hi = min(caps(level), sink if level == k - 1 else n - k)
            for t in range(lo, hi + 1):
                if level == k - 1:
                    if next_sink is not None and t <= next_sink:
                        continue
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
    best = None
    for family in enumerate_path_families(J):
        total = sum((y.weight(l, t) for l, t in family.edges()), Fraction(0))
        if best is None or total < best:
            best = total
    if best is None:
        raise InvariantError(f"{J.elems} admits no path family")
    return best


@lru_cache(maxsize=None)
def _family_table(k: int, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per k-subset of [n] in `lex_rank` order, its path families, each
    as the flat grid indices (level - 1) * (n - k) + (position - 1) of its
    vertical edges."""
    width = n - k
    table = []
    for elems in lex_rank(k, n):
        families = tuple(
            tuple((source + i - 1) * width + t - 1
                  for source, descents in paths for i, t in enumerate(descents))
            for paths in _path_families(KSubset(n, elems))
        )
        if not families:
            raise InvariantError(f"{elems} admits no path family")
        table.append(families)
    return tuple(table)


def pluecker_vector_of_grid(y: LadderPoint) -> PlueckerVector:
    """All tropical Plücker coordinates of a grid point: each is the
    minimum over its families of the family's summed weights, evaluated
    over `_family_table` with the grid scaled to integers."""
    k, n = y.k, y.n
    ws, scale = scaled(v for row in y.rows for v in row)
    at = ws.__getitem__
    return PlueckerVector(k, n, [
        Fraction(min(sum(map(at, family)) for family in families), scale)
        for families in _family_table(k, n)
    ])


def rho(t: TPoint) -> PlueckerVector:
    """Positive parametrization at the canonical grid representative."""
    return pluecker_vector_of_grid(grid_of(t))
