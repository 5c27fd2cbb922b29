"""Brute-force references that production code replaced with closed forms.

Each function here is the scan a faster path in `src/tropnc` is tested
against; none of them runs in the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add

from tropnc import ladder, ncfan, planar, troplin
from tropnc.combinat import (
    DecoratedOSP,
    KSubset,
    _prefix_chain,
    compatibility_rows,
    mod1,
    noncyclic_subsets,
    tableau,
)
from tropnc.exact import InvariantError, as_fraction, record, scaled
from tropnc.ncfan import TPoint
from tropnc.pluecker import lex_rank
from tropnc.troplin import central_roof


def positroid_bases(partition: DecoratedOSP) -> frozenset[tuple[int, ...]]:
    """Bases of the positroid cut out by the chain conditions
    |B ∩ (S_1 ∪ ... ∪ S_a)| >= r_1 + ... + r_a for a < l (the oracle of
    `planar.corank_vector`)."""
    chain = _prefix_chain(partition)
    k = sum(partition.decorations)
    return frozenset(
        cand for cand in itertools.combinations(range(1, partition.n + 1), k)
        if all(len(prefix.intersection(cand)) >= need for prefix, need in chain)
    )


def dosp_by_runs(J: KSubset) -> DecoratedOSP:
    """Decorated ordered set partition of J by walking each run of J
    forward and the gap before it backward, the blocks then sorted from
    the one holding 1 (the oracle of `combinat.dosp`)."""
    n = J.n
    members = set(J.elems)
    starts = [j for j in J.elems if mod1(j - 1, n) not in members]
    raw_blocks = []
    for start in starts:
        run = [start]
        while mod1(run[-1] + 1, n) in members:
            run.append(mod1(run[-1] + 1, n))
        gap = []
        g = mod1(start - 1, n)
        while g not in members:
            gap.append(g)
            g = mod1(g - 1, n)
        gap.reverse()
        raw_blocks.append((tuple(gap + run), len(run)))
    # anchor: the block containing 1 comes first, then cyclic order
    anchor = next(i for i, (block, _) in enumerate(raw_blocks) if 1 in block)
    first = raw_blocks[anchor][0][0]
    order = sorted(range(len(raw_blocks)),
                   key=lambda i: mod1(raw_blocks[i][0][0] - first + 1, n))
    blocks = tuple(raw_blocks[i][0] for i in order)
    decorations = tuple(raw_blocks[i][1] for i in order)
    return DecoratedOSP(n, blocks, decorations)


def one_family_subsets(k: int, n: int) -> list[tuple[int, ...]]:
    """Every k-subset of [n] with exactly one path family, found by
    enumerating up to two families of each (the oracle of the hole-free
    seeds of `ladder._plan`)."""
    return [
        elems for elems in lex_rank(k, n)
        if len(list(itertools.islice(ladder._path_families(KSubset(n, elems)), 2))) == 1
    ]


def three_term_reference(pi):
    """The three-term scan written out over Fraction entries: the first
    violation in scan order as (S, (a, b, c, d), lhs, rhs), else None (the
    oracle of `pluecker.is_positive_tropical`)."""
    ground = range(1, pi.n + 1)
    for S in itertools.combinations(ground, pi.k - 2):
        rest = [x for x in ground if x not in S]
        for a, b, c, d in itertools.combinations(rest, 4):
            def at(*pair):
                return pi[S + pair]

            lhs = at(a, c) + at(b, d)
            rhs = min(at(a, b) + at(c, d), at(a, d) + at(b, c))
            if lhs != rhs:
                return S, (a, b, c, d), lhs, rhs
    return None


def det(matrix) -> Fraction:
    """Determinant of a square matrix by Fraction-exact Gaussian elimination
    (the tests' check of cone unimodularity; production never forms one)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    result = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return result


def inverse(matrix) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, by Gauss-Jordan elimination with
    partial pivoting on [matrix | identity]; None when singular."""
    size = len(matrix)
    aug = [
        [as_fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / lead
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [[a / row[i] for a in row[size:]] for i, row in enumerate(aug)]


def _cone_matrix(coll) -> list[list[int]]:
    """The matrix whose columns are the lattice coordinates of the rays,
    read as `ncfan._lattice` of `ncfan._ray`."""
    return [list(row) for row in zip(*(ncfan._lattice(ncfan._ray(J)) for J in coll))]


def _integer_inverse(matrix) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, as ints, by `inverse`."""
    inv = inverse(matrix)
    if inv is None or any(v.denominator != 1 for row in inv for v in row):
        raise InvariantError(f"cone matrix has no integer inverse: {matrix}")
    return [[int(v) for v in row] for row in inv]


def greedy_start(k: int, n: int) -> tuple[int, ...]:
    """A maximal noncrossing collection by greedy search in node order: a
    node joins when the rows of the nodes already chosen all have its bit
    (the oracle of the closed-form start cone of `ncfan._walk_tables`)."""
    rows = compatibility_rows(k, n)
    start, allowed = [], (1 << len(rows)) - 1
    for i in range(len(rows)):
        if allowed >> i & 1:
            start.append(i)
            allowed &= rows[i]
    return tuple(start)


class DecompositionError(InvariantError):
    """Raised when the cone scan fails; signals a fan completeness or
    uniqueness violation, i.e. a bug, not a data condition."""


@lru_cache(maxsize=None)
def _inverses(k: int, n: int) -> tuple[list[list[int]], ...]:
    """The integer inverse ray matrix of every maximal cone of `ncfan.audit_fan`,
    each inverted on its own."""
    return tuple(_integer_inverse(_cone_matrix(coll)) for coll in ncfan.audit_fan(k, n))


def scan(t):
    """Decompose t by solving the system on every maximal cone, independently
    of the flip step (the oracle of `ncfan.nc_decompose`).

    Raises DecompositionError if no cone accepts or two cones accept with
    different positive supports (completeness/uniqueness).
    """
    target, scale = scaled(ncfan.lattice_coords(t))
    found = set()
    for coll, inv in zip(ncfan.audit_fan(t.k, t.n), _inverses(t.k, t.n)):
        mu = [sum(a * b for a, b in zip(row, target)) for row in inv]
        if all(m >= 0 for m in mu):
            found.add(tuple((J, Fraction(m, scale)) for J, m in zip(coll, mu) if m > 0))
    if not found:
        raise DecompositionError(f"no cone contains the point {t!r}")
    if len(found) > 1:
        raise DecompositionError(f"multiple distinct decompositions for {t!r}")
    return tableau(t.k, t.n, found.pop())


def _canonical_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Each row of rationals less its minimum, as `Fraction`s (the oracle
    of `ncfan.TPoint`'s canonical form, read with `exact.scaled`)."""
    out = []
    for row in rows:
        vals = tuple(as_fraction(v) for v in row)
        m = min(vals, default=0)
        out.append(tuple(v - m for v in vals))
    return tuple(out)


def walk_decompose(k: int, n: int, rows):
    """The flip walk to the lattice coordinates of `_canonical_rows(rows)`
    over their common denominator (the oracle of `ncfan.nc_decompose`,
    which reads a point's integers instead)."""
    target, scale = scaled(ncfan._lattice(_canonical_rows(rows)))
    coll, mu = ncfan._walk(k, n, target)
    nodes = ncfan._walk_tables(k, n).nodes
    return tableau(k, n, [(nodes[j], Fraction(m, scale)) for j, m in zip(coll, mu) if m > 0])


@record
class TTildePoint:
    """k rows of length (n-k), no quotient."""

    k: int
    n: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.k or any(len(r) != self.n - self.k for r in self.rows):
            raise ValueError(f"rows must be k x (n-k) for (k,n)=({self.k},{self.n})")


def t_tilde_vector(J: KSubset) -> TTildePoint:
    """Unquotiented ray vector: row i carries ones on [1, j_i - i]."""
    k, n = J.k, J.n
    width = n - k
    rows = []
    for i in range(1, k + 1):
        hi = J.elems[i - 1] - i
        rows.append(tuple(Fraction(int(1 <= s <= hi)) for s in range(1, width + 1)))
    return TTildePoint(k, n, tuple(rows))


def phi(point: TTildePoint) -> TPoint:
    """Projection with row images -e_1, e_{i-1} - e_i, and e_{k-1} (with
    `t_tilde_vector`, the second route to the fan rays of `ncfan.t_vector`)."""
    k, n = point.k, point.n
    width = n - k
    rows = [[Fraction(0)] * width for _ in range(k - 1)]
    for i in range(1, k + 1):
        for j in range(width):
            v = point.rows[i - 1][j]
            if v == 0:
                continue
            if i == 1:
                rows[0][j] -= v
            elif i == k:
                rows[k - 2][j] += v
            else:
                rows[i - 1][j] -= v
                rows[i - 2][j] += v
    return TPoint.of(k, n, rows)


def central_roof_value(J: KSubset, x) -> Fraction:
    """Evaluate the roof -(1/k) min_a W_a . x at a point of R^n (the
    reference of `troplin._roof_row`)."""
    xs = [as_fraction(v) for v in x]
    if len(xs) != J.n:
        raise ValueError(f"need {J.n} coordinates, got {len(xs)}")
    best = min(sum(c * v for c, v in zip(W, xs)) for W in central_roof(J).W)
    return -Fraction(best, 1) / J.k


@lru_cache(maxsize=None)
def _ray_supports(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per noncyclic J in `noncyclic_subsets` order, the flat indices
    (row - 1) * (n - k) + (column - 1) where the 0/1 ray of J is 1."""
    width = n - k
    return tuple(
        tuple(r * width + c for r, row in enumerate(ncfan._ray(J)) for c, v in enumerate(row) if v)
        for J in noncyclic_subsets(k, n)
    )


def _psi_rows(k: int, n: int, us: list[int]) -> list[list[int]]:
    """scale * psi, its rows not yet in canonical form, from the scaled
    expansion (`planar._expand`): each scaled u_J is added over the support
    of J's ray in one flat integer list."""
    width = n - k
    acc = [0] * ((k - 1) * width)
    for u, support in zip(us, _ray_supports(k, n)):
        if u:
            for i in support:
                acc[i] += u
    return [acc[r:r + width] for r in range(0, len(acc), width)]


def _psi_scaled(pi) -> TPoint:
    """psi by its definition, sum of u_J(pi) times the ray of J: the whole
    planar expansion added over the ray supports, each row put in canonical
    form (the oracle of `ncfan.psi`)."""
    vals, scale = pi.scaled()
    rows = []
    for row in _psi_rows(pi.k, pi.n, planar._expand(pi.k, pi.n, vals)):
        low = min(row)
        rows.append(tuple(Fraction(v - low, scale) for v in row))
    return TPoint(pi.k, pi.n, tuple(rows))


def composed_psi_table(k: int, n: int) -> list[dict[int, int]]:
    """Per grid cell, in `ncfan._psi_table` order, the nonzero coefficient
    of each rank in the composed map: the expansion table
    (`planar._expansion_table`) added over the ray supports (the oracle of
    `ncfan._psi_table`)."""
    ranks = range(len(lex_rank(k, n)))
    cells = [{} for _ in range((k - 1) * (n - k))]
    for (plus, minus), support in zip(planar._expansion_table(k, n), _ray_supports(k, n)):
        for cell in (cells[i] for i in support):
            for getter, sign in ((plus, 1), (minus, -1)):
                for rank in getter(ranks):
                    cell[rank] = cell.get(rank, 0) + sign
    return [{rank: c for rank, c in sorted(cell.items()) if c} for cell in cells]


def psi_table_coefficients(k: int, n: int) -> list[dict[int, int]]:
    """`ncfan._psi_table` read back as `composed_psi_table` reads the
    composed map: per cell, the coefficient of each rank it reads."""
    ranks = range(len(lex_rank(k, n)))
    cells = []
    for plus, minus in ncfan._psi_table(k, n):
        cell = dict.fromkeys(plus(ranks), 1)
        cell.update(dict.fromkeys(minus(ranks), -1))
        cells.append(dict(sorted(cell.items())))
    return cells


def cubical_expansion_table(k: int, n: int) -> list[tuple[list[int], list[int]]]:
    """Per noncyclic J in `noncyclic_subsets` order, the sorted ranks of
    the +1 terms and of the -1 terms of `planar.cubical_array(J)` (the
    oracle of `planar._expansion_table`, built on bitmasks)."""
    rank = lex_rank(k, n)
    return [
        tuple(sorted(rank[M] for M, s in planar.cubical_array(J).exponents.items() if s == sign)
              for sign in (1, -1))
        for J in noncyclic_subsets(k, n)
    ]


def uniform_matroid(k: int, n: int) -> troplin.Matroid:
    return troplin.Matroid(k, n, frozenset(itertools.combinations(range(1, n + 1), k)))


def basis_exchange_ok(M: troplin.Matroid) -> bool:
    """Exchange axiom sanity check on the explicit basis list."""
    for B1, B2 in itertools.permutations(M.bases, 2):
        for i in set(B1) - set(B2):
            if not any(
                tuple(sorted(set(B1) - {i} | {j})) in M.bases
                for j in set(B2) - set(B1)
            ):
                return False
    return True


def fundamental_graph_components(k: int, n: int, bases) -> int:
    """Components of the graph on [n] that joins x outside the least basis
    B to y in B when B - y + x is in `bases`, by union-find on the tuples:
    the count `troplin._components` makes, for any basis list.  On a
    matroid it is `len(components_partition(M))`."""
    bases = set(bases)
    B = min(bases)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in set(range(1, n + 1)) - set(B):
        for y in B:
            if tuple(sorted(set(B) - {y} | {x})) in bases:
                parent[find(x)] = find(y)
    return len({find(x) for x in range(1, n + 1)})


def pair_rule_edges(pi, vertices) -> list[tuple[int, int]]:
    """The integer pair rule with no filter: every pair's midpoint argmin
    set, the meet of the two argmin sets or else the argmin of the summed
    rows, classified by `troplin._face` (the reference of `troplin._edges`
    on the CLI's path, which reads the walk's rows)."""
    row, points = troplin._scaled_row(pi, [[as_fraction(v) for v in w] for w in vertices])
    rows = [troplin._values(row, w, pi.k) for w in points]
    tops = list(map(troplin._argmin, rows))
    return [
        (i, j) for i, j in itertools.combinations(range(len(points)), 2)
        if troplin._face(tops[i] & tops[j] or troplin._argmin(list(map(add, rows[i], rows[j]))),
                         pi.k, pi.n) == 1
    ]


@lru_cache(maxsize=None)
def hypersimplex_alcoves(k: int, n: int) -> tuple[int, ...]:
    """The alcoves of the hypersimplex Delta(k, n), each as the rank set of
    its n vertices: the cycles of k-subsets I -> I - {i} + {i + 1} (mod n)
    that move each i once (Lam-Postnikov, "Alcoved polytopes I"), each
    listed once, starting with its move of n.  There are A(n-1, k-1) of them (the
    completeness reference of `troplin._walk`)."""
    rank = lex_rank(k, n)
    out = []

    def cycle(I, moved, ranks):
        if len(moved) == n:
            out.append(ranks)
        for i in set(I) - moved:
            if mod1(i + 1, n) not in I:
                J = tuple(sorted(set(I) - {i} | {mod1(i + 1, n)}))
                cycle(J, moved | {i}, ranks | 1 << rank[J])

    for I in itertools.combinations(range(1, n + 1), k):
        if n in I and 1 not in I:
            J = tuple(sorted(set(I) - {n} | {1}))
            cycle(J, {n}, 1 << rank[J])
    return tuple(out)
