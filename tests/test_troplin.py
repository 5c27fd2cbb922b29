"""Tropical linear spaces: matroids, roofs, vertices, and the dilate bound."""

import collections
import gc
import itertools
import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, or_
from types import SimpleNamespace

import pytest

from conftest import (
    canon,
    ci_grid_612,
    random_rational_tpoint,
    random_tableau_point,
    random_tpoint,
    random_vector,
    rng_for,
    run_optimized,
    vector_312,
)
from oracles import (
    basis_exchange_ok,
    central_roof_value,
    fundamental_graph_components,
    hypersimplex_alcoves,
    pair_rule_edges,
    positroid_bases,
    uniform_matroid,
)
from tropnc import combinat, exact, ladder, planar, pluecker, troplin
from tropnc.combinat import (
    cyc_interval,
    dosp,
    gap_interval,
    is_noncrossing_partition,
    ksubset,
    maximal_noncrossing_collections,
)
from tropnc.exact import InvariantError
from tropnc.ladder import rho
from tropnc.ncfan import TPoint, nc_decompose, t_vector
from tropnc.pluecker import PlueckerVector, lineality_shift, lineality_vector
from tropnc.troplin import (
    Matroid,
    TimeBudgetExceeded,
    argmin_matroid,
    balanced_representative,
    bounded_complex_edges,
    bounded_complex_vertices,
    central_pluecker_vector,
    central_representative,
    central_roof,
    coloops,
    components_partition,
    diameter_check,
    face_dimension_at,
    grassmann_necklace,
    in_bounded_part,
    in_linear_space,
    loops,
    matroid_polytope_contains,
    subdifferential_at,
)

J_2BLOCK = ksubset(6, [2, 3, 6])  # blocks (123|456), decorations (2,1)
J_3SPLIT = ksubset(6, [2, 4, 6])  # blocks (12|34|56), decorations (1,1,1)

V_2BLOCK = {
    canon([-1, -1, -1, Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3)]),
    canon([Fraction(-2, 3)] * 3 + [-1] * 3),
}
V_3SPLIT = {
    canon([Fraction(-1, 3), Fraction(-1, 3), Fraction(-2, 3), Fraction(-2, 3), -1, -1]),
    canon([-1, -1, Fraction(-1, 3), Fraction(-1, 3), Fraction(-2, 3), Fraction(-2, 3)]),
    canon([Fraction(-2, 3), Fraction(-2, 3), -1, -1, Fraction(-1, 3), Fraction(-1, 3)]),
}


def test_argmin_matroid_basics():
    pi = PlueckerVector.zero(3, 6)
    M = argmin_matroid(pi, [0] * 6)
    assert M == uniform_matroid(3, 6)
    rng = rng_for("argmin-generic")
    for _ in range(5):
        w = [Fraction(rng.randint(1, 1000), rng.randint(1, 7)) for _ in range(6)]
        M = argmin_matroid(pi, w)
        if len({sum(w[i - 1] for i in B) for B in itertools.combinations(range(1, 7), 3)}) == 20:
            assert len(M.bases) == 1


def test_loops_coloops():
    M = uniform_matroid(2, 4)
    assert loops(M) == () and coloops(M) == ()
    M = Matroid(2, 4, frozenset({(1, 2)}))
    assert loops(M) == (3, 4) and coloops(M) == (1, 2)


def test_components_partition():
    M = Matroid(2, 4, frozenset({(1, 2)}))
    assert components_partition(M) == ((1,), (2,), (3,), (4,))
    assert len(components_partition(uniform_matroid(3, 6))) == 1


def test_positroid_of_dosp_is_loopless_coloopless():
    bases = positroid_bases(dosp(ksubset(9, [2, 5, 8])))
    M = Matroid(3, 9, bases)
    assert loops(M) == () and coloops(M) == ()


def test_grassmann_necklace_uniform():
    M = uniform_matroid(3, 6)
    neck = grassmann_necklace(M)
    assert neck[0] == (1, 2, 3)
    assert neck[3] == (4, 5, 6)
    assert neck[4] == (1, 5, 6)


def test_grassmann_necklace_loopless_coloopless_entries():
    M = Matroid(3, 6, positroid_bases(dosp(ksubset(6, [2, 5, 6]))))
    neck = grassmann_necklace(M)
    assert all(entry in M.bases for entry in neck)
    # loopless + coloopless: the shifted minimum at k+1 picks up k+1, drops k
    k = 3
    if not loops(M) and not coloops(M):
        assert (k + 1) in neck[k] and k not in neck[k]


def test_grassmann_necklace_rejects_loops():
    M = Matroid(2, 4, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        grassmann_necklace(M)


def test_linear_space_membership_agreement():
    # the (k+1)-subset min-twice test against the matroid characterization
    rng = rng_for("membership")
    for _ in range(200):
        t = random_tpoint(rng, 3, 6, hi=2)
        pi = rho(t)
        w = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(6)]
        M = argmin_matroid(pi, w)
        assert in_linear_space(pi, w) == (not loops(M))
        assert in_bounded_part(pi, w) == (not loops(M) and not coloops(M))


def test_far_point_is_unbounded():
    pi = central_pluecker_vector(J_2BLOCK)
    w = [Fraction(10**6 * i) for i in range(6)]
    assert not in_bounded_part(pi, w)


def test_central_roof_two_blocks():
    roof = central_roof(J_2BLOCK)
    assert roof.W == ((3, 3, 3, 1, 1, 1), (2, 2, 2, 3, 3, 3))
    # crease of the (r1, r2) roof sits where the first block sums to r1
    x = [Fraction(2, 3)] * 3 + [Fraction(1, 3)] * 3  # block sums (2, 1)
    dots = [sum(Fraction(c) * v for c, v in zip(W, x)) for W in roof.W]
    assert dots[0] == dots[1]
    assert central_roof_value(J_2BLOCK, x) == -Fraction(dots[0], 3)
    with pytest.raises(ValueError):
        central_roof(ksubset(6, [1, 2, 3]))


def test_central_equals_planar_basis_3_6():
    for J in combinat.noncyclic_subsets(3, 6):
        assert pluecker.equivalent_mod_lineality(
            central_pluecker_vector(J), planar.planar_basis_vector(J)
        )


def test_central_representative_of_basis_vector():
    pi = planar.planar_basis_vector(J_3SPLIT)
    assert central_representative(pi) == central_pluecker_vector(J_3SPLIT)


def test_central_representative_equivalence():
    rng = rng_for("central-equivalence")
    for _ in range(5):
        pi = rho(random_tpoint(rng, 3, 6))
        assert pluecker.equivalent_mod_lineality(central_representative(pi), pi)


def test_balanced_representative_differences():
    rng = rng_for("balanced")
    for k, n in [(3, 6), (3, 7)]:
        for _ in range(4):
            t = random_tpoint(rng, k, n)
            pi = rho(t)
            bal = balanced_representative(pi)
            from tropnc.weight import pk_weight

            wt = pk_weight(pi)
            assert pk_weight(bal) == wt
            diffs = {
                bal[cyc_interval(j, k, n)] - bal[gap_interval(j, k, n)]
                for j in range(n)
            }
            assert diffs == {Fraction(wt, n)}


def test_balanced_diagonal_differences_2_n():
    for n in (5, 6):
        for J in combinat.noncyclic_subsets(2, n):
            bal = balanced_representative(planar.planar_basis_vector(J))
            diffs = {
                bal[cyc_interval(j, 2, n)] - bal[gap_interval(j, 2, n)]
                for j in range(n)
            }
            assert diffs == {Fraction(1, n)}


def test_bounded_complex_2block_reference_values():
    rep = bounded_complex_vertices(central_pluecker_vector(J_2BLOCK))
    assert set(rep.vertices) == V_2BLOCK
    assert rep.pk_weight == 1


def test_bounded_complex_3split_reference_values():
    rep = bounded_complex_vertices(central_pluecker_vector(J_3SPLIT))
    assert set(rep.vertices) == V_3SPLIT


def test_bounded_complex_empty_support():
    # no planar coefficients: the bounded complex is the one lineality point
    rep = bounded_complex_vertices(PlueckerVector.zero(3, 6))
    assert rep.vertices == ((0,) * 6,)
    assert rep.pk_weight == rep.max_coordinate_spread == 0 and rep.within_dilate
    x = [3, Fraction(-1, 2), 5, 0, 7, 2]
    pi = lineality_vector(3, 6, x)
    rep = bounded_complex_vertices(pi)
    assert rep.vertices == (canon(x),) and face_dimension_at(pi, x) == 0
    assert rep.pk_weight == 0 and rep.max_coordinate_spread == Fraction(15, 2)
    assert not rep.within_dilate
    assert diameter_check(pi).vertices == ((0,) * 6,)


def test_coefficients_that_do_not_expand_the_vector_raise(monkeypatch):
    # A broken expansion: every planar coefficient doubled.
    pi = central_pluecker_vector(J_2BLOCK)
    expand = planar._expand
    monkeypatch.setattr(
        planar, "_expand", lambda k, n, vals: [2 * u for u in expand(k, n, vals)]
    )
    for call in (bounded_complex_vertices, diameter_check, balanced_representative,
                 central_representative):
        with pytest.raises(InvariantError, match="do not expand"):
            call(pi)
    # The same weight on another roof: the gap differences still sum
    # right, so the entrywise check is the one that trips.
    _, scale = exact.scaled(pi.values)
    monkeypatch.setattr(planar, "_expand", lambda k, n, vals: [
        scale if J == J_3SPLIT else 0 for J in combinat.noncyclic_subsets(k, n)
    ])
    for call in (bounded_complex_vertices, diameter_check, balanced_representative,
                 central_representative):
        with pytest.raises(InvariantError, match="do not expand"):
            call(pi)
    # the check is an explicit raise, so it survives -O
    result = run_optimized(
        "from tropnc import planar",
        "from tropnc.combinat import ksubset",
        "from tropnc.troplin import bounded_complex_vertices, central_pluecker_vector",
        "expand = planar._expand",
        "planar._expand = lambda k, n, vals: [2 * u for u in expand(k, n, vals)]",
        "bounded_complex_vertices(central_pluecker_vector(ksubset(6, [2, 3, 6])))",
    )
    assert result.returncode == 1
    assert "InvariantError: the planar coefficients do not expand" in result.stderr


def test_the_expansion_check_runs_once_per_vector(monkeypatch):
    # `_roof_sum` keeps both lineality shifts on the vector beside its roof
    # sum, so every query on one vector shares one expansion check and one
    # balancing shift: two `_gap_shift` calls in all.
    calls = []
    gap_shift = troplin._gap_shift

    def counted(*args):
        calls.append(args)
        return gap_shift(*args)

    monkeypatch.setattr(troplin, "_gap_shift", counted)
    pi = rho(random_tpoint(rng_for("central-shift-once"), 3, 7))
    diameter_check(pi)
    balanced_representative(pi)
    bounded_complex_vertices(pi)
    central_representative(pi)
    subdifferential_at(pi, [Fraction(3, 7)] * 7)
    assert len(calls) == 2


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7)])
def test_roof_sum_uses_the_least_scale(k, n):
    # The least common denominator of the values and of k times each
    # nonzero planar coefficient, from the Fraction expansion; the
    # translated walk is the walk of the balanced representative.
    rng = rng_for(f"roof-scale-{k}-{n}")
    for _ in range(6):
        pi = rho(random_rational_tpoint(rng, k, n))
        coeffs = [c for c in planar.planar_expand(pi).values() if c]
        least = math.lcm(*(v.denominator for v in pi.values), *(k * c.denominator for c in coeffs))
        scale, terms, central, _, _ = troplin._roof_sum(pi)
        assert scale == least
        assert scale % pi.scaled()[1] == 0
        assert sorted(Fraction(k * f, scale) for _, f in terms) == sorted(coeffs)
        assert [Fraction(v, scale) for v in central] == list(central_representative(pi).values)
        assert diameter_check(pi) == bounded_complex_vertices(balanced_representative(pi))


# The first rational point of the (3,7) least-scale test: a walk whose
# step directions drift (each `_interval_table` read scales its direction
# by a fresh factor, and leaves counts, ranks and rank sets alone) never
# ends a step at a vertex it has found, takes every far end for a new one
# and, with no time budget, would grow without end.
ALCOVES_37 = "(3,7): the walk found more than 302 vertices, the alcoves of the hypersimplex"


def _alcove_fault_point():
    return random_rational_tpoint(rng_for("roof-scale-3-7"), 3, 7)


def test_vertex_bound_is_the_eulerian_number():
    # A(n-1, k-1): the permutations of [n-1] with k-1 descents
    for n in range(2, 8):
        descents = [sum(a > b for a, b in zip(p, p[1:]))
                    for p in itertools.permutations(range(n - 1))]
        for k in range(1, n):
            assert troplin._vertex_bound(k, n) == descents.count(k - 1)


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (4, 8), (3, 8), (3, 9),
                                 (5, 10), (4, 10)])
def test_the_walk_finds_every_maximal_cell(k, n):
    # A finest positroidal subdivision has C(n-2, k-1) maximal cells
    # (Speyer-Williams, "The positive Dressian equals the positive tropical
    # Grassmannian", 2021), each vertex of the complex is one maximal cell,
    # and every positroidal subdivision coarsens a finest one: the walk of
    # a generic grid finds exactly that many, and a grid with ties at most
    # that many.  About one grid in thirty with entries 0-1000 lands on a
    # wall and has fewer cells (the next test walks one); this seed's grids
    # miss every wall.
    cells = math.comb(n - 2, k - 1)
    rng = rng_for(f"walk-complete-6-{k}-{n}")
    for _ in range(4):
        pi = rho(random_tpoint(rng, k, n, hi=1000))
        assert len(bounded_complex_vertices(pi).vertices) == cells
    for _ in range(8):
        pi = rho(random_tpoint(rng, k, n, hi=3))
        assert len(bounded_complex_vertices(pi).vertices) <= cells


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 7), (4, 8), (3, 9)])
def test_every_alcove_lies_in_one_cell_of_the_walk(k, n):
    # Every cell is a positroid polytope, a union of alcoves, and the
    # maximal cells tile the hypersimplex: the walk found every vertex
    # exactly when the vertices of each alcove are bases at exactly one of
    # the walk's vertices.
    alcoves = hypersimplex_alcoves(k, n)
    assert len(alcoves) == troplin._vertex_bound(k, n)
    rng = rng_for(f"alcove-cover-{k}-{n}")
    points = [random_tpoint(rng, k, n, hi=hi) for hi in (1, 3, 1000)]
    if (k, n) == (4, 7):  # a 0-1000 grid on a wall: 7 cells of C(5, 3) = 10
        wall = random_tpoint(rng_for("walk-complete-3-4-7"), k, n, hi=1000)
        assert len(bounded_complex_vertices(rho(wall)).vertices) == 7
        points.append(wall)
    for t in points:
        _, sets, _ = troplin._complex(rho(t), False, None)
        assert all(sum(a & A == a for A in sets) == 1 for a in alcoves)


def test_a_miscounting_walk_stops_at_the_alcove_count(monkeypatch):
    pi = rho(_alcove_fault_point())
    assert len(diameter_check(pi).vertices) <= troplin._vertex_bound(3, 7)
    table, factors = troplin._interval_table, itertools.count(2)

    def drifting(k, n, s):
        factor, (direction, *rest) = next(factors), table(k, n, s)
        return (tuple(factor * d for d in direction), *rest)

    monkeypatch.setattr(troplin, "_interval_table", drifting)
    with pytest.raises(InvariantError) as exc:
        diameter_check(pi)
    assert str(exc.value) == ALCOVES_37


def test_a_miscounting_walk_stops_at_the_alcove_count_under_optimize():
    rows = [[exact.format_fraction(v) for v in row] for row in _alcove_fault_point().rows]
    result = run_optimized(
        "import itertools",
        "from tropnc import ladder, ncfan, troplin",
        "from tropnc.exact import InvariantError",
        "table, factors = troplin._interval_table, itertools.count(2)",
        "def drifting(k, n, s):",
        "    factor, (direction, *rest) = next(factors), table(k, n, s)",
        "    return (tuple(factor * d for d in direction), *rest)",
        "troplin._interval_table = drifting",
        f"t = ncfan.from_json_dict({{'k': 3, 'n': 7, 'rows': {rows!r}}})",
        "try:",
        "    troplin.diameter_check(ladder.rho(t))",
        "except InvariantError as exc:",
        "    print(exc)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ALCOVES_37 + "\n"


def _check_translated_walk(pi):
    """diameter_check walks pi once and translates its vertices; a walk of
    the balanced vector itself is the reference, and the two complexes
    have the same edges in the same order."""
    balanced = balanced_representative(pi)
    report = diameter_check(pi)
    assert report == bounded_complex_vertices(balanced)
    central = bounded_complex_vertices(pi).vertices
    assert bounded_complex_edges(balanced, report.vertices) == bounded_complex_edges(pi, central)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8), (3, 9), (4, 9), (5, 10)])
def test_diameter_translates_the_central_walk(k, n):
    rng = rng_for(f"translated-walk-{k}-{n}")
    for _ in range(2):
        _check_translated_walk(rho(random_tpoint(rng, k, n)))
        _check_translated_walk(rho(random_rational_tpoint(rng, k, n)))


def test_diameter_translates_the_central_walk_at_3_12_zero_and_2_4():
    rng = rng_for("translated-walk-2-4")
    for pi in (vector_312(), PlueckerVector.zero(3, 6), PlueckerVector.zero(2, 4),
               rho(random_tpoint(rng, 2, 4)), rho(random_rational_tpoint(rng, 2, 4))):
        _check_translated_walk(pi)


def test_balancing_checks_the_gap_sum(monkeypatch):
    # Roof rows off by a factor: the central representative's cyclic-gap
    # differences no longer sum to the weight its coefficients claim.
    pi = central_pluecker_vector(J_2BLOCK)
    row = troplin._roof_row
    monkeypatch.setattr(troplin, "_roof_row", lambda J: tuple(2 * v for v in row(J)))
    with pytest.raises(InvariantError, match="do not expand"):
        balanced_representative(pi)


def test_tree_2_5():
    pi = planar.planar_combination(2, 5, {(2, 5): 1, (3, 5): 1})
    rep = bounded_complex_vertices(pi)
    assert len(rep.vertices) == 3
    edges = bounded_complex_edges(pi, rep.vertices)
    assert len(edges) == 2
    directions = []
    for i, j in edges:
        d = [a - b for a, b in zip(rep.vertices[i], rep.vertices[j])]
        lo = min(d)
        support = tuple(sorted(idx + 1 for idx, v in enumerate(d) if v != lo))
        directions.append(support)
    # translates of the cyclic-interval indicators e_12 and e_123 modulo
    # all-ones: complements {3,4,5} and {4,5} appear with the low value
    assert sorted(directions) == [(1, 2), (1, 2, 3)]


def test_k2_tree_model_counts_and_directions():
    rng = rng_for("tree-model")
    for k, n in [(2, 5), (2, 6)]:
        colls = maximal_noncrossing_collections(k, n)
        for _ in range(6):
            coll = colls[rng.randrange(len(colls))]
            mults = [rng.randint(0, 3) for _ in coll]
            distinct = sum(1 for m in mults if m > 0)
            if distinct == 0:
                continue
            pi = planar.planar_combination(
                k, n, {J.elems: m for J, m in zip(coll, mults)}
            )
            rep = bounded_complex_vertices(pi)
            edges = bounded_complex_edges(pi, rep.vertices)
            assert len(rep.vertices) == distinct + 1
            assert len(edges) == len(rep.vertices) - 1
            for i, j in edges:
                d = [a - b for a, b in zip(rep.vertices[i], rep.vertices[j])]
                values = sorted(set(d))
                assert len(values) == 2
                support = {idx + 1 for idx, v in enumerate(d) if v == values[1]}
                assert sum(1 for x in support if (x % n) + 1 not in support) == 1


def test_vertex_set_invariant_under_lineality():
    rng = rng_for("vertex-lineality")
    for pi in (
        rho(TPoint.of(3, 6, [[2, 0, 1], [1, 3, 0]])),
        rho(random_tpoint(rng, 3, 7, hi=1)),
        rho(random_tpoint(rng, 4, 8, hi=1)),
    ):
        central = central_representative(pi)
        rep1 = bounded_complex_vertices(central)
        for den in (1, 2, 3, 7):
            shift = [Fraction(rng.randint(-3 * den, 3 * den), den) for _ in range(pi.n)]
            rep2 = bounded_complex_vertices(lineality_shift(central, shift))
            moved = sorted(canon([a - b for a, b in zip(v, shift)]) for v in rep1.vertices)
            assert moved == sorted(canon(v) for v in rep2.vertices)


def _brute_force_vertices(central):
    """Every sector assignment of every roof, each gradient classified by
    the Fraction argmin matroid; `central` must be the central
    representative itself, so no lineality shift is involved."""
    k = central.k
    support = [(J, c) for J, c in planar.planar_expand(central).items() if c]
    sectors = [[[-c * x / k for x in W] for W in central_roof(J).W] for J, c in support]
    gradients = {
        canon([sum(col, Fraction(0)) for col in zip(*choice)])
        for choice in itertools.product(*sectors)
    }
    return {w for w in gradients if troplin.is_connected(argmin_matroid(central, w))}


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8)])
def test_vertices_match_the_sector_product_brute_force(k, n):
    rng = rng_for(f"vertex-brute-force-{k}-{n}")
    for t in (
        random_tpoint(rng, k, n, hi=2),
        random_rational_tpoint(rng, k, n),
        random_tableau_point(rng, k, n, 4)[0],
    ):
        pi = rho(t)
        central = pluecker.linear_combination(k, n, [
            (c, central_pluecker_vector(J))
            for J, c in planar.planar_expand(pi).items() if c
        ])
        expected = _brute_force_vertices(central)
        assert expected
        assert set(bounded_complex_vertices(central).vertices) == expected
        shift = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 7])) for _ in range(n)]
        moved = {canon([a - b for a, b in zip(w, shift)]) for w in expected}
        assert set(bounded_complex_vertices(lineality_shift(central, shift)).vertices) == moved


def _minkowski_vertices(pi_hat):
    """The Minkowski enumeration the walk replaced: every sum of one sector
    gradient per roof, built roof by roof modulo all-ones and moved to
    pi_hat's own cyclic-gap differences, each classified in scaled
    integers.  Returns the canonical vertices."""
    k, n = pi_hat.k, pi_hat.n
    scale, terms, central, _, _ = troplin._roof_sum(pi_hat)
    ints, s = pi_hat.scaled()
    row = [v * (scale // s) for v in ints]
    y = troplin._gap_shift([c - v for c, v in zip(central, row)], 0, k, n)
    level = {tuple(-v for v in y)}
    for J, factor in terms:
        sectors = [[-factor * (x - W[0]) for x in W] for W in central_roof(J).W]
        level = {tuple(a + x for a, x in zip(acc, W)) for acc in level for W in sectors}
    vertices = [w for w in level
                if troplin._face(troplin._argmin(troplin._values(row, w, k)), k, n) == 0]
    return {tuple(Fraction(v, scale) for v in w) for w in vertices}


def _walk_points(k, n):
    """Seeded integer, rational and tableau points, and at (3, 9) a point
    on one cone of the flip walk's decomposition of an integer point."""
    rng = rng_for(f"walk-oracle-{k}-{n}")
    points = [random_tpoint(rng, k, n, hi=2), random_rational_tpoint(rng, k, n)]
    if n <= 8:
        points.append(random_tableau_point(rng, k, n, 4)[0])
    else:
        cone = [J for J, _ in nc_decompose(random_tpoint(rng, k, n)).entries]
        t = TPoint.zero(k, n)
        for J in rng.sample(cone, 4):
            t = t + t_vector(J).scale(rng.randint(1, 2))
        points.append(t)
    return rng, points


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8), (3, 9)])
def test_walk_matches_the_minkowski_oracle(k, n):
    rng, points = _walk_points(k, n)
    for t in points:
        pi = rho(t)
        for vec in (pi, balanced_representative(pi)):
            expected = _minkowski_vertices(vec)
            assert expected and set(bounded_complex_vertices(vec).vertices) == expected
            shift = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 7])) for _ in range(n)]
            moved = {canon([a - b for a, b in zip(w, shift)]) for w in expected}
            shifted = lineality_shift(vec, shift)
            assert set(bounded_complex_vertices(shifted).vertices) == moved
            assert _minkowski_vertices(shifted) == moved


def test_walk_matches_the_minkowski_oracle_at_3_12():
    pi = vector_312()
    assert set(bounded_complex_vertices(pi).vertices) == _minkowski_vertices(pi)


def test_walk_finishes_a_rational_4_8_vector_with_15_roofs():
    # Its Minkowski sum has 118,272 distinct candidates (about 80 MB).
    pi = rho(random_rational_tpoint(rng_for("big48"), 4, 8))
    assert sum(1 for c in planar.planar_expand(pi).values() if c) == 15
    start = time.perf_counter()
    report = bounded_complex_vertices(pi)
    assert time.perf_counter() - start < 1.0
    assert len(report.vertices) == 20
    for w in report.vertices:
        assert troplin.is_connected(argmin_matroid(pi, w))


def _step(vals, counts, best, r):
    """`_breakpoint` on a row of counts |I & S|, grouped by count."""
    ranks = [tuple(i for i, c in enumerate(counts) if c == g) for g in range(max(counts) + 1)]
    return troplin._breakpoint(vals, ranks, best, r)


def _counts_of(ranks, size):
    """The row of counts that the per-count groups `ranks` hold."""
    counts = [None] * size
    for c, group in enumerate(ranks):
        for i in group:
            counts[i] = c
    return counts


def test_breakpoints_must_be_integers_and_exist():
    # values 0 at the top face (r = 1), one subset with |I & S| = 3 at 3,
    # which reaches it at t = 2 and so is the one hit, rank 1
    assert _step([0, 4], [1, 3], 0, 1) == (2, 0b10)
    with pytest.raises(InvariantError, match="breakpoint 3/2 of an edge is not a positive"):
        _step([0, 3], [1, 3], 0, 1)
    # a subset of the top face's value with more elements in S: r was wrong
    with pytest.raises(InvariantError, match="breakpoint 0 of an edge is not a positive"):
        _step([0, 0, 4], [1, 2, 3], 0, 1)
    with pytest.raises(InvariantError, match="unbounded edge"):
        _step([0, 3], [1, 1], 0, 1)
    # Two counts reach the far end together at t = 2 (ranks 1 and 3), one
    # member of count 3 lies above (rank 2), and count 4 arrives later.
    assert _step([0, 4, 5, 2, 7], [1, 3, 3, 2, 4], 0, 1) == (2, 0b1010)


def test_breakpoint_rejects_a_half_integer_step():
    # Steps 3/2 and 2 from the top face: the least, 3/2, is no integer.
    with pytest.raises(InvariantError, match="breakpoint 3/2 of an edge is not a positive"):
        _step([0, 3, 4], [1, 3, 3], 0, 1)
    # Over twice the scale the same edge reads as a whole step, so the
    # walk's scale must be the least one.
    assert _step([0, 6, 8], [1, 3, 3], 0, 1) == (3, 0b10)


def _rank_set_vectors():
    """A seeded integer and a seeded rational vector at (3,6) to (5,10)."""
    rng = rng_for("rank-set-walk")
    return [rho(point(rng, k, n)) for k, n in [(3, 6), (3, 7), (4, 8), (3, 9), (4, 9), (5, 10)]
            for point in (random_tpoint, random_rational_tpoint)]


def test_far_end_argmin_set_is_the_top_face_and_the_hits(monkeypatch):
    # At every step of the walk, the top face of S (least value, r elements
    # in S) and the breakpoint's hits are the full argmin scan of the far
    # end's values: every other subset ends strictly above them.
    step = troplin._breakpoint
    checked = []

    def recorded(vals, ranks, best, r):
        t, hits = step(vals, ranks, best, r)
        counts = _counts_of(ranks, len(vals))
        top = sum(1 << i for i, (v, c) in enumerate(zip(vals, counts)) if v == best and c == r)
        far = [v - t * c for v, c in zip(vals, counts)]
        assert top and hits and not top & hits
        assert top | hits == sum(1 << i for i, v in enumerate(far) if v == min(far))
        checked.append(t)
        return t, hits

    monkeypatch.setattr(troplin, "_breakpoint", recorded)
    for pi in _rank_set_vectors():
        bounded_complex_vertices(pi)
    assert len(checked) >= 200


def test_walk_returns_each_vertex_argmin_set():
    for pi in _rank_set_vectors() + [vector_312()]:
        k, n = pi.k, pi.n
        report, sets, _ = troplin._complex(pi, False, None)
        assert len(sets) == len(report.vertices)
        for w, A in zip(report.vertices, sets):
            assert A == _rank_set(k, n, argmin_matroid(pi, w).bases)


@pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (3, 7), (4, 8), (5, 10)])
def test_rank_set_tables_match_the_counts(k, n):
    subsets = list(pluecker.lex_rank(k, n))
    rank, elem = pluecker._mask_ranks(k, n), troplin._elem_sets(k, n)
    assert [rank[m] for m in pluecker._masks(k, n)] == list(range(len(subsets)))
    assert list(elem) == [sum(1 << i for i, I in enumerate(subsets) if e in I)
                          for e in range(1, n + 1)]
    for a, size in itertools.product(range(n), range(1, n)):
        s = sum(1 << ((a + i) % n) for i in range(size))
        direction, counts, ranks, sets, above = troplin._interval_table(k, n, s)
        S = {(a + i) % n for i in range(size)}
        assert direction == tuple((i in S) - (0 in S) for i in range(n))  # e_S - s_1 * all-ones
        assert len(ranks) == len(sets) == len(above) == min(k, size) + 1
        for c in range(len(ranks)):
            assert ranks[c] == tuple(i for i, x in enumerate(counts) if x == c)
            assert sets[c] == sum(1 << i for i in ranks[c])
            assert above[c] == sum(1 << i for i, x in enumerate(counts) if x > c)


def _argmin_bases(pi, w):
    """The argmin rank set of pi at the shift point w."""
    row, (point,) = troplin._scaled_row(pi, [[Fraction(x) for x in w]])
    return troplin._argmin(troplin._values(row, point, pi.k))


def _rank_set(k, n, bases):
    """The rank set of the k-subsets `bases`, each a tuple of elements."""
    rank = pluecker.lex_rank(k, n)
    return sum(1 << rank[tuple(B)] for B in bases)


def test_edge_intervals_match_a_count_per_basis():
    rng = rng_for("edge-intervals")
    sizes = [(3, 6), (3, 7), (4, 8), (3, 9), (3, 10), (5, 10)]
    for pi in [rho(random_tpoint(rng, k, n, hi=2)) for k, n in sizes] + [vector_312()]:
        k, n = pi.k, pi.n
        subsets = list(pluecker.lex_rank(k, n))
        vertices = bounded_complex_vertices(pi).vertices
        # the vertices, and the origin, no vertex, whose argmin sets are mostly larger
        for w in vertices + ((Fraction(0),) * n,):
            A = _argmin_bases(pi, w)
            bases = {i: m for i, m in enumerate(pluecker._masks(k, n)) if A >> i & 1}
            expected = []
            for a, size in itertools.product(range(n), range(1, n)):
                s = sum(1 << ((a + i) % n) for i in range(size))
                r = max((m & s).bit_count() for m in bases.values())
                top = {i: m for i, m in bases.items() if (m & s).bit_count() == r}
                edge = Matroid(k, n, frozenset(subsets[i] for i in top))
                if (reduce(or_, top.values()) == (1 << n) - 1 and not reduce(and_, top.values())
                        and len(components_partition(edge)) == 2):
                    expected.append((s, r, sum(1 << i for i in top)))
            assert list(troplin._edge_intervals(A, k, n, set())) == expected


def test_greedy_prefix_ranks_count_the_grassmann_necklace():
    rng = rng_for("greedy-necklace")
    checked = 0
    for k, n in [(3, 6), (3, 7), (4, 7), (3, 8), (4, 8)]:
        for t in (random_tpoint(rng, k, n, hi=3), random_rational_tpoint(rng, k, n)):
            pi = rho(t)
            for w in bounded_complex_vertices(pi).vertices:
                necklace = grassmann_necklace(argmin_matroid(pi, w))
                for a, ranks in enumerate(troplin._greedy(_argmin_bases(pi, w), k, n)):
                    # the prefix ranks are counts in the greedy basis g_a
                    order = [(a + i) % n + 1 for i in range(n)]
                    assert ranks == [len(set(order[:size]) & set(necklace[a]))
                                     for size in range(n + 1)]
                checked += 1
    assert checked >= 50


def test_edge_intervals_reject_bases_that_are_no_matroid():
    # {1, 2} and {3, 4} break basis exchange.  The greedy basis from 2 is
    # {1, 2}, which reads rank 1 on S = {2, 3, 4}; {3, 4} has two there.
    message = r"no matroid: a basis has more than the greedy rank 1 in S = \[2, 3, 4\]"
    with pytest.raises(InvariantError, match=message):
        list(troplin._edge_intervals(_rank_set(2, 4, [(1, 2), (3, 4)]), 2, 4, set()))
    # an explicit raise, so it survives -O; {1, 2} and {3, 4} have ranks 0 and 5
    result = run_optimized(
        "from tropnc import troplin",
        "list(troplin._edge_intervals(0b100001, 2, 4, set()))",
    )
    assert result.returncode == 1
    assert "InvariantError: the argmin set is no matroid" in result.stderr


def test_walk_checks_where_it_starts_and_where_edges_end(monkeypatch):
    face = troplin._face
    pi = central_pluecker_vector(J_2BLOCK)
    monkeypatch.setattr(troplin, "_face", lambda A, k, n: 1)
    with pytest.raises(InvariantError, match="roof gradient is not a vertex"):
        bounded_complex_vertices(pi)
    # The start classifies right, the far end of its one edge does not.
    calls = []

    def far_end_off_a_vertex(A, k, n):
        calls.append(n)
        return face(A, k, n) if len(calls) == 1 else 1

    monkeypatch.setattr(troplin, "_face", far_end_off_a_vertex)
    with pytest.raises(InvariantError, match="ends off a vertex"):
        bounded_complex_vertices(pi)


def _stepped_pairs(monkeypatch, pi, walk):
    """Every step of `walk(pi)` as the unordered pair of its two ends, each
    end its value row modulo a constant (modulo all-ones in w)."""
    step = troplin._breakpoint
    steps = []

    def recorded(vals, ranks, best, r):
        t, hits = step(vals, ranks, best, r)
        ends = (vals, [v - t * c for v, c in zip(vals, _counts_of(ranks, len(vals)))])
        steps.append(frozenset(tuple(v - row[0] for v in row) for row in ends))
        return t, hits

    monkeypatch.setattr(troplin, "_breakpoint", recorded)
    report = walk(pi)
    monkeypatch.undo()
    return report, steps


@pytest.mark.parametrize("name,calls", [("3,12", 20), ("6,12", 87)])
def test_walk_crosses_each_edge_once(monkeypatch, name, calls):
    # The walk steps only along edges, and every step back along an edge
    # to the vertex it came from is left out: one step per edge, 87 at
    # (6,12), where crossing every edge from both ends took 236, and 20
    # at (3,12).
    pi = vector_312() if name == "3,12" else rho(ci_grid_612())
    balanced = balanced_representative(pi)
    for walk, vec in ((bounded_complex_vertices, pi), (diameter_check, balanced)):
        report, steps = _stepped_pairs(monkeypatch, pi, walk)
        assert len(steps) == calls
        assert len(set(steps)) == len(steps)
        edges = bounded_complex_edges(vec, report.vertices)
        assert (len(report.vertices), len(edges)) == {"3,12": (11, 20), "6,12": (43, 87)}[name]


def test_fundamental_graph_counts_the_components():
    # Argmin matroids at vertices, edge midpoints and face barycentres:
    # 1, 2 and 3 or more components, against the pairwise reference.
    rng = rng_for("fundamental-graph")
    seen = set()
    for k, n, count in [(3, 6, 3), (3, 7, 3), (4, 8, 3), (5, 10, 1)]:
        for _ in range(count):
            pi = rho(random_tpoint(rng, k, n, hi=2))
            vertices = bounded_complex_vertices(pi).vertices
            points = list(vertices) + [
                [sum(col, Fraction(0)) / len(group) for col in zip(*group)]
                for size in (2, 3, 4)
                for group in itertools.islice(itertools.combinations(vertices, size), 40)
            ]
            for w in points:
                M = argmin_matroid(pi, w)
                count = len(components_partition(M))
                assert troplin._components(_rank_set(k, n, M.bases), k, n) == count
                seen.add(min(count, 3))
    assert seen == {1, 2, 3}


def _component_cases():
    """(k, n, rank set, component count): every vertex's argmin set on
    seeded walks and every nonempty meet of two of them (an edge midpoint's
    or a face barycentre's), counted by `components_partition`; and seeded
    random rank sets that are no matroid, counted on the fundamental graph
    of their least basis."""
    rng = rng_for("exchange-rows")
    cases = []
    for k, n in [(3, 6), (3, 7), (4, 8), (4, 9)]:
        subsets = list(pluecker.lex_rank(k, n))
        for _ in range(2):
            _, sets, _ = troplin._complex(rho(random_tpoint(rng, k, n, hi=2)), False, None)
            for A in {a & b for a, b in itertools.combinations_with_replacement(sets, 2)} - {0}:
                M = Matroid(k, n, frozenset(I for i, I in enumerate(subsets) if A >> i & 1))
                cases.append((k, n, A, len(components_partition(M))))
    for k, n in [(3, 6), (3, 7), (4, 8)]:
        subsets = list(pluecker.lex_rank(k, n))
        for density in (0.3, 0.6, 0.9, 0.97):
            for _ in range(10):
                bases = [I for I in subsets if rng.random() < density] or subsets[:1]
                if not basis_exchange_ok(Matroid(k, n, frozenset(bases))):
                    cases.append((k, n, _rank_set(k, n, bases),
                                  fundamental_graph_components(k, n, bases)))
    return cases


def test_exchange_rows_count_components_cold_and_warm(tmp_path):
    # The per-basis exchange rows against the matroid reference and, on
    # rank sets that are no matroid, the fundamental graph of the least
    # basis; with the rows built on first use and then read back, in-process
    # and under python -O.
    cases = _component_cases()
    counts = [c for *_, c in cases]
    assert {1, 2, 3} <= set(counts) and len(cases) > 300
    troplin._exchange_rows.cache_clear()
    for _ in ("cold", "warm"):
        assert [troplin._components(A, k, n) for k, n, A, _ in cases] == counts
    # made on first use: one row set per least basis met, and no other
    used = {(k, n, (A & -A).bit_length() - 1) for k, n, A, _ in cases}
    assert troplin._exchange_rows.cache_info().currsize == len(used)
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    result = run_optimized(
        "import json, pathlib, sys",
        "from tropnc import troplin",
        f"cases = json.loads(pathlib.Path({str(path)!r}).read_text())",
        "got = [[troplin._components(A, k, n) for k, n, A, _ in cases] for _ in ('cold', 'warm')]",
        "sys.exit(0 if got[0] == got[1] == [c for *_, c in cases] else 'component counts differ')",
    )
    assert result.returncode == 0, result.stderr


def test_combinations_yield_subsets_in_rank_order():
    # The subset-sum kernel reads sums off `itertools.combinations` of the
    # coordinates themselves, so it needs their subsets in rank order.
    for n in range(4, 13):
        labels = [f"x{i}" for i in range(1, n + 1)]
        for k in range(2, n - 1):
            rank = pluecker.lex_rank(k, n)
            assert list(rank.values()) == list(range(math.comb(n, k)))
            by_rank = [tuple(labels[i - 1] for i in I) for I in rank]
            assert list(itertools.combinations(labels, k)) == by_rank
            assert pluecker._masks(k, n) == tuple(sum(1 << (i - 1) for i in I) for I in rank)


KERNEL_SIZES = [(2, 5), (3, 6), (3, 8), (4, 8), (4, 9), (5, 10), (6, 12)]


@pytest.mark.parametrize("k,n", KERNEL_SIZES)
def test_value_rows_are_the_per_subset_sums(k, n):
    rng = rng_for(f"value-kernel-{k}-{n}")
    for _ in range(3):
        row = [rng.randint(-50, 50) for _ in range(math.comb(n, k))]
        w = [rng.randint(-30, 30) for _ in range(n)]
        expected = [v - sum(w[i - 1] for i in I) for v, I in zip(row, pluecker.lex_rank(k, n))]
        assert troplin._values(row, w, k) == expected
        assert troplin._values(row, tuple(w), k) == expected


@pytest.mark.parametrize("k,n", KERNEL_SIZES)
def test_roof_rows_are_the_per_subset_sums(k, n):
    rng = rng_for(f"roof-kernel-{k}-{n}")
    subsets = combinat.noncyclic_subsets(k, n)
    for J in rng.sample(subsets, min(6, len(subsets))):
        expected = [-min(sum(W[i - 1] for i in I) for W in central_roof(J).W)
                    for I in pluecker.lex_rank(k, n)]
        assert troplin._roof_row(J) == tuple(expected)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8)])
def test_roof_rows_are_k_times_the_roof_values(k, n):
    for J in combinat.noncyclic_subsets(k, n):
        values = [
            central_roof_value(J, [int(i in I) for i in range(1, n + 1)])
            for I in itertools.combinations(range(1, n + 1), k)
        ]
        assert troplin._roof_row(J) == tuple(k * v for v in values)
        assert central_pluecker_vector(J).values == tuple(values)


def test_time_budget_stops_the_walk():
    pi = rho(TPoint.of(3, 6, [[2, 0, 1], [1, 3, 0]]))
    with pytest.raises(TimeBudgetExceeded, match="vertex walk over its -1 s budget"):
        diameter_check(pi, time_budget_s=-1)
    # both public walks take the budget by keyword only
    for walk in (diameter_check, bounded_complex_vertices):
        with pytest.raises(TypeError):
            walk(pi, -1)


def test_time_budget_stops_the_walk_between_classifications(monkeypatch):
    # A clock that stands still until the start vertex is classified,
    # then jumps far past any budget.
    now = [0.0]
    monkeypatch.setattr(troplin, "time", SimpleNamespace(monotonic=lambda: now[0]))
    face = troplin._face

    def classify(A, k, n):
        now[0] = 1e9
        return face(A, k, n)

    monkeypatch.setattr(troplin, "_face", classify)
    pi = central_pluecker_vector(J_2BLOCK)  # two vertices, one edge
    with pytest.raises(TimeBudgetExceeded, match="vertex walk"):
        bounded_complex_vertices(pi, time_budget_s=1.0)


def test_vertices_need_a_positive_vector():
    rng = rng_for("not-positive")
    pi = random_vector(rng, 3, 6)
    assert not pluecker.is_positive_tropical(pi).ok
    interior = [Fraction(1, 2)] * 6
    for call in (bounded_complex_vertices, diameter_check,
                 lambda v: subdifferential_at(v, interior)):
        with pytest.raises(ValueError, match="not positive tropical") as exc:
            call(pi)
        assert "Fraction(" not in str(exc.value)


def test_reference_functions_check_the_coordinate_count():
    with pytest.raises(ValueError, match="need 6 coordinates, got 2"):
        central_roof_value(J_2BLOCK, [1, 2])
    pi = central_pluecker_vector(J_2BLOCK)
    for w in ([0] * 7, [0] * 3):
        for call in (in_linear_space, subdifferential_at):
            with pytest.raises(ValueError, match=f"need 6 coordinates, got {len(w)}"):
                call(pi, w)


_J2_VECTOR = central_pluecker_vector(J_2BLOCK)
OUTSIDE_POINT_READERS = {
    "face_dimension_at": lambda w: face_dimension_at(_J2_VECTOR, w),
    "in_bounded_part": lambda w: in_bounded_part(_J2_VECTOR, w),
    "bounded_complex_edges": lambda w: bounded_complex_edges(_J2_VECTOR, [[0] * 6, w]),
    "subdifferential_at": lambda w: subdifferential_at(_J2_VECTOR, w),
    "argmin_matroid": lambda w: argmin_matroid(_J2_VECTOR, w),
    "in_linear_space": lambda w: in_linear_space(_J2_VECTOR, w),
    "matroid_polytope_contains": lambda w: matroid_polytope_contains(
        argmin_matroid(_J2_VECTOR, [0] * 6), w),
    "lineality_vector": lambda w: lineality_vector(3, 6, w),
}


@pytest.mark.parametrize("name", OUTSIDE_POINT_READERS)
def test_every_outside_point_is_read_with_one_message(name):
    # each reads its point through exact.coordinates: the length check
    # with one message, after the conversion, which refuses a float first
    call = OUTSIDE_POINT_READERS[name]
    for w in ([0] * 5, [Fraction(1, 2)] * 7, []):
        with pytest.raises(ValueError, match=f"^need 6 coordinates, got {len(w)}$"):
            call(w)
    with pytest.raises(TypeError, match="not an exact rational"):
        call([0.5] * 5)


def test_face_dimensions():
    eta = central_pluecker_vector(J_2BLOCK)
    rep = bounded_complex_vertices(eta)
    v = rep.vertices
    assert face_dimension_at(eta, v[0]) == 0
    mid = [(a + b) / 2 for a, b in zip(v[0], v[1])]
    assert face_dimension_at(eta, mid) == 1
    eta3 = central_pluecker_vector(J_3SPLIT)
    rep3 = bounded_complex_vertices(eta3)
    bary = [sum(col, Fraction(0)) / 3 for col in zip(*rep3.vertices)]
    assert face_dimension_at(eta3, bary) == 2
    M = argmin_matroid(eta3, bary)
    assert components_partition(M) == ((1, 2), (3, 4), (5, 6))
    far = [Fraction(10**6 * i) for i in range(6)]
    assert face_dimension_at(eta, far) in ("outside", "unbounded")


def _reference_face(pi, w):
    """Face through w from the Fraction reference: argmin matroid, then
    loops, coloops and components."""
    M = argmin_matroid(pi, w)
    if loops(M):
        return "outside"
    if coloops(M):
        return "unbounded"
    return len(components_partition(M)) - 1


def _reference_edges(pi, points):
    """The per-pair rule: the Fraction midpoint lies on a 1-dimensional face."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(points)), 2)
        if _reference_face(pi, [(a + b) / 2 for a, b in zip(points[i], points[j])]) == 1
    ]


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8)])
def test_shift_face_classifier_matches_fraction_reference(k, n):
    rng = rng_for(f"shift-face-{k}-{n}")
    seen = set()
    for _ in range(3):
        pi = rho(random_tpoint(rng, k, n, hi=2))
        for vec in (pi, balanced_representative(pi)):
            vertices = list(bounded_complex_vertices(vec).vertices)
            assert bounded_complex_edges(vec, vertices) == _reference_edges(vec, vertices)
            # seeded points with denominators 2 and 3, near a vertex and anywhere
            loose = [
                [x + Fraction(rng.randint(-2, 2), den) for x in rng.choice(vertices)]
                if near else [Fraction(rng.randint(-4, 4), den) for _ in range(n)]
                for den in (2, 3) for near in (True, False) for _ in range(2)
            ]
            mixed = vertices + loose
            assert bounded_complex_edges(vec, mixed) == _reference_edges(vec, mixed)
            midpoints = [
                [(a + b) / 2 for a, b in zip(u, v)]
                for u, v in itertools.combinations(vertices, 2)
            ]
            for w in vertices + midpoints + loose:
                face = face_dimension_at(vec, w)
                assert face == _reference_face(vec, w)
                assert in_bounded_part(vec, w) == isinstance(face, int)
                seen.add(face)
            assert all(face_dimension_at(vec, w) == 0 for w in vertices)
        with pytest.raises(ValueError, match=f"need {n} coordinates, got {n - 1}"):
            face_dimension_at(pi, [0] * (n - 1))
        with pytest.raises(ValueError, match=f"need {n} coordinates, got {n + 1}"):
            in_bounded_part(pi, [0] * (n + 1))
        with pytest.raises(ValueError, match=f"need {n} coordinates, got {n - 1}"):
            bounded_complex_edges(pi, [[0] * n, [0] * (n - 1)])
    assert {0, 1, "outside", "unbounded"} <= seen


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8)])
def test_edges_from_value_rows_match_the_midpoint_reference(k, n, monkeypatch):
    # The midpoint's argmin set is the two argmin sets' intersection when
    # they meet, else the argmin of the summed rows: the second path is
    # the one that calls `_argmin` beyond once per point.
    rng = rng_for(f"edge-rows-{k}-{n}")
    vectors = [rho(random_tpoint(rng, k, n, hi=2)), rho(random_rational_tpoint(rng, k, n))]
    if (k, n) == (3, 7):
        vectors.append(rho(TPoint.of(3, 7, [[1, 1, 0, 1], [0, 0, 2, 2]])))  # a phantom edge
    argmin = troplin._argmin
    calls = []
    monkeypatch.setattr(troplin, "_argmin", lambda *args: calls.append(1) or argmin(*args))
    met = apart = 0
    for vec in vectors:
        vertices = list(bounded_complex_vertices(vec).vertices)
        loose = [
            [x + Fraction(rng.randint(-2, 2), den) for x in rng.choice(vertices)]
            for den in (2, 3, 5) for _ in range(2)
        ]
        for points in (vertices, vertices + loose):
            calls.clear()
            assert bounded_complex_edges(vec, points) == _reference_edges(vec, points)
            bases = [argmin_matroid(vec, w).bases for w in points]
            summed = sum(1 for a, b in itertools.combinations(bases, 2) if not a & b)
            assert len(calls) == len(points) + summed
            apart += summed
            met += len(points) * (len(points) - 1) // 2 - summed
    assert met and apart


@pytest.mark.xfail(strict=True, reason=(
    "bounded_complex_edges lists vertex pairs whose midpoint lies on an "
    "edge, so (1, 2), whose midpoint is inside edge (0, 3), is a phantom "
    "edge; the pairs the vertex walk crosses are the true edges"))
def test_every_reported_edge_lies_in_the_linear_space():
    pi = rho(TPoint.of(3, 7, [[1, 1, 0, 1], [0, 0, 2, 2]]))
    vertices = bounded_complex_vertices(pi).vertices
    edges = bounded_complex_edges(pi, vertices)
    assert (0, 3) in edges
    for i, j in edges:
        quarter = [a + (b - a) / 4 for a, b in zip(vertices[i], vertices[j])]
        assert in_linear_space(pi, quarter), (i, j)


PHANTOM_GRID = ((1, 1, 0, 1), (0, 0, 2, 2))  # (3,7): the pair (1, 2) is a phantom edge


@lru_cache(maxsize=None)
def _seeded_vectors():
    """The 200 seeded rho vectors: `random.Random(1)`, entries 0 to 3, 40
    each at (3,6), (3,7), (4,8), (3,8) and (4,9), then the phantom grid's."""
    rng = random.Random(1)
    sizes = [(3, 6), (3, 7), (4, 8), (3, 8), (4, 9)]
    seeded = [rho(random_tpoint(rng, k, n, hi=3)) for k, n in sizes for _ in range(40)]
    return tuple(seeded) + (rho(TPoint.of(3, 7, PHANTOM_GRID)),)


def test_edges_equal_the_unfiltered_pair_rule():
    # `_edges` is the pair rule over the points' value rows on the public
    # path and over the walk's own rows on the CLI's; the phantom pairs of
    # the summed-rows fallback included.
    for pi in _seeded_vectors() + (vector_312(), rho(ci_grid_612())):
        vertices = bounded_complex_vertices(pi).vertices
        expected = pair_rule_edges(pi, vertices)
        assert bounded_complex_edges(pi, vertices) == expected
        for balance in (False, True):
            assert troplin._complex_with_edges(pi, balance, None)[1] == expected


def test_walk_steps_are_the_face_rule_edges(monkeypatch):
    # The walk's steps, read as vertex-index pairs, are the face rule's
    # edges: the pairs whose argmin rank sets meet in a face with `_face` 1.
    # `bounded_complex_edges` reports each of them and, from its summed-rows
    # fallback, phantom pairs.  G4, the (6,12) vector of `random.Random(4)`
    # with entries 0 to 4, comes last.
    rng = random.Random(4)
    g4 = rho(TPoint.of(6, 12, [[rng.randint(0, 4) for _ in range(6)] for _ in range(5)]))
    phantoms, vectors = collections.Counter(), 0
    for pi in _seeded_vectors() + (g4,):
        report, steps = _stepped_pairs(monkeypatch, pi, bounded_complex_vertices)
        _, sets, rows = troplin._complex(pi, False, None)
        index = {tuple(v - vals[0] for v in vals): i for i, vals in enumerate(rows)}
        stepped = sorted(tuple(sorted(map(index.__getitem__, step))) for step in steps)
        rule = [(i, j) for i, j in itertools.combinations(range(len(sets)), 2)
                if troplin._face(sets[i] & sets[j], pi.k, pi.n) == 1]
        assert stepped == rule
        reported = bounded_complex_edges(pi, report.vertices)
        assert set(rule) <= set(reported)
        phantoms[pi.k, pi.n] += len(reported) - len(rule)
        vectors += len(reported) > len(rule)
    assert phantoms == {(3, 6): 3, (3, 7): 6, (4, 8): 8, (3, 8): 13, (4, 9): 53, (6, 12): 5}
    assert vectors == 52
    assert (len(stepped), len(reported)) == (134, 139)  # G4's


def test_walk_argmin_sets_are_the_argmins_of_the_value_rows():
    # The CLI path reads the walk's rows as the vertices' value rows: each
    # is `_values` at its vertex, over the roof scale, plus one constant,
    # and the walk's rank set is its argmin set.
    for pi in _seeded_vectors():
        for vec in (pi, balanced_representative(pi)):
            scale = troplin._roof_sum(vec)[0]
            ints, s = vec.scaled()
            row = [v * (scale // s) for v in ints]
            report, sets, rows = troplin._complex(vec, False, None)
            for w, A, vals in zip(report.vertices, sets, rows):
                point = [x * scale for x in w]
                assert all(v.denominator == 1 for v in point)
                exact = troplin._values(row, point, vec.k)
                assert len({v - x for v, x in zip(vals, exact)}) == 1
                assert A == troplin._argmin(exact) == troplin._argmin(vals)


def test_edges_keep_a_point_paired_with_itself():
    # An edge's midpoint m lies on a 1-dimensional face, and so does the
    # midpoint of m and m, or of m and m + 5 (1, ..., 1), the same point
    # modulo all-ones: `_edges` keeps either pair.
    pi = rho(TPoint.of(3, 7, PHANTOM_GRID))
    vertices = bounded_complex_vertices(pi).vertices
    edges = bounded_complex_edges(pi, vertices)
    assert edges
    for i, j in edges:
        m = [(a + b) / 2 for a, b in zip(vertices[i], vertices[j])]
        assert bounded_complex_edges(pi, [m, m]) == [(0, 1)]
        assert bounded_complex_edges(pi, [m, [x + 5 for x in m]]) == [(0, 1)]
    assert bounded_complex_edges(pi, [vertices[0], vertices[0]]) == []


def test_production_path_does_not_use_the_fraction_reference(monkeypatch):
    def refuse(*args):
        raise AssertionError("argmin_matroid called on the production path")

    monkeypatch.setattr(troplin, "argmin_matroid", refuse)
    pi = rho(TPoint.of(3, 6, [[2, 0, 1], [1, 3, 0]]))
    rep = diameter_check(pi)
    balanced = balanced_representative(pi)
    assert len(bounded_complex_edges(balanced, rep.vertices)) >= len(rep.vertices) - 1
    assert face_dimension_at(balanced, rep.vertices[0]) == 0
    assert in_bounded_part(balanced, rep.vertices[0])
    assert subdifferential_at(balanced, [Fraction(1, 2)] * 6)


def test_bounded_complex_leaves_no_reference_cycles():
    # A cycle would keep a walk's vertex values alive until the next full
    # collection, so two walks' tables could sit in memory at once.
    rng = rng_for("no-cycles")
    for k, n in [(3, 6), (3, 7), (4, 8)]:
        pi = rho(random_tpoint(rng, k, n))
        diameter_check(pi)  # fill the per-(k, n) caches first
        gc.collect()
        gc.disable()
        try:
            report = diameter_check(pi)
            bounded_complex_edges(balanced_representative(pi), report.vertices)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_subdifferential_queries():
    eta = central_pluecker_vector(J_2BLOCK)
    # interior of the left cell (first block sums below the crease)
    x = [Fraction(2, 3), Fraction(2, 3), Fraction(1, 3),
         Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
    assert len(subdifferential_at(eta, x)) == 1
    # on the crease both gradients are subgradients
    x = [Fraction(2, 3)] * 3 + [Fraction(1, 3)] * 3
    assert len(subdifferential_at(eta, x)) == 2
    eta3 = central_pluecker_vector(J_3SPLIT)
    assert len(subdifferential_at(eta3, [Fraction(1, 2)] * 6)) == 3
    with pytest.raises(ValueError):
        subdifferential_at(eta, [Fraction(1)] * 3 + [Fraction(0)] * 3)


def _reference_subdifferential(pi, x):
    """The vertices whose argmin matroid's polytope contains x, by the 2^n
    rank inequalities of the explicit basis list."""
    return [w for w in bounded_complex_vertices(pi).vertices
            if matroid_polytope_contains(argmin_matroid(pi, w), x)]


@pytest.mark.parametrize("k,n,vectors,extra", [(3, 6, 4, 2), (3, 7, 3, 2), (4, 8, 2, 2),
                                               (5, 10, 1, 0)])
def test_subdifferential_matches_the_matroid_reference(k, n, vectors, extra):
    # The centre lies on faces shared by several cells (20 of 57 vertices
    # at (5,10)); `extra` seeded interior points, and points at and near
    # the base barycentres of `extra` sampled vertices, come on top.
    rng = rng_for(f"subdifferential-{k}-{n}")
    centre = [Fraction(k, n)] * n
    for _ in range(vectors):
        pi = rho(random_tpoint(rng, k, n))
        vertices = bounded_complex_vertices(pi).vertices
        points = [centre]
        while len(points) < 1 + extra:
            raw = [rng.randint(1, 9) for _ in range(n)]
            x = [Fraction(k * r, sum(raw)) for r in raw]
            if max(x) < 1:
                points.append(x)
        for w in rng.sample(vertices, min(extra, len(vertices))):
            bases = argmin_matroid(pi, w).bases
            bary = [Fraction(sum(i in B for B in bases), len(bases)) for i in range(1, n + 1)]
            points += [bary, [(5 * b + c) / 6 for b, c in zip(bary, centre)]]
        for x in points:
            assert subdifferential_at(pi, x) == _reference_subdifferential(pi, x), x


def test_matroid_rank_is_the_largest_basis_intersection():
    # The bitmask rank against the intersection count it restates, on
    # argmin matroids at vertices and seeded subsets, repeats included.
    rng = rng_for("matroid-rank")
    for k, n in [(3, 6), (4, 8), (5, 10)]:
        pi = rho(random_tpoint(rng, k, n))
        for w in bounded_complex_vertices(pi).vertices[:4]:
            M = argmin_matroid(pi, w)
            for _ in range(30):
                A = [rng.randint(1, n) for _ in range(rng.randint(0, n))]
                assert M.rank(A) == max(len(set(A) & set(B)) for B in M.bases)
    assert uniform_matroid(3, 6).rank(range(1, 7)) == 3


def test_matroid_polytope_membership():
    M = uniform_matroid(3, 6)
    assert matroid_polytope_contains(M, [Fraction(1, 2)] * 6)
    assert not matroid_polytope_contains(M, [Fraction(2), Fraction(1)] + [Fraction(0)] * 4)
    M = Matroid(2, 4, frozenset({(1, 2), (1, 3), (2, 3)}))
    assert not matroid_polytope_contains(M, [Fraction(1, 2)] * 4)  # x_4 > 0 but 4 is a loop


def test_diameter_worked_examples():
    rep = diameter_check(central_pluecker_vector(J_3SPLIT))
    assert rep.pk_weight == 1 and rep.within_dilate
    assert len(rep.vertices) == 3
    pi = planar.planar_combination(2, 5, {(2, 5): 1, (3, 5): 1})
    rep = diameter_check(pi)
    assert rep.pk_weight == 2 and rep.within_dilate


def test_diameter_random_3_6():
    rng = rng_for("diameter-random")
    for _ in range(8):
        t = random_tpoint(rng, 3, 6, hi=2)
        pi = rho(t)
        rep = diameter_check(pi)
        assert rep.within_dilate


def test_diameter_weight_three_3_7():
    rng = rng_for("diameter-37")
    colls = maximal_noncrossing_collections(3, 7)
    for _ in range(3):
        coll = colls[rng.randrange(len(colls))]
        t = TPoint.zero(3, 7)
        for i in rng.sample(range(len(coll)), 3):
            t = t + t_vector(coll[i])
        rep = diameter_check(rho(t))
        assert rep.pk_weight == 3 and rep.within_dilate


def test_bounded_points_satisfy_necklace_inequality_and_partitions():
    rng = rng_for("necklace-property")
    checked = 0
    for _ in range(6):
        t = random_tpoint(rng, 3, 6)
        pi = rho(t)
        central = central_representative(pi)
        rep = bounded_complex_vertices(central)
        points = list(rep.vertices)
        for i, j in itertools.combinations(range(len(points)), 2):
            points.append(tuple((a + b) / 2 for a, b in zip(points[i], points[j])))
        for w in points:
            M = argmin_matroid(central, w)
            if loops(M) or coloops(M):
                continue
            checked += 1
            nu = lineality_shift(central, w)
            for j in range(6):
                assert nu[cyc_interval(j, 3, 6)] >= nu[gap_interval(j, 3, 6)]
            assert is_noncrossing_partition(components_partition(M), 6)
            assert basis_exchange_ok(M)
            assert in_linear_space(central, w)
    assert checked >= 30


def test_vertices_verified_in_bounded_part():
    rng = rng_for("vertices-bounded")
    for _ in range(4):
        pi = rho(random_tpoint(rng, 3, 6))
        central = central_representative(pi)
        rep = bounded_complex_vertices(central)
        for w in rep.vertices:
            assert in_bounded_part(central, w)
            assert len(components_partition(argmin_matroid(central, w))) == 1
