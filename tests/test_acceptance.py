"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every check is exact rational equality (zero tolerance).  Each test
prints a single PASS/FAIL line; run with `pytest -s` to see them live.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    canon,
    random_tpoint,
    random_vector,
    rng_for,
    random_tableau_point,
    vector_312,
)
from oracles import basis_exchange_ok, det
from tropnc import combinat, ladder, ncfan, planar, pluecker, troplin, weight
from tropnc.combinat import (
    cyc_interval,
    gap_interval,
    is_noncrossing_partition,
    ksubset,
    maximal_noncrossing_collections,
    noncrossing_collections,
    noncyclic_subsets,
    weakly_separated,
)
from tropnc.ladder import LadderPoint, enumerate_path_families, pluecker_vector_of_grid, rho
from tropnc.ncfan import TPoint, d1_project, lattice_coords, nc_decompose, nc_weight, psi, t_vector
from tropnc.planar import corank_vector, planar_basis_vector, tropical_u
from tropnc.pluecker import equivalent_mod_lineality, face_restrict_one, is_positive_tropical
from tropnc.troplin import (
    argmin_matroid,
    bounded_complex_vertices,
    central_pluecker_vector,
    central_representative,
    components_partition,
    coloops,
    diameter_check,
    loops,
)
from tropnc.weight import bridge, pk_weight


@contextmanager
def criterion(number: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_s else "FAIL (over time limit)"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s < {limit_s:.0f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.2f}s)"


SIZES = [(2, 5), (2, 6), (3, 6), (3, 7), (4, 7)]


def test_criterion_01_ray_duality():
    for k, n in SIZES:
        with criterion(1, f"ray duality ({k},{n})", 10):
            ncyc = noncyclic_subsets(k, n)
            vectors = [rho(t_vector(K)) for K in ncyc]
            for j, J in enumerate(ncyc):
                for i in range(len(ncyc)):
                    assert tropical_u(J, vectors[i]) == (1 if i == j else 0)


def test_criterion_02_planar_duality():
    for k, n in SIZES:
        with criterion(2, f"planar duality ({k},{n})", 10):
            ncyc = noncyclic_subsets(k, n)
            for J in ncyc:
                for K in ncyc:
                    assert tropical_u(J, planar_basis_vector(K)) == (1 if J == K else 0)


def test_criterion_03_noncrossing_counts():
    with criterion(3, "noncrossing collection counts", 5):
        assert len(noncrossing_collections(2, 6, 1)) == 9
        assert len(noncrossing_collections(2, 6, 2)) == 21
        assert len(noncrossing_collections(2, 6, 3)) == 14
        maximal = maximal_noncrossing_collections(3, 6)
        assert len(maximal) == 42
        ws = sum(
            1
            for coll in maximal
            if all(weakly_separated(I, J) for I, J in itertools.combinations(coll, 2))
        )
        assert ws == 34 and len(maximal) - ws == 8


def test_criterion_04_fan_completeness_unimodularity():
    with criterion(4, "fan completeness + unimodularity (3,6)", 60):
        for coll in maximal_noncrossing_collections(3, 6):
            cols = [lattice_coords(t_vector(J)) for J in coll]
            matrix = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
            assert abs(det(matrix)) == 1
        rng = rng_for("acceptance-fan")
        for _ in range(1000):
            t = random_tpoint(rng, 3, 6, hi=6)
            tab = nc_decompose(t)  # raises on missing or ambiguous cone
            rebuilt = TPoint.zero(3, 6)
            for J, m in tab.entries:
                assert m > 0 and m.denominator == 1
                rebuilt = rebuilt + t_vector(J).scale(m)
            assert rebuilt == t


def test_criterion_05_weight_equality():
    with criterion(5, "weight equality (3,6)x500 + (3,7)x100", 120):
        rng = rng_for("acceptance-weight")
        for _ in range(500):
            t = random_tpoint(rng, 3, 6, hi=5)
            pi = rho(t)
            assert pk_weight(pi) == nc_weight(t) == bridge(pi)
        for _ in range(100):
            t = random_tpoint(rng, 3, 7, hi=4)
            pi = rho(t)
            assert pk_weight(pi) == nc_weight(t) == bridge(pi)


def test_criterion_06_bridge_normalization():
    for k, n in [(3, 6), (3, 7), (4, 7)]:
        with criterion(6, f"bridge normalization ({k},{n})", 10):
            for J in noncyclic_subsets(k, n):
                assert bridge(rho(t_vector(J))) == 1


def test_criterion_07_corank_equals_planar():
    with criterion(7, "corank = planar basis (3,6)+(3,7)", 30):
        for k, n in [(3, 6), (3, 7)]:
            for J in noncyclic_subsets(k, n):
                assert equivalent_mod_lineality(corank_vector(J), planar_basis_vector(J))


def test_criterion_08_positivity_iff_weak_separation():
    with criterion(8, "pair positivity <=> weak separation (3,6)", 60):
        ncyc = noncyclic_subsets(3, 6)
        for I, J in itertools.combinations_with_replacement(ncyc, 2):
            combined = planar_basis_vector(I) + planar_basis_vector(J)
            assert is_positive_tropical(combined).ok == weakly_separated(I, J)


def test_criterion_09_reference_vertex_values():
    with criterion(9, "bounded-complex vertex values", 30):
        J = ksubset(6, [2, 3, 6])  # blocks (123|456), decorations (2,1)
        rep = bounded_complex_vertices(central_pluecker_vector(J))
        want = {
            canon([-1, -1, -1, Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 3)]),
            canon([Fraction(-2, 3)] * 3 + [-1] * 3),
        }
        assert set(rep.vertices) == want
        J = ksubset(6, [2, 4, 6])  # blocks (12|34|56), decorations (1,1,1)
        rep = bounded_complex_vertices(central_pluecker_vector(J))
        want = {
            canon([Fraction(-1, 3), Fraction(-1, 3), Fraction(-2, 3), Fraction(-2, 3), -1, -1]),
            canon([-1, -1, Fraction(-1, 3), Fraction(-1, 3), Fraction(-2, 3), Fraction(-2, 3)]),
            canon([Fraction(-2, 3), Fraction(-2, 3), -1, -1, Fraction(-1, 3), Fraction(-1, 3)]),
        }
        assert set(rep.vertices) == want


def test_criterion_10_diameter_bound():
    with criterion(10, "diameter bound: worked examples", 30):
        rep = diameter_check(central_pluecker_vector(ksubset(6, [2, 4, 6])))
        assert rep.pk_weight == 1 and rep.within_dilate
        pi = planar.planar_combination(2, 5, {(2, 5): 1, (3, 5): 1})
        rep = diameter_check(pi)
        assert rep.pk_weight == 2 and rep.within_dilate

    with criterion(10, "diameter bound: 50 seeded (3,6), weight <= 4", 300):
        rng = rng_for("acceptance-diameter")
        for _ in range(50):
            t, mults = random_tableau_point(rng, 3, 6, max_weight=4)
            pi = rho(t)
            rep = diameter_check(pi)
            assert rep.pk_weight == sum(mults.values()) <= 4
            assert rep.within_dilate

    pi312 = vector_312()
    with criterion(10, "diameter bound: weight-4 example at (3,12)", 660):
        assert pk_weight(pi312) == 4
        rep = diameter_check(pi312, time_budget_s=600)
        assert rep.pk_weight == 4 and rep.within_dilate


def test_criterion_11_path_counts():
    with criterion(11, "ladder path counts", 5):
        fams = enumerate_path_families(ksubset(7, [3, 5, 7]))
        got = sorted(tuple(sorted(f.edges())) for f in fams)
        displayed = sorted(
            tuple(sorted(m))
            for m in [
                [(1, 2), (2, 1), (2, 3)],
                [(1, 3), (2, 1), (2, 3)],
                [(1, 3), (2, 2), (2, 3)],
                [(1, 2), (2, 1), (2, 4)],
                [(1, 3), (2, 1), (2, 4)],
                [(1, 4), (2, 1), (2, 4)],
                [(1, 3), (2, 2), (2, 4)],
                [(1, 4), (2, 2), (2, 4)],
            ]
        )
        assert len(got) == 8 and got == displayed
        fams = enumerate_path_families(ksubset(10, [4, 6, 8, 10]))
        assert len(fams) == 64
        assert all(f.degree() == 6 for f in fams)


def test_criterion_12_face_restriction_examples():
    with criterion(12, "iterated face restriction to T = {1,3,5,6,7,8}", 30):
        keep = [1, 3, 5, 6, 7, 8]
        out = pluecker.face_restrict_zero_multi(
            planar_basis_vector(ksubset(10, [3, 6, 9])), keep
        )
        assert equivalent_mod_lineality(out, planar_basis_vector(ksubset(6, [2, 4, 6])))
        out = pluecker.face_restrict_zero_multi(
            planar_basis_vector(ksubset(10, [4, 9, 10])), keep
        )
        assert equivalent_mod_lineality(out, planar_basis_vector(ksubset(6, [2, 5, 6])))


def test_criterion_13_property_suites():
    with criterion(13, "property suites at (3,6)", 120):
        rng = rng_for("acceptance-properties")

        # boundary projection commutes with the fan projection
        for _ in range(100):
            pi = random_vector(rng, 3, 6)
            assert psi(face_restrict_one(pi, 1)) == d1_project(psi(pi))

        # representative independence of the parametrization
        for _ in range(100):
            t = random_tpoint(rng, 3, 6)
            shifts = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
            other = LadderPoint.of(
                3, 6, [[v + shifts[i] for v in row] for i, row in enumerate(t.rows)]
            )
            assert equivalent_mod_lineality(rho(t), pluecker_vector_of_grid(other))

        # shifted-vector inequalities, noncrossing partitions, basis exchange
        checked = 0
        while checked < 100:
            t = random_tpoint(rng, 3, 6)
            central = central_representative(rho(t))
            rep = bounded_complex_vertices(central)
            points = list(rep.vertices)
            for i, j in itertools.combinations(range(len(points)), 2):
                points.append(tuple((a + b) / 2 for a, b in zip(points[i], points[j])))
            for w in points:
                M = argmin_matroid(central, w)
                if loops(M) or coloops(M):
                    continue
                checked += 1
                nu = pluecker.lineality_shift(central, w)
                for j in range(6):
                    assert nu[cyc_interval(j, 3, 6)] >= nu[gap_interval(j, 3, 6)]
                assert is_noncrossing_partition(components_partition(M), 6)
                assert basis_exchange_ok(M)
        assert checked >= 100
