"""Fan rays, the two projections, the flip-walk decomposition and the fan audit."""

import copy
import importlib
import json
import math
import pickle
import pkgutil
import re
from fractions import Fraction

import pytest

from conftest import (
    RAY_SHAPES,
    TABLEAU_312,
    canon,
    random_rational_tpoint,
    random_tpoint,
    random_vector,
    rng_for,
    run_optimized,
    vector_312,
)
from oracles import (
    _canonical_rows,
    _cone_matrix,
    _integer_inverse,
    _psi_scaled,
    _ray_supports,
    composed_psi_table,
    det,
    greedy_start,
    phi,
    psi_table_coefficients,
    scan,
    t_tilde_vector,
    walk_decompose,
)
import tropnc
from tropnc import combinat, exact, ladder, ncfan, planar, weight
from tropnc.combinat import (
    KSubset,
    all_ksubsets,
    cyc_interval,
    ksubset,
    maximal_noncrossing_collections,
    noncyclic_subsets,
)
from tropnc.exact import InvariantError, SchemaError
from tropnc.ncfan import (
    TPoint,
    audit_fan,
    d1_project,
    lattice_coords,
    nc_decompose,
    nc_weight,
    psi,
    t_vector,
)
from tropnc.pluecker import PlueckerVector, lineality_vector
from tropnc.weight import weight_report


def T(k, n, rows):
    return TPoint.of(k, n, rows)


def test_t_vector_values_3_5():
    expected = {
        (1, 2, 3): [[0, 0], [0, 0]],
        (1, 2, 4): [[0, 0], [1, 0]],
        (1, 2, 5): [[0, 0], [0, 0]],  # full second row collapses
        (1, 3, 4): [[1, 0], [0, 0]],
        (1, 3, 5): [[1, 0], [0, 1]],
        (1, 4, 5): [[0, 0], [0, 0]],
        (2, 3, 4): [[0, 0], [0, 0]],
        (2, 3, 5): [[0, 0], [0, 1]],
        (2, 4, 5): [[0, 1], [0, 0]],
        (3, 4, 5): [[0, 0], [0, 0]],
    }
    for elems, rows in expected.items():
        assert t_vector(ksubset(5, elems)) == T(3, 5, rows), elems


def test_t_tilde_values_3_5():
    assert t_tilde_vector(ksubset(5, [1, 2, 3])).rows == ((Fraction(0),) * 2,) * 3
    tt = t_tilde_vector(ksubset(5, [1, 3, 5]))
    assert tt.rows == (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    )


@pytest.mark.parametrize("k,n", RAY_SHAPES)
def test_phi_sends_t_tilde_to_t(k, n):
    for J in all_ksubsets(k, n):
        assert phi(t_tilde_vector(J)) == t_vector(J)


def written_out_ray(J):
    """J's ray by the `Fraction` route: row i is ones on
    [max(j_i - i + 1, 1), min(j_{i+1} - i - 1, n - k)], written out and put
    in canonical form by `TPoint.of`."""
    width = J.n - J.k
    rows = []
    for i in range(1, J.k):
        lo, hi = max(J.elems[i - 1] - i + 1, 1), min(J.elems[i] - i - 1, width)
        rows.append([int(lo <= s <= hi) for s in range(1, width + 1)])
    return TPoint.of(J.k, J.n, rows)


@pytest.mark.parametrize("k,n", RAY_SHAPES)
def test_integer_rays_match_the_fraction_route(k, n):
    for J in all_ksubsets(k, n):
        assert t_vector(J) == written_out_ray(J), J
    supports = _ray_supports(k, n)
    nodes = noncyclic_subsets(k, n)
    assert len(supports) == len(nodes)
    for J, support in zip(nodes, supports):
        t = written_out_ray(J)
        flat = [v for row in t.rows for v in row]
        assert support == tuple(i for i, v in enumerate(flat) if v), J
        assert all(flat[i] == 1 for i in support), J
        assert ncfan._sparse_ray(J) == tuple((c, v) for c, v in enumerate(lattice_coords(t)) if v), J


@pytest.mark.parametrize("k,n", [(3, 6), (2, 6), (4, 7)])
def test_cyclic_rays_vanish(k, n):
    for j in range(n):
        assert t_vector(KSubset(n, cyc_interval(j, k, n))).is_zero()


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (3, 7)])
def test_rays_distinct_nonzero_primitive(k, n):
    rays = [lattice_coords(t_vector(J)) for J in noncyclic_subsets(k, n)]
    assert len(set(rays)) == len(rays)
    for ray in rays:
        ints = [int(v) for v in ray]
        assert any(ints)
        assert math.gcd(*(abs(v) for v in ints)) == 1


def test_psi_duality_and_weight_two_example():
    assert psi(planar.planar_basis_vector(ksubset(6, [1, 3, 5]))) == t_vector(ksubset(6, [1, 3, 5]))
    pi = planar.planar_combination(
        3, 6, {(1, 3, 5): -1, (2, 3, 5): 1, (1, 4, 5): 1, (1, 3, 6): 1}
    )
    assert psi(pi) == t_vector(ksubset(6, [1, 4, 5])) + t_vector(ksubset(6, [2, 3, 6]))


def test_psi_kills_lineality():
    rng = rng_for("psi-lineality")
    x = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(6)]
    assert psi(lineality_vector(3, 6, x)).is_zero()


def test_psi_312_tableau():
    expected = TPoint.zero(3, 12)
    for elems in TABLEAU_312:
        expected = expected + t_vector(ksubset(12, elems))
    assert psi(vector_312()) == expected


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8)])
def test_psi_matches_ray_sum_reference(k, n):
    rng = rng_for(f"psi-reference-{k}-{n}")
    for _ in range(3):
        pi = random_vector(rng, k, n)
        expected = TPoint.zero(k, n)
        for J in noncyclic_subsets(k, n):
            expected = expected + t_vector(J).scale(planar.tropical_u(J, pi))
        assert psi(pi) == expected
        assert not expected.is_integral()


def test_decompose_single_ray_and_pair():
    t = t_vector(ksubset(6, [1, 3, 5]))
    tab = nc_decompose(t)
    assert [(J.elems, m) for J, m in tab.entries] == [((1, 3, 5), 1)]
    t = t_vector(ksubset(6, [1, 4, 5])) + t_vector(ksubset(6, [2, 3, 6]))
    tab = nc_decompose(t)
    assert [(J.elems, m) for J, m in tab.entries] == [((1, 4, 5), 1), ((2, 3, 6), 1)]
    assert nc_weight(t) == 2


def test_decompose_zero_point():
    assert nc_decompose(TPoint.zero(3, 6)).entries == ()
    assert nc_weight(TPoint.zero(3, 6)) == 0


def test_decompose_random_integer_points():
    rng = rng_for("decompose-integer")
    for _ in range(100):
        t = random_tpoint(rng, 3, 6)
        tab = nc_decompose(t)
        rebuilt = TPoint.zero(3, 6)
        for J, m in tab.entries:
            rebuilt = rebuilt + t_vector(J).scale(m)
        assert rebuilt == t
        assert all(m.denominator == 1 for _, m in tab.entries)


def test_decompose_random_rational_points_complete():
    # the fan is complete: >= 10^3 rational samples all decompose
    rng = rng_for("decompose-rational")
    for _ in range(1000):
        t = random_rational_tpoint(rng, 3, 6)
        tab = nc_decompose(t)
        rebuilt = TPoint.zero(3, 6)
        for J, m in tab.entries:
            rebuilt = rebuilt + t_vector(J).scale(m)
        assert rebuilt == t


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6)])
def test_unimodularity_of_maximal_cones(k, n):
    for coll in maximal_noncrossing_collections(k, n):
        cols = [lattice_coords(t_vector(J)) for J in coll]
        matrix = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
        assert abs(det(matrix)) == 1


def test_d1_projection():
    for J in all_ksubsets(3, 6):
        projected = d1_project(t_vector(J))
        target = ksubset(5, [j - 1 for j in J.elems[1:]])
        assert projected == t_vector(target)
    assert d1_project(TPoint.zero(3, 6)) == TPoint.zero(2, 5)
    with pytest.raises(ValueError):
        d1_project(TPoint.zero(2, 6))


def test_boundary_projection_commutes():
    from tropnc.pluecker import face_restrict_one
    from conftest import random_vector

    rng = rng_for("boundary-projection")
    for _ in range(25):
        pi = random_vector(rng, 3, 6)
        assert psi(face_restrict_one(pi, 1)) == d1_project(psi(pi))


def test_nc_weight_monotone_under_d1():
    rng = rng_for("d1-monotone")
    for _ in range(50):
        t = random_tpoint(rng, 3, 6)
        assert nc_weight(t) >= nc_weight(d1_project(t))


def test_tpoint_json_round_trip():
    t = T(3, 6, [[1, 2, 0], [0, "1/2", 1]])
    again = ncfan.from_json_dict(ncfan.to_json_dict(t))
    assert again == t


def test_rows_loaders_are_strict():
    good = {"k": 3, "n": 6, "rows": [["1", "2", "0"], ["0", "1/2", "1"]]}

    def pointer(obj) -> str:
        with pytest.raises(SchemaError) as exc:
            ncfan.from_json_dict(obj)
        return exc.value.pointer

    for bad in (3.0, True, "3"):
        assert pointer({**good, "k": bad}) == "/k"
        assert pointer({**good, "n": bad}) == "/k"
    assert pointer({**good, "rows": [["1", "2", "0"], ["0", 0.5, "1"]]}) == "/rows/1/1"
    assert pointer({**good, "rows": [["1", "2", "0"], ["0", "1/0", "1"]]}) == "/rows/1/1"
    for bad in ("1.5", "1e1", " 2 ", "+3", "1/+2", "\uff13"):
        assert pointer({**good, "rows": [["1", "2", "0"], ["0", bad, "1"]]}) == "/rows/1/1"
    assert pointer({**good, "rows": [["1", "2", "0"], "0"]}) == "/rows/1"
    assert pointer({**good, "rows": [["1", "2", "0"]]}) == "/rows"
    assert pointer({"k": 3, "n": 6}) == "/rows"


def test_canonical_form():
    t = T(3, 6, [[5, 6, 4], [1, 1, 1]])
    assert t == T(3, 6, [[1, 2, 0], [0, 0, 0]])


# ------------------------------------ the scaled form against the Fraction route

SCALED_SHAPES = [(2, 5), (3, 6), (4, 8), (5, 9), (5, 10), (6, 12)]
FACTORS = (0, -1, 2, Fraction(3, 2), Fraction(-5, 7))


def raw_grids(rng, k, n):
    """Seeded integer, rational and mostly negative rows, two of each, not
    in canonical form."""
    draws = (lambda: rng.randint(0, 4),
             lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
             lambda: rng.randint(-9, 2))
    return [[[draw() for _ in range(n - k)] for _ in range(k - 1)]
            for draw in draws for _ in range(2)]


def fraction_route(k, n, rows) -> TPoint:
    """The oracle's canonical rows, handed to the strict constructor; the
    test reads their `exact.scaled` form beside them."""
    return TPoint(k, n, _canonical_rows(rows))


def scaled_form(rows) -> tuple[tuple[int, ...], int]:
    ints, scale = exact.scaled(v for row in _canonical_rows(rows) for v in row)
    return tuple(ints), scale


def assert_fraction_route(k, n, t, rows):
    canonical = _canonical_rows(rows)
    assert t.scaled() == scaled_form(rows)
    assert t.rows == canonical
    other = fraction_route(k, n, rows)
    assert t == other and hash(t) == hash(other)
    assert t.is_zero() == all(v == 0 for row in canonical for v in row)
    assert t.is_integral() == all(v.denominator == 1 for row in canonical for v in row)


@pytest.mark.parametrize("k,n", SCALED_SHAPES)
def test_scaled_points_match_the_fraction_route(k, n):
    rng = rng_for(f"scaled-tpoint-{k}-{n}")
    grids = raw_grids(rng, k, n)
    points = [TPoint.of(k, n, rows) for rows in grids]
    for rows, t in zip(grids, points):
        assert_fraction_route(k, n, t, rows)
        # other representatives: a constant added to one row, and the
        # integers of the scaled form doubled over twice the scale
        middle = (k - 1) // 2
        shifted = [[v + Fraction(7, 3) for v in row] if i == middle else row
                   for i, row in enumerate(rows)]
        ints, scale = scaled_form(rows)
        doubled = TPoint._of_scaled(
            k, n, [[2 * v for v in ints[r * (n - k):(r + 1) * (n - k)]] for r in range(k - 1)],
            2 * scale)
        for other in (TPoint.of(k, n, shifted), doubled):
            assert other == t and hash(other) == hash(t) and other.scaled() == t.scaled()
        text = json.dumps(ncfan.to_json_dict(t))
        assert text == json.dumps({"k": k, "n": n, "rows": [
            [exact.format_fraction(v) for v in row] for row in _canonical_rows(rows)]})
        assert ncfan.from_json_dict(json.loads(text)) == t
        assert pickle.loads(pickle.dumps(t)) == copy.deepcopy(t) == copy.copy(t) == t
        assert psi(ladder.rho(t)) == t
        assert nc_decompose(t) == walk_decompose(k, n, rows)
        if k >= 3:
            assert d1_project(t).scaled() == scaled_form(_canonical_rows(rows)[1:])
    for t, u in zip(points, points[1:] + points[:1]):
        pairs = [[*zip(r1, r2)] for r1, r2 in zip(t.rows, u.rows)]
        assert_fraction_route(k, n, t + u, [[a + b for a, b in row] for row in pairs])
        assert_fraction_route(k, n, t - u, [[a - b for a, b in row] for row in pairs])
        for c in FACTORS:
            assert_fraction_route(k, n, t.scale(c), [[c * v for v in row] for row in t.rows])


def test_the_round_trip_builds_no_fraction_view(monkeypatch):
    # rho, psi, the walk and the weight report read a point's integers;
    # none of them makes its Fraction rows
    rng = rng_for("no-fraction-view")
    cases = []
    for k, n in [(3, 7), (4, 8), (5, 10)]:
        ints = [[rng.randint(0, 12) for _ in range(n - k)] for _ in range(k - 1)]
        ref = TPoint.of(k, n, [[Fraction(v, 3) for v in row] for row in ints])
        pi = ladder.rho(ref)
        cases.append((k, n, ints, pi, psi(pi), nc_decompose(ref), weight_report(pi)))

    def refuse(self):
        raise AssertionError("the Fraction rows of a point were built")

    monkeypatch.setattr(TPoint, "rows", property(refuse))
    for k, n, ints, pi, back, tab, report in cases:
        t = TPoint._of_scaled(k, n, ints, 3)
        assert ladder.rho(t) == pi
        assert psi(pi) == back == t
        assert nc_decompose(t) == tab
        assert weight_report(ladder.rho(t)) == report


# ------------------------------------------------- walk against the full scan

DIFFERENTIAL_SIZES = [(2, 6), (3, 6), (3, 7), (4, 7)]


def combine(k, n, coeffs) -> TPoint:
    t = TPoint.zero(k, n)
    for J, m in coeffs:
        t = t + t_vector(J).scale(m)
    return t


def differential_points(rng, k, n):
    """Seeded integer and rational points, the zero point, every single ray,
    and points on lower-dimensional faces, each with its known tableau
    where one is known (None otherwise)."""
    cones = audit_fan(k, n)
    points = [(random_tpoint(rng, k, n), None) for _ in range(20)]
    points += [(random_rational_tpoint(rng, k, n), None) for _ in range(10)]
    points.append((TPoint.zero(k, n), ()))
    points += [(t_vector(J), ((J, 1),)) for J in noncyclic_subsets(k, n)]
    for _ in range(15):
        coll = cones[rng.randrange(len(cones))]
        face = rng.sample(coll, rng.randint(1, len(coll) - 1))
        coeffs = [(J, Fraction(rng.randint(1, 9), rng.randint(1, 3))) for J in face]
        points.append((combine(k, n, coeffs), tuple(sorted(coeffs))))
    return points


@pytest.mark.parametrize("k,n", DIFFERENTIAL_SIZES)
def test_walk_matches_full_scan(k, n):
    rng = rng_for(f"walk-vs-scan-{k}-{n}")
    for t, known in differential_points(rng, k, n):
        walked = nc_decompose(t)
        assert walked == scan(t), t
        if known is not None:
            assert walked.entries == tuple((J, Fraction(m)) for J, m in known)


def test_walk_never_enumerates_maximal_collections(monkeypatch):
    def refuse(*args):
        raise AssertionError("an oracle ran in production")

    monkeypatch.setattr(combinat, "maximal_noncrossing_collections", refuse)
    monkeypatch.setattr(combinat, "noncrossing_collections", refuse)
    ncfan._walk_tables.cache_clear()
    rng = rng_for("walk-no-enumeration")
    for _ in range(20):
        t = random_tpoint(rng, 4, 7)
        assert combine(4, 7, nc_decompose(t).entries) == t
    assert len(audit_fan.__wrapped__(4, 7)) == 462
    # The start cone's inverse is written down and every other cone's comes
    # by a rank-one step: no module of the package inverts a matrix.
    modules = [importlib.import_module(f"tropnc.{info.name}")
               for info in pkgutil.iter_modules(tropnc.__path__)]
    assert exact in modules and ncfan in modules
    for module in modules:
        assert not {"inverse", "_integer_inverse", "_cone_matrix"} & set(vars(module)), module


# Every shape 2 <= k <= n - 2 with n <= 12.
SHAPES_TO_12 = [(k, n) for n in range(4, 13) for k in range(2, n - 1)]


def test_start_cone_is_the_greedy_cone_with_its_fraction_inverse():
    # The rectangle cone in closed form is the cone that a greedy search in
    # node order finds, and its first differences are the Fraction inverse
    # of its ray matrix.
    assert len(SHAPES_TO_12) == 45
    for k, n in SHAPES_TO_12:
        tables = ncfan._walk_tables(k, n)
        assert tables.start == greedy_start(k, n), (k, n)
        cone = _cone_matrix(tables.nodes[j] for j in tables.start)
        assert list(map(list, tables.start_inv)) == _integer_inverse(cone), (k, n)


# The ray of the (3,6) rectangle 1,3,4 is 1 on [1, 1] of row 1; `moved`
# puts that 1 one column right, off the prefix.
MOVE_ONE_RAY = (
    "from tropnc import combinat, ncfan",
    "rectangle = combinat.ksubset(6, (1, 3, 4))",
    "ray = ncfan._ray",
    "moved = lambda J: ((0, 1, 0), (0, 0, 0)) if J == rectangle else ray(J)",
)


def test_start_cone_rejects_a_ray_off_its_prefix(monkeypatch):
    scope = {}
    exec("\n".join(MOVE_ONE_RAY), scope)
    assert ncfan._ray(scope["rectangle"]) == ((1, 0, 0), (0, 0, 0))
    monkeypatch.setattr(ncfan, "_ray", scope["moved"])
    message = "start ray 1,3,4 is not the prefix [1, 1] of row 1"
    with pytest.raises(InvariantError) as exc:
        ncfan._walk_tables.__wrapped__(3, 6)
    assert str(exc.value) == message
    # the check is an explicit raise, so it survives -O
    result = run_optimized(*MOVE_ONE_RAY, "ncfan._ray = moved", "ncfan._walk_tables(3, 6)")
    assert result.returncode == 1
    assert result.stderr.strip().splitlines()[-1] == f"tropnc.exact.InvariantError: {message}"


def test_start_cone_rejects_a_crossing_pair_or_a_missing_rectangle(monkeypatch):
    rows = combinat.compatibility_rows(3, 6)
    cleared = (rows[0] & ~(1 << 5),) + rows[1:]
    monkeypatch.setattr(ncfan, "compatibility_rows", lambda k, n: cleared)
    with pytest.raises(InvariantError, match="^rays 1,2,4 and 1,4,5 of the start cone cross$"):
        ncfan._walk_tables.__wrapped__(3, 6)
    monkeypatch.undo()
    holes = combinat._holes
    monkeypatch.setattr(ncfan, "_holes", lambda elems: elems == (1, 4, 5) or holes(elems))
    with pytest.raises(InvariantError, match=r"^3 noncyclic rectangles, not \(k-1\)\(n-k-1\) = 4$"):
        ncfan._walk_tables.__wrapped__(3, 6)


def test_psi_table_is_the_composed_expansion():
    # The closed form equals the whole planar expansion added over the ray
    # supports, cell by cell: every coefficient +-1, four to six per cell.
    for k, n in SHAPES_TO_12 + [(3, 13), (4, 14), (3, 15)]:
        cells = psi_table_coefficients(k, n)
        assert cells == composed_psi_table(k, n), (k, n)
        assert len(cells) == (k - 1) * (n - k), (k, n)
        assert all(len(cell) in (4, 6) for cell in cells), (k, n)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 8), (4, 9), (5, 9), (5, 10)])
def test_psi_equals_the_two_stage_oracle(k, n):
    rng = rng_for(f"psi-closed-form-{k}-{n}")
    grids = [random_tpoint(rng, k, n) for _ in range(3)]
    grids += [random_rational_tpoint(rng, k, n) for _ in range(3)]
    vectors = [ladder.rho(t) for t in grids]  # positive, integer then rational
    vectors += [random_vector(rng, k, n) for _ in range(3)]  # rational, not positive
    vectors += [PlueckerVector.from_function(k, n, lambda I: rng.randint(-9, 2))
                for _ in range(3)]  # mostly negative integers
    for t, pi in zip(grids, vectors):
        assert psi(pi) == t
    for pi in vectors:
        assert psi(pi) == _psi_scaled(pi)


# Planted faults in one cell of psi's closed form at (4, 8): its first +
# subset swapped for another, or every subset cancelled.
PSI_CELL_FAULTS = {
    "swapped": ("plus = plus - {(1, 2, 3, 6)} | {(1, 2, 3, 7)}",
                "psi cell (2, 3) does not cancel lineality: + [(1, 2, 3, 7), (1, 2, 7, 8), "
                "(1, 5, 6, 7)], - [(1, 2, 5, 6), (1, 2, 6, 7), (1, 3, 7, 8)]"),
    "cancelled": ("minus = plus",
                  "psi cell (2, 3) has a sign with fewer than two terms"),
}


@pytest.mark.parametrize("fault", PSI_CELL_FAULTS)
def test_psi_table_rejects_a_planted_cell(monkeypatch, fault):
    plant, message = PSI_CELL_FAULTS[fault]
    cell = ncfan._psi_cell
    assert cell(4, 8, 2, 3) == ({(1, 2, 3, 6), (1, 5, 6, 7), (1, 2, 7, 8)},
                                {(1, 2, 5, 6), (1, 2, 6, 7), (1, 3, 7, 8)})

    def planted(k, n, r, c):
        plus, minus = cell(k, n, r, c)
        if (k, n, r, c) == (4, 8, 2, 3):
            scope = {"plus": plus, "minus": minus}
            exec(plant, scope)
            plus, minus = scope["plus"], scope["minus"]
        return plus, minus

    pi = ladder.rho(TPoint.zero(4, 8))
    ncfan._psi_table.cache_clear()
    monkeypatch.setattr(ncfan, "_psi_cell", planted)
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        psi(pi)
    monkeypatch.undo()
    assert psi(pi).is_zero()
    # the checks are explicit raises, so they survive -O
    result = run_optimized(
        "from tropnc import ladder, ncfan",
        "from tropnc.ncfan import TPoint",
        "cell = ncfan._psi_cell",
        "def planted(k, n, r, c):",
        "    plus, minus = cell(k, n, r, c)",
        "    if (k, n, r, c) == (4, 8, 2, 3):",
        f"        {plant}",
        "    return plus, minus",
        "ncfan._psi_cell = planted",
        "ncfan.psi(ladder.rho(TPoint.zero(4, 8)))",
    )
    assert result.returncode == 1
    assert result.stderr.strip().splitlines()[-1] == f"tropnc.exact.InvariantError: {message}"


def test_psi_never_runs_the_planar_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("psi ran the planar expansion")

    rng = rng_for("psi-no-expansion")
    grids = [random_tpoint(rng, k, n) for k, n in [(3, 7), (4, 8), (5, 10)]]
    vectors = [ladder.rho(t) for t in grids]
    ncfan._psi_table.cache_clear()
    for name in ("_expand", "_expansion_table", "_scaled_expansion", "planar_expand"):
        monkeypatch.setattr(planar, name, refuse)
    for t, pi in zip(grids, vectors):
        assert psi(pi) == t


def test_cycle_guard_raises(monkeypatch):
    # Flipping position 0 twice returns to the start cone: a forced cycle.
    rng = rng_for("walk-cycle-guard")
    points = [random_tpoint(rng, 3, 7) for _ in range(20)]
    tables = ncfan._walk_tables(3, 7)
    start = [tables.nodes[i].label() for i in tables.start]
    monkeypatch.setattr(ncfan, "_choose_flip", lambda mu: 0 if min(mu) < 0 else None)
    for t in points:
        with pytest.raises(InvariantError) as exc:
            nc_decompose(t)
        assert str(exc.value) == f"flip walk revisited the cone of collection {start}"
    # the guard is an explicit raise, so it survives -O
    result = run_optimized(
        "from tropnc import ncfan",
        "ncfan._choose_flip = lambda mu: 0 if min(mu) < 0 else None",
        "ncfan.nc_decompose(ncfan.TPoint.of(3, 7, [[0, 1, 1, 1], [0, 2, 4, 4]]))",
    )
    assert result.returncode == 1
    assert "InvariantError: flip walk revisited the cone of collection" in result.stderr


def test_walk_reaches_4_8():
    rng = rng_for("walk-4-8")
    for _ in range(20):
        t = random_tpoint(rng, 4, 8)
        tab = nc_decompose(t)
        assert combine(4, 8, tab.entries) == t
        assert all(m > 0 and m.denominator == 1 for _, m in tab.entries)
        support = tab.support()
        assert all(
            combinat.noncrossing(I, J) for i, I in enumerate(support) for J in support[i + 1:]
        )


@pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 6), (3, 7), (4, 7)])
def test_audit_fan_passes(k, n):
    # the flip search finds exactly the fixed-size search's cones, in its order
    assert audit_fan(k, n) == maximal_noncrossing_collections(k, n)


def scaled_ray(node, factor):
    """`_sparse_ray` with the ray of `node` times `factor`: every flip to it
    has pivot -factor (-2: as if its cones had determinant +-2; +1: as if
    it lay on the same side of the facet as the ray it replaces)."""
    sparse_ray = ncfan._sparse_ray
    return lambda J: tuple((c, factor * v) for c, v in sparse_ray(J)) if J == node else sparse_ray(J)


def test_audit_fan_rejects_non_unimodular_cone(monkeypatch):
    tables = ncfan._walk_tables(3, 6)
    node = tables.nodes[tables.start[0]]
    for factor in (2, -1):
        monkeypatch.undo()
        monkeypatch.setattr(ncfan, "_sparse_ray", scaled_ray(node, factor))
        message = f"^flip of 1,3,6 to 1,2,4 has pivot {-factor}, not -1$"
        with pytest.raises(InvariantError, match=message):
            audit_fan.__wrapped__(3, 6)


def test_walk_rejects_a_pivot_other_than_minus_one(monkeypatch):
    # a walk to a ray outside the start cone must flip to it
    tables = ncfan._walk_tables(3, 6)
    for node in (tables.nodes[j] for j in range(len(tables.nodes)) if j not in tables.start):
        for factor in (2, -1):
            monkeypatch.setattr(ncfan, "_sparse_ray", scaled_ray(node, factor))
            with pytest.raises(InvariantError, match=f"to {node.label()} has pivot {-factor}, not -1$"):
                nc_decompose(t_vector(node))
            monkeypatch.undo()


def test_audit_fan_rejects_a_short_cone_count(monkeypatch):
    monkeypatch.setattr(ncfan, "_maximal_cone_count", lambda k, n: 43)
    with pytest.raises(InvariantError, match="reached 42 maximal cones, not the hook-length count 43"):
        audit_fan.__wrapped__(3, 6)


# --------------------------------------------- compatibility rows in the walk

# Finds the first flip of a (3,7) walk to a ray outside the start cone,
# and clears the partner's bit in the row of another ray of the start cone:
# one bit of one row, in walk tables that carry the patched row tuple.
CLEAR_ONE_BIT = (
    "from tropnc import exact, ncfan",
    "tables = ncfan._walk_tables(3, 7)",
    "rows = tables.rows",
    "ray = next(j for j in range(len(rows)) if j not in tables.start)",
    "t = ncfan.t_vector(tables.nodes[ray])",
    "target, _ = exact.scaled(ncfan.lattice_coords(t))",
    "mu = [sum(a * b for a, b in zip(row, target)) for row in tables.start_inv]",
    "i = ncfan._choose_flip(mu)",
    "new = ncfan._flip_partner(tables, tables.start, i)",
    "victim = tables.start[i - 1]",
    "cleared = rows[:victim] + (rows[victim] & ~(1 << new),) + rows[victim + 1:]",
    "patched = ncfan._WalkTables(tables.nodes, cleared, tables.start, tables.start_inv)",
)
CLEAR_ONE_BIT_ERROR = ("facet of collection ['1,2,4', '1,2,5', '1,2,6', '1,3,4', '1,4,5', "
                       "'1,5,6'] without ray 1,2,4 has 0 flip partners, not 1")


def test_clearing_one_row_bit_breaks_the_walk(monkeypatch):
    scope = {}
    exec("\n".join(CLEAR_ONE_BIT), scope)
    t = scope["t"]
    assert nc_decompose(t).entries == ((scope["tables"].nodes[scope["ray"]], 1),)
    pi = ladder.rho(t)
    assert weight.weight_report(pi).nc_weight == 1
    assert scope["cleared"] != scope["rows"]
    monkeypatch.setattr(ncfan, "_walk_tables", lambda k, n: scope["patched"])
    with pytest.raises(InvariantError, match=f"^{re.escape(CLEAR_ONE_BIT_ERROR)}$"):
        nc_decompose(t)
    with pytest.raises(InvariantError, match=f"^{re.escape(CLEAR_ONE_BIT_ERROR)}$"):
        weight.weight_report(pi)
    # the check is an explicit raise, so it survives -O, on both paths
    for call in ("ncfan.nc_decompose(t)", "weight.weight_report(ladder.rho(t))"):
        result = run_optimized(
            *CLEAR_ONE_BIT,
            "from tropnc import ladder, weight",
            "ncfan._walk_tables = lambda k, n: patched",
            call,
        )
        assert result.returncode == 1, call
        assert result.stderr.strip().splitlines()[-1].endswith(f": {CLEAR_ONE_BIT_ERROR}")


def test_clearing_one_row_bit_breaks_the_audit(monkeypatch):
    tables = ncfan._walk_tables(3, 6)
    rows = tables.rows
    neighbour = (rows[0] & -rows[0]).bit_length() - 1
    cleared = (rows[0] & ~(1 << neighbour),) + rows[1:]
    patched = ncfan._WalkTables(tables.nodes, cleared, tables.start, tables.start_inv)
    monkeypatch.setattr(ncfan, "_walk_tables", lambda k, n: patched)
    expected = ("facet of collection ['1,2,4', '2,4,6', '2,5,6', '2,4,5'] without ray 2,4,6 "
                "has 0 flip partners, not 1")
    with pytest.raises(InvariantError, match=f"^{re.escape(expected)}$"):
        audit_fan.__wrapped__(3, 6)


def test_desk_scale_walk_counts():
    # The CI grid at (6,12): 912 noncyclic subsets, 415,416 pairs.
    result = run_optimized(
        "import random",
        "from tropnc import ncfan",
        "rng = random.Random(612)",
        "t = ncfan.TPoint.of(6, 12, [[rng.randint(0, 4) for _ in range(6)] for _ in range(5)])",
        "tab = ncfan.nc_decompose(t)",
        "c = ncfan.WALK_COUNTS",
        "print(c['walks'], c['flips'], tab.weight(), len(tab.entries))",
    )
    assert result.returncode == 0, result.stderr
    walks, flips, weight, entries = map(int, result.stdout.split())
    assert (walks, flips, weight, entries) == (1, 43, 13, 9)
