"""Path families in the ladder network and min-plus Plücker evaluation."""

import importlib
import itertools
import json
import math
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import RAY_SHAPES, random_tpoint, rng_for, run_optimized
import oracles
from oracles import one_family_subsets, three_term_reference
import tropnc
from tropnc import cli, ladder, ncfan, planar, troplin
from tropnc.combinat import (
    all_ksubsets,
    cyclic_endpoints,
    ksubset,
    mod1,
    noncyclic_subsets,
)
from tropnc.ladder import (
    LadderPoint,
    PathFamily,
    enumerate_path_families,
    grid_of,
    pluecker_vector_of_grid,
    rho,
    tropical_pluecker,
)
from tropnc.exact import InvariantError
from tropnc.ncfan import TPoint, audit_fan, psi, t_vector
from tropnc.pluecker import (
    PlueckerVector,
    equivalent_mod_lineality,
    is_positive_tropical,
    lex_rank,
)
from tropnc.weight import weight_report


def test_initial_subset_has_single_empty_family():
    fams = enumerate_path_families(ksubset(7, [1, 2, 3]))
    assert len(fams) == 1 and fams[0].edges() == ()
    assert tropical_pluecker(ksubset(7, [1, 2, 3]), LadderPoint.zero(3, 7)) == 0


def test_families_357_match_display():
    fams = enumerate_path_families(ksubset(7, [3, 5, 7]))
    got = sorted(tuple(sorted(f.edges())) for f in fams)
    expected = sorted(
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
    assert got == expected


def test_families_4_10_count_and_degree():
    fams = enumerate_path_families(ksubset(10, [4, 6, 8, 10]))
    assert len(fams) == 64
    assert all(f.degree() == 6 for f in fams)


def test_single_source_minor_count():
    # the matrix entry m_{1,2} at (3,6) is the Plücker coordinate of {2,3,5};
    # it has three monomials
    fams = enumerate_path_families(ksubset(6, [2, 3, 5]))
    got = sorted(tuple(sorted(f.edges())) for f in fams)
    assert got == [
        ((1, 1), (2, 1)),
        ((1, 1), (2, 2)),
        ((1, 2), (2, 2)),
    ]


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7), (4, 7)])
def test_single_source_counts_match_stars_and_bars(k, n):
    # a single active source i with sink j admits one family per weakly
    # increasing descent tuple of length k - i in [1, j]
    for i in range(1, k + 1):
        for j in range(1, n - k + 1):
            elems = [x for x in range(1, k + 1) if x != i] + [k + j]
            fams = enumerate_path_families(ksubset(n, elems))
            assert len(fams) == math.comb(j + k - i - 1, k - i)


def test_zero_grid_evaluates_to_zero():
    y = LadderPoint.zero(3, 6)
    for J in all_ksubsets(3, 6):
        assert tropical_pluecker(J, y) == 0


def test_wrap_around_vanishing():
    # every endpoint shift involving n lands a subset containing 1, whose
    # value at the ray grid is zero
    for J in noncyclic_subsets(3, 6):
        if 6 not in J.elems:
            continue
        y = grid_of(t_vector(J))
        endpoints = cyclic_endpoints(J)
        for r in range(1, len(endpoints) + 1):
            for M in itertools.combinations(endpoints, r):
                if 6 not in M:
                    continue
                shifted = set(J.elems)
                for m in M:
                    shifted.remove(m)
                    shifted.add(mod1(m + 1, 6))
                assert 1 in shifted
                assert tropical_pluecker(ksubset(6, shifted), y) == 0


def test_subset_containing_one_ignores_row_one():
    rng = rng_for("row-one")
    for J in all_ksubsets(3, 6):
        if 1 not in J.elems:
            continue
        rows = [[rng.randint(0, 5) for _ in range(3)] for _ in range(2)]
        bumped = [[v + rng.randint(1, 9) for v in rows[0]], list(rows[1])]
        a = tropical_pluecker(J, LadderPoint.of(3, 6, rows))
        b = tropical_pluecker(J, LadderPoint.of(3, 6, bumped))
        assert a == b


def test_t_vector_support_intervals():
    for k, n in RAY_SHAPES:
        for J in noncyclic_subsets(k, n):
            t = t_vector(J)
            for level in range(1, k):
                lo = J.elems[level - 1] - (level - 1)
                hi = J.elems[level] - (level + 1)
                want = set(range(max(lo, 1), min(hi, n - k) + 1))
                got = {s + 1 for s, v in enumerate(t.rows[level - 1]) if v != 0}
                assert want == got, (J, level)
                assert all(t.rows[level - 1][s - 1] == 1 for s in got), (J, level)


def test_diagonal_duality_values():
    y135 = grid_of(t_vector(ksubset(6, [1, 3, 5])))
    v135 = pluecker_vector_of_grid(y135)
    assert planar.tropical_u(ksubset(6, [1, 3, 5]), v135) == 1
    v246 = rho(t_vector(ksubset(6, [2, 4, 6])))
    assert planar.tropical_u(ksubset(6, [1, 3, 5]), v246) == 0


def test_rho_zero_and_inverse():
    assert equivalent_mod_lineality(rho(TPoint.zero(3, 6)), PlueckerVector.zero(3, 6))
    for J in all_ksubsets(3, 6):
        assert psi(rho(t_vector(J))) == t_vector(J)


def test_rho_positive_on_random_points():
    rng = rng_for("rho-positive")
    for _ in range(25):
        t = random_tpoint(rng, 3, 7)
        assert is_positive_tropical(rho(t)).ok


def test_rho_representative_independence():
    rng = rng_for("rho-representative")
    for _ in range(10):
        t = random_tpoint(rng, 3, 6)
        shifts = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        other = LadderPoint.of(
            3, 6, [[v + shifts[i] for v in row] for i, row in enumerate(t.rows)]
        )
        assert equivalent_mod_lineality(rho(t), pluecker_vector_of_grid(other))


def test_psi_rho_inverse_on_random_points():
    rng = rng_for("psi-rho")
    for _ in range(15):
        t = random_tpoint(rng, 3, 6)
        assert psi(rho(t)) == t


def _seeded_grids(rng, k, n):
    """Integer, negative-integer, and halves-and-thirds grids at (k, n)."""
    def grid(draw):
        return LadderPoint.of(k, n, [[draw() for _ in range(n - k)] for _ in range(k - 1)])

    return [
        grid(lambda: rng.randint(0, 6)),
        grid(lambda: rng.randint(-6, 6)),
        grid(lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))),
        grid(lambda: Fraction(rng.randint(-9, 9), rng.choice((2, 3)))),
    ]


@pytest.mark.parametrize("k,n", [(2, 5), (3, 5), (3, 6), (3, 7), (4, 6), (4, 8),
                                 (5, 7), (5, 9), (5, 10)])
def test_grid_kernel_matches_fraction_reference(k, n):
    rng = rng_for(f"grid-kernel-{k}-{n}")
    for y in _seeded_grids(rng, k, n):
        pi = pluecker_vector_of_grid(y)
        for J in all_ksubsets(k, n):
            assert pi[J] == tropical_pluecker(J, y), (J.elems, y)


@pytest.mark.parametrize("k,n", [(k, n) for n in range(4, 13) for k in range(2, n - 1)])
def test_plan_reaches_every_subset_once(k, n):
    seeds, steps = ladder._plan(k, n)
    assert len(seeds) == k * (n - k) + 1
    assert len(steps) == math.comb(n, k) - k * (n - k) - 1
    known = {rank for rank, _ in seeds}
    assert len(known) == len(seeds)
    for target, *inputs in steps:
        # each step reads only entries already known, and fills a new one
        assert target not in known and known.issuperset(inputs)
        known.add(target)
    assert known == set(range(math.comb(n, k)))


SHAPES_TO_12 = [(k, n) for n in range(4, 13) for k in range(2, n - 1)]


@pytest.mark.parametrize("k,n", SHAPES_TO_12)
def test_rectangles_are_the_subsets_with_one_family(k, n):
    # the rectangles are the hole-free subsets, and they are the seeds,
    # each with the closed-form edges of its one enumerated family
    hole_free = [elems for elems in lex_rank(k, n) if not ladder._holes(elems)]
    assert hole_free == one_family_subsets(k, n)
    assert len(hole_free) == k * (n - k) + 1
    seeds, _ = ladder._plan(k, n)
    assert [rank for rank, _ in seeds] == [lex_rank(k, n)[elems] for elems in hole_free]
    for elems, (_, edges) in zip(hole_free, seeds):
        (family,) = ladder._path_families(ksubset(n, elems))
        flat = tuple((level - 1) * (n - k) + t - 1 for level, t in PathFamily(family).edges())
        assert edges == flat, elems


@pytest.mark.parametrize("k,n", SHAPES_TO_12)
def test_rectangles_are_the_initial_minors(k, n):
    # Read with rail k as row 1, the active sources of J are rows and its
    # sinks columns.  The initial minors (row and column sets intervals,
    # one containing 1, or both empty) are exactly the rectangles.
    def interval(xs):
        return xs == list(range(xs[0], xs[0] + len(xs)))

    def initial(elems):
        rows = sorted(k + 1 - r for r in range(1, k + 1) if r not in elems)
        cols = [x - k for x in elems if x > k]
        return not rows or (interval(rows) and interval(cols) and 1 in (rows[0], cols[0]))

    assert ([elems for elems in lex_rank(k, n) if initial(elems)]
            == [elems for elems in lex_rank(k, n) if not ladder._holes(elems)])


@pytest.mark.parametrize("k,n", [(2, 5), (3, 5), (3, 6), (3, 7), (4, 6), (4, 8),
                                 (5, 7), (5, 9), (5, 10), (6, 12)])
def test_plan_fills_any_seed_values_to_a_positive_vector(k, n):
    # seed values from no grid: the rank check promises a grid and a
    # lineality shift that reach them, so the filled vector is positive
    rng = rng_for(f"seed-values-{k}-{n}")
    seeds, steps = ladder._plan(k, n)
    for _ in range(2 if n == 12 else 12):
        vals = [0] * math.comb(n, k)
        for rank, _ in seeds:
            vals[rank] = rng.randint(-20, 20)
        for target, ab, cd, ad, bc, other in steps:
            vals[target] = min(vals[ab] + vals[cd], vals[ad] + vals[bc]) - vals[other]
        pi = PlueckerVector(k, n, vals)
        assert three_term_reference(pi) is None
        assert is_positive_tropical(pi).ok


# Every seed given an empty family: the seed rows are bare subset
# indicators, which span at most n = 6 of the k(n-k)+1 = 10 dimensions.
LOW_RANK = "(3,6): the seed incidence has rank 6 over GF(2), not k(n-k)+1 = 10"


def test_seed_incidence_without_full_rank_raises(monkeypatch):
    monkeypatch.setattr(ladder, "_rectangle_family", lambda elems, k, n: ())
    ladder._plan.cache_clear()
    with pytest.raises(InvariantError) as exc:
        rho(TPoint.zero(3, 6))
    assert str(exc.value) == LOW_RANK


def test_seed_incidence_without_full_rank_raises_under_optimize():
    result = run_optimized(
        "from tropnc import ladder",
        "from tropnc.exact import InvariantError",
        "from tropnc.pluecker import is_positive_tropical, lineality_vector",
        "ladder._rectangle_family = lambda elems, k, n: ()",
        "try:",
        "    is_positive_tropical(lineality_vector(3, 6, [1, 0, 0, 0, 0, 0]))",
        "except InvariantError as exc:",
        "    print(exc)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == LOW_RANK + "\n"


def test_subset_with_two_families_among_the_seeds_raises(monkeypatch):
    # (1, 2, 3) counted as a subset with holes leaves 9 seeds
    monkeypatch.setattr(ladder, "_holes",
                        lambda elems, real=ladder._holes: elems == (1, 2, 3) or real(elems))
    ladder._plan.cache_clear()
    with pytest.raises(InvariantError,
                       match=r"^\(3,6\): 9 hole-free subsets, not k\(n-k\)\+1 = 10$"):
        rho(TPoint.zero(3, 6))


# Holes counted down: (1, 3, 6), with two, comes first, and its step
# reads (1, 3, 5), with one, before that has a value.
UNKNOWN_INPUT = "(3,6): the three-term step for (1, 3, 6) reads a subset not yet known"


def test_a_step_reading_an_unknown_subset_raises(monkeypatch):
    monkeypatch.setattr(ladder, "_holes", lambda elems, real=ladder._holes: -real(elems))
    ladder._plan.cache_clear()
    with pytest.raises(InvariantError) as exc:
        rho(TPoint.zero(3, 6))
    assert str(exc.value) == UNKNOWN_INPUT


def test_a_step_reading_an_unknown_subset_raises_under_optimize():
    result = run_optimized(
        "from tropnc import ladder",
        "from tropnc.exact import InvariantError",
        "from tropnc.ncfan import TPoint",
        "real = ladder._holes",
        "ladder._holes = lambda elems: -real(elems)",
        "try:",
        "    ladder.rho(TPoint.zero(3, 6))",
        "except InvariantError as exc:",
        "    print(exc)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == UNKNOWN_INPUT + "\n"


def test_production_path_never_calls_the_fraction_references(monkeypatch):
    def reference_called(*args, **kwargs):
        raise AssertionError("a Fraction reference was called")

    families = ladder.enumerate_path_families
    families.cache_clear()
    ladder._plan.cache_clear()
    for cached in (ncfan._psi_table, ncfan._sparse_ray, ncfan._walk_tables,
                   planar._expansion_table, planar.cubical_array):
        cached.cache_clear()
    rng = rng_for("production-path")
    shapes = [(3, 7), (4, 8)]
    points = [random_tpoint(rng, k, n) for k, n in shapes]
    weighed = random_tpoint(rng, 3, 7)
    monkeypatch.setattr(ladder, "tropical_pluecker", reference_called)
    monkeypatch.setattr(ladder, "enumerate_path_families", reference_called)
    # the plan's seeds come in closed form, not from a family search
    monkeypatch.setattr(ladder, "_path_families", reference_called)
    # subdifferential_at reads interval ranks, not the 2^n rank inequalities
    monkeypatch.setattr(troplin, "Matroid", reference_called)
    monkeypatch.setattr(troplin, "matroid_polytope_contains", reference_called)
    monkeypatch.setattr(planar, "tropical_u", reference_called)
    # the expansion table is built on bitmasks, not from the cubical arrays
    monkeypatch.setattr(planar, "cubical_array", reference_called)
    # the second route to the fan rays, the roof-value reference, psi's
    # two-stage definition and the Fraction canonical form of a point are
    # oracles with the tests, in no package module: rays and points are
    # integers over a scale
    moved = {"t_tilde_vector", "TTildePoint", "phi", "central_roof_value",
             "_ray_supports", "_psi_rows", "_psi_scaled", "_canonical_rows"}
    modules = [importlib.import_module(f"tropnc.{info.name}")
               for info in pkgutil.iter_modules(tropnc.__path__)]
    assert ncfan in modules and troplin in modules
    for module in (tropnc, *modules):
        assert not moved & set(vars(module)), module
    for name in moved:
        monkeypatch.setattr(oracles, name, reference_called)
    tableaux = []
    for (k, n), t in zip(shapes, points):
        pi = rho(t)
        assert families.cache_info().currsize == 0
        assert is_positive_tropical(pi).ok
        assert psi(pi) == t
        # the round trip reads the scaled forms that rho and psi handed
        # over and never builds the Fraction views
        assert pi._values is None and "rows" not in vars(t)
        assert len(planar.planar_expand(pi)) == len(noncyclic_subsets(k, n))
        tableaux.append(ncfan.nc_decompose(t))
    assert weight_report(rho(weighed)).agree
    assert troplin.subdifferential_at(rho(weighed), [Fraction(3, 7)] * 7)
    report = troplin.diameter_check(rho(weighed))
    balanced = troplin.balanced_representative(rho(weighed))
    assert troplin.bounded_complex_edges(balanced, report.vertices) and report.within_dilate
    ncyc = noncyclic_subsets(4, 8)
    assert cli._duality_failures(ncyc, [rho(t_vector(K)) for K in ncyc]) == []
    assert len(audit_fan.__wrapped__(4, 7)) == 462
    monkeypatch.undo()
    for t, tab in zip(points, tableaux):
        rebuilt = TPoint.zero(t.k, t.n)
        for J, m in tab.entries:
            rebuilt = rebuilt + t_vector(J).scale(m)
        assert rebuilt == t


# The references kept in the package as documented API (README,
# "Reference implementations"): (module, name) pairs.
REFERENCES = (
    ("ladder", "enumerate_path_families"), ("ladder", "PathFamily"),
    ("ladder", "tropical_pluecker"), ("planar", "tropical_u"), ("planar", "cubical_array"),
    ("troplin", "argmin_matroid"), ("troplin", "Matroid"),
    ("troplin", "matroid_polytope_contains"), ("troplin", "is_connected"),
    ("troplin", "grassmann_necklace"), ("troplin", "in_linear_space"),
)


def test_references_are_documented_api_that_no_command_calls(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Reference implementations\n")[1].split("\n#")[0]
    for module, name in REFERENCES:
        assert callable(getattr(getattr(tropnc, module), name))
        assert f"`{module}.{name}`" in section
    # A fresh process, so that no first-use table was built before the
    # refusals: every command, then the library's bounded-complex queries.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"k": 3, "n": 7, "rows": [[2, 0, 1, 1], [1, 3, 0, 2]]}))
    vector = tmp_path / "vector.json"
    result = run_optimized(
        "from fractions import Fraction",
        "from tropnc import cli, ladder, planar, pluecker, troplin",
        "def refuse(*args, **kwargs):",
        "    raise RuntimeError('a reference ran on a production path')",
        f"for module, name in {REFERENCES!r}:",
        "    setattr(globals()[module], name, refuse)",
        f"grid, vector, out = {str(grid)!r}, {str(vector)!r}, {str(tmp_path / 'out.json')!r}",
        "codes = [cli.main(['rho', '--in', grid, '--out', vector]),",
        "         cli.main(['decompose', '--in', grid, '--out', out])]",
        "for command in ('weight', 'psi', 'bounded', 'diameter'):",
        "    codes.append(cli.main([command, '--in', vector, '--out', out]))",
        "for command in ('duality', 'verify'):",
        "    codes.append(cli.main([command, '--k', '3', '--n', '7', '--out', out]))",
        "pi = pluecker.from_json_dict(cli._read_json(vector))",
        "w = troplin.bounded_complex_vertices(pi).vertices[0]",
        "print(codes, troplin.face_dimension_at(pi, w), troplin.in_bounded_part(pi, w),",
        "      len(troplin.subdifferential_at(pi, [Fraction(3, 7)] * 7)) > 0)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0, 0, 0, 0, 0] 0 True True\n"
