"""PK weight, the bridge functional, and its grid-side closed form."""

import itertools
from fractions import Fraction

import pytest

from conftest import (
    CROSSING_WALK_ERROR,
    CROSSING_WALK_TABLES,
    random_rational_tpoint,
    random_tpoint,
    random_vector,
    rng_for,
    run_optimized,
    vector_312,
)
from oracles import scan
from tropnc import combinat, ladder, ncfan, planar, pluecker
from tropnc.combinat import (
    cyc_interval,
    gap_interval,
    ksubset,
    maximal_noncrossing_collections,
    noncrossing,
    noncyclic_subsets,
)
from tropnc.exact import InvariantError
from tropnc.ladder import LadderPoint, grid_of, pluecker_vector_of_grid, rho
from tropnc.ncfan import TPoint, nc_decompose, psi, t_vector
from tropnc.pluecker import PlueckerVector, face_restrict_one, lineality_vector
from tropnc.weight import (
    bridge,
    closed_form_tropical,
    pk_weight,
    q_factor_terms,
    q_factor_tropical,
    weight_report,
    weight_two_candidates,
)


def test_pk_weight_examples():
    for n in (5, 6):
        for J in noncyclic_subsets(2, n):
            assert pk_weight(planar.planar_basis_vector(J)) == 1
    pi = planar.planar_combination(
        3, 6, {(1, 3, 5): -1, (2, 3, 5): 1, (1, 4, 5): 1, (1, 3, 6): 1}
    )
    assert pk_weight(pi) == 2
    rng = rng_for("pk-lineality")
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
    assert pk_weight(lineality_vector(3, 6, x)) == 0


def test_bridge_equals_pk_weight_always():
    # the two functionals coincide identically, not only on positive vectors
    rng = rng_for("bridge-pk")
    for _ in range(10):
        pi = random_vector(rng, 3, 6)
        assert bridge(pi) == pk_weight(pi)
    x = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    assert bridge(lineality_vector(3, 6, x)) == 0


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7)])
def test_bridge_normalization_on_rays(k, n):
    for J in noncyclic_subsets(k, n):
        assert bridge(rho(t_vector(J))) == 1


def test_closed_form_zero_grid():
    assert closed_form_tropical(LadderPoint.zero(3, 7)) == 0


def test_closed_form_matches_bridge():
    rng = rng_for("closed-form")
    for k, n in [(3, 6), (3, 7), (4, 7)]:
        for _ in range(8):
            y = LadderPoint.of(
                k,
                n,
                [
                    [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n - k)]
                    for _ in range(k - 1)
                ],
            )
            assert closed_form_tropical(y) == bridge(pluecker_vector_of_grid(y))


def test_q_factor_terms_3_7():
    assert q_factor_terms(3, 7, 1) == [
        ((1, 1), (2, 1)),
        ((1, 1), (2, 2)),
        ((1, 2), (2, 2)),
    ]


def test_q_factor_terms_4_7():
    for j in (1, 2):
        terms = q_factor_terms(4, 7, j)
        assert len(terms) == 4
        assert all(len(t) == 3 for t in terms)


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7)])
def test_q_factor_linear_on_noncrossing_pairs(k, n):
    for I, J in itertools.combinations(noncyclic_subsets(k, n), 2):
        if not noncrossing(I, J):
            continue
        yi, yj = grid_of(t_vector(I)), grid_of(t_vector(J))
        total = yi + yj
        for j in range(1, n - k):
            assert q_factor_tropical(total, j) == q_factor_tropical(yi, j) + q_factor_tropical(yj, j)


def test_bridge_linear_on_noncrossing_cones():
    rng = rng_for("bridge-linear")
    colls = maximal_noncrossing_collections(3, 6)
    for _ in range(10):
        coll = colls[rng.randrange(len(colls))]
        mus = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in coll]
        t = TPoint.zero(3, 6)
        for K, m in zip(coll, mus):
            t = t + t_vector(K).scale(m)
        assert bridge(rho(t)) == sum(mus)


def test_weight_report_examples():
    rep = weight_report(planar.planar_basis_vector(ksubset(6, [1, 4, 5])))
    assert (rep.pk_weight, rep.nc_weight, rep.bridge_value, rep.agree) == (1, 1, 1, True)
    rep = weight_report(PlueckerVector.zero(3, 6))
    assert (rep.pk_weight, rep.nc_weight, rep.bridge_value, rep.agree) == (0, 0, 0, True)


def test_weight_equality_random_points():
    rng = rng_for("weight-equality")
    for _ in range(40):
        t = random_tpoint(rng, 3, 6)
        pi = rho(t)
        assert pk_weight(pi) == ncfan.nc_weight(t) == bridge(pi)


def test_pk_weight_nonnegative_and_faithful_on_positive_vectors():
    rng = rng_for("pk-nonneg")
    for _ in range(15):
        t = random_tpoint(rng, 3, 6)
        pi = rho(t)
        w = pk_weight(pi)
        assert w >= 0
        assert (w == 0) == t.is_zero()


def test_pk_weight_monotone_under_face_restriction():
    rng = rng_for("pk-monotone")
    for _ in range(10):
        pi = rho(random_tpoint(rng, 3, 7))
        w = pk_weight(pi)
        for ell in range(1, 8):
            assert w >= pk_weight(face_restrict_one(pi, ell))


def test_weight_312_value():
    pi = vector_312()
    assert pk_weight(pi) == 4
    assert bridge(pi) == 4


def test_weight_two_candidates_3_6():
    cands = weight_two_candidates(3, 6)
    pairs = {(I.elems, J.elems) for I, J, _ in cands}
    assert pairs == {((1, 2, 4), (3, 5, 6)), ((1, 4, 5), (2, 3, 6))}
    for _, _, vec in cands:
        assert pk_weight(vec) == 2


def test_weight_two_candidates_run_the_full_scan(monkeypatch):
    # A plan without steps leaves every non-seed entry 0.  The certificate
    # replays no step and passes such a vector; the full scan names the
    # first candidate pair and its first violation.
    real = ladder._plan
    monkeypatch.setattr(ladder, "_plan", lambda k, n: (real(k, n)[0], ()))
    stripped = rho(t_vector(ksubset(6, [1, 2, 4])) + t_vector(ksubset(6, [3, 5, 6])))
    assert pluecker.is_positive_tropical(stripped).ok
    with pytest.raises(InvariantError) as exc:
        weight_two_candidates(3, 6)
    assert str(exc.value) == (
        "candidate (1, 2, 4),(3, 5, 6) failed positivity: S = (3,), (a, b, c, d) = "
        "(1, 2, 4, 6): pi_Sac + pi_Sbd = 1 but min(pi_Sab + pi_Scd, pi_Sad + pi_Sbc) = 0")


@pytest.mark.parametrize("n", [5, 6, 7])
def test_weight_two_candidates_empty_for_k2(n):
    assert weight_two_candidates(2, n) == []


def test_weight_report_expands_once_and_matches_its_parts(monkeypatch):
    # A vector built from Fractions is scaled once, when it is made, and a
    # rho vector never, since rho hands over integers and a scale.  The
    # expansion, the projection and the walk read those integers and scale
    # nothing again.
    rng = rng_for("weight-report-one-expansion")
    grids = [random_tpoint(rng, 4, 7) for _ in range(5)]
    fraction_vectors = [random_vector(rng, 3, 6), random_vector(rng, 4, 7)]
    cases = [(True, t) for t in grids] + [(False, pi) for pi in fraction_vectors]
    reference = [rho(x) if from_grid else x for from_grid, x in cases]
    expected = [(pk_weight(pi), ncfan.nc_weight(ncfan.psi(pi)), bridge(pi)) for pi in reference]
    calls = []

    def refuse(*args):
        raise AssertionError("a second scaling ran")

    scale_once = pluecker.scaled
    monkeypatch.setattr(pluecker, "scaled", lambda values: calls.append(values) or scale_once(values))
    monkeypatch.setattr(planar, "_scaled_expansion", refuse)
    monkeypatch.setattr(ncfan, "scaled", refuse)
    # a point is integers over a scale already, so rho scales nothing either
    monkeypatch.setattr(ladder, "scaled", refuse)
    for (from_grid, x), (pk, nc, br) in zip(cases, expected):
        calls.clear()
        pi = rho(x) if from_grid else PlueckerVector(x.k, x.n, x.values)
        walks = ncfan.WALK_COUNTS["walks"]
        rep = weight_report(pi)
        assert calls == ([] if from_grid else [pi.values])
        assert ncfan.WALK_COUNTS["walks"] - walks == 1
        assert (rep.pk_weight, rep.nc_weight, rep.bridge_value) == (pk, nc, br)
        assert rep.agree == (pk == nc == br)
        assert weight_report(pi) == rep
        assert len(calls) == (0 if from_grid else 1)


def test_weight_report_builds_no_tableau_and_no_fraction_point(monkeypatch):
    rng = rng_for("weight-report-integer-path")
    vectors = [rho(random_rational_tpoint(rng, k, n)) for k, n in [(3, 6), (3, 7), (4, 7)] * 3]
    vectors += [random_vector(rng, 3, 7) for _ in range(3)]
    expected = [weight_report(pi) for pi in vectors]

    def refuse(*args, **kwargs):
        raise AssertionError("the weight path left scaled integers")

    for module, name in [(combinat, "tableau"),
                         (combinat, "NoncrossingTableau"), (ncfan, "NoncrossingTableau"),
                         (ncfan, "lattice_coords"), (PlueckerVector, "__getitem__")]:
        monkeypatch.setattr(module, name, refuse)
    # `bridge`, which weight_report calls, reads pi's scaled form, not its Fraction values
    monkeypatch.setattr(PlueckerVector, "values", property(refuse))
    assert [weight_report(pi) for pi in vectors] == expected


def fraction_bridge(pi):
    """The bridge functional by its `Fraction` formula over subset tuples."""
    k, n = pi.k, pi.n
    return sum(
        (pi[cyc_interval(j, k, n)] - pi[gap_interval(j, k, n)] for j in range(n)), Fraction(0)
    )


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 7)])
def test_weight_report_matches_fraction_references(k, n):
    rng = rng_for(f"weight-report-references-{k}-{n}")
    grids = [random_rational_tpoint(rng, k, n) for _ in range(4)]
    grids += [random_tpoint(rng, k, n, lo=-4, hi=4) for _ in range(2)]
    vectors = [rho(t) for t in grids]
    vectors += [pi + lineality_vector(k, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                           for _ in range(n)]) for pi in vectors]
    vectors += [random_vector(rng, k, n) for _ in range(4)]
    for pi in vectors:
        rep = weight_report(pi)
        pk = sum((planar.tropical_u(J, pi) for J in noncyclic_subsets(k, n)), Fraction(0))
        nc = scan(psi(pi)).weight()
        br = fraction_bridge(pi)
        assert (rep.pk_weight, rep.nc_weight, rep.bridge_value, rep.agree) == (
            pk, nc, br, pk == nc == br), pi
        assert bridge(pi) == br
    for t in grids + [psi(pi) for pi in vectors]:
        assert nc_decompose(t) == scan(t), t


def test_weight_report_rejects_a_crossing_support(monkeypatch):
    # The walk checks its positive support pairwise on its own rows, as an
    # invariant: weight_report and nc_decompose raise InvariantError.
    scope = {}
    exec("\n".join(CROSSING_WALK_TABLES), scope)
    t = scope["t"]
    pi = rho(t)
    assert weight_report(pi).nc_weight == 2 and nc_decompose(t).weight() == 2
    monkeypatch.setattr(ncfan, "_walk_tables", lambda k, n: scope["patched"])
    for call in (lambda: weight_report(pi), lambda: nc_decompose(t)):
        with pytest.raises(InvariantError) as exc:
            call()
        assert str(exc.value) == CROSSING_WALK_ERROR
    # the check is an explicit raise, so it survives -O, on both paths
    for call in ("weight.weight_report(ladder.rho(t))", "ncfan.nc_decompose(t)"):
        result = run_optimized(
            *CROSSING_WALK_TABLES,
            "from tropnc import ladder, weight",
            call,
            "ncfan._walk_tables = lambda k, n: patched",
            call,
        )
        assert result.returncode == 1, call
        assert result.stderr.strip().splitlines()[-1] == (
            f"tropnc.exact.InvariantError: {CROSSING_WALK_ERROR}")
