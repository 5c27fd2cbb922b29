"""Plücker vector storage, positivity certificates, and face restrictions."""

import itertools
import math
from fractions import Fraction

import pytest

from conftest import (
    ci_grid_612,
    random_positive_vector,
    random_rational_tpoint,
    random_tpoint,
    random_vector,
    rng_for,
    run_optimized,
)
from oracles import three_term_reference
from tropnc import exact, ladder, planar, pluecker, troplin
from tropnc.combinat import ksubset, noncyclic_subsets, weakly_separated
from tropnc.exact import InvariantError, SchemaError
from tropnc.ncfan import TPoint
from tropnc.planar import planar_basis_vector
from tropnc.pluecker import (
    PlueckerVector,
    PositivityCertificate,
    equivalent_mod_lineality,
    face_restrict_one,
    face_restrict_zero,
    face_restrict_zero_multi,
    is_positive_tropical,
    lineality_basis,
    lineality_shift,
    lineality_vector,
)


def test_vector_must_be_total():
    # one value per k-subset: too few and too many are refused
    for bad in ([], [1], [0] * 5, [0] * 7):
        with pytest.raises(ValueError):
            PlueckerVector(2, 4, bad)
    # the subset labels of a JSON vector must cover every subset exactly
    full = {"1,2": "1", "1,3": "0", "1,4": "0", "2,3": "0", "2,4": "0", "3,4": "0"}
    with pytest.raises(SchemaError) as exc:
        pluecker.from_json_dict({"k": 2, "n": 4, "entries": {"1,2": "1"}})
    assert exc.value.pointer == "/entries"
    with pytest.raises(SchemaError) as exc:
        pluecker.from_json_dict({"k": 2, "n": 4, "entries": {**full, "1,5": "0"}})
    assert exc.value.pointer == "/entries/1,5"


def test_constructor_refuses_floats_and_bools():
    values = [Fraction(v, 3) for v in range(6)]
    pi = PlueckerVector(2, 4, values)
    assert all(a is b for a, b in zip(pi.values, values))  # Fractions kept as given
    assert PlueckerVector(2, 4, [0, 1, "1/2", -3, Fraction(2), 5]).values == (
        0, 1, Fraction(1, 2), -3, 2, 5)
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(TypeError):
            PlueckerVector(2, 4, [0, 0, 0, bad, 0, 0])


def _dict_reference(rng, k, n) -> dict:
    """A seeded dict from every k-subset to a rational, nearly half of them 0."""
    return {
        I: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.6 else Fraction(0)
        for I in itertools.combinations(range(1, n + 1), k)
    }


def _from_reference(k, n, ref) -> PlueckerVector:
    return PlueckerVector(k, n, [ref[I] for I in itertools.combinations(range(1, n + 1), k)])


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 8)])
def test_dense_vector_matches_dict_reference(k, n):
    rng = rng_for(f"dense-vector-{k}-{n}")
    for _ in range(4):
        a, b = _dict_reference(rng, k, n), _dict_reference(rng, k, n)
        pa, pb = _from_reference(k, n, a), _from_reference(k, n, b)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for I, v in a.items():
            assert pa[I] == v
            assert pa[ksubset(n, I)] == v and pa[tuple(reversed(I))] == v
        assert list(pa.items()) == sorted(a.items())
        assert list(pa.values) == [v for _, v in sorted(a.items())]
        assert dict((pa + pb).items()) == {I: a[I] + b[I] for I in a}
        assert dict((pa - pb).items()) == {I: a[I] - b[I] for I in a}
        assert dict(pa.scale(c).items()) == {I: c * a[I] for I in a}
        assert dict(pa.scale(3).items()) == {I: 3 * a[I] for I in a}
        assert dict((-pa).items()) == {I: -a[I] for I in a}
        assert dict(pluecker.linear_combination(k, n, [(c, pa), (2, pb)]).items()) == {
            I: c * a[I] + 2 * b[I] for I in a}
        assert pa.support() == sorted(I for I, v in a.items() if v != 0)
        assert pa.is_zero() == all(v == 0 for v in a.values())
        assert (pa - pa).is_zero() and PlueckerVector.zero(k, n).is_zero()
        zeros = dict.fromkeys(a, Fraction(0))
        for I in (min(a), max(a)):
            assert not _from_reference(k, n, {**zeros, I: Fraction(1)}).is_zero()
        assert pa == _from_reference(k, n, dict(a))
        assert (pa == pb) == (a == b)
        I = rng.choice(sorted(a))
        assert pa != _from_reference(k, n, {**a, I: a[I] + 1})
        assert pa != PlueckerVector.zero(k, n + 1) and pa != dict(a)
        with pytest.raises(ValueError):
            pa + PlueckerVector.zero(k, n + 1)


def test_arithmetic_runs_on_the_scaled_integers():
    # Each operation against its entrywise Fraction definition, on vectors
    # over the scales 2 and 3.  Inputs made by `_of_scaled` hold no Fraction
    # view, and neither the inputs nor the result may form one.
    k, n = 3, 6
    rng = rng_for("integer-arithmetic")
    subsets = list(itertools.combinations(range(1, n + 1), k))
    a_ints = [rng.randint(-9, 9) | 1 for _ in subsets]  # odd: a is over 2 exactly
    b_ints = [3 * rng.randint(-9, 9) + rng.choice((1, 2)) for _ in subsets]
    a_vals = [Fraction(v, 2) for v in a_ints]
    b_vals = [Fraction(v, 3) for v in b_ints]
    x = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
    sums = [sum(x[i - 1] for i in I) for I in subsets]
    c = Fraction(-5, 3)
    cases = {
        "a + b": (lambda a, b: a + b, [p + q for p, q in zip(a_vals, b_vals)]),
        "a - b": (lambda a, b: a - b, [p - q for p, q in zip(a_vals, b_vals)]),
        "a - a": (lambda a, b: a - a, [0] * len(subsets)),
        "-b": (lambda a, b: -b, [-q for q in b_vals]),
        "a.scale(c)": (lambda a, b: a.scale(c), [c * p for p in a_vals]),
        "a.scale(2/3)": (lambda a, b: a.scale(Fraction(2, 3)), [Fraction(2, 3) * p for p in a_vals]),
        "a.scale(0)": (lambda a, b: a.scale(0), [0] * len(subsets)),
        "c a + 2 b + 0 a": (
            lambda a, b: pluecker.linear_combination(k, n, [(c, a), (2, b), (0, a)]),
            [c * p + 2 * q for p, q in zip(a_vals, b_vals)]),
        "no terms": (lambda a, b: pluecker.linear_combination(k, n, []), [0] * len(subsets)),
        "lineality_vector": (lambda a, b: lineality_vector(k, n, x), sums),
        "lineality_shift": (lambda a, b: lineality_shift(b, x),
                            [q - s for q, s in zip(b_vals, sums)]),
    }
    for name, (op, expected) in cases.items():
        a = PlueckerVector._of_scaled(k, n, a_ints, 2)
        b = PlueckerVector._of_scaled(k, n, b_ints, 3)
        result = op(a, b)
        assert (a._values, b._values, result._values) == (None, None, None), name
        ints, scale = result.scaled()
        assert math.gcd(scale, *ints) == 1, name
        assert [Fraction(v, scale) for v in ints] == expected, name


def _fraction_grid(rng, k, n, den):
    return TPoint.of(k, n, [[Fraction(rng.randint(-9, 9), den) for _ in range(n - k)]
                            for _ in range(k - 1)])


def test_scaled_form_is_the_least_common_denominator_form():
    rng = rng_for("scaled-form")
    vectors = [ladder.rho(t) for t in (
        random_tpoint(rng, 3, 7),
        random_tpoint(rng, 4, 8, lo=-7, hi=-1),
        _fraction_grid(rng, 3, 7, 2),
        _fraction_grid(rng, 4, 8, 3),
    )]
    common = PlueckerVector._of_scaled(2, 4, [6, -12, 18, 0, 30, 6], 24)
    zero = PlueckerVector._of_scaled(2, 4, [0] * 6, 7)
    assert common.scaled() == ([1, -2, 3, 0, 5, 1], 4)
    assert zero.scaled() == ([0] * 6, 1) and zero == PlueckerVector.zero(2, 4)
    a, b = vectors[2], random_vector(rng, 3, 7)
    derived = [
        common, zero,
        pluecker.from_json_dict(pluecker.to_json_dict(vectors[3])),
        a + b, a - b, -a, a.scale(Fraction(4, 3)), a.scale(0), common.scale(8),
    ]
    for pi in vectors:
        derived += [troplin.central_representative(pi), troplin.balanced_representative(pi)]
    for pi in vectors + derived:
        ints, scale = pi.scaled()
        assert (ints, scale) == exact.scaled(pi.values)
        assert math.gcd(scale, *ints) == 1
        assert pi.scaled() is pi.scaled()
    assert {pi.scaled()[1] for pi in vectors} >= {1, 2, 3}


def test_vectors_from_ints_and_from_fractions_are_equal():
    rng = rng_for("ints-or-fractions")
    for k, n in [(2, 5), (3, 7), (4, 8)]:
        scale = rng.randint(1, 6)
        ints = [rng.randint(-20, 20) for _ in range(math.comb(n, k))]
        fractions = [Fraction(v, scale) for v in ints]
        from_ints = PlueckerVector._of_scaled(k, n, ints, scale)
        from_fractions = PlueckerVector(k, n, fractions)
        assert from_ints == from_fractions and from_fractions == from_ints
        assert from_ints.values == from_fractions.values == tuple(fractions)
        assert PlueckerVector._of_scaled(k, n, [5 * v for v in ints], 5 * scale) == from_ints
        assert PlueckerVector(k, n, ints) == PlueckerVector._of_scaled(k, n, ints, 1)
        assert from_ints != from_fractions.scale(2)


REFUSALS = [
    ([0] * 5, 1, "need one value per 2-subset of [4], 6 in all; got 5"),
    ([0] * 7, 1, "need one value per 2-subset of [4], 6 in all; got 7"),
    ([0] * 6, 0, "the scale must be positive, got 0"),
    ([1] * 6, -2, "the scale must be positive, got -2"),
]


def test_of_scaled_refuses_a_wrong_length_or_scale():
    for ints, scale, message in REFUSALS:
        with pytest.raises(ValueError) as exc:
            PlueckerVector._of_scaled(2, 4, ints, scale)
        assert str(exc.value) == message


def test_of_scaled_refuses_a_wrong_length_or_scale_under_optimize():
    result = run_optimized(
        "from tropnc.pluecker import PlueckerVector",
        f"for ints, scale, _ in {REFUSALS!r}:",
        "    try:",
        "        PlueckerVector._of_scaled(2, 4, ints, scale)",
        "    except ValueError as exc:",
        "        print(exc)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [message for _, _, message in REFUSALS]


def test_json_round_trip():
    pi = planar_basis_vector(ksubset(4, [1, 3]))
    again = pluecker.from_json_dict(pluecker.to_json_dict(pi))
    assert again == pi
    assert pluecker.to_json_dict(pi)["entries"]["1,2"] == "1/4"


def test_json_loader_is_strict():
    good = pluecker.to_json_dict(planar_basis_vector(ksubset(6, [1, 3, 5])))

    def pointer(obj) -> str:
        with pytest.raises(SchemaError) as exc:
            pluecker.from_json_dict(obj)
        return exc.value.pointer

    def with_entry(label, value) -> dict:
        return {**good, "entries": {**good["entries"], label: value}}

    assert pointer(with_entry("5,3,1", "99")) == "/entries/5,3,1"
    for bad in (3.0, True, "3"):
        assert pointer({**good, "k": bad}) == "/k"
        assert pointer({**good, "n": bad}) == "/k"
    for bad in (0.5, False, "1/0", None):
        assert pointer(with_entry("1,3,5", bad)) == "/entries/1,3,5"
    assert pointer(with_entry("1,x,5", "1")) == "/entries/1,x,5"
    # an integer, or a "p/q" string of ASCII digits with an optional "-"
    for bad in ("1.5", "1e1", " 2 ", "+3", "2 ", "1/ 2", "-1/-2", "\uff13", "1_0", ""):
        assert pointer(with_entry("1,3,5", bad)) == "/entries/1,3,5"
    for fine in (-3, 7, "-3", "12/4", "-1/2"):
        assert pluecker.from_json_dict(with_entry("1,3,5", fine))[(1, 3, 5)] == Fraction(fine)
    # with the right count, a label naming no k-subset of [n] fails at itself
    without = {label: v for label, v in good["entries"].items() if label != "4,5,6"}
    for label in ("1,2,7", "0,1,2", "1,1,2", "1,2", "1,2,3,4"):
        with pytest.raises(SchemaError) as exc:
            pluecker.from_json_dict({**good, "entries": {**without, label: "0"}})
        assert exc.value.pointer == f"/entries/{label}"
    # only ASCII decimal digits between the commas
    ten = pluecker.to_json_dict(planar_basis_vector(ksubset(10, [1, 3])))["entries"]
    value = ten.pop("2,10")
    for label in ("1_0,2", " 2,10", "+2,10", "2,10 ", "2,\uff110", "2,,10", "-2,10"):
        with pytest.raises(SchemaError) as exc:
            pluecker.from_json_dict({"k": 2, "n": 10, "entries": {**ten, label: value}})
        assert exc.value.pointer == f"/entries/{label}"
    assert pointer({"k": 3, "entries": {}}) == "/n"
    assert pointer({**good, "entries": {"1,2,3": "0"}}) == "/entries"
    # counted before C(40, 10) subsets are listed
    assert pointer({"k": 10, "n": 40, "entries": {}}) == "/entries"


def test_lineality_shift_examples():
    pi = planar_basis_vector(ksubset(6, [1, 3, 5]))
    assert lineality_shift(pi, [0] * 6) == pi
    shifted = lineality_shift(PlueckerVector.zero(2, 4), [1, 0, 0, 0])
    assert shifted[(1, 2)] == -1 and shifted[(3, 4)] == 0


def test_positivity_h13_arithmetic():
    pi = planar_basis_vector(ksubset(4, [1, 3]))
    # the single relation: pi_13 + pi_24 = min(pi_12 + pi_34, pi_14 + pi_23)
    assert pi[(1, 3)] + pi[(2, 4)] == Fraction(1, 2)
    assert min(pi[(1, 2)] + pi[(3, 4)], pi[(1, 4)] + pi[(2, 3)]) == Fraction(1, 2)
    assert is_positive_tropical(pi).ok


def test_positivity_of_lineality():
    rng = rng_for("lineality-positive")
    for _ in range(5):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
        assert is_positive_tropical(lineality_vector(3, 6, x)).ok


def test_positivity_failure_non_weakly_separated():
    pi = planar_basis_vector(ksubset(6, [1, 2, 4])) + planar_basis_vector(ksubset(6, [3, 5, 6]))
    cert = is_positive_tropical(pi)
    assert not cert.ok
    S, quad, lhs, rhs = cert.violation
    assert len(S) == 1 and len(quad) == 4
    assert lhs != rhs


def test_pair_positivity_iff_weak_separation_2_6():
    import itertools

    from tropnc.combinat import weakly_separated

    for I, J in itertools.combinations_with_replacement(noncyclic_subsets(2, 6), 2):
        pair = planar_basis_vector(I) + planar_basis_vector(J)
        assert is_positive_tropical(pair).ok == weakly_separated(I, J)


def test_positivity_invariant_under_shift():
    rng = rng_for("shift-invariance")
    for _ in range(5):
        pi = random_positive_vector(rng, 3, 6)
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(6)]
        assert is_positive_tropical(pi).ok
        assert is_positive_tropical(lineality_shift(pi, x)).ok


def test_equivalence_mod_lineality():
    rng = rng_for("equivalence")
    pi = random_vector(rng, 3, 6)
    x = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    assert equivalent_mod_lineality(pi, lineality_shift(pi, x))
    for J in noncyclic_subsets(3, 6):
        assert equivalent_mod_lineality(planar_basis_vector(J), planar.corank_vector(J))
    assert not equivalent_mod_lineality(
        planar_basis_vector(ksubset(4, [1, 3])), planar_basis_vector(ksubset(4, [2, 4]))
    )


def _cross_multiplied(a, b):
    """The two planar expansions agree, cross-multiplied by their scales."""
    (us, s), (vs, t) = planar._scaled_expansion(a), planar._scaled_expansion(b)
    return [u * t for u in us] == [v * s for v in vs]


def test_equivalence_is_a_vanishing_expansion_of_the_difference():
    # Against the two expansions cross-multiplied, on lineality shifts,
    # half of them with one entry moved by 1, which no shift undoes.
    rng = rng_for("equivalence-difference")
    for k, n in [(3, 6), (3, 7), (4, 8)]:
        for i in range(8):
            a = (random_vector if i % 4 < 2 else random_positive_vector)(rng, k, n)
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            values = list(lineality_shift(a, x).values)
            if i % 2:
                values[rng.randrange(len(values))] += rng.choice((-1, 1))
            b = PlueckerVector(k, n, values)
            assert equivalent_mod_lineality(a, b) == _cross_multiplied(a, b) == (i % 2 == 0)
    for a, b in [((3, 6), (3, 7)), ((2, 6), (3, 6))]:
        with pytest.raises(ValueError, match="mismatched"):
            equivalent_mod_lineality(PlueckerVector.zero(*a), PlueckerVector.zero(*b))


def test_face_restrict_one_formula():
    # deleting l = 1 sends the basis vector of {j_1..j_k} to that of
    # {j_2 - 1, ..., j_k - 1}
    for J in noncyclic_subsets(3, 6):
        lhs = face_restrict_one(planar_basis_vector(J), 1)
        target = ksubset(5, [j - 1 for j in J.elems[1:]])
        assert equivalent_mod_lineality(lhs, planar_basis_vector(target))


def test_face_restrict_one_general_ell():
    from tropnc.combinat import mod1

    for J in noncyclic_subsets(3, 7):
        for ell in range(1, 8):
            m = 0
            while mod1(ell + m, 7) not in J:
                m += 1
            drop = mod1(ell + m, 7)
            remaining = [x for x in J.elems if x != drop]
            target = ksubset(6, [x - 1 if x > ell else x for x in remaining])
            lhs = face_restrict_one(planar_basis_vector(J), ell)
            assert equivalent_mod_lineality(lhs, planar_basis_vector(target))


def test_face_restrict_kills_lineality_and_zero():
    rng = rng_for("restrict-lineality")
    x = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    lin = lineality_vector(3, 6, x)
    restricted = face_restrict_one(lin, 2)
    assert equivalent_mod_lineality(restricted, PlueckerVector.zero(2, 5))
    assert face_restrict_one(PlueckerVector.zero(3, 6), 3) == PlueckerVector.zero(2, 5)
    assert face_restrict_zero(PlueckerVector.zero(2, 6), 4) == PlueckerVector.zero(2, 5)


def test_face_restrict_domain_errors():
    with pytest.raises(ValueError):
        face_restrict_one(PlueckerVector.zero(2, 5), 1)  # would leave k = 1
    with pytest.raises(ValueError):
        face_restrict_zero(PlueckerVector.zero(2, 4), 1)  # would leave n = k + 1
    with pytest.raises(ValueError):
        face_restrict_one(PlueckerVector.zero(3, 6), 7)


def test_face_restrict_zero_multi_worked_examples():
    keep = [1, 3, 5, 6, 7, 8]
    out = face_restrict_zero_multi(planar_basis_vector(ksubset(10, [3, 6, 9])), keep)
    assert equivalent_mod_lineality(out, planar_basis_vector(ksubset(6, [2, 4, 6])))
    out = face_restrict_zero_multi(planar_basis_vector(ksubset(10, [4, 9, 10])), keep)
    assert equivalent_mod_lineality(out, planar_basis_vector(ksubset(6, [2, 5, 6])))


def test_restriction_commutes_with_shift():
    rng = rng_for("restrict-commute")
    pi = random_vector(rng, 3, 6)
    x = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
    a = face_restrict_one(lineality_shift(pi, x), 4)
    b = face_restrict_one(pi, 4)
    assert equivalent_mod_lineality(a, b)


def test_lineality_basis_vectors_span_check():
    v = lineality_basis(2, 4, 1)
    assert v[(1, 2)] == 1 and v[(3, 4)] == 0


def _bumped(rng, base):
    """base with one entry, chosen by rng, moved by a nonzero rational."""
    I = rng.choice([J for J, _ in base.items()])
    bump = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
    return PlueckerVector.from_function(
        base.k, base.n, lambda J: base[J] + bump if J == I else base[J])


def _basis_pairs(rng, k, n, each):
    """Sums of two planar basis vectors: `each` weakly separated pairs, whose
    sum is positive, and `each` pairs that are not."""
    subsets = noncyclic_subsets(k, n)
    found = {True: [], False: []}
    while min(map(len, found.values())) < each:
        I, J = rng.sample(subsets, 2)
        pairs = found[weakly_separated(I, J)]
        if len(pairs) < each:
            pairs.append(planar_basis_vector(I) + planar_basis_vector(J))
    return found[True] + found[False]


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8), (5, 9)])
def test_positivity_scan_matches_three_term_reference(k, n):
    # the plan's steps decide ok; a failing step hands over to the scan,
    # which must name the reference's first violation
    rng = rng_for(f"three-term-{k}-{n}")
    vectors = []
    for rational in (False, False, False, True, True):
        t = random_rational_tpoint(rng, k, n) if rational else random_tpoint(rng, k, n, -3, 5)
        pi = ladder.rho(t)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        shifted = lineality_shift(pi, x)
        vectors += [pi, shifted, _bumped(rng, pi), _bumped(rng, shifted)]
    vectors += _basis_pairs(rng, k, n, 2)
    vectors.append(random_vector(rng, k, n))
    violations = 0
    for pi in vectors:
        cert = is_positive_tropical(pi)
        expected = three_term_reference(pi)
        assert cert.ok == (expected is None)
        assert cert.violation == expected
        violations += expected is not None
    assert 0 < violations < len(vectors)


@pytest.mark.parametrize(
    "k,n", [(2, 4), (2, 7), (3, 6), (3, 7), (4, 7), (4, 8), (3, 9), (5, 9), (5, 10)])
def test_full_scan_names_the_reference_violation(k, n):
    # Seeded vectors that are not positive: one entry of a positive one
    # moved (large and negative entries too), and arbitrary rational ones;
    # the scan runs on each directly.  At k = 2, S is empty and its mask 0.
    rng = rng_for(f"full-scan-{k}-{n}")
    vectors = [random_vector(rng, k, n) for _ in range(2)]
    for _ in range(4):
        pi = random_positive_vector(rng, k, n)
        vectors += [_bumped(rng, pi), _bumped(rng, pi.scale(-10 ** 12))]
    found = 0
    for pi in vectors:
        expected = three_term_reference(pi)
        assert pluecker._first_violation(pi) == expected
        found += expected is not None
    # (2,4) has one relation, so a moved entry on its larger side leaves
    # the vector positive more often: 7 of its 10 vectors fail
    assert found >= len(vectors) - (3 if (k, n) == (2, 4) else 2)
    assert pluecker._first_violation(random_positive_vector(rng, k, n)) is None


def _refuse(*args):
    raise AssertionError("refused")


@pytest.mark.parametrize("k,n", [(0, 3), (1, 4), (1, 7), (3, 4), (6, 7), (5, 5)])
def test_positivity_without_three_term_relations_builds_no_plan(monkeypatch, k, n):
    # a relation needs S of size k - 2 and four elements outside it, so none
    # exists for k <= 1 or k >= n - 1 (k = 1 is dual to k = n - 1)
    monkeypatch.setattr(ladder, "_plan", _refuse)
    monkeypatch.setattr(ladder, "_fill", _refuse)
    monkeypatch.setattr(pluecker, "_first_violation", _refuse)
    pi = random_vector(rng_for(f"no-relations-{k}-{n}"), k, n)
    assert is_positive_tropical(pi) == PositivityCertificate(True)


def test_rho_and_the_certificate_share_one_step_loop(monkeypatch):
    # `ladder._fill` is the one step loop: evaluation and the certificate
    # both run it, so with it refused neither can answer
    rng = rng_for("one-step-loop")
    t = random_tpoint(rng, 4, 8)
    pi = ladder.rho(t)
    monkeypatch.setattr(ladder, "_fill", _refuse)
    with pytest.raises(AssertionError, match="^refused$"):
        ladder.rho(t)
    with pytest.raises(AssertionError, match="^refused$"):
        is_positive_tropical(pi)


@pytest.mark.parametrize("raised", [(7, 8, 9, 10, 11, 12), (6, 8, 9, 10, 11, 12)])
def test_full_scan_at_desk_scale(raised):
    # One entry of the CI grid's rho vector raised by 1.  Both first fail
    # at S = (8, 9, 10, 11), the latest S at which any entry of that
    # vector moved by 1 first fails; no such move fails at the last S,
    # (9, 10, 11, 12), first.
    pi = ladder.rho(ci_grid_612())
    vals, scale = pi.scaled()
    vals = list(vals)
    vals[pluecker.lex_rank(6, 12)[raised]] += scale
    bumped = PlueckerVector._of_scaled(6, 12, vals, scale)
    expected = three_term_reference(bumped)
    assert expected[0] == (8, 9, 10, 11)
    assert pluecker._first_violation(bumped) == expected
    assert is_positive_tropical(bumped) == PositivityCertificate(False, expected)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (4, 6), (5, 7)])
def test_positivity_at_the_first_shapes_with_relations(k, n):
    # k = 2 and k = n - 2, where the plan is built and decides
    rng = rng_for(f"first-relations-{k}-{n}")
    vectors = [random_positive_vector(rng, k, n) for _ in range(3)]
    vectors += [random_vector(rng, k, n) for _ in range(3)]
    for pi in vectors:
        expected = three_term_reference(pi)
        assert is_positive_tropical(pi) == PositivityCertificate(expected is None, expected)
    assert not all(is_positive_tropical(pi) for pi in vectors)


def test_positive_vectors_never_reach_the_full_scan(monkeypatch):
    rng = rng_for("plan-rows-only")
    positive = []
    for k, n in [(2, 5), (3, 7), (4, 8), (5, 9), (5, 10)]:
        pi = random_positive_vector(rng, k, n)  # rho builds the plan
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        positive += [pi, lineality_shift(pi, x)]
    monkeypatch.setattr(pluecker, "_first_violation", _refuse)
    assert all(is_positive_tropical(pi) == PositivityCertificate(True) for pi in positive)
    # a failing step does run the scan, so the patch is in its path
    with pytest.raises(AssertionError, match="^refused$"):
        is_positive_tropical(random_vector(rng, 4, 8))


# (19, 0, 0, 0, 0, 0) is no three-term relation: the lineality vector of
# (1, 0, 0, 0, 0, 0) fails it (0 + 1 != min(1 + 1, 1 + 1)) but is positive.
NO_WITNESS = "(3,6): a step of the three-term plan fails, but no three-term relation does"


def test_a_failing_step_without_a_violation_raises(monkeypatch):
    monkeypatch.setattr(ladder, "_plan", lambda k, n: ((), ((19, 0, 0, 0, 0, 0),)))
    with pytest.raises(InvariantError) as exc:
        is_positive_tropical(lineality_vector(3, 6, [1, 0, 0, 0, 0, 0]))
    assert str(exc.value) == NO_WITNESS


def test_a_failing_step_without_a_violation_raises_under_optimize():
    result = run_optimized(
        "from tropnc import ladder",
        "from tropnc.exact import InvariantError",
        "from tropnc.pluecker import is_positive_tropical, lineality_vector",
        "ladder._plan = lambda k, n: ((), ((19, 0, 0, 0, 0, 0),))",
        "try:",
        "    is_positive_tropical(lineality_vector(3, 6, [1, 0, 0, 0, 0, 0]))",
        "except InvariantError as exc:",
        "    print(exc)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == NO_WITNESS + "\n"
