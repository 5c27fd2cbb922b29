"""Planar basis vectors, coranks, cubical arrays, and cross-ratio duality."""

import itertools
import math
from collections import deque
from fractions import Fraction

import pytest

from conftest import (
    COEFFS_312,
    random_positive_vector,
    random_vector,
    rng_for,
    run_optimized,
    vector_312,
)
from oracles import cubical_expansion_table, positroid_bases
from tropnc import combinat, planar
from tropnc.combinat import (
    KSubset,
    all_ksubsets,
    cyc_interval,
    dosp,
    ksubset,
    mod1,
    noncyclic_subsets,
)
from tropnc.exact import InvariantError
from tropnc.planar import (
    corank_vector,
    cubical_array,
    directed_distance,
    planar_basis_vector,
    planar_combination,
    planar_expand,
    tropical_u,
)
from tropnc.pluecker import (
    PlueckerVector,
    equivalent_mod_lineality,
    lineality_basis,
    lineality_vector,
)


def bfs_distances(n: int, src: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """BFS distances from src over moves replacing j by j-1 (mod n): the
    oracle of the closed form behind `directed_distance`.

    A move subtracts one cyclic step from a single element: the vertex
    e_I travels to e_I + e_{j-1} - e_j whenever j-1 is free.  The graph
    on C(n, k) vertices is strongly connected, so the map is total.
    """
    dist = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        members = set(cur)
        for j in cur:
            prev = mod1(j - 1, n)
            if prev not in members:
                nxt = tuple(sorted(members - {j} | {prev}))
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
    return dist


def shapes(n_max: int):
    return [(k, n) for n in range(4, n_max + 1) for k in range(2, n - 1)]


@pytest.mark.parametrize("k,n", shapes(8))
def test_distance_and_basis_equal_the_bfs(k, n):
    # cyclic J included: their basis vectors span the lineality space
    subsets = all_ksubsets(k, n)
    for J in subsets:
        dist = bfs_distances(n, J.elems)
        assert len(dist) == len(subsets)
        assert [directed_distance(J, I) for I in subsets] == [dist[I.elems] for I in subsets]
        expected = PlueckerVector.from_function(k, n, lambda I: Fraction(dist[I], n))
        assert planar_basis_vector(J) == expected


@pytest.mark.parametrize("k,n", shapes(8))
def test_corank_equals_the_positroid_bases_scan(k, n):
    for J in noncyclic_subsets(k, n):
        bases = positroid_bases(dosp(J))
        expected = PlueckerVector.from_function(
            k, n, lambda I: k - max(len(set(I) & set(B)) for B in bases)
        )
        assert corank_vector(J) == expected


def test_corank_never_scans_the_positroid_bases():
    # planar reads the prefix chain alone; the scan is a test oracle, with
    # no copy in the package for the corank path to call
    assert not hasattr(planar, "positroid_bases")
    assert not hasattr(combinat, "positroid_bases")
    for J in noncyclic_subsets(4, 8):
        assert corank_vector.__wrapped__(J) == corank_vector(J)


def test_directed_distance_2_4():
    src = ksubset(4, [1, 3])
    assert directed_distance(src, src) == 0
    assert directed_distance(src, ksubset(4, [1, 2])) == 1
    assert directed_distance(src, ksubset(4, [3, 4])) == 1
    assert directed_distance(src, ksubset(4, [2, 4])) == 2
    assert directed_distance(src, ksubset(4, [1, 4])) == 3
    assert directed_distance(src, ksubset(4, [2, 3])) == 3


def test_distance_is_not_symmetric():
    a, b = ksubset(4, [1, 3]), ksubset(4, [1, 4])
    assert directed_distance(a, b) == 3
    assert directed_distance(b, a) == 1


def test_planar_basis_h13():
    h = planar_basis_vector(ksubset(4, [1, 3]))
    expected = {
        (1, 2): Fraction(1, 4),
        (1, 3): Fraction(0),
        (1, 4): Fraction(3, 4),
        (2, 3): Fraction(3, 4),
        (2, 4): Fraction(1, 2),
        (3, 4): Fraction(1, 4),
    }
    assert dict(h.items()) == expected


def test_planar_basis_zero_at_its_own_subset():
    for J in all_ksubsets(3, 6):
        assert planar_basis_vector(J)[J] == 0


def test_corank_examples():
    for J in noncyclic_subsets(3, 6):
        cr = corank_vector(J)
        assert cr[J] == 0
        assert all(0 <= v <= 2 for v in cr.values)
    with pytest.raises(ValueError):
        corank_vector(ksubset(6, [1, 2, 3]))


@pytest.mark.parametrize("k,n", [(3, 6), (3, 7)])
def test_corank_equals_planar_basis(k, n):
    for J in noncyclic_subsets(k, n):
        assert equivalent_mod_lineality(corank_vector(J), planar_basis_vector(J))


def test_corank_duality_3_6():
    for J in noncyclic_subsets(3, 6):
        cr = corank_vector(J)
        for K in noncyclic_subsets(3, 6):
            assert tropical_u(K, cr) == (1 if K == J else 0)


def test_cubical_array_cyclic_interval():
    # for a cyclic interval the array is {itself, its gap set}
    arr = cubical_array(ksubset(6, [2, 3, 4]))
    assert arr.exponents == {(2, 3, 4): -1, (2, 3, 5): 1}


def test_cubical_array_k2_cross_ratio():
    arr = cubical_array(ksubset(6, [2, 5]))
    assert arr.exponents == {
        (2, 5): -1,
        (3, 5): 1,
        (2, 6): 1,
        (3, 6): -1,
    }


def test_cubical_array_torus_invariance():
    for k, n in [(2, 6), (3, 6)]:
        for J in noncyclic_subsets(k, n):
            for i in range(1, n + 1):
                assert tropical_u(J, lineality_basis(k, n, i)) == 0


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (3, 7)])
def test_product_of_all_cross_ratios_is_trivial(k, n):
    total = {}
    for J in all_ksubsets(k, n):
        for M, sign in cubical_array(J).exponents.items():
            total[M] = total.get(M, 0) + sign
    assert all(v == 0 for v in total.values())


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 6), (3, 7), (4, 7)])
def test_planar_duality(k, n):
    ncyc = noncyclic_subsets(k, n)
    for J in ncyc:
        for K in ncyc:
            assert tropical_u(J, planar_basis_vector(K)) == (1 if J == K else 0)


def test_tropical_u_kills_lineality():
    rng = rng_for("u-lineality")
    x = [Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(6)]
    lin = lineality_vector(3, 6, x)
    for J in noncyclic_subsets(3, 6):
        assert tropical_u(J, lin) == 0


def test_planar_expand_indicator():
    pi = planar_basis_vector(ksubset(6, [1, 3, 5]))
    coeffs = planar_expand(pi)
    for J, c in coeffs.items():
        assert c == (1 if J.elems == (1, 3, 5) else 0)


def test_planar_expand_312_coefficients():
    pi = vector_312()
    coeffs = planar_expand(pi)
    nonzero = {J.elems: c for J, c in coeffs.items() if c != 0}
    assert nonzero == {J: Fraction(c) for J, c in COEFFS_312.items()}
    assert nonzero[(1, 8, 10)] == -1


def test_planar_expand_reconstruction():
    rng = rng_for("expand-reconstruct")
    for _ in range(5):
        pi = random_vector(rng, 3, 6)
        coeffs = planar_expand(pi)
        rebuilt = planar_combination(3, 6, coeffs)
        assert equivalent_mod_lineality(rebuilt, pi)


def _eliminate(aug, width):
    """Row-reduce an augmented rectangular system; returns (rank, consistent)."""
    rank = 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][c]
        aug[rank] = [a * inv for a in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        rank += 1
    consistent = all(
        any(aug[i][c] != 0 for c in range(width)) or all(v == 0 for v in aug[i][width:])
        for i in range(len(aug))
    )
    return rank, consistent


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_cyclic_basis_vectors_span_lineality(k, n):
    cyc = [KSubset(n, cyc_interval(j, k, n)) for j in range(n)]
    keys = [I for I, _ in planar_basis_vector(cyc[0]).items()]
    columns = [[planar_basis_vector(J)[I] for J in cyc] for I in keys]
    rank, _ = _eliminate([list(map(Fraction, row)) for row in columns], n)
    assert rank == n  # the n cyclic vectors are linearly independent
    for i in range(1, n + 1):
        lin = lineality_basis(k, n, i)
        aug = [
            list(map(Fraction, row)) + [lin[I]]
            for row, I in zip(columns, keys)
        ]
        rank, consistent = _eliminate(aug, n)
        assert consistent  # each incidence vector lies in their span


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (3, 7), (4, 8)])
def test_planar_expand_matches_tropical_u(k, n):
    rng = rng_for(f"expand-reference-{k}-{n}")
    fractional = False
    for pi in (random_vector(rng, k, n), random_vector(rng, k, n),
               random_positive_vector(rng, k, n)):
        expected = [(J, tropical_u(J, pi)) for J in noncyclic_subsets(k, n)]
        assert list(planar_expand(pi).items()) == expected
        fractional |= any(c.denominator > 1 for _, c in expected)
    assert fractional


# Planted faults in the cubical array of a subset bitmask: each rewrites
# the (+1 masks, -1 masks) of `planar._cubical_masks` and trips one check
# of `planar._expansion_table` at (3,6), with the message shown.
CUBE_FAULTS = {
    # a getter of one rank returns a scalar, not a tuple
    "lone_plus_term": ("lambda plus, minus: (plus[:1], minus)",
                       "cubical array of (1, 2, 4) has a sign with fewer than two terms"),
    # with three endpoints each sign keeps two terms or more
    "moved_term": ("lambda plus, minus: (plus + minus[3:], minus[:3])",
                   "cubical array of (1, 3, 5) has a nonzero signed sum"),
    "collision": ("lambda plus, minus: (plus[:1] * len(plus), minus)",
                  "cubical array of (1, 2, 4) has terms that are not 4 distinct k-subsets"),
}


def planted_fault(monkeypatch, name: str) -> str:
    """The message of the InvariantError that a planted cube fault raises."""
    source, _ = CUBE_FAULTS[name]
    fault, cube = eval(source), planar._cubical_masks
    monkeypatch.setattr(planar, "_cubical_masks", lambda J, n: fault(*cube(J, n)))
    with pytest.raises(InvariantError) as exc:
        planar._expansion_table.__wrapped__(3, 6)
    return str(exc.value)


def test_expansion_table_needs_two_terms_of_each_sign(monkeypatch):
    assert planted_fault(monkeypatch, "lone_plus_term") == CUBE_FAULTS["lone_plus_term"][1]


def test_expansion_table_needs_as_many_terms_of_each_sign(monkeypatch):
    assert planted_fault(monkeypatch, "moved_term") == CUBE_FAULTS["moved_term"][1]


def test_expansion_table_needs_distinct_terms(monkeypatch):
    assert planted_fault(monkeypatch, "collision") == CUBE_FAULTS["collision"][1]


def test_expansion_table_refuses_planted_faults_under_optimize():
    result = run_optimized(
        "from tropnc import planar",
        "from tropnc.exact import InvariantError",
        "cube = planar._cubical_masks",
        f"for source, _ in {list(CUBE_FAULTS.values())!r}:",
        "    fault = eval(source)",
        "    planar._cubical_masks = lambda J, n: fault(*cube(J, n))",
        "    try:",
        "        planar._expansion_table.__wrapped__(3, 6)",
        "    except InvariantError as exc:",
        "        print(exc)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [message for _, message in CUBE_FAULTS.values()]


# Every shape with n <= 10, and two at desk scale.
TABLE_SHAPES = [(k, n) for n in range(4, 11) for k in range(2, n - 1)] + [(3, 12), (6, 12)]


@pytest.mark.parametrize("k,n", TABLE_SHAPES)
def test_expansion_table_equals_the_cubical_array_table(k, n):
    ranks = range(math.comb(n, k))
    table = [
        (sorted(plus(ranks)), sorted(minus(ranks))) for plus, minus in planar._expansion_table(k, n)
    ]
    assert table == cubical_expansion_table(k, n)
