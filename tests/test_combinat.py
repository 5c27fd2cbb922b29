"""Predicates and enumerations on cyclic k-subsets."""

import functools
import hashlib
import itertools
import operator
import re

import pytest

from conftest import literal_rows, rng_for, run_optimized
from oracles import dosp_by_runs, positroid_bases
from tropnc import combinat
from tropnc.combinat import (
    DecoratedOSP,
    KSubset,
    _prefix_chain,
    dosp,
    is_cyclic_interval,
    is_noncrossing_partition,
    ksubset,
    maximal_noncrossing_collections,
    noncrossing,
    noncrossing_collections,
    noncyclic_subsets,
    tableau,
    weakly_separated,
)
from tropnc.exact import InvariantError


def test_ksubset_validation():
    with pytest.raises(ValueError):
        ksubset(6, [1, 1, 2])
    with pytest.raises(ValueError):
        ksubset(6, [0, 1])
    with pytest.raises(ValueError):
        ksubset(6, [1])  # k < 2
    with pytest.raises(ValueError):
        ksubset(6, [1, 2, 3, 4, 5])  # k > n - 2
    assert ksubset(6, [5, 1, 3]).elems == (1, 3, 5)


def test_cyclic_interval_examples():
    assert is_cyclic_interval(ksubset(6, [1, 2, 3]))
    assert is_cyclic_interval(ksubset(6, [6, 1]))
    assert not is_cyclic_interval(ksubset(6, [1, 3]))
    # count of noncyclic 2-subsets of [6] is 15 - 6
    assert len(noncyclic_subsets(2, 6)) == 9


def test_noncyclic_subsets_equal_the_predicate_route():
    # Two cyclic endpoints or more, counted on the bitmask, against the
    # KSubset predicate, at every shape with n <= 12.
    for n in range(4, 13):
        for k in range(2, n - 1):
            expected = tuple(J for J in combinat.all_ksubsets(k, n) if not is_cyclic_interval(J))
            assert noncyclic_subsets.__wrapped__(k, n) == expected
    for k, n in [(1, 5), (4, 5), (0, 4)]:
        with pytest.raises(ValueError, match=r"^need 2 <= k <= n-2"):
            noncyclic_subsets.__wrapped__(k, n)


def test_weak_separation_examples():
    assert not weakly_separated(ksubset(6, [1, 2, 4]), ksubset(6, [3, 5, 6]))
    assert not weakly_separated(ksubset(6, [1, 4, 5]), ksubset(6, [2, 3, 6]))
    assert weakly_separated(ksubset(6, [1, 2, 5]), ksubset(6, [1, 3, 4]))
    J = ksubset(6, [2, 4, 6])
    assert weakly_separated(J, J)
    with pytest.raises(ValueError):
        weakly_separated(ksubset(6, [1, 2]), ksubset(7, [1, 2]))


def test_noncrossing_examples():
    # noncrossing but not weakly separated
    assert noncrossing(ksubset(6, [1, 2, 4]), ksubset(6, [3, 5, 6]))
    assert noncrossing(ksubset(6, [1, 4, 5]), ksubset(6, [2, 3, 6]))
    # crossing diagonals of a square
    assert not noncrossing(ksubset(4, [1, 3]), ksubset(4, [2, 4]))
    # literal evaluation of both clauses: the window (1,2) has equal (empty)
    # interiors and a four-sign-change subpair, so the pair crosses
    assert not noncrossing(ksubset(6, [1, 3, 5]), ksubset(6, [2, 4, 6]))


def test_predicate_symmetry_and_reflexivity():
    subsets = noncyclic_subsets(3, 6)
    for I in subsets:
        assert noncrossing(I, I)
        assert weakly_separated(I, I)
    for I, J in itertools.combinations(subsets, 2):
        assert noncrossing(I, J) == noncrossing(J, I)
        assert weakly_separated(I, J) == weakly_separated(J, I)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (3, 7), (4, 7)])
def test_weakly_separated_implies_noncrossing(k, n):
    for I, J in itertools.combinations(noncyclic_subsets(k, n), 2):
        if weakly_separated(I, J):
            assert noncrossing(I, J)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_k2_noncrossing_equals_weakly_separated_equals_diagonals(n):
    def diagonals_cross(p, q):
        (a, b), (c, d) = sorted(p.elems), sorted(q.elems)
        return a < c < b < d or c < a < d < b

    for I, J in itertools.combinations(noncyclic_subsets(2, n), 2):
        geometric = not diagonals_cross(I, J)
        assert noncrossing(I, J) == geometric
        assert weakly_separated(I, J) == geometric


def test_collection_counts_2_6():
    assert len(noncrossing_collections(2, 6, 1)) == 9
    assert len(noncrossing_collections(2, 6, 2)) == 21
    assert len(noncrossing_collections(2, 6, 3)) == 14
    assert len(maximal_noncrossing_collections(2, 6)) == 14


def test_collection_counts_3_6():
    maximal = maximal_noncrossing_collections(3, 6)
    assert len(maximal) == 42
    assert len(noncrossing_collections(3, 6, 4)) == 42
    ws = [c for c in maximal if all(weakly_separated(I, J) for I, J in itertools.combinations(c, 2))]
    assert len(ws) == 34
    non_ws = [c for c in maximal if c not in ws]
    markers = (
        frozenset([(1, 2, 4), (3, 5, 6)]),
        frozenset([(1, 4, 5), (2, 3, 6)]),
    )
    for coll in non_ws:
        elems = {J.elems for J in coll}
        assert any(all(tuple(sorted(m)) in elems for m in marker) for marker in markers)


def test_trivial_collection_2_4():
    colls = noncrossing_collections(2, 4, 1)
    assert [[J.elems for J in c] for c in colls] == [[(1, 3)], [(2, 4)]]


def test_maximal_collections_have_fixed_size():
    for k, n in [(2, 5), (2, 6), (3, 6), (3, 7)]:
        for coll in maximal_noncrossing_collections(k, n):
            assert len(coll) == (k - 1) * (n - k - 1)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (3, 7), (4, 7)])
def test_noncrossing_complex_is_pure(k, n):
    # Every smaller collection extends, and none is larger: so the
    # inclusion-maximal collections are exactly those of size (k-1)(n-k-1).
    top = (k - 1) * (n - k - 1)
    rows, node_ids = combinat.compatibility_rows(k, n), combinat._node_ids(k, n)
    for size in range(1, top):
        for coll in noncrossing_collections(k, n, size):
            ids = [node_ids[J] for J in coll]
            common = functools.reduce(operator.and_, (rows[i] for i in ids))
            assert common & ~sum(1 << i for i in ids), coll
    assert noncrossing_collections(k, n, top + 1) == []


SHORT_COUNT = "(3,6): 42 maximal noncrossing collections, not the hook-length count 43"


def test_maximal_collections_refuse_a_count_other_than_hook_length(monkeypatch):
    monkeypatch.setattr(combinat, "_maximal_cone_count", lambda k, n: 43)
    with pytest.raises(InvariantError, match=f"^{re.escape(SHORT_COUNT)}$"):
        maximal_noncrossing_collections.__wrapped__(3, 6)


def test_maximal_collections_refuse_a_count_other_than_hook_length_under_optimize():
    result = run_optimized(
        "from tropnc import combinat",
        "from tropnc.exact import InvariantError",
        "combinat._maximal_cone_count = lambda k, n: 43",
        "try:",
        "    combinat.maximal_noncrossing_collections(3, 6)",
        "except InvariantError as exc:",
        "    print(exc)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == SHORT_COUNT + "\n"


def test_dosp_examples():
    d = dosp(ksubset(9, [2, 5, 8]))
    assert d.blocks == ((9, 1, 2), (3, 4, 5), (6, 7, 8))
    assert d.decorations == (1, 1, 1)
    d = dosp(ksubset(6, [2, 5, 6]))
    assert d.blocks == ((1, 2), (3, 4, 5, 6))
    assert d.decorations == (1, 2)
    d = dosp(ksubset(6, [1, 2, 3]))
    assert len(d.blocks) == 1 and d.decorations == (3,)
    assert sorted(d.blocks[0]) == [1, 2, 3, 4, 5, 6]


def test_dosp_wrapping_run():
    # the run {9, 1} wraps past n; its block leads the cyclic order
    d = dosp(ksubset(9, [1, 4, 9]))
    assert d.blocks == ((5, 6, 7, 8, 9, 1), (2, 3, 4))
    assert d.decorations == (2, 1)
    assert d.subset().elems == (1, 4, 9)


def test_dosp_equals_the_run_and_gap_walk():
    # The cyclic-endpoint blocks against the run-and-gap walk of the oracle,
    # on every k-subset with 4 <= n <= 12: blocks, decorations and chain.
    count = 0
    for n in range(4, 13):
        for k in range(2, n - 1):
            for J in combinat.all_ksubsets(k, n):
                got, expected = dosp(J), dosp_by_runs(J)
                assert (got.blocks, got.decorations) == (expected.blocks, expected.decorations), J
                assert _prefix_chain(got) == _prefix_chain(expected), J
                count += 1
    assert count == 8014


def test_label_serialization():
    assert ksubset(6, [5, 1, 3]).label() == "1,3,5"


@pytest.mark.parametrize("k,n", [(2, 6), (3, 6), (3, 7)])
def test_dosp_round_trip(k, n):
    for J in combinat.all_ksubsets(k, n):
        d = dosp(J)
        assert d.subset() == J
        assert sum(d.decorations) == k


def test_dosp_validation():
    with pytest.raises(ValueError):
        DecoratedOSP(4, ((1, 2), (3,)), (1, 1))  # misses 4
    with pytest.raises(ValueError):
        DecoratedOSP(4, ((1, 2), (3, 4)), (2, 0))  # decoration out of range


def test_noncrossing_partition():
    assert is_noncrossing_partition([(1, 2), (3, 4, 5)], 5)
    assert not is_noncrossing_partition([(1, 3), (2, 4)], 4)
    assert is_noncrossing_partition([(1, 2, 6), (3, 4, 5)], 6)
    with pytest.raises(ValueError):
        is_noncrossing_partition([(1, 2), (2, 3)], 3)


def test_positroid_bases_schubert_example():
    bases = positroid_bases(dosp(ksubset(6, [2, 5, 6])))
    # constraint: |B ∩ {1,2}| >= 1
    assert all(set(B) & {1, 2} for B in bases)
    assert (2, 5, 6) in bases
    assert (3, 4, 5) not in bases


def test_tableau_validation():
    t = tableau(3, 6, [(ksubset(6, [1, 4, 5]), 1), (ksubset(6, [2, 3, 6]), 2)])
    assert t.weight() == 3
    with pytest.raises(ValueError):
        tableau(3, 6, [(ksubset(6, [1, 2, 3]), 1)])  # cyclic entry
    with pytest.raises(ValueError, match=r"^entries \(1, 3, 5\) and \(2, 4, 6\) cross$"):
        tableau(3, 6, [(ksubset(6, [2, 4, 6]), 1), (ksubset(6, [1, 3, 5]), 1)])  # crossing
    with pytest.raises(ValueError):
        tableau(3, 6, [(ksubset(6, [1, 3, 5]), 0)])  # nonpositive multiplicity


# ------------------------------------- compatibility rows against the literal graph


@pytest.mark.parametrize("n", range(4, 11))
def test_chord_test_matches_literal_noncrossing_on_every_pair(n):
    # the bit-sliced chord rule equals the literal predicate on every pair,
    # read from both rows of the pair
    for k in range(2, n - 1):
        rows = combinat.compatibility_rows(k, n)
        for (i, I), (j, J) in itertools.combinations(enumerate(noncyclic_subsets(k, n)), 2):
            assert bool(rows[i] >> j & 1) == noncrossing(I, J), (I, J)
            assert bool(rows[j] >> i & 1) == noncrossing(J, I), (J, I)


@pytest.mark.parametrize("n", range(4, 10))
def test_lazy_rows_equal_the_literal_graph(n):
    # The rows are built on the first request for a shape and cached: rows
    # read in a seeded order equal the literal graph's, no bit is set beyond
    # the last node, and a later request returns the same tuple.
    rng = rng_for(f"lazy-rows-{n}")
    for k in range(2, n - 1):
        oracle = literal_rows(k, n)
        rows = combinat.compatibility_rows(k, n)
        assert type(rows) is tuple and len(rows) == len(noncyclic_subsets(k, n))
        order = list(range(len(rows)))
        rng.shuffle(order)
        for j in order:
            assert rows[j] == oracle[j], (k, n, j)
            assert rows[j] >> len(rows) == 0, (k, n, j)
        assert rows == oracle
        assert combinat.compatibility_rows(k, n) is rows


def _digest(colls) -> str:
    text = ";".join(" ".join(J.label() for J in coll) for coll in colls)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (k, n) -> (count, digest of the labels in order) of the maximal collections
MAXIMAL_DIGESTS = {
    (2, 7): (42, "b322f21006b2b613"),
    (3, 7): (462, "39bc62fda5aa9875"),
    (4, 7): (462, "cc73532ccd1ac1e2"),
    (3, 8): (6006, "665868012611e04f"),
    (4, 8): (24024, "04fb38a75236802c"),
}

# size -> (count, digest) of noncrossing_collections(3, 7, size)
COLLECTION_DIGESTS_3_7 = {
    1: (28, "7791c7f579b37018"),
    2: (238, "cfefd2b33706b402"),
    3: (882, "48202c50101edca6"),
    4: (1596, "6cfb79954bcd2838"),
    5: (1386, "39f7bce6804441c9"),
    6: (462, "39bc62fda5aa9875"),
}


@pytest.mark.parametrize("k,n", MAXIMAL_DIGESTS)
def test_maximal_collections_are_pinned(k, n):
    colls = maximal_noncrossing_collections(k, n)
    assert (len(colls), _digest(colls)) == MAXIMAL_DIGESTS[k, n]


def test_noncrossing_collections_are_pinned():
    for size, expected in COLLECTION_DIGESTS_3_7.items():
        colls = noncrossing_collections(3, 7, size)
        assert (len(colls), _digest(colls)) == expected
