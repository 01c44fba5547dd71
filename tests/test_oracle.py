"""Enumeration oracle: class counts, full scans, sat values, Ramsey numbers."""

import hashlib
from math import comb

import numpy as np
import pytest

from ramsat import oracle
from ramsat.colorings import TwoColoring, is_bad_coloring
from ramsat.graphs import (
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    from_graph6,
    star,
)
from ramsat.oracle import (
    brute_force_bad_colorings,
    compute_sat,
    enumerate_graphs,
    family_ramsey_number,
    scan_k3_saturated,
)
from ramsat.saturation import is_rmin_saturated
from ramsat.search import count_bad_colorings

# number of isomorphism classes on n vertices
CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


@pytest.mark.parametrize("n, count", sorted(CLASS_COUNTS.items()))
def test_enumerate_counts(n, count):
    assert len(enumerate_graphs(n)) == count


def test_enumerate_unique_and_deterministic():
    graphs = enumerate_graphs(5)
    forms = [g.canonical_form() for g in graphs]
    assert len(set(forms)) == len(forms)
    assert forms == sorted(forms)
    # the form stored on a representative is the one it would compute
    assert forms == [Graph(g.n, g.edges).canonical_form() for g in graphs]
    assert enumerate_graphs(5) is enumerate_graphs(5)  # cached


# SHA-256 of the lines "<graph6> <canonical form hex>" over enumerate_graphs(n):
# the representatives, their forms and their order, pinned before class
# enumeration learnt to skip twin-symmetric extensions
ENUMERATION_DIGESTS = {
    0: "4b9b3d5bd3b3623217f5f8d8a99fb0ba6c0a3c169ec393a0700f6bb2d18b72b6",
    1: "20164d913fc29974c5758ae1f64e5ead560de0902a473a2613ef04b4c72b5df8",
    2: "a5b2a87fb1b8d0b7ee769beb58f77551423ee5cef467daf0cd9520832732919d",
    3: "7a07af140a7f14401872cd9aa3fc39356085940b898931ebc3167d8f403bbea4",
    4: "cfaf0be2ab0bb389c7a85234fc009f7d6fe2189e142f98325b8d11d01bc7a103",
    5: "30f5f7a11abc86ea8530bab670f72cb9f07af5c094ab03847cd1ae49a8595c7c",
    6: "e9b90c3636572e394f67d55d46366b9586cc05619f6c11c27636aa98c920f9a4",
    7: "3d769b935a7ce45216550bb54bdb5be097646659be3cc58c0b02863924b113a4",
}


@pytest.mark.parametrize("n, digest", sorted(ENUMERATION_DIGESTS.items()))
def test_enumerate_representatives_pinned(n, digest):
    text = "\n".join(
        f"{g.to_graph6()} {g.canonical_form().hex()}" for g in enumerate_graphs(n)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, triangle_free, classes, canonicalised",
    [(7, False, 1044, 7195), (9, True, 1897, 19030)],
    ids=["all", "triangle_free"],
)
def test_enumerate_skips_twin_symmetric_extensions(
    monkeypatch, n, triangle_free, classes, canonicalised
):
    # a cold enumerate_graphs(7) canonicalises 7,195 children, not all
    # 11,291 one-vertex extensions; a cold triangle-free enumeration to 9
    # vertices, 19,030 of its 29,751 extensions by independent sets
    rows = 0
    forms = oracle.canonical_forms

    def counted(adjs):
        nonlocal rows
        rows += len(adjs)
        return forms(adjs)

    monkeypatch.setattr(oracle, "canonical_forms", counted)
    # recurse uncached, leaving the shared cache as the other tests left it
    monkeypatch.setattr(oracle, "enumerate_graphs", enumerate_graphs.__wrapped__)
    assert len(oracle.enumerate_graphs(n, triangle_free=triangle_free)) == classes
    assert rows == canonicalised


def test_enumerate_cap():
    with pytest.raises(GraphError):
        enumerate_graphs(8)
    assert len(enumerate_graphs(8, triangle_free=True)) == 410
    with pytest.raises(GraphError):
        enumerate_graphs(11, triangle_free=True)


# triangle-free classes on n vertices, OEIS A006785
TRIANGLE_FREE_COUNTS = (1, 1, 2, 3, 7, 14, 38, 107, 410, 1897)


@pytest.mark.parametrize("n, count", enumerate(TRIANGLE_FREE_COUNTS))
def test_enumerate_triangle_free_counts(n, count):
    assert len(enumerate_graphs(n, triangle_free=True)) == count


# the same digest over enumerate_graphs(n, triangle_free=True) past the
# all-graphs cap; n = 10 (12,172 classes, about 3 s cold) is pinned in CI
TRIANGLE_FREE_DIGESTS = {
    8: "c7ece0811e355fa7f47a2e508708855d106c446b98be0948a00b1bc93c65e517",
    9: "42c028eda5dab6c792127a0cbc09e6a8cb1aa90166593241511f6a125fd9b017",
}


@pytest.mark.parametrize("n, digest", sorted(TRIANGLE_FREE_DIGESTS.items()))
def test_enumerate_triangle_free_pinned(n, digest):
    text = "\n".join(
        f"{g.to_graph6()} {g.canonical_form().hex()}"
        for g in enumerate_graphs(n, triangle_free=True)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(8))
def test_enumerate_triangle_free_is_a_subsequence(n):
    # the same representatives, forms and order as the full enumeration
    assert list(enumerate_graphs(n, triangle_free=True)) == [
        g for g in enumerate_graphs(n) if g.is_triangle_free()
    ]


def test_brute_force_examples():
    assert len(brute_force_bad_colorings(complete(3), 3)) == 3
    assert len(brute_force_bad_colorings(complete(2), 3)) == 2
    assert len(brute_force_bad_colorings(complete(7), 4)) == 0
    assert len(brute_force_bad_colorings(Graph(4), 3)) == 1
    with pytest.raises(GraphError):
        brute_force_bad_colorings(complete(8), 4)  # m = 28 > 24


def test_brute_force_masks_reverify():
    g = cycle(5)
    masks = brute_force_bad_colorings(g, 3)
    assert len(masks) > 0
    for mask in masks:
        c = TwoColoring.from_mask(g.m, int(mask))
        assert is_bad_coloring(g, 3, c)
    # and non-listed masks are not bad
    listed = set(int(x) for x in masks)
    for mask in range(1 << g.m):
        if mask not in listed:
            assert not is_bad_coloring(g, 3, TwoColoring.from_mask(g.m, mask))


def _predicate_masks(g, k):
    return [
        x
        for x in range(1 << g.m)
        if is_bad_coloring(g, k, TwoColoring.from_mask(g.m, x))
    ]


def _assert_scan_matches_predicate(g, k):
    masks = brute_force_bad_colorings(g, k)
    assert masks.dtype == np.uint32
    assert masks.tolist() == _predicate_masks(g, k), (g.edges, k)


def test_brute_force_matches_predicate_on_small_graphs():
    labelled = [
        Graph(n, (e for i, e in enumerate(complete(n).edges) if subset >> i & 1))
        for n in range(5)
        for subset in range(1 << comb(n, 2))
    ]
    for g in labelled + list(enumerate_graphs(5)):
        for k in range(2, 7):
            _assert_scan_matches_predicate(g, k)


@pytest.mark.parametrize("m", [1, 5, 6, 7, 12])
def test_brute_force_word_boundaries(m):
    # 64 colorings per word: m < 6 leaves unused bits in the only word,
    # m > 6 spreads the colorings over 2^(m-6) words
    g = Graph(6, complete(6).edges[:m])
    for k in range(2, 7):
        _assert_scan_matches_predicate(g, k)


def test_brute_force_at_the_edge_cap():
    # K_{4,6} is triangle-free, so at k=3 the bad colorings are exactly
    # the blue matchings: sum over j of C(4,j) C(6,j) j! = 1045
    g = complete_bipartite(4, 6)
    assert g.m == 24
    masks = brute_force_bad_colorings(g, 3)
    assert len(masks) == count_bad_colorings(g, 3).count == 1045
    assert masks.dtype == np.uint32 and (np.diff(masks.astype(np.int64)) > 0).all()
    with pytest.raises(GraphError):
        brute_force_bad_colorings(complete_bipartite(5, 5), 3)  # m = 25


def test_compute_sat_below_ramsey():
    assert compute_sat(5, 4).min_edges == 10 == comb(5, 2)
    assert compute_sat(4, 3).min_edges == 6
    res = compute_sat(6, 4)
    assert res.min_edges == 15 and res.graphs_scanned == 156
    assert len(res.extremal_graph6) == 1
    with pytest.raises(GraphError):
        compute_sat(8, 3)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_compute_sat_scans_each_class_once(monkeypatch, k):
    # every G+uv is another class on n vertices: 156 scans at n = 6, where
    # one scan per G+uv took 311 or 312
    scans = 0
    scan = oracle.brute_force_bad_colorings

    def counted(*args):
        nonlocal scans
        scans += 1
        return scan(*args)

    monkeypatch.setattr(oracle, "brute_force_bad_colorings", counted)
    assert compute_sat(6, k).graphs_scanned == 156
    assert scans == 156


def test_compute_sat_extremal_graphs_reverify():
    """Extremal graphs pass the engine-backed saturation check independently."""
    for n, k in [(5, 3), (5, 4), (6, 4)]:
        res = compute_sat(n, k)
        for g6 in res.extremal_graph6:
            g = from_graph6(g6)
            rep = is_rmin_saturated(g, k)
            assert rep.verdict and g.m == res.min_edges


def test_compute_sat_at_the_cap():
    """Frozen full-scan values at n = 7, the largest supported order."""
    r3 = compute_sat(7, 3)
    assert r3.min_edges == 12  # happens to equal floor(5n/2) - 5 already
    assert len(r3.extremal_graph6) == 3
    r4 = compute_sat(7, 4)
    assert r4.min_edges == 14
    assert r4.extremal_graph6 == ("FU~bg",)
    for g6 in r4.extremal_graph6:
        g = from_graph6(g6)
        assert is_rmin_saturated(g, 4).verdict


def test_compute_sat_equals_binomial_below_ramsey():
    for k in (3, 4, 5):
        r = family_ramsey_number(k)
        for n in range(2, min(r, 7)):
            assert compute_sat(n, k).min_edges == comb(n, 2), (n, k)


def test_compute_sat_binomial_at_seven_for_k5():
    # n = 7 is the only order at the op's cap that still sits below a
    # family Ramsey number (r = 9 at k = 5); the slowest scan in the suite
    assert compute_sat(7, 5).min_edges == comb(7, 2)


def test_family_ramsey_numbers():
    assert family_ramsey_number(2) == 3
    assert family_ramsey_number(3) == 5
    assert family_ramsey_number(4) == 7
    assert family_ramsey_number(5) == 9
    with pytest.raises(GraphError):
        family_ramsey_number(6)


def test_scan_k3_saturated():
    scan = scan_k3_saturated(5, 2)
    assert scan[0][1] == 5  # C5 with 2n-5 edges is the minimum
    assert scan[0][0].canonical_form() == cycle(5).canonical_form()
    assert scan_k3_saturated(6, 2)[0][1] == 7
    only = scan_k3_saturated(6, 1)
    assert len(only) == 1
    assert only[0][0].canonical_form() == star(6).canonical_form()


@pytest.mark.parametrize(
    "delta, graph6s",
    [
        (1, ["G???F{"]),
        (2, ["G?Bfow", "G?BvoW", "G??F~w", "G?rF`w", "G?z_~_"]),
        (3, ["GCrb`o", "G?o~f_", "G?B~vo"]),
    ],
)
def test_scan_k3_saturated_pinned_at_eight(delta, graph6s):
    # taken from the scan over all 12,346 classes on 8 vertices, before the
    # scan learnt to filter only the triangle-free ones
    assert [g.to_graph6() for g, _ in scan_k3_saturated(8, delta)] == graph6s
