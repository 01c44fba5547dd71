"""Enumeration oracle: class counts, full scans, sat values, Ramsey numbers."""

from math import comb

import numpy as np
import pytest

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
    BruteForceResult,
    brute_force_bad_coloring,
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
    assert enumerate_graphs(5) is enumerate_graphs(5)  # cached


def test_enumerate_cap():
    with pytest.raises(GraphError):
        enumerate_graphs(9)


def test_brute_force_examples():
    assert brute_force_bad_coloring(complete(3), 3) == BruteForceResult(True, 3)
    assert brute_force_bad_coloring(complete(2), 3) == BruteForceResult(True, 2)
    assert brute_force_bad_coloring(complete(7), 4) == BruteForceResult(False, 0)
    assert brute_force_bad_coloring(Graph(4), 3) == BruteForceResult(True, 1)
    with pytest.raises(GraphError):
        brute_force_bad_coloring(complete(8), 4)  # m = 28 > 24


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
