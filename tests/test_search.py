"""Search engine: exhaustiveness, certificates, budgets, oracle agreement."""

import random

import pytest

from ramsat.colorings import TwoColoring, forced_blue_edges, is_bad_coloring
from ramsat.graphs import (
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    star,
)
from ramsat.oracle import brute_force_bad_coloring
from ramsat.search import (
    EXHAUSTED,
    FOUND,
    NONE,
    OK,
    SearchBudget,
    count_bad_colorings,
    find_bad_coloring,
    find_max_red_bad_coloring,
)


def random_graph(rng, n, max_m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(0, min(max_m, len(pairs)))
    return Graph(n, rng.sample(pairs, m))


def test_find_examples():
    res = find_bad_coloring(star(10), 4)
    assert res.found and res.certificate.verify(star(10), 4)

    res = find_bad_coloring(complete(7), 4)
    assert res.status == NONE and res.certificate is None

    res = find_bad_coloring(complete(6), 4)
    assert res.found
    # explicit witness: two blue triangles joined in red
    witness = TwoColoring.from_blue_edges(
        complete(6), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    )
    assert is_bad_coloring(complete(6), 4, witness)


def test_find_on_degenerate_inputs():
    assert find_bad_coloring(Graph(0), 3).found
    res = find_bad_coloring(Graph(5), 3)  # edgeless
    assert res.found and res.certificate.blue_component_sizes == (1,) * 5


def test_count_examples():
    assert count_bad_colorings(complete(2), 3).count == 2
    assert count_bad_colorings(complete(3), 3).count == 3
    assert count_bad_colorings(Graph(4), 5).count == 1  # the empty coloring
    # cap saturates the count
    res = count_bad_colorings(complete(2), 3, cap=1)
    assert res.count == 1 and res.status == OK
    with pytest.raises(GraphError):
        count_bad_colorings(complete(2), 3, cap=0)
    with pytest.raises(GraphError):
        count_bad_colorings(complete(2), 1)


def test_max_red_examples():
    res = find_max_red_bad_coloring(star(6), 3)
    assert res.found and res.certificate.coloring.red_count == 5

    two_k2 = disjoint_union(complete(2), complete(2))
    res = find_max_red_bad_coloring(two_k2, 3)
    assert res.certificate.coloring.red_count == 2  # all red

    res = find_max_red_bad_coloring(cycle(5), 3)
    assert res.certificate.coloring.red_count == 5  # all-red C5 is bad

    assert find_max_red_bad_coloring(complete(7), 4).status == NONE


@pytest.mark.parametrize("g", [path(1200), complete_bipartite(40, 40)])
def test_deep_searches_decide(g):
    """Over a thousand branching levels: depth is not bounded by recursion."""
    found = find_bad_coloring(g, 3)
    assert found.found and found.certificate.verify(g, 3)
    counted = count_bad_colorings(g, 3, cap=2)
    assert counted.status == OK and counted.count == 2
    best = find_max_red_bad_coloring(g, 3)
    assert best.found and best.certificate.verify(g, 3)
    assert best.certificate.coloring.red_count == g.m  # triangle-free: all red


def test_max_red_dominates_plain_find():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6), 12)
        for k in (3, 4):
            plain = find_bad_coloring(g, k)
            best = find_max_red_bad_coloring(g, k)
            assert plain.found == best.found
            if plain.found:
                assert (
                    best.certificate.coloring.red_count
                    >= plain.certificate.coloring.red_count
                )
                assert best.certificate.verify(g, k)


def test_budget_exhaustion_is_distinct():
    g = complete(8)
    res = find_bad_coloring(g, 5, SearchBudget(max_nodes=1))
    assert res.status == EXHAUSTED
    res = count_bad_colorings(g, 5, budget=SearchBudget(max_nodes=1))
    assert res.status == EXHAUSTED
    res = find_max_red_bad_coloring(g, 5, SearchBudget(max_nodes=1))
    assert res.status == EXHAUSTED
    # a generous budget decides the same instance
    assert find_bad_coloring(g, 5).found


def test_exhausted_search_reports_the_nodes_it_searched():
    g = complete(8)  # at k=5, find needs 4 nodes and a full count 34
    assert find_bad_coloring(g, 5, SearchBudget(max_nodes=4)).found
    for n in (1, 2, 3):
        res = find_bad_coloring(g, 5, SearchBudget(max_nodes=n))
        assert res.status == EXHAUSTED and res.stats.nodes == n
    for n in (1, 20, 33):
        res = count_bad_colorings(g, 5, budget=SearchBudget(max_nodes=n))
        assert res.status == EXHAUSTED and res.stats.nodes == n


def test_determinism():
    g = complete(6)
    a = find_bad_coloring(g, 4)
    b = find_bad_coloring(g, 4)
    assert a.certificate.coloring == b.certificate.coloring
    assert a.stats.nodes == b.stats.nodes


def test_engine_matches_oracle_on_random_corpus():
    """Existence and exact counts agree with the 2^m scan (seeded corpus)."""
    rng = random.Random(20260811)
    graphs = [random_graph(rng, rng.randint(1, 7), 20) for _ in range(200)]
    for g in graphs:
        for k in (3, 4, 5):
            want = brute_force_bad_coloring(g, k)
            f = find_bad_coloring(g, k)
            c = count_bad_colorings(g, k)
            assert (f.status == FOUND) == want.exists
            assert c.count == want.count and c.status == OK
            if f.found:
                assert f.certificate.verify(g, k)


def test_forced_blue_invariant_on_certificates():
    """Any found bad coloring keeps every high-triangle edge blue (n >= k+2)."""
    rng = random.Random(55)
    checked = 0
    for _ in range(80):
        g = random_graph(rng, 7, 21)
        for k in (3, 4, 5):
            if g.n < k + 2:
                continue
            res = find_bad_coloring(g, k)
            if not res.found:
                continue
            for ref in forced_blue_edges(g, k).edges:
                assert res.certificate.coloring.is_blue(ref.index)
                checked += 1
    assert checked > 0


def test_arrowing_is_monotone_under_edge_addition():
    rng = random.Random(13)
    # graphs that arrow and still have non-edges keep arrowing when grown
    base = [
        (disjoint_union(complete(5), Graph(2)), 3),
        (disjoint_union(complete(7), Graph(1)), 4),
    ]
    for g, k in base:
        assert find_bad_coloring(g, k).status == NONE
        non_edges = list(g.non_edges())
        for _ in range(min(5, len(non_edges))):
            u, v = rng.choice(non_edges)
            assert find_bad_coloring(g.with_edge(u, v), k).status == NONE


def test_stats_are_populated():
    res = find_bad_coloring(complete(6), 4)
    assert res.stats.nodes >= 0
    assert res.stats.propagations > 0
    assert res.stats.wall_time >= 0.0
