"""Colorings, the bad-coloring predicate, forced-blue edges, CNF export."""

import hashlib
import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from ramsat.colorings import (
    BLUE,
    MAX_SUBTREE_K,
    RED,
    BadColoringCertificate,
    TwoColoring,
    enumerate_subtrees,
    export_cnf,
    forced_blue_edges,
    is_bad_coloring,
    make_certificate,
    subtree_picks,
    triangle_picks,
)
from ramsat.constructions import ConstructionSpec, build
from ramsat.graphs import (
    Graph,
    GraphError,
    bits,
    component_masks,
    complete,
    cycle,
    path,
    star,
)
from ramsat.search import find_bad_coloring


def test_two_coloring_basics():
    g = path(3)
    c = TwoColoring([RED, BLUE])
    assert c.red_count == 1
    assert c.red_adjacency(g) == [0b010, 0b001, 0]
    assert TwoColoring.from_blue_edges(g, [(2, 1)]) == c
    with pytest.raises(GraphError):
        TwoColoring([0, 2])
    with pytest.raises(GraphError):
        is_bad_coloring(g, 3, TwoColoring([RED]))
    with pytest.raises(GraphError):
        is_bad_coloring(g, 1, TwoColoring([RED, RED]))


def test_mask_round_trip():
    c = TwoColoring([RED, BLUE, BLUE, RED])
    assert TwoColoring.from_mask(4, 0b1001) == c  # bit i set: edge i red


def test_is_bad_coloring_examples():
    k3 = complete(3)
    assert not is_bad_coloring(k3, 3, TwoColoring([RED] * k3.m))  # red triangle
    one_blue = TwoColoring([BLUE, RED, RED])
    assert is_bad_coloring(k3, 3, one_blue)
    geven = build(ConstructionSpec.geven(18))
    assert is_bad_coloring(geven.graph, 4, geven.reference_coloring)
    godd = build(ConstructionSpec.godd(19))
    assert is_bad_coloring(godd.graph, 4, godd.reference_coloring)
    gen = build(ConstructionSpec.general(5, 20))
    assert is_bad_coloring(gen.graph, 5, gen.reference_coloring)
    # all-blue K3 has a 3-vertex blue component: bad for k=4, not k=3
    all_blue = TwoColoring([BLUE] * 3)
    assert is_bad_coloring(k3, 4, all_blue)
    assert not is_bad_coloring(k3, 3, all_blue)


def test_blue_component_sizes():
    g = cycle(5)
    c = TwoColoring.from_blue_edges(g, [(0, 1), (1, 2)])
    assert make_certificate(g, 6, c).blue_component_sizes == (3, 1, 1)
    all_red = TwoColoring([RED] * g.m)
    assert make_certificate(g, 6, all_red).blue_component_sizes == (1,) * 5


def test_blue_component_sizes_match_networkx():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(0, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        coloring = TwoColoring(rng.choice((RED, BLUE)) for _ in range(g.m))
        blue = nx.Graph()
        blue.add_nodes_from(range(n))
        blue.add_edges_from(e for e, c in zip(g.edges, coloring.colors) if c == BLUE)
        comps = sorted(nx.connected_components(blue), key=min)
        blue_adj = [a & ~r for a, r in zip(g.adj, coloring.red_adjacency(g))]
        masks = component_masks(blue_adj, (1 << n) - 1)
        assert masks == [sum(1 << v for v in comp) for comp in comps]
        red = nx.Graph(e for e, c in zip(g.edges, coloring.colors) if c == RED)
        red_triangle_free = not any(nx.triangles(red).values())
        # k = n + 2 bounds no blue component, so only a red triangle is bad
        assert is_bad_coloring(g, n + 2, coloring) == red_triangle_free
        if red_triangle_free:
            want = sorted((len(c) for c in comps), reverse=True)
            cert = make_certificate(g, n + 2, coloring)
            assert cert.blue_component_sizes == tuple(want)


def test_certificate_verification():
    g = star(6)
    c = TwoColoring([RED] * g.m)
    cert = make_certificate(g, 4, c)
    assert cert.verify(g, 4)
    assert cert.blue_component_sizes == (1,) * 6
    # tampered component sizes no longer verify
    fake = BadColoringCertificate(c, (6,))
    assert not fake.verify(g, 4)
    with pytest.raises(GraphError):
        make_certificate(complete(3), 3, TwoColoring([RED] * 3))


def test_certificate_refuses_an_oversized_blue_component():
    # red is triangle-free (empty); the only defect is a blue path on 4
    # vertices, one more than k - 1 allows at k = 4
    g = path(4)
    all_blue = TwoColoring([BLUE] * g.m)
    assert not is_bad_coloring(g, 4, all_blue)
    with pytest.raises(GraphError):
        make_certificate(g, 4, all_blue)
    assert not BadColoringCertificate(all_blue, (4,)).verify(g, 4)
    # at k = 5 the same component fits
    assert make_certificate(g, 5, all_blue).blue_component_sizes == (4,)


def test_forced_blue_edges_geven():
    b = build(ConstructionSpec.geven(18))
    res = forced_blue_edges(b.graph, 4)
    assert res.applicable
    y1, y2 = b.roles["y1"][0], b.roles["y2"][0]
    forced_pairs = {b.graph.edges[e] for e in res.edges}
    assert (y1, y2) in forced_pairs
    assert b.graph.common_neighbor_count(y1, y2) >= 5  # 2k-3 at k=4


def test_forced_blue_edges_general():
    b = build(ConstructionSpec.general(5, 20))
    res = forced_blue_edges(b.graph, 5)
    forced_pairs = {b.graph.edges[e] for e in res.edges}
    for block in (b.roles["H1"], b.roles["H2"]):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                assert (u, v) in forced_pairs


def test_forced_blue_edges_small_or_sparse():
    assert forced_blue_edges(cycle(5), 3) == ((), True)  # no triangles at all
    res = forced_blue_edges(complete(4), 3)  # n < k + 2
    assert res.edges == () and not res.applicable


def test_enumerate_subtrees():
    assert len(enumerate_subtrees(complete(3), 3)) == 3  # spanning trees of K3
    assert len(enumerate_subtrees(star(4), 4)) == 1  # the star itself
    assert len(enumerate_subtrees(path(4), 4)) == 1
    assert len(enumerate_subtrees(path(4), 2)) == 3  # single edges
    # K4 on 4 vertices: 16 spanning trees (Cayley)
    assert len(enumerate_subtrees(complete(4), 4)) == 16


def reference_subtrees(g, k):
    """Every (k-1)-subset of each k-subset's induced edges, in combinations
    order, that networkx accepts as a tree."""
    out = []
    for subset in combinations(range(g.n), k):
        induced = [i for i, (u, v) in enumerate(g.edges) if u in subset and v in subset]
        for pick in combinations(induced, k - 1):
            h = nx.Graph()
            h.add_nodes_from(subset)
            h.add_edges_from(g.edges[i] for i in pick)
            if nx.is_tree(h):
                out.append(pick)
    return tuple(out)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_enumerate_subtrees_matches_reference(k):
    # the full tuple, order included: export_cnf writes one clause per entry
    rng = random.Random(600 + k)
    for _ in range(8):
        n = rng.randint(k, 8)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(n - 1, min(len(pairs), 16))))
        assert enumerate_subtrees(g, k) == reference_subtrees(g, k)


def loop_subtrees(g: Graph, k: int) -> tuple[tuple[int, ...], ...]:
    """Edge-index sets of every subtree of g on exactly k vertices.

    Each k-subset of vertices contributes the spanning trees of its induced
    subgraph, so every tree is listed exactly once.
    """
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    out = []
    for subset in combinations(range(g.n), k):
        inside = sum(1 << v for v in subset)
        # edge index -> endpoint mask of the edges (u, v), u < v, within the
        # subset, in index order
        local = {
            g.edge_index(u, v): (1 << u) | (1 << v)
            for u in subset
            for v in bits(g.adj[u] & inside & ~((2 << u) - 1))
        }
        if len(local) < k - 1:
            continue
        # k-1 edges on k vertices form a tree iff they reach all k
        for pick in combinations(local, k - 1):
            reached = 1 << subset[0]
            grown = True
            while grown:
                grown = False
                for i in pick:
                    ends = local[i]
                    if ends & reached and ends & ~reached:
                        reached |= ends
                        grown = True
            if reached == inside:
                out.append(pick)
    return tuple(out)


def _seeded_graphs(seed, count, n_range, max_edges):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(*n_range)
        pairs = list(combinations(range(n), 2))
        graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), max_edges)))))
    return graphs


@pytest.mark.parametrize("k", range(2, MAX_SUBTREE_K + 1))
def test_enumerate_subtrees_matches_loop(k):
    # the per-subset loop that the numpy table lookup replaced, on up to 10
    # vertices; sparser draws at large k keep the loop's picks few
    graphs = _seeded_graphs(700 + k, 12, (k, 10), 30 - 2 * k) + [complete(k)]
    for g in graphs:
        assert enumerate_subtrees(g, k) == loop_subtrees(g, k), (g.n, g.edges)


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_subtree_and_triangle_picks_batch(k):
    # a batch lists each graph's picks in turn, as one call per graph would
    graphs = _seeded_graphs(800 + k, 40, (8, 8), 20)
    owner, picks = subtree_picks(graphs, k)
    assert list(zip(owner.tolist(), map(tuple, picks.tolist()))) == [
        (i, pick) for i, g in enumerate(graphs) for pick in loop_subtrees(g, k)
    ]
    owner, picks = triangle_picks(graphs)
    assert list(zip(owner.tolist(), map(tuple, picks.tolist()))) == [
        (i, tri) for i, g in enumerate(graphs) for tri in g.triangle_edge_triples()
    ]


@pytest.mark.parametrize("k", range(2, 7))
def test_picks_rows_are_ascending(k):
    # oracle._by_top_edge takes each row's last entry as its highest edge
    for n in range(2, 11):
        graphs = _seeded_graphs(900 + 10 * k + n, 20, (n, n), 24)
        if n <= 7:
            graphs.append(complete(n))
        for owner, picks in (subtree_picks(graphs, k), triangle_picks(graphs)):
            assert len(owner) == len(picks)
            assert (np.diff(picks, axis=1) > 0).all(), (n, k)


def test_enumerate_subtrees_caps_k():
    # K_8 has 262,144 spanning trees: the table of K_k's trees stops at 7
    with pytest.raises(GraphError, match="k <= 7"):
        enumerate_subtrees(path(8), 8)
    assert enumerate_subtrees(complete(7), 9) == ()  # k > n: no subtrees
    with pytest.raises(GraphError):
        enumerate_subtrees(complete(3), 1)


@pytest.mark.parametrize(
    "spec, k, digest",
    [
        (
            ConstructionSpec.geven(18),
            4,
            "a41306ae2ca0cd881f6336dda246cabdd53ba82f70f05deed09d76ebad7af0d1",
        ),
        (
            ConstructionSpec.general(5, 20),
            5,
            "68babb379a7edbadb1ea0c9dd10233311bbc97f443a0718ff190c68970024104",
        ),
    ],
    ids=["geven18-k4", "general5_20-k5"],
)
def test_export_cnf_digest(spec, k, digest):
    text = export_cnf(build(spec).graph, k)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_export_cnf_structure():
    text = export_cnf(complete(3), 3)
    lines = [l for l in text.splitlines() if not l.startswith("c")]
    assert lines[0] == "p cnf 3 4"
    assert lines.count("-1 -2 -3 0") == 1
    assert sorted(lines[1:]) == sorted(["-1 -2 -3 0", "1 2 0", "1 3 0", "2 3 0"])

    text = export_cnf(star(4), 4)
    lines = [l for l in text.splitlines() if not l.startswith("c")]
    assert lines == ["p cnf 3 1", "1 2 3 0"]

    with pytest.raises(GraphError):
        export_cnf(complete(3), 7)  # k cap


# -- independent CNF satisfiability check (tiny DPLL) ---------------------------


def parse_dimacs(text):
    clauses = []
    for line in text.splitlines():
        if line.startswith(("c", "p")) or not line.strip():
            continue
        clauses.append([int(x) for x in line.split()[:-1]])
    return clauses


def dpll(clauses):
    while True:
        units = [c[0] for c in clauses if len(c) == 1]
        if not units:
            break
        lit = units[0]
        reduced = []
        for c in clauses:
            if lit in c:
                continue
            if -lit in c:
                c = [x for x in c if x != -lit]
                if not c:
                    return False
            reduced.append(c)
        clauses = reduced
    if not clauses:
        return True
    lit = clauses[0][0]
    return dpll(clauses + [[lit]]) or dpll(clauses + [[-lit]])


@pytest.mark.parametrize(
    "g, k",
    [
        (complete(3), 3),
        (complete(5), 3),
        (complete(6), 4),
        (complete(7), 4),
        (star(4), 4),
        (cycle(5), 3),
    ],
)
def test_cnf_satisfiable_iff_bad_coloring_exists(g, k):
    sat = dpll(parse_dimacs(export_cnf(g, k)))
    assert sat == (find_bad_coloring(g, k).status == "found")


def test_cnf_matches_engine_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        for k in (3, 4):
            sat = dpll(parse_dimacs(export_cnf(g, k)))
            assert sat == (find_bad_coloring(g, k).status == "found")
