"""Graph core: structure queries, canonical forms, graph6, DOT."""

import hashlib
import random

import networkx as nx
import pytest

from ramsat.constructions import ConstructionSpec, build
from ramsat.graphs import (
    CANONICAL_MAX_N,
    ComponentPartition,
    EdgeRef,
    Graph,
    Graph6Error,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    path,
    petersen,
    read_graph6_lines,
    star,
)


def random_graph(rng, n, max_m=None):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cap = len(pairs) if max_m is None else min(max_m, len(pairs))
    return Graph(n, rng.sample(pairs, rng.randint(0, cap)))


def naive_triangles_through(g, u, v):
    return sum(1 for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w))


def test_basic_invariants():
    g = Graph(5, [(3, 1), (0, 1), (1, 3)])  # duplicates and order collapse
    assert g.edges == ((0, 1), (1, 3))
    assert g.m == 2
    assert g.degree(1) == 2 and g.degree(4) == 0
    # adjacency is symmetric and irreflexive by construction
    for u in range(g.n):
        assert not g.has_edge(u, u)
        for v in range(g.n):
            assert g.has_edge(u, v) == g.has_edge(v, u)
    # edge index <-> endpoint bijection, stable across calls
    for i, (u, v) in enumerate(g.edges):
        assert g.edge_index(u, v) == i
        assert g.edge_ref(i) == EdgeRef(i, u, v)
    assert g.edges == Graph(5, g.edges).edges


def test_validation_errors():
    with pytest.raises(GraphError):
        Graph(-1)
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)]).edge_index(0, 2)
    with pytest.raises(GraphError):
        Graph(3, [(0, 1)]).edge_ref(5)
    with pytest.raises(GraphError):
        cycle(2)


def test_degenerate_graphs_are_legal():
    g = Graph(0)
    assert g.m == 0
    assert g.components() == ComponentPartition((), ())
    assert g.is_triangle_free()
    assert g.canonical_form() == b"\x00"
    assert empty(3).components().sizes == (1, 1, 1)


def test_with_without_edge():
    g = path(4)
    g2 = g.with_edge(0, 3)
    assert g2.has_edge(0, 3) and not g.has_edge(0, 3)
    assert g2.without_edge(0, 3).edges == g.edges
    with pytest.raises(GraphError):
        g.with_edge(0, 1)
    with pytest.raises(GraphError):
        g.without_edge(0, 3)


def test_triangles_through_edge_examples():
    k4 = complete(4)
    for i in range(k4.m):
        assert k4.triangles_through_edge(i) == 2
    p = petersen()
    for i in range(p.m):
        assert p.triangles_through_edge(i) == 0  # girth 5
    gen = build(ConstructionSpec.general(5, 20))
    h1 = gen.roles["H1"]
    e = gen.graph.edge_index(h1[0], h1[1])
    assert gen.graph.triangles_through_edge(e) == 7  # 2k-3 at k=5


def test_triangles_against_naive_loop():
    rng = random.Random(42)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        for i, (u, v) in enumerate(g.edges):
            assert g.triangles_through_edge(i) == naive_triangles_through(g, u, v)
        # triangle lists agree with a brute triple loop
        naive = {
            (u, v, w)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            for w in range(v + 1, g.n)
            if g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
        }
        assert set(g.triangles()) == naive
        for (u, v, w), (a, b, c) in zip(g.triangles(), g.triangle_edge_triples()):
            assert {g.edges[a], g.edges[b], g.edges[c]} == {(u, v), (u, w), (v, w)}


def test_components():
    g = disjoint_union(complete(2), complete(3))
    assert sorted(g.components().sizes) == [2, 3]
    comp = g.components()
    assert sum(comp.sizes) == g.n
    # ids are contiguous, ordered by smallest contained vertex
    assert comp.assignment[0] == 0
    # blue subgraph of the geven(18) reference coloring: components <= 3
    b = build(ConstructionSpec.geven(18))
    blue = b.reference_coloring.blue_graph(b.graph)
    assert max(blue.components().sizes) <= 3


def test_component_count_never_grows_under_edge_addition():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        before = len(g.components().sizes)
        non_edges = list(g.non_edges())
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        assert len(g.with_edge(u, v).components().sizes) <= before


def test_is_triangle_free():
    assert cycle(5).is_triangle_free()
    assert not complete(3).is_triangle_free()
    assert petersen().is_triangle_free()
    gen = build(ConstructionSpec.general(5, 20))
    assert gen.reference_coloring.red_graph(gen.graph).is_triangle_free()


def brute_force_is_2_connected(g):
    if g.n < 3 or not g.is_connected():
        return False
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        relabel = {u: i for i, u in enumerate(rest)}
        h = Graph(
            g.n - 1,
            [
                (relabel[a], relabel[b])
                for a, b in g.edges
                if a != v and b != v
            ],
        )
        if not h.is_connected():
            return False
    return True


def test_is_2_connected():
    assert cycle(4).is_2_connected()
    assert not star(5).is_2_connected()  # center is a cut vertex
    assert petersen().is_2_connected()
    assert not path(4).is_2_connected()
    assert not disjoint_union(complete(3), complete(3)).is_2_connected()
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        assert g.is_2_connected() == brute_force_is_2_connected(g)


def test_canonical_form_examples():
    c4 = cycle(4)
    assert c4.canonical_form() == c4.relabeled([2, 0, 3, 1]).canonical_form()
    a = disjoint_union(complete(3), empty(1))
    assert a.canonical_form() != path(4).canonical_form()
    with pytest.raises(GraphError):
        complete(CANONICAL_MAX_N + 1).canonical_form()


def test_canonical_form_eleven_classes_on_four_vertices():
    forms = set()
    graphs = 0
    for mask in range(1 << 6):
        pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = Graph(4, [pairs[i] for i in range(6) if mask >> i & 1])
        forms.add(g.canonical_form())
        graphs += 1
    assert graphs == 64
    assert len(forms) == 11


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(5)
    samples = [cycle(5), petersen(), complete_bipartite(3, 4), star(8)]
    for _ in range(10):
        samples.append(random_graph(rng, rng.randint(1, 8)))
    for g in samples:
        form = g.canonical_form()
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert g.relabeled(perm).canonical_form() == form


def as_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_canonical_form_separates_nonisomorphic_pairs():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, 6)
        h = random_graph(rng, 6)
        same_form = g.canonical_form() == h.canonical_form()
        assert same_form == nx.is_isomorphic(as_nx(g), as_nx(h))


def test_graph6_known_values():
    assert Graph(1).to_graph6() == "@"
    assert complete(2).to_graph6() == "A_"
    assert Graph(2).to_graph6() == "A?"
    assert from_graph6("@") == Graph(1)


def test_graph6_round_trip_catalog():
    specs = [
        ConstructionSpec.geven(18),
        ConstructionSpec.godd(19),
        ConstructionSpec.general(5, 20),
        ConstructionSpec.petersen(),
        ConstructionSpec.j(4, 2, 3),
        ConstructionSpec.c5dup(2, 1, 3, 1, 1),
        ConstructionSpec.star(9),
    ]
    for spec in specs:
        g = build(spec).graph
        assert from_graph6(g.to_graph6()) == g


def test_read_graph6_lines_round_trip():
    originals = [cycle(5), star(7), complete(4)]
    lines = [g.to_graph6() for g in originals] + [""]
    assert list(read_graph6_lines(lines)) == originals


def test_graph6_matches_networkx():
    rng = random.Random(17)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12))
        ours = g.to_graph6()
        theirs = nx.to_graph6_bytes(as_nx(g), header=False).decode().strip()
        assert ours == theirs
        back = from_graph6(theirs)
        assert back == g


def test_graph6_large_n_encoding():
    g = empty(64)
    assert from_graph6(g.to_graph6()) == g
    g2 = Graph(64, [(0, 63), (1, 2)])
    assert from_graph6(g2.to_graph6()) == g2


def test_graph6_round_trip_long_path():
    g = path(1200)
    text = g.to_graph6()
    # digest of the reference encoding, the one networkx writes for path_graph(1200)
    assert len(text) == 4 + (1200 * 1199 // 2 + 5) // 6
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b120a239742e8cc7302db21e65639572b594bc9ae5f24f2e2147ee898d8d29d5"
    )
    assert from_graph6(text) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as err:
        from_graph6("garbage\x01")
    assert err.value.offset == 7
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6(">>graph6<<A_")
    with pytest.raises(Graph6Error):
        from_graph6("C")  # truncated adjacency bytes
    with pytest.raises(Graph6Error):
        from_graph6("A_extra")


def test_dot_output():
    b = build(ConstructionSpec.geven(18))
    plain = b.graph.to_dot()
    assert plain.count(" -- ") == 45
    colored = b.graph.to_dot(b.reference_coloring, b.vertex_labels())
    assert colored.count("color=red") == 33
    assert colored.count("color=blue, style=dashed") == 12
    assert 'label="y1"' in colored
    # isolated vertices still get declared
    assert "  1;" in empty(2).to_dot()
