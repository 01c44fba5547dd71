"""Graph core: structure queries, canonical forms, graph6, DOT."""

import hashlib
import itertools
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from ramsat.colorings import RED
from ramsat.constructions import ConstructionSpec, build
from ramsat.graphs import (
    CANONICAL_BATCH,
    CANONICAL_MAX_N,
    Graph,
    Graph6Error,
    GraphError,
    canonical_forms,
    complete,
    complete_bipartite,
    component_masks,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    has_kt,
    is_2_connected,
    path,
    petersen,
    lower_twins,
    star,
    _canonical_orders,
    _graph6_encode_n,
    _refinement_colors,
)
from ramsat.oracle import enumerate_graphs


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
    assert g.edges == Graph(5, g.edges).edges


def test_edge_index_is_built_on_first_use():
    g = cycle(5)
    assert g._edge_index is None
    assert g.edge_index(4, 0) == 1 and g._edge_index is not None
    h = complete(4)
    assert h.triangle_edge_triples() == ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))
    assert h._edge_index == {e: i for i, e in enumerate(h.edges)}
    # fresh representatives, which other tests' cached ones may not be
    assert all(g._edge_index is None for g in enumerate_graphs.__wrapped__(5))


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
        cycle(2)
    for a, b in [(-1, 2), (2, -1)]:
        with pytest.raises(GraphError):
            complete_bipartite(a, b)


def test_degenerate_graphs_are_legal():
    g = Graph(0)
    assert g.m == 0
    assert component_masks(g.adj, 0) == []
    assert not is_2_connected(g.adj)
    assert not has_kt(g, 3)
    assert g.canonical_form() == b"\x00"
    assert component_masks(empty(3).adj, 0b111) == [0b001, 0b010, 0b100]


def test_with_without_edge():
    g = path(4)
    g2 = g.with_edge(0, 3)
    assert g2.has_edge(0, 3) and not g.has_edge(0, 3)
    assert g2.without_edge(0, 3).edges == g.edges
    with pytest.raises(GraphError):
        g.with_edge(0, 1)
    assert not g.has_edge(0, -1) and not g.has_edge(-1, 0)
    with pytest.raises(GraphError):
        g.with_edge(0, -1)
    with pytest.raises(GraphError):
        g.without_edge(0, 3)


def test_triangles_through_edge_examples():
    k4 = complete(4)
    for u, v in k4.edges:
        assert k4.common_neighbor_count(u, v) == 2
    p = petersen()
    for u, v in p.edges:
        assert p.common_neighbor_count(u, v) == 0  # girth 5
    gen = build(ConstructionSpec.general(5, 20))
    h1 = gen.roles["H1"]
    assert gen.graph.common_neighbor_count(h1[0], h1[1]) == 7  # 2k-3 at k=5


def test_twins_are_exactly_the_automorphic_swaps():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8))
        (twins,) = lower_twins(np.array([g.adj], dtype=np.int64))
        for u in range(g.n):
            assert not twins[u] >> u  # only lower vertices
            for v in range(u + 1, g.n):
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                assert bool(twins[v] >> u & 1) == (g.relabeled(swap) == g)


def test_triangles_against_naive_loop():
    rng = random.Random(42)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        for u, v in g.edges:
            assert g.common_neighbor_count(u, v) == naive_triangles_through(g, u, v)
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
    # ordered by smallest contained vertex
    assert component_masks(g.adj, 0b11111) == [0b00011, 0b11100]
    # only the vertices in the mask count: dropping 2 splits the path
    assert component_masks(path(5).adj, 0b11011) == [0b00011, 0b11000]
    # blue subgraph of the geven(18) reference coloring: components <= 3
    b = build(ConstructionSpec.geven(18))
    radj = b.reference_coloring.red_adjacency(b.graph)
    blue = [a & ~r for a, r in zip(b.graph.adj, radj)]
    comps = component_masks(blue, (1 << b.graph.n) - 1)
    assert max(comp.bit_count() for comp in comps) <= 3


def test_component_count_never_grows_under_edge_addition():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        full = (1 << g.n) - 1
        before = len(component_masks(g.adj, full))
        non_edges = list(g.non_edges())
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        assert len(component_masks(g.with_edge(u, v).adj, full)) <= before


def test_is_triangle_free():
    assert not has_kt(cycle(5), 3)
    assert has_kt(complete(3), 3)
    assert not has_kt(petersen(), 3)
    gen = build(ConstructionSpec.general(5, 20))
    colors = gen.reference_coloring.colors
    red = Graph(gen.graph.n, (e for e, c in zip(gen.graph.edges, colors) if c == RED))
    assert not has_kt(red, 3)


def brute_force_is_2_connected(g):
    """n >= 3 and every G - v connected, by a search over the edge list."""

    def connected(vertices):
        seen = {min(vertices)}
        grown = True
        while grown:
            grown = False
            for a, b in g.edges:
                if a in vertices and b in vertices and (a in seen) != (b in seen):
                    seen |= {a, b}
                    grown = True
        return seen == vertices

    return g.n >= 3 and all(connected(set(range(g.n)) - {v}) for v in range(g.n))


def test_is_2_connected():
    assert is_2_connected(cycle(4).adj)
    assert not is_2_connected(star(5).adj)  # center is a cut vertex
    assert is_2_connected(petersen().adj)
    assert not is_2_connected(path(4).adj)
    assert not is_2_connected(disjoint_union(complete(3), complete(3)).adj)
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        assert is_2_connected(g.adj) == brute_force_is_2_connected(g)


def _rank(keys):
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def reference_refinement_colors(g):
    """Neighbor-color refinement keyed by sorted neighbor-color tuples."""
    colors = _rank(g.degrees())
    nclasses = len(set(colors))
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in range(g.n)
        ]
        new = _rank(sig)
        if len(set(new)) == nclasses:
            return new
        colors = new
        nclasses = len(set(colors))


def _twins(adj: list[int], u: int, v: int) -> bool:
    off = ~(1 << u | 1 << v)
    return adj[u] & off == adj[v] & off


def _search_order(adj: list[int], colors: list[int]) -> list[int]:
    """The vertex order that gives the minimum form among those listing
    the color classes in order, by a search pruned against the best prefix
    and by twin swaps."""
    n = len(adj)
    nclasses = max(colors) + 1
    classes: list[list[int]] = [[] for _ in range(nclasses)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    # class_end[level]: first position past the class placed at level
    class_end: list[int] = []
    for cls in classes:
        class_end.extend([len(class_end) + len(cls)] * len(cls))

    cur = [0] * n
    placed = [0] * n
    best: list[int] | None = None
    best_order: list[int] = []

    # rest: (adjacency to the placed prefix, v) for each unplaced v, in
    # class order, so the current class's candidates lead it
    def rec(level: int, tight: bool, rest: list[tuple[int, int]]) -> bool:
        nonlocal best, best_order
        if level == n:
            best = cur[:]
            best_order = placed[:]
            return True
        items = sorted(rest[: class_end[level] - level])
        updated = False
        tried: list[tuple[int, int]] = []
        for chunk, v in items:
            if best is not None and tight and chunk > best[level]:
                break
            # skip v when a tried twin u gives an isomorphic continuation
            if any(tchunk == chunk and _twins(adj, u, v) for tchunk, u in tried):
                continue
            tried.append((chunk, v))
            if best is None:
                child_tight = True
            else:
                child_tight = tight and chunk == best[level]
            cur[level] = chunk
            placed[level] = v
            child = [(c << 1 | (adj[u] >> v & 1), u) for c, u in rest if u != v]
            if rec(level + 1, child_tight, child):
                updated = True
                tight = True  # best now extends the current prefix
        return updated

    rec(0, True, [(0, v) for cls in classes for v in cls])
    return best_order


def form_in_order(g, order):
    """The order n, then the columns of g's adjacency matrix in the given
    vertex order above the diagonal, packed bit by bit."""
    bits = [g.has_edge(order[v], order[u]) for v in range(g.n) for u in range(v)]
    value = int("".join("01"[b] for b in bits) or "0", 2)
    return bytes([g.n]) + value.to_bytes((len(bits) + 7) // 8 or 1, "big")


def reference_canonical_form(g):
    """The form from the reference refinement and a depth-first search
    pruned against the best prefix, one graph at a time."""
    if g.n == 0:
        return b"\x00"
    return form_in_order(g, _search_order(list(g.adj), reference_refinement_colors(g)))


def brute_force_canonical_form(g):
    """The minimum form over every ordering that lists the reference
    refinement classes in order, each class in every one of its orders."""
    if g.n == 0:
        return b"\x00"
    colors = reference_refinement_colors(g)
    classes = [[v for v in range(g.n) if colors[v] == c] for c in range(max(colors) + 1)]
    return min(
        form_in_order(g, [v for part in parts for v in part])
        for parts in itertools.product(*map(itertools.permutations, classes))
    )


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


def test_refinement_colors_match_reference():
    rng = random.Random(17)
    samples = [complete(CANONICAL_MAX_N), star(CANONICAL_MAX_N), petersen()]
    for n in range(8):
        for g in enumerate_graphs(n):
            samples += [g, shuffled(rng, g)]
    for _ in range(300):
        samples.append(random_graph(rng, rng.randint(1, CANONICAL_MAX_N)))
    # keys rank exactly up to 16 vertices, past the canonical-form cap
    for _ in range(100):
        samples.append(random_graph(rng, rng.randint(CANONICAL_MAX_N + 1, 16)))
    samples += [cycle(16), complete_bipartite(7, 9)]
    samples.append(disjoint_union(petersen(), cycle(6)))
    for g in samples:
        colors = _refinement_colors(np.array([g.adj], dtype=np.int64))
        assert colors[0].tolist() == reference_refinement_colors(g), g.to_graph6()


def symmetric_families(n):
    family = [empty(n), complete(n)]
    family += [complete_bipartite(a, n - a) for a in range(1, n // 2 + 1)]
    if n >= 3:
        family.append(cycle(n))
    if n == 10:
        family.append(petersen())
    if n <= 8:
        family += enumerate_graphs(n, triangle_free=True)
    return family


@pytest.mark.parametrize("n", range(CANONICAL_MAX_N + 1))
def test_canonical_forms_match_reference(n):
    rng = random.Random(100 + n)
    batch = [random_graph(rng, n) for _ in range(40)]
    for g in symmetric_families(n):
        batch += [g, shuffled(rng, g)]
    forms = canonical_forms([g.adj for g in batch])
    assert forms == [reference_canonical_form(g) for g in batch]
    assert forms == [Graph(g.n, g.edges).canonical_form() for g in batch]


@pytest.mark.parametrize("n", range(7))
def test_canonical_forms_match_brute_force(n):
    rng = random.Random(200 + n)
    batch = []
    for g in enumerate_graphs(n):
        batch += [g, shuffled(rng, g)]
    forms = canonical_forms([g.adj for g in batch])
    assert forms == [brute_force_canonical_form(g) for g in batch]


def test_canonical_orders_list_the_classes_in_order():
    rng = random.Random(37)
    batch = [random_graph(rng, 8) for _ in range(200)]
    batch += [petersen(), cycle(10), complete_bipartite(5, 5)]
    for n in (8, 10):
        graphs = [g for g in batch if g.n == n]
        adjs = np.array([g.adj for g in graphs], dtype=np.int64)
        colors = _refinement_colors(adjs)
        orders = _canonical_orders(adjs)
        assert (np.sort(orders, axis=1) == np.arange(n)).all()
        assert (np.diff(np.take_along_axis(colors, orders, axis=1)) >= 0).all()
        for g, order in zip(graphs, orders.tolist()):
            assert form_in_order(g, order) == g.canonical_form()


@pytest.mark.parametrize(
    "g",
    [
        petersen(),
        disjoint_union(cycle(5), cycle(5)),
        disjoint_union(*[complete(2)] * 5),
        cycle(10),
        complete_bipartite(5, 5),
    ],
    ids=["petersen", "2C5", "5K2", "C10", "K5,5"],
)
def test_canonical_form_of_symmetric_tens_under_relabeling(g):
    # vertex-transitive graphs without twins keep the most tied states
    rng = random.Random(41)
    relabeled = [shuffled(rng, g) for _ in range(20)]
    forms = canonical_forms([g.adj] + [h.adj for h in relabeled])
    assert set(forms) == {reference_canonical_form(g)}


def test_canonical_forms_across_chunks():
    # discrete and non-discrete rows mixed over more than one chunk
    rng = random.Random(23)
    batch = [random_graph(rng, 7) for _ in range(CANONICAL_BATCH + 200)]
    adjs = np.array([g.adj for g in batch], dtype=np.int64)
    discrete = _refinement_colors(adjs).max(axis=1) == 6
    assert 0 < discrete.sum() < len(batch)
    forms = canonical_forms(adjs)
    assert forms == [reference_canonical_form(g) for g in batch]
    assert forms[CANONICAL_BATCH:] == canonical_forms(adjs[CANONICAL_BATCH:])


def test_canonical_forms_of_ten_singleton_classes():
    # the round that splits a row into 10 classes ranks the widest keys
    # that occur below the cap
    rng = random.Random(29)
    batch = []
    while len(batch) < 30:
        g = random_graph(rng, 10)
        if len(set(reference_refinement_colors(g))) == 10:
            batch += [g, shuffled(rng, g)]
    colors = _refinement_colors(np.array([g.adj for g in batch], dtype=np.int64))
    assert (np.sort(colors, axis=1) == np.arange(10)).all()
    assert canonical_forms([g.adj for g in batch]) == [
        reference_canonical_form(g) for g in batch
    ]
    assert len(set(canonical_forms([g.adj for g in batch]))) == len(batch) // 2


def test_canonical_forms_limits():
    assert canonical_forms([]) == []
    assert canonical_forms([(), ()]) == [b"\x00", b"\x00"]
    with pytest.raises(GraphError):
        canonical_forms([complete(CANONICAL_MAX_N + 1).adj])


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


def test_connectivity_matches_networkx():
    rng = random.Random(31)
    graphs = [empty(0), empty(1), empty(2), path(2)]
    for _ in range(120):
        n = rng.randint(0, 12)
        graphs.append(random_graph(rng, n, max_m=rng.choice((n, 2 * n, None))))
    for _ in range(20):
        part = random_graph(rng, rng.randint(1, 6))
        graphs.append(disjoint_union(part, complete(rng.randint(1, 4))))
    for g in graphs:
        h = as_nx(g)
        comps = sorted(nx.connected_components(h), key=min)
        masks = component_masks(g.adj, (1 << g.n) - 1)
        assert masks == [sum(1 << v for v in comp) for comp in comps]
        assert is_2_connected(g.adj) == (g.n >= 3 and nx.is_biconnected(h))


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


def test_graph6_matches_networkx():
    rng = random.Random(17)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12))
        ours = g.to_graph6()
        theirs = nx.to_graph6_bytes(as_nx(g), header=False).decode().strip()
        assert ours == theirs
        back = from_graph6(theirs)
        assert back == g


def _string_graph6(g):
    """The reference encoder: the whole upper triangle as a '0'/'1' string,
    column by column, cut into 6-bit digits."""
    bitstr = "".join(
        format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n)
    )
    bitstr += "0" * (-len(bitstr) % 6)
    head = chr(g.n + 63) if g.n <= 62 else "~" + "".join(
        chr((g.n >> s & 0x3F) + 63) for s in (12, 6, 0)
    )
    return head + "".join(
        chr(int(bitstr[i : i + 6], 2) + 63) for i in range(0, len(bitstr), 6)
    )


def test_graph6_matches_the_string_encoder():
    """Byte for byte, on every n up to 70, on 100 and 130, at densities from
    empty to complete, the 62/63 header boundary included."""
    rng = random.Random(63)
    for n in [*range(71), 100, 130]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for density in (0.0, rng.random(), rng.random(), 1.0):
            g = Graph(n, [e for e in pairs if rng.random() < density])
            assert g.to_graph6() == _string_graph6(g), (n, density)


def _string_from_graph6(line):
    """The reference decoder: each character checked and turned into its
    6-bit digit in a loop, the body as one '0'/'1' string."""
    text = line.rstrip("\r\n")
    if not text:
        raise Graph6Error("empty graph6 line", 0)
    if text.startswith(">>"):
        raise Graph6Error("graph6 header is not accepted", 0)
    data = []
    for pos, ch in enumerate(text):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"invalid graph6 character {ch!r}", pos)
        data.append(code - 63)
    pos = 0
    if data[0] < 63:
        n = data[0]
        pos = 1
    else:
        if len(data) >= 2 and data[1] == 63:
            if len(data) < 8:
                raise Graph6Error("truncated 6-byte vertex count", len(text))
            n = 0
            for value in data[2:8]:
                n = (n << 6) | value
            pos = 8
        else:
            if len(data) < 4:
                raise Graph6Error("truncated 3-byte vertex count", len(text))
            n = 0
            for value in data[1:4]:
                n = (n << 6) | value
            pos = 4
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise Graph6Error(
            f"expected {need} adjacency bytes for n={n}, got {len(data) - pos}",
            min(len(text), pos + need),
        )
    bitstr = "".join(format(value, "06b") for value in data[pos:])
    edges = []
    # bit b is pair (u, v) with b = v(v-1)/2 + u; column v starts at base
    v = 1
    base = 0
    b = bitstr.find("1", 0, nbits)
    while b >= 0:
        while b >= base + v:
            base += v
            v += 1
        edges.append((b - base, v))
        b = bitstr.find("1", b + 1, nbits)
    # trailing padding must be zero
    if "1" in bitstr[nbits:]:
        raise Graph6Error("nonzero padding bits", len(text) - 1)
    return Graph(n, edges)


def _decoded(decode, line):
    try:
        return decode(line)
    except Graph6Error as err:
        return str(err), err.offset


def _seeded_graph6_lines(rng):
    """Valid lines in all three header forms, then each with one character
    replaced, cut short or extended, then random lines."""
    valid = []
    for n in [*range(9), 62, 63, 64, 100]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for density in (0.0, rng.random(), rng.random(), 1.0):
            line = Graph(n, [e for e in pairs if rng.random() < density]).to_graph6()
            body = line[1:] if n <= 62 else line[4:]
            digits = "".join(chr((n >> s & 0x3F) + 63) for s in range(30, -1, -6))
            valid += [line, "~" + digits[3:] + body, "~~" + digits + body]
    alphabet = [chr(c) for c in range(63, 127)]
    odd = ["\x00", " ", ">", "\x7f", "é", "\u2603", "\udcff", "\n", "\r"]
    lines = list(valid)
    for line in valid:
        for _ in range(10):
            i = rng.randrange(len(line))
            ch = rng.choice(odd if rng.random() < 0.3 else alphabet)
            lines.append(line[:i] + ch + line[i + 1 :])
        lines.append(line[: rng.randrange(len(line))])
        lines.append(line + "".join(rng.choices(alphabet, k=rng.randint(1, 3))))
        lines.append(line + "\r\n")
    for _ in range(1500):
        lines.append("".join(rng.choices(alphabet + ["~"] * 8, k=rng.randint(1, 12))))
    lines += [">>graph6<<A_", ">>", "~", "~~"]
    return lines


def test_graph6_decoder_matches_the_string_decoder():
    """The same graph, or the same error text and offset, on seeded lines."""
    lines = _seeded_graph6_lines(random.Random(6))
    assert len(lines) > 3000
    for line in lines:
        assert _decoded(from_graph6, line) == _decoded(_string_from_graph6, line), line


def test_graph6_decode_memory_is_linear_in_the_line():
    # the string decoder peaked at about 80 bytes a character: a list of
    # digits and a string of 6 bits a character
    text = path(1000).to_graph6()
    tracemalloc.start()
    try:
        g = from_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == path(1000)
    assert peak < 20 * len(text), peak / len(text)


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


def test_graph6_long_headers():
    # the 6-byte vertex count form, here for n = 3
    g = from_graph6("~~?????B?")
    assert g == Graph(3) and g.to_graph6() == "B?"
    for text, what, offset in [
        ("~~", "6-byte", 2),
        ("~~????", "6-byte", 6),
        ("~?", "3-byte", 2),
    ]:
        with pytest.raises(Graph6Error) as err:
            from_graph6(text)
        assert str(err.value) == f"truncated {what} vertex count (byte offset {offset})"
        assert err.value.offset == offset


def test_graph6_header_forms():
    # each form at its first and last n, and the decoder reads each back
    for n, head in [
        (0, "?"),
        (62, "}"),
        (63, "~??~"),
        (258047, "~}~~"),
        (258048, "~~???~??"),
        (68719476735, "~~~~~~~~"),
    ]:
        assert _graph6_encode_n(n) == head
        with pytest.raises(Graph6Error) as err:
            from_graph6(head + "?")
        assert str(err.value).startswith(f"expected {(n * (n - 1) // 2 + 5) // 6} ")
    with pytest.raises(GraphError, match="too large"):
        _graph6_encode_n(68719476736)


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
