"""Search engine: exhaustiveness, certificates, budgets, oracle agreement."""

import hashlib
import itertools
import random
import time
from types import SimpleNamespace

import pytest

from ramsat.colorings import (
    BLUE,
    RED,
    TwoColoring,
    forced_blue_edges,
    is_bad_coloring,
)
from ramsat.constructions import ConstructionSpec, build
from ramsat.graphs import (
    Graph,
    GraphError,
    bits,
    component_masks,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    star,
)
from ramsat.oracle import brute_force_bad_colorings, enumerate_graphs
from ramsat.search import (
    EXHAUSTED,
    FOUND,
    NONE,
    OK,
    UNASSIGNED,
    SearchBudget,
    _Engine,
    count_bad_colorings,
    enumerate_bad_colorings,
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


def test_ramsey_number_at_k5_through_the_engine():
    # r(K3, T_5) = 9 (Chvatal): K_8 and K_9 lie past the oracle's scan cap
    res = find_bad_coloring(complete(8), 5)
    assert res.found and res.certificate.verify(complete(8), 5)
    assert find_bad_coloring(complete(9), 5).status == NONE


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


def test_bad_cap_is_rejected_before_the_engine_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("engine built for a bad cap")

    monkeypatch.setattr(_Engine, "__init__", refuse)
    with pytest.raises(GraphError, match=r"^cap must be >= 1, got 0$"):
        count_bad_colorings(complete(4), 3, cap=0)


@pytest.mark.parametrize("n", range(7))
def test_count_matches_the_oracle_on_every_class(n):
    """Odd caps stop between the last edge's two leaves; at k = 2 its blue
    leaf always fails."""
    for g in enumerate_graphs(n):
        for k in (2, 3, 4, 5):
            want = len(brute_force_bad_colorings(g, k))
            for cap in (1, 2, 3, 1 << 62):
                res = count_bad_colorings(g, k, cap=cap)
                assert res.status == OK and res.count == min(want, cap)


def _assert_view_is_the_blue_components(g, colors, root, size):
    """``root`` and ``size`` agree with the components of the blue edges:
    every member of one shares one root, inside it, whose size is the
    component's vertex count."""
    blue = [0] * g.n
    for (u, v), c in zip(g.edges, colors):
        if c == BLUE:
            blue[u] |= 1 << v
            blue[v] |= 1 << u
    for comp in component_masks(blue, (1 << g.n) - 1):
        members = list(bits(comp))
        r = root[members[0]]
        assert comp >> r & 1 and size[r] == len(members)
        assert all(root[v] == r for v in members)


def _red_mask(colors):
    return sum(1 << e for e, c in enumerate(colors) if c == RED)


@pytest.mark.parametrize("n", range(7))
def test_enumeration_visits_every_bad_coloring_once(n):
    """A visitor that never stops sees the oracle's bad colorings, each
    once, with the blue components as ``root`` and ``size``; one that stops
    on its j-th call is called exactly j times, on the first j of them."""
    for g in enumerate_graphs(n):
        for k in (3, 4, 5):
            seen = []

            def visit(colors, root, size):
                assert UNASSIGNED not in colors
                _assert_view_is_the_blue_components(g, colors, root, size)
                seen.append(tuple(colors))
                return False

            res = enumerate_bad_colorings(g, k, visit)
            masks = [_red_mask(colors) for colors in seen]
            assert len(set(masks)) == len(masks)
            assert sorted(masks) == brute_force_bad_colorings(g, k).tolist()
            if not seen:
                assert res.status == NONE and res.certificate is None
                continue
            assert res.status == FOUND
            assert res.certificate.coloring.colors == seen[0]
            for j in sorted({1, 2, (len(seen) + 1) // 2, len(seen)}):
                calls = []

                def stop_at_j(colors, root, size):
                    calls.append(tuple(colors))
                    return len(calls) == j

                res = enumerate_bad_colorings(g, k, stop_at_j)
                assert res.status == FOUND and calls == seen[:j]


def _sparse_draws():
    rng = random.Random(24)
    pairs = [(u, v) for u in range(16) for v in range(u + 1, 16)]
    return [Graph(16, rng.sample(pairs, 34)) for _ in range(10)]


def test_count_stats_are_pinned_on_sparse_draws():
    """(count, nodes, backtracks, propagations) at k = 5, cap 10,001."""
    got = []
    for g in _sparse_draws():
        res = count_bad_colorings(g, 5, cap=10_001)
        stats = res.stats
        got.append((res.count, stats.nodes, stats.backtracks, stats.propagations))
    assert got == [
        (10001, 10021, 7, 7297),
        (10001, 10030, 21, 6005),
        (190, 237, 48, 802),
        (4463, 4514, 52, 2468),
        (94, 149, 56, 1090),
        (7222, 7264, 43, 2864),
        (10001, 10028, 10, 5175),
        (9920, 10032, 113, 5698),
        (10001, 10074, 66, 5983),
        (10001, 10077, 67, 6180),
    ]


def _arrow_draws():
    """Seeded G(n, 4n) draws, n = 18..22: dense, with no bad coloring at
    k = 5, so each find walks its whole refutation tree."""
    rng = random.Random(27)
    draws = []
    for i in range(20):
        n = 18 + i % 5
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        draws.append(Graph(n, rng.sample(pairs, 4 * n)))
    return draws


def test_refutation_trees_are_pinned_on_dense_draws():
    """(status, nodes, backtracks) of find at k = 5: propagation may
    reorder its work, but never change the tree it prunes."""
    got = []
    for g in _arrow_draws():
        res = find_bad_coloring(g, 5)
        got.append((res.status, res.stats.nodes, res.stats.backtracks))
    assert got == [
        (NONE, 14, 15),
        (NONE, 18, 19),
        (NONE, 19, 20),
        (NONE, 5, 6),
        (NONE, 5, 6),
        (NONE, 89, 90),
        (NONE, 14, 15),
        (NONE, 83, 84),
        (NONE, 15, 16),
        (NONE, 29, 30),
        (NONE, 22, 23),
        (NONE, 39, 40),
        (NONE, 0, 0),
        (NONE, 33, 34),
        (NONE, 0, 0),
        (NONE, 0, 0),
        (NONE, 71, 72),
        (NONE, 15, 16),
        (NONE, 49, 50),
        (NONE, 69, 70),
    ]


def test_certificates_are_pinned_on_draws():
    """SHA-256 over the dense and sparse draws at k = 5 of (status, nodes,
    backtracks, propagations, certificate colors) of find, count at cap 50
    (its count in place of a certificate), max-red and an enumeration that
    stops at its 256th visit (every visited coloring)."""
    k = 5
    digest = hashlib.sha256()
    for g in _arrow_draws() + _sparse_draws():
        seen = []

        def visit_256(colors, root, size):
            seen.append(tuple(colors))
            return len(seen) >= 256

        for res in (
            find_bad_coloring(g, k),
            count_bad_colorings(g, k, cap=50),
            find_max_red_bad_coloring(g, k),
            enumerate_bad_colorings(g, k, visit_256),
        ):
            stats = res.stats
            if hasattr(res, "count"):
                shown = res.count
            else:
                shown = None if res.certificate is None else res.certificate.coloring.colors
            line = (res.status, stats.nodes, stats.backtracks, stats.propagations, shown)
            digest.update(repr(line).encode() + b"\n")
        digest.update(repr(seen).encode() + b"\n")
    assert digest.hexdigest() == (
        "bb10e1002910fa9b0c950b197718087bb2e030a7c4451f5e731d8712d9c62a91"
    )


def test_count_leaves_the_last_edge_unassigned(monkeypatch):
    """Assigning both colors of every last edge took 20,051 calls."""
    assign = _Engine._assign
    calls = 0

    def counted(self, e, c):
        nonlocal calls
        calls += 1
        return assign(self, e, c)

    monkeypatch.setattr(_Engine, "_assign", counted)
    res = count_bad_colorings(_sparse_draws()[1], 5, cap=10_001)
    assert res.count == 10_001
    assert calls <= 0.7 * 20_051


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


def test_max_red_is_maximal_against_the_oracle():
    """NONE exactly when the 2^m scan finds no bad coloring, else the
    scan's maximum red count (seeded corpus, m <= 16)."""
    rng = random.Random(20261018)
    nones = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(4, 8), 16)
        for k in (3, 4, 5):
            masks = brute_force_bad_colorings(g, k)
            res = find_max_red_bad_coloring(g, k)
            assert (res.status == NONE) == (len(masks) == 0)
            if res.status == NONE:
                nones += 1
                continue
            assert res.found and res.certificate.verify(g, k)
            best = max(int(x).bit_count() for x in masks)
            assert res.certificate.coloring.red_count == best
    assert nones > 0


def test_packing_bound_keeps_certificates_and_cuts_nodes(monkeypatch):
    """The triangle-packing bound returns the same coloring as the bare
    bound (every unassigned edge red), in no more nodes."""
    rng = random.Random(16)
    pairs = [(u, v) for u in range(16) for v in range(u + 1, 16)]
    draws = [Graph(16, rng.sample(pairs, 34)) for _ in range(12)]
    shipped = [find_max_red_bad_coloring(g, 5) for g in draws]
    monkeypatch.setattr(
        _Engine,
        "_cannot_beat_best",
        lambda self: self.color.count(RED) + self.m - len(self.color_trail)
        <= self.best_red,
    )
    bare = [find_max_red_bad_coloring(g, 5) for g in draws]
    for new, old in zip(shipped, bare):
        assert new.status == old.status == FOUND
        assert new.certificate.coloring == old.certificate.coloring
        assert (
            new.certificate.blue_component_sizes
            == old.certificate.blue_component_sizes
        )
        assert new.stats.nodes <= old.stats.nodes
    assert (shipped[1].stats.nodes, bare[1].stats.nodes) == (53, 995)


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


def test_one_budget_is_spent_across_searches():
    g = complete(8)  # at k=5, find needs 4 nodes
    budget = SearchBudget(max_nodes=6)
    first = find_bad_coloring(g, 5, budget)
    assert first.found and budget.nodes_left == 6 - first.stats.nodes
    second = find_bad_coloring(g, 5, budget)
    assert second.status == EXHAUSTED and second.stats.nodes == 2
    assert budget.nodes_left == 6 - first.stats.nodes - second.stats.nodes == 0
    # a budget whose deadline has passed stops a search before presolve
    res = find_bad_coloring(star(10), 4, SearchBudget(max_seconds=0))
    assert res.status == EXHAUSTED and res.stats.nodes == 0


def test_deadline_stops_the_dfs_part_way(monkeypatch):
    # the clock jumps past the deadline after the search reads its start
    # time, so the first wall-clock check in the DFS, at node 1024, stops it
    budget = SearchBudget(max_seconds=60)
    calls = 0
    clock = time.perf_counter

    def jumping():
        nonlocal calls
        calls += 1
        return clock() + (1e6 if calls > 1 else 0)

    monkeypatch.setattr("ramsat.search.time", SimpleNamespace(perf_counter=jumping))
    res = count_bad_colorings(path(40), 3, budget=budget)
    assert res.status == EXHAUSTED and res.stats.nodes == 1024
    assert res.count == 987


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
            want = len(brute_force_bad_colorings(g, k))
            f = find_bad_coloring(g, k)
            c = count_bad_colorings(g, k)
            assert (f.status == FOUND) == (want > 0)
            assert c.count == want and c.status == OK
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
            for e in forced_blue_edges(g, k).edges:
                assert res.certificate.coloring.is_blue(e)
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


def test_oversized_blue_merge_forces_red():
    # a-b and c-d blue at k = 4: b-c would make a blue component of 4
    # vertices, so it is forced red, and with b-w red the triangle b, c, w
    # then forces c-w blue
    a, b, c, d, w = range(5)
    g = Graph(5, [(a, b), (c, d), (b, c), (b, w), (c, w)])
    engine = _Engine(g, 4, None)
    assert engine._assign(g.edge_index(b, w), RED)
    assert engine._assign(g.edge_index(a, b), BLUE)
    assert engine.color[g.edge_index(b, c)] == UNASSIGNED
    assert engine._assign(g.edge_index(c, d), BLUE)
    assert engine.color[g.edge_index(b, c)] == RED
    assert engine.color[g.edge_index(c, w)] == BLUE
    assert engine.stats.propagations == 2
    assert engine.stats.nodes == 0


def test_no_open_edge_joins_oversized_blue_components(monkeypatch):
    """Every successful ``_assign`` ends at a full fixpoint of both rules:
    no unassigned edge joins blue components with k or more vertices
    together, none is the third edge of a triangle with two red edges, and
    no triangle has three red edges. On the dense draws, some cascades
    grow one component more than once."""
    assign = _Engine._assign
    checked = []
    regrown = 0

    def assign_to_fixpoint(self, e, c):
        nonlocal regrown
        unions = len(self.union_trail)
        ok = assign(self, e, c)
        if ok:
            color = self.color
            for f in range(self.m):
                if color[f] == UNASSIGNED:
                    u, v = self.g.edges[f]
                    ru = self.parent[u]
                    rv = self.parent[v]
                    assert ru == rv or self.size[ru] + self.size[rv] < self.k
            for t in self.tri_edges:
                assert sorted(color[f] for f in t) != [UNASSIGNED, RED, RED]
            # no conflict test looks for a third red edge: the order of
            # the queue rules it out
            for t in self.tri_edges:
                assert [color[f] for f in t] != [RED, RED, RED]
            # the final root of each component this cascade grew
            roots = [self.parent[big] for _, big in self.union_trail[unions:]]
            regrown += len(roots) > len(set(roots))
            checked.append(e)
        return ok

    monkeypatch.setattr(_Engine, "_assign", assign_to_fixpoint)
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(5, 11)
        g = random_graph(rng, n, 3 * n)
        k = rng.randint(3, 6)
        find_bad_coloring(g, k)
        count_bad_colorings(g, k, cap=50)
        find_max_red_bad_coloring(g, k)
        # as many colorings as saturation's extension enumeration visits
        visits = itertools.count(1)
        enumerate_bad_colorings(g, k, lambda *view: next(visits) >= 256)
    assert len(checked) > 1000
    before = regrown
    for g in _arrow_draws():
        assert find_bad_coloring(g, 5).status == NONE
    assert regrown > before


def _assert_roots_are_flat(engine):
    parent = engine.parent
    for v in range(engine.g.n):
        assert parent[parent[v]] == parent[v]
        assert v in engine.members[parent[v]]


def _trail_mark(engine):
    return (len(engine.color_trail), len(engine.union_trail))


def test_undo_to_root_restores_the_union_find():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(4, 12)
        g = random_graph(rng, n, 3 * n)
        engine = _Engine(g, rng.randint(3, 6), None)
        root = _trail_mark(engine)
        initial = (
            list(engine.parent),
            list(engine.size),
            [list(ms) for ms in engine.members],
        )
        marks = [root]
        for e in rng.sample(range(g.m), g.m):
            mark = _trail_mark(engine)
            ok = engine._assign(e, rng.choice((RED, BLUE)))
            _assert_roots_are_flat(engine)
            if ok:
                marks.append(mark)
            else:
                engine._undo_to(mark)
                _assert_roots_are_flat(engine)
        # unwind the later kept assignments one at a time, then jump to root
        for mark in reversed(marks[len(marks) // 2 + 1 :]):
            engine._undo_to(mark)
            _assert_roots_are_flat(engine)
        engine._undo_to(root)
        _assert_roots_are_flat(engine)
        assert engine.parent == initial[0]
        assert engine.size == initial[1]
        assert engine.members == initial[2]
        assert engine.color == [UNASSIGNED] * g.m


@pytest.mark.parametrize(
    "spec, triangles, triples_sha, order_sha",
    [
        (
            ConstructionSpec.geven(40),
            52,
            "b5a7c6a014413f212e4f27db481587b3a08eb737ef0178550e6ff6711bf640fd",
            "4c286656037bf8cab5726a52f5c7c7bdfa74ecfc0a6e6859b072cde547ee8182",
        ),
        (
            ConstructionSpec.general(7, 60),
            426,
            "4fcc0c0e3ab7c31c67d7500762ebd07022c58ee7f4cdfee95ebf84887a3e1767",
            "6620ac8a67c536380f29958a7d79432262802f94f6ccbf26589c6a7c06a0ada2",
        ),
    ],
)
def test_engine_tables_are_pinned(spec, triangles, triples_sha, order_sha):
    # the triangle table and the branch order fix every search tree; the
    # digests are of their reprs, taken before either was rewritten
    g = build(spec).graph
    triples = g.triangle_edge_triples()
    order = _Engine(g, 4, None).order
    assert len(triples) == triangles
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == triples_sha
    assert hashlib.sha256(repr(order).encode()).hexdigest() == order_sha


def _records():
    """Each record type with keyword arguments for its required fields and
    the defaults of the rest, both in field order."""
    from ramsat.colorings import BadColoringCertificate
    from ramsat.constructions import BuiltConstruction
    from ramsat.oracle import SatResult
    from ramsat.saturation import CertificateStructureReport, SaturationReport, StructureClass
    from ramsat.search import CountResult, FindResult, SearchStats
    from ramsat.verify import CriterionResult

    g = star(4)
    coloring = TwoColoring((BLUE, BLUE, BLUE))
    cert = BadColoringCertificate(coloring, (4,))
    stats = SearchStats(3, 1, 7, 0.5)
    return [
        (BadColoringCertificate, dict(coloring=coloring, blue_component_sizes=(4,)), {}),
        (ConstructionSpec, dict(kind="petersen"), dict(params=())),
        (
            BuiltConstruction,
            dict(spec=ConstructionSpec.star(4), graph=g, roles={"center": (0,)}),
            dict(reference_coloring=None, reference_k=None, notes=()),
        ),
        (
            SatResult,
            dict(n=5, k=3, min_edges=4, extremal_graph6=("DQo",), graphs_scanned=34),
            {},
        ),
        (
            StructureClass,
            dict(tag="other"),
            dict(y=None, z=None, set_a=(), set_b=(), set_c=()),
        ),
        (
            CertificateStructureReport,
            dict(small_blue_components=1, small_count_ok=True),
            dict(red_complete_ok=None, max_red_degree_ok=None, red_two_connected_ok=None),
        ),
        (
            CriterionResult,
            dict(number=1, title="edge counts", passed=True, details="PASS"),
            dict(inconclusive=False),
        ),
        (SearchStats, {}, dict(nodes=0, backtracks=0, propagations=0, wall_time=0.0)),
        (FindResult, dict(status=FOUND, certificate=cert, stats=stats), {}),
        (CountResult, dict(status=OK, count=2, stats=stats), {}),
        (
            SaturationReport,
            dict(graph=g, k=4, status="saturated", base_certificate=cert, non_edge_outcomes=()),
            dict(reason=""),
        ),
    ]


_FROZEN = {
    "BadColoringCertificate",
    "ConstructionSpec",
    "BuiltConstruction",
    "SatResult",
    "StructureClass",
    "CertificateStructureReport",
}
_NOT_TUPLES = {"SearchStats", "FindResult", "CountResult", "SaturationReport"}


_RECORDS = _records()


@pytest.mark.parametrize(
    "cls, required, defaults", _RECORDS, ids=[cls.__name__ for cls, _, _ in _RECORDS]
)
def test_records_keep_their_dataclass_behaviour(cls, required, defaults):
    """Keyword construction with defaults, field order, the dataclass repr
    format and type hints that resolve with no numpy name in scope."""
    import typing

    rec = cls(**required)
    fields = {**required, **defaults}
    assert {name: getattr(rec, name) for name in fields} == fields
    assert rec == cls(*fields.values())
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({shown})"
    assert list(typing.get_type_hints(cls)) == list(fields)
    name = next(iter(fields))
    if cls.__name__ in _FROZEN:
        # FrozenInstanceError subclassed AttributeError
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    if cls.__name__ in _NOT_TUPLES:
        assert not isinstance(rec, tuple)
        assert not hasattr(rec, "index")
        assert hasattr(rec, "count") == (cls.__name__ == "CountResult")
        with pytest.raises(TypeError):
            iter(rec)
        with pytest.raises(TypeError):
            hash(rec)


def test_construction_specs_hash_and_compare_by_value():
    geven = ConstructionSpec("geven", (18,))
    assert geven == ConstructionSpec.geven(18) and hash(geven) == hash(ConstructionSpec.geven(18))
    assert geven != ConstructionSpec.geven(20) and geven != ConstructionSpec.godd(18)
    assert {ConstructionSpec.geven(18): 1}[geven] == 1


def test_mutable_records_mutate_in_place():
    from ramsat.saturation import is_rmin_saturated
    from ramsat.search import SearchStats

    stats = SearchStats()
    stats.nodes += 2
    stats.wall_time = 1.5
    assert stats == SearchStats(nodes=2, wall_time=1.5) and stats != SearchStats(nodes=2)
    with pytest.raises(AttributeError):
        stats.depth = 1  # no fields beyond the record's own
    # the report keeps a __dict__ beside its slots for the cached failures
    report = is_rmin_saturated(star(5), 4)
    assert report.failures and report.failures is report.failures
