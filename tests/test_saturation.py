"""Saturation predicates, minimality, and structure classification."""

import json
import random
from itertools import combinations

import networkx as nx
import pytest

from ramsat import saturation
from ramsat.cli import main
from ramsat.colorings import RED, BadColoringCertificate, TwoColoring, make_certificate
from ramsat.constructions import ConstructionSpec, build
from ramsat.graphs import (
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    from_graph6,
    has_kt,
    is_kt_saturated,
    path,
    petersen,
    star,
)
from ramsat.oracle import brute_force_bad_colorings, enumerate_graphs, scan_k3_saturated
from ramsat.saturation import (
    INCONCLUSIVE,
    NOT_SATURATED,
    SATURATED,
    check_certificate_structure,
    classify_k3_saturated,
    is_ramsey_minimal,
    is_rmin_saturated,
    k3_saturated_edge_bound,
)
from ramsat.search import (
    EXHAUSTED,
    FOUND,
    InconclusiveError,
    SearchBudget,
    count_bad_colorings,
    find_bad_coloring,
    find_max_red_bad_coloring,
)


def naive_kt_saturated(g, t):
    def naive_has_kt(h):
        return any(
            all(h.has_edge(a, b) for a, b in combinations(sub, 2))
            for sub in combinations(range(h.n), t)
        )

    if naive_has_kt(g):
        return False
    return all(naive_has_kt(g.with_edge(u, v)) for u, v in g.non_edges())


def test_is_kt_saturated_examples():
    assert is_kt_saturated(cycle(5), 3)
    assert is_kt_saturated(petersen(), 3)
    assert not is_kt_saturated(path(4), 3)
    assert is_kt_saturated(complete_bipartite(2, 4), 3)
    # t = 4: a clique joined to an independent set
    joined = Graph(
        5, [(0, 1)] + [(0, v) for v in (2, 3, 4)] + [(1, v) for v in (2, 3, 4)]
    )
    assert is_kt_saturated(joined, 4)
    with pytest.raises(GraphError):
        is_kt_saturated(cycle(5), 2)


def test_is_kt_saturated_against_naive_definition():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        for t in (3, 4):
            assert is_kt_saturated(g, t) == naive_kt_saturated(g, t)


def test_has_kt():
    assert has_kt(complete(4), 4)
    assert not has_kt(petersen(), 3)
    assert has_kt(petersen(), 2)


def test_is_rmin_saturated_witnesses():
    for spec, k in [
        (ConstructionSpec.geven(18), 4),
        (ConstructionSpec.godd(19), 4),
        (ConstructionSpec.general(5, 20), 5),
    ]:
        rep = is_rmin_saturated(build(spec).graph, k)
        assert rep.status == SATURATED, spec.name
        assert rep.verdict and rep.base_certificate is not None
        assert not rep.failures


def test_witness_family_saturated_and_unique_at_other_sizes():
    from ramsat.search import count_bad_colorings

    for spec, k in [
        (ConstructionSpec.geven(8), 4),
        (ConstructionSpec.geven(20), 4),
        (ConstructionSpec.godd(9), 4),
        (ConstructionSpec.godd(21), 4),
        (ConstructionSpec.general(5, 22), 5),
        (ConstructionSpec.general(6, 26), 6),
    ]:
        g = build(spec).graph
        assert count_bad_colorings(g, k, cap=2).count == 1, spec.name
        assert is_rmin_saturated(g, k).verdict, spec.name


def test_is_rmin_saturated_star_fails():
    g = star(10)
    rep = is_rmin_saturated(g, 4)
    assert rep.status == NOT_SATURATED and not rep.verdict
    assert rep.failures
    pair, cert = rep.failures[0]
    assert pair == (1, 2)
    assert cert.verify(g.with_edge(*pair), 4)


def test_is_rmin_saturated_complete_below_ramsey():
    assert is_rmin_saturated(complete(4), 3).verdict  # r(3) = 5
    assert is_rmin_saturated(complete(6), 4).verdict  # r(4) = 7
    # above the threshold K_n no longer admits a bad coloring
    rep = is_rmin_saturated(complete(7), 4)
    assert rep.status == NOT_SATURATED
    assert "no bad coloring" in rep.reason


def test_is_rmin_saturated_budget_inconclusive(monkeypatch):
    g = build(ConstructionSpec.general(5, 20)).graph
    # the enumeration of G's bad colorings decides general(5,20) in 1 node
    assert is_rmin_saturated(g, 5, SearchBudget(max_nodes=1)).status == SATURATED
    rep = is_rmin_saturated(g, 5, SearchBudget(max_nodes=0))
    assert rep.status == INCONCLUSIVE
    assert rep.reason == (
        "enumeration of G's bad colorings exhausted its budget after 0 nodes"
    )
    # per-non-edge fallback: no single search needs 20 nodes, all together do
    monkeypatch.setattr(saturation, "EXTEND_CAP", 1)
    assert max(o.nodes for o in is_rmin_saturated(g, 5).non_edge_outcomes) < 20
    rep = is_rmin_saturated(g, 5, SearchBudget(max_nodes=20))
    assert rep.status == INCONCLUSIVE
    assert rep.reason == "search on G+(3,16) exhausted its budget after 20 nodes"


def per_non_edge_saturation(g, k):
    """Saturation by definition: one search of G, then one of each G+uv.
    Returns the status, the failing pairs, each non-edge's search status
    and G's certificate."""
    base = find_bad_coloring(g, k)
    if not base.found:
        return NOT_SATURATED, [], [], None
    outcomes = [
        (pair, find_bad_coloring(g.with_edge(*pair), k).status)
        for pair in g.non_edges()
    ]
    failures = [pair for pair, status in outcomes if status == FOUND]
    return (
        NOT_SATURATED if failures else SATURATED,
        failures,
        outcomes,
        base.certificate,
    )


def assert_matches_per_non_edge(g, k):
    rep = is_rmin_saturated(g, k)
    got = (
        rep.status,
        [pair for pair, _ in rep.failures],
        [(o.pair, o.status) for o in rep.non_edge_outcomes],
        rep.base_certificate,
    )
    assert got == per_non_edge_saturation(g, k), (g.to_graph6(), k)
    for pair, cert in rep.failures:
        assert cert.verify(g.with_edge(*pair), k), (g.to_graph6(), k, pair)
    return rep


@pytest.mark.parametrize("cap", [None, 1])
def test_is_rmin_saturated_matches_per_non_edge_search(monkeypatch, cap):
    """The extension enumeration and, with the cap at 1, the per-non-edge
    fallback both give what one search per non-edge gives."""
    if cap is not None:
        monkeypatch.setattr(saturation, "EXTEND_CAP", cap)
    for n in range(7):
        for g in enumerate_graphs(n):
            for k in (3, 4, 5):
                assert_matches_per_non_edge(g, k)


def test_is_rmin_saturated_falls_back_past_the_cap():
    # a Ramsey-minimal 5-vertex graph for k = 3 minus its edge (0, 2), beside
    # a path: 288 bad colorings, and no coloring extends across (0, 2)
    g = disjoint_union(from_graph6("D]{").without_edge(0, 2), path(11))
    assert count_bad_colorings(g, 3).count > saturation.EXTEND_CAP
    _, extensions, complete = saturation._extend_across(g, 3, SearchBudget())
    assert not complete and (0, 2) not in extensions
    rep = assert_matches_per_non_edge(g, 3)
    (blocked,) = [o for o in rep.non_edge_outcomes if o.status != FOUND]
    assert blocked.pair == (0, 2) and blocked.nodes > 0
    assert all(o.nodes == 0 for o in rep.non_edge_outcomes if o is not blocked)


@pytest.mark.parametrize("cap", [None, 1])
def test_failures_are_the_found_outcomes(monkeypatch, cap):
    """Each found outcome holds its bad coloring of G+uv, whether the
    enumeration or, with the cap at 1, the non-edge's own search found it;
    ``failures`` certifies exactly those, in non-edge order."""
    if cap is not None:
        monkeypatch.setattr(saturation, "EXTEND_CAP", cap)
    fallback = disjoint_union(from_graph6("D]{").without_edge(0, 2), path(11))
    geven18 = build(ConstructionSpec.geven(18)).graph
    for g, k, failed in ((star(10), 4, 36), (fallback, 3, 102), (geven18, 4, 0)):
        rep = is_rmin_saturated(g, k)
        found = [o for o in rep.non_edge_outcomes if o.status == FOUND]
        failures = rep.failures
        assert [pair for pair, _ in failures] == [o.pair for o in found]
        assert [cert.coloring.colors for _, cert in failures] == [
            o.colors for o in found
        ]
        assert len(found) == failed
        for pair, cert in failures:
            assert cert.verify(g.with_edge(*pair), k)
        for o in rep.non_edge_outcomes:
            if o.status != FOUND:
                assert o.colors is None
    # no non-edge is tried when G admits no bad coloring
    rep = is_rmin_saturated(complete(7), 4)
    assert rep.non_edge_outcomes == () and rep.failures == ()


def test_enumeration_out_of_budget_after_its_first_coloring():
    # the enumeration spends all six nodes: it finds G's first bad coloring
    # and the 76 non-edges that coloring extends across, then runs out, so
    # every other non-edge is exhausted without a search of its own
    geven18 = build(ConstructionSpec.geven(18)).graph
    g = disjoint_union(geven18, path(2), path(2))
    rep = is_rmin_saturated(g, 4, SearchBudget(max_nodes=6))
    assert rep.status == NOT_SATURATED
    assert rep.reason == "76 non-edge(s) still admit a bad coloring"
    found = [o for o in rep.non_edge_outcomes if o.status == FOUND]
    rest = [o for o in rep.non_edge_outcomes if o.status != FOUND]
    assert len(found) == 76 and len(rest) == 108
    failures = rep.failures
    assert [pair for pair, _ in failures] == [o.pair for o in found]
    for pair, cert in failures:
        assert cert.verify(g.with_edge(*pair), 4)
    for o in rest:
        assert (o.status, o.nodes, o.colors) == (EXHAUSTED, 0, None)


def test_failures_are_certified_only_when_read(monkeypatch, capsys, tmp_path):
    """Deciding and text output certify nothing; the first read of
    ``failures``, and so JSON output, certifies every failing non-edge once,
    and later reads reuse those certificates."""
    made = []

    def counting(h, k, coloring):
        made.append(h)
        return make_certificate(h, k, coloring)

    monkeypatch.setattr(saturation, "make_certificate", counting)
    g = star(10)
    rep = is_rmin_saturated(g, 4)
    assert made == []
    p = tmp_path / "star10.g6"
    p.write_text(g.to_graph6() + "\n")
    assert main(["check", "saturated", str(p), "--k", "4"]) == 1
    assert made == [] and capsys.readouterr().out.count("still admits") == 36
    failures = rep.failures
    assert len(made) == len(failures) == 36
    for pair, cert in failures:
        assert cert.verify(g.with_edge(*pair), 4)
    assert rep.failures is failures and len(made) == 36
    made.clear()
    assert main(["check", "saturated", str(p), "--k", "4", "--format", "json"]) == 1
    assert len(json.loads(capsys.readouterr().out)["failures"]) == len(made) == 36


def test_is_rmin_saturated_matches_oracle_definition():
    """Report verdict equals the definition computed with the 2^m scan."""
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for k in (3, 4):
                want = len(brute_force_bad_colorings(g, k)) > 0 and all(
                    len(brute_force_bad_colorings(g.with_edge(u, v), k)) == 0
                    for u, v in g.non_edges()
                )
                assert is_rmin_saturated(g, k).verdict == want, (g.to_graph6(), k)


def test_is_rmin_saturated_matches_oracle_definition_n7_sample():
    rng = random.Random(71)
    classes = enumerate_graphs(7)
    for g in rng.sample(classes, 50):
        for k in (3, 4):
            want = len(brute_force_bad_colorings(g, k)) > 0 and all(
                len(brute_force_bad_colorings(g.with_edge(u, v), k)) == 0
                for u, v in g.non_edges()
            )
            assert is_rmin_saturated(g, k).verdict == want, (g.to_graph6(), k)


def test_is_ramsey_minimal():
    assert not is_ramsey_minimal(star(5), 3)  # does not arrow at all
    # oracle-determined verdicts for complete graphs at the Ramsey number
    def oracle_minimal(g, k):
        if len(brute_force_bad_colorings(g, k)) > 0:
            return False
        return all(
            len(brute_force_bad_colorings(g.without_edge(u, v), k)) > 0
            for u, v in g.edges
        )

    assert is_ramsey_minimal(complete(5), 3) == oracle_minimal(complete(5), 3)
    assert is_ramsey_minimal(complete(7), 4) == oracle_minimal(complete(7), 4)
    # K8 at k=5 sits below the forced-blue threshold, so the search is real
    with pytest.raises(InconclusiveError):
        is_ramsey_minimal(complete(8), 5, SearchBudget(max_nodes=1))


def test_minimal_graphs_exist_in_scan():
    """Engine-found minimal graphs at n = 5, k = 3 agree with the oracle."""
    found = []
    for g in enumerate_graphs(5):
        if is_ramsey_minimal(g, 3):
            found.append(g)
    assert found, "some 5-vertex graph should be minimal for k=3"
    for g in found:
        assert len(brute_force_bad_colorings(g, 3)) == 0
        for u, v in g.edges:
            assert len(brute_force_bad_colorings(g.without_edge(u, v), 3)) > 0


def test_classify_examples():
    assert classify_k3_saturated(star(8)).tag == "star"
    cls = classify_k3_saturated(complete_bipartite(2, 6))
    assert cls.tag == "j" and (cls.a, cls.b, cls.c) == (6, 0, 0)
    assert classify_k3_saturated(petersen()).tag == "other"
    cls = classify_k3_saturated(cycle(5))
    assert cls.tag == "j" and (cls.a, cls.b, cls.c) == (1, 1, 1)
    with pytest.raises(GraphError):
        classify_k3_saturated(path(4))  # not saturated


def test_classify_recovers_built_j():
    for a, b, c in [(1, 1, 1), (3, 1, 2), (4, 2, 3), (5, 0, 0), (2, 2, 2)]:
        built = build(ConstructionSpec.j(a, b, c))
        cls = classify_k3_saturated(built.graph)
        assert cls.tag == "j"
        assert (cls.a,) + tuple(sorted((cls.b, cls.c))) == (a,) + tuple(sorted((b, c)))


def test_classify_rebuilds_isomorphic():
    rng = random.Random(23)
    for a, b, c in [(2, 1, 2), (3, 2, 3), (4, 1, 1)]:
        g = build(ConstructionSpec.j(a, b, c)).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        cls = classify_k3_saturated(h)
        rebuilt = build(ConstructionSpec.j(cls.a, cls.b, cls.c)).graph
        assert rebuilt.canonical_form() == h.canonical_form()


def test_k3_saturated_edge_bound():
    p = petersen()
    assert k3_saturated_edge_bound(p) == 30 == 2 * p.m
    with pytest.raises(GraphError):
        k3_saturated_edge_bound(cycle(5))  # min degree 2
    # oracle-enumerated delta >= 3 cases satisfy the bound
    checked = 0
    for n in (7, 8):
        for g, m in scan_k3_saturated(n, 3):
            assert k3_saturated_edge_bound(g) <= 2 * m
            checked += 1
    assert checked > 0


def test_erdos_hajnal_moon_t3():
    """Every K3-saturated graph has e >= n - 1, equality only for stars."""
    for n in range(2, 8):
        for g in enumerate_graphs(n):
            if not is_kt_saturated(g, 3):
                continue
            assert g.m >= n - 1
            if g.m == n - 1:
                assert g.canonical_form() == star(n).canonical_form()


def test_check_certificate_structure():
    b = build(ConstructionSpec.geven(18))
    res = find_bad_coloring(b.graph, 4)
    rep = check_certificate_structure(b.graph, 4, res.certificate)
    assert rep.small_count_ok is True
    assert rep.max_red_degree_ok is None  # max_red not claimed
    mr = find_max_red_bad_coloring(b.graph, 4)
    rep = check_certificate_structure(b.graph, 4, mr.certificate, max_red=True)
    assert rep.max_red_degree_ok is True and rep.red_two_connected_ok is True
    assert False not in (rep.small_count_ok, rep.red_complete_ok)
    # certificates must verify before any clause is evaluated
    g = star(6)
    with pytest.raises(GraphError):
        check_certificate_structure(
            g, 3, BadColoringCertificate(TwoColoring([0] * g.m), (6,))
        )


def test_max_red_clause_matches_networkx():
    rng = random.Random(41)
    seen = set()
    for _ in range(150):
        k = rng.randint(3, 5)
        n = rng.randint(k + 2, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(n, len(pairs))))
        res = find_max_red_bad_coloring(g, k)
        if not res.found:
            continue
        rep = check_certificate_structure(g, k, res.certificate, max_red=True)
        colors = res.certificate.coloring.colors
        red = nx.Graph()
        red.add_nodes_from(range(n))
        red.add_edges_from(e for e, c in zip(g.edges, colors) if c == RED)
        assert rep.max_red_degree_ok == (max(d for _, d in red.degree) <= n - 3)
        assert rep.red_two_connected_ok == nx.is_biconnected(red)
        seen.add((rep.max_red_degree_ok, rep.red_two_connected_ok))
    # every combination of the two clauses occurs among the draws
    assert len(seen) == 4


def test_small_component_clause_with_two_components():
    # K6 at k = 4: unique-style coloring with two blue triangles;
    # components of size < 2 are absent, so use k = 7 where size < 3.5
    g = complete(6)
    triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    cert = BadColoringCertificate(TwoColoring.from_blue_edges(g, triangles), (3, 3))
    rep = check_certificate_structure(g, 7, cert)
    assert rep.small_blue_components == 2
    assert rep.small_count_ok is True
    assert rep.red_complete_ok is True  # K3,3 between the triangles
    # without the pair (0, 3) the red edges between them are not complete
    h = g.without_edge(0, 3)
    cert = BadColoringCertificate(TwoColoring.from_blue_edges(h, triangles), (3, 3))
    assert check_certificate_structure(h, 7, cert).red_complete_ok is False


def test_saturation_report_serialization():
    g = star(5)
    rep = is_rmin_saturated(g, 3)
    payload = rep.as_dict()
    assert payload["n"] == g.n and payload["status"] == rep.status
    assert isinstance(payload["non_edges_checked"], list)
