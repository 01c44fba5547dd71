"""Construction builders, predicted counts, and closed-form bounds."""

from fractions import Fraction

import pytest

from ramsat.colorings import is_bad_coloring
from ramsat.constructions import (
    ConstructionSpec,
    build,
    general_min_n,
    general_printed_formula_edge_count,
    general_split,
    hanson_toft_value,
    k3p3_sat_value,
    k3t4_sat_value,
    predicted_edge_count,
    prop1_upper_bound,
    theorem_bounds,
)
from ramsat.graphs import GraphError, complete_bipartite, is_kt_saturated
from ramsat.search import find_bad_coloring


def test_geven_godd_edge_counts():
    for n in range(8, 41, 2):
        g = build(ConstructionSpec.geven(n)).graph
        assert g.n == n
        assert g.m == 5 * n // 2 == predicted_edge_count(ConstructionSpec.geven(n))
    for n in range(9, 42, 2):
        g = build(ConstructionSpec.godd(n)).graph
        assert g.n == n
        assert g.m == (5 * n - 1) // 2 == predicted_edge_count(ConstructionSpec.godd(n))


def test_reference_colorings_are_bad():
    for spec, k in [
        (ConstructionSpec.geven(18), 4),
        (ConstructionSpec.geven(30), 4),
        (ConstructionSpec.godd(19), 4),
        (ConstructionSpec.godd(31), 4),
        (ConstructionSpec.general(5, 20), 5),
        (ConstructionSpec.general(6, 26), 6),
        (ConstructionSpec.general(7, 32), 7),
    ]:
        b = build(spec)
        assert b.reference_k == k
        assert is_bad_coloring(b.graph, k, b.reference_coloring), spec.name


def test_godd_reference_blue_triangle_at_z():
    b = build(ConstructionSpec.godd(19))
    z, z1, z2 = b.roles["z"][0], b.roles["z1"][0], b.roles["z2"][0]
    c = b.reference_coloring
    for u, v in ((z, z1), (z, z2), (z1, z2)):
        assert c.is_blue(b.graph.edge_index(u, v))


def test_geven_unique_coloring_is_the_reference():
    b = build(ConstructionSpec.geven(18))
    res = find_bad_coloring(b.graph, 4)
    assert res.certificate.coloring == b.reference_coloring


def test_general_edge_counts():
    g = build(ConstructionSpec.general(5, 20)).graph
    assert (g.n, g.m) == (20, 68)
    assert predicted_edge_count(ConstructionSpec.general(5, 20)) == 68
    assert general_printed_formula_edge_count(5, 20) == 70
    assert build(ConstructionSpec.general(5, 23)).graph.m == 77
    assert general_split(5, 20) == (2, 0)
    assert general_split(5, 23) == (3, 0)


def test_general_split_identity():
    for k in (5, 6, 7, 8, 9):
        q = (k + 1) // 2
        lo = general_min_n(k)
        for n in range(lo, lo + 3 * q + 1):
            s, t = general_split(k, n)
            assert s >= 0 and 0 <= t < q
            assert s * q + t * (q + 1) == n - 2 * k - 2 * q + 2


def test_built_equals_predicted_across_catalog():
    specs = [
        ConstructionSpec.star(7),
        ConstructionSpec.j(4, 2, 3),
        ConstructionSpec.j(6, 1, 1),
        ConstructionSpec.j(3, 0, 0),
        ConstructionSpec.c5dup(1, 1, 1, 1, 1),
        ConstructionSpec.c5dup(4, 1, 1, 1, 1),
        ConstructionSpec.c5dup(2, 1, 3, 1, 1),
        ConstructionSpec.petersen(),
        ConstructionSpec.geven(18),
        ConstructionSpec.godd(19),
    ]
    for k in (5, 6, 7):
        lo = general_min_n(k)
        specs += [ConstructionSpec.general(k, n) for n in range(lo, lo + 8)]
    for spec in specs:
        b = build(spec)
        assert b.graph.m == predicted_edge_count(spec), spec.name
        # role labels partition the vertex set
        labeled = [v for vs in b.roles.values() for v in vs]
        assert sorted(labeled) == list(range(b.graph.n))


def test_general_printed_formula_always_two_more():
    for k in (5, 6, 7, 8):
        lo = general_min_n(k)
        q = (k + 1) // 2
        for n in range(lo, lo + 3 * q + 1):
            built = build(ConstructionSpec.general(k, n)).graph.m
            assert general_printed_formula_edge_count(k, n) == built + 2


def test_j_edge_counts():
    b = build(ConstructionSpec.j(4, 2, 3))
    assert b.graph.n == 11 and b.graph.m == 19 == 2 * b.graph.n - 3
    b = build(ConstructionSpec.j(6, 1, 1))
    assert b.graph.n == 10 and b.graph.m == 15 == 2 * b.graph.n - 5
    # b = c = 0 gives the complete bipartite K_{2, n-2}
    b = build(ConstructionSpec.j(5, 0, 0))
    assert b.graph.m == 2 * b.graph.n - 4
    assert (
        b.graph.canonical_form()
        == complete_bipartite(2, 5).canonical_form()
    )


def test_j_is_k3_saturated():
    for a in range(1, 6):
        for bc in ((0, 0), (1, 1), (2, 2), (2, 3)):
            spec = ConstructionSpec.j(a, *bc)
            assert is_kt_saturated(build(spec).graph, 3), spec.name


def test_c5dup_counts_and_saturation():
    # one duplicated class keeps e = 2n - 5
    for m in (1, 2, 5):
        spec = ConstructionSpec.c5dup(m, 1, 1, 1, 1)
        g = build(spec).graph
        assert g.m == 2 * g.n - 5
        assert is_kt_saturated(g, 3)
    # two non-adjacent duplicated classes too
    g = build(ConstructionSpec.c5dup(3, 1, 2, 1, 1)).graph
    assert g.m == 2 * g.n - 5 and is_kt_saturated(g, 3)
    # any multiplicities stay K3-saturated
    g = build(ConstructionSpec.c5dup(2, 3, 2, 1, 4)).graph
    assert is_kt_saturated(g, 3)
    assert g.m == predicted_edge_count(ConstructionSpec.c5dup(2, 3, 2, 1, 4))


def test_invalid_specs_are_rejected():
    bad = [
        ConstructionSpec.geven(7),
        ConstructionSpec.geven(9),
        ConstructionSpec("geven", (6,)),
        ConstructionSpec.godd(8),
        ConstructionSpec.godd(18),
        ConstructionSpec.general(4, 30),
        ConstructionSpec.general(5, 19),
        ConstructionSpec.j(0, 1, 1),
        ConstructionSpec.j(2, 1, 0),
        ConstructionSpec.j(2, 0, 3),
        ConstructionSpec.c5dup(1, 1, 1, 1, 0),
        ConstructionSpec.star(0),
        ConstructionSpec("nonsense", ()),
    ]
    for spec in bad:
        with pytest.raises(GraphError):
            build(spec)


def test_general_threshold_note():
    k = 5
    lo = general_min_n(k)
    assert build(ConstructionSpec.general(k, lo)).notes
    assert not build(ConstructionSpec.general(k, lo + 4)).notes


def test_reference_coloring_api():
    c = build(ConstructionSpec.geven(18)).reference_coloring
    assert len(c) == 45
    assert build(ConstructionSpec.petersen()).reference_coloring is None


def test_theorem_bounds():
    tb = theorem_bounds(5, 20)
    assert (tb.lower, tb.upper, tb.c, tb.C) == (47, 74, 13, 14)
    # half-integral constants show up at odd k >= 7
    tb7 = theorem_bounds(7, 40)
    assert tb7.C == Fraction(83, 2)
    with pytest.raises(GraphError):
        theorem_bounds(4, 100)
    with pytest.raises(GraphError):
        theorem_bounds(5, 19)


def test_general_count_within_theorem_bounds():
    for k in (5, 6, 7, 8):
        q = (k + 1) // 2
        lo = general_min_n(k)
        for n in range(lo, lo + 3 * q + 1):
            m = build(ConstructionSpec.general(k, n)).graph.m
            tb = theorem_bounds(k, n)
            assert tb.lower <= m <= tb.upper, (k, n, m)


def test_prop1_upper_bound():
    assert prop1_upper_bound(2, 4, 10) == 9
    assert prop1_upper_bound(2, 2, 5) == 0
    assert prop1_upper_bound(3, 3, 10) == 22
    with pytest.raises(GraphError):
        prop1_upper_bound(1, 3, 10)


def test_sat_values():
    assert k3t4_sat_value(18) == 45
    assert k3t4_sat_value(19) == 47
    assert k3p3_sat_value(11) == 22
    with pytest.raises(GraphError):
        k3t4_sat_value(17)
    with pytest.raises(GraphError):
        k3p3_sat_value(10)


def test_hanson_toft_value():
    assert hanson_toft_value(6, 5) == 10  # below r: complete graph
    assert hanson_toft_value(6, 56) == 214
    assert hanson_toft_value(6, 6) == 14
    with pytest.raises(GraphError):
        hanson_toft_value(2, 5)


def test_vertex_labels():
    b = build(ConstructionSpec.geven(18))
    labels = b.vertex_labels()
    assert labels[0] == "y" and labels[1] == "z"
    assert labels[8] == "H0"
