"""Enumeration oracle: class counts, full scans, sat values, Ramsey numbers."""

import ast
import functools
import hashlib
import operator
import pathlib
import random
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ramsat import oracle
from ramsat.colorings import TwoColoring, enumerate_subtrees, is_bad_coloring
from ramsat.graphs import (
    Graph,
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    from_graph6,
    has_kt,
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
        g for g in enumerate_graphs(n) if not has_kt(g, 3)
    ]


def test_brute_force_examples():
    assert len(brute_force_bad_colorings(complete(3), 3)) == 3
    assert len(brute_force_bad_colorings(complete(2), 3)) == 2
    assert len(brute_force_bad_colorings(complete(7), 4)) == 0
    assert len(brute_force_bad_colorings(Graph(4), 3)) == 1
    with pytest.raises(GraphError):
        brute_force_bad_colorings(complete(8), 4)  # m = 28 > 24
    with pytest.raises(GraphError, match="k <= 7"):
        brute_force_bad_colorings(cycle(8), 8)  # no table of K_8's trees
    assert len(brute_force_bad_colorings(complete(3), 9)) == 7  # k > n


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


@pytest.mark.parametrize("m", [0, 1, 5, 6, 7, 13])
def test_scan_dtypes_and_padding(m):
    # numpy 1.x promotes Python-int scalars by value and numpy 2 by type:
    # either way the rows stay uint64 with every bit past 2^m set, and the
    # masks stay ascending uint32, on both sides of oracle._BASE_EDGES
    g = Graph(6, complete(6).edges[:m])
    for k in (2, 3):
        rows = oracle._violation_rows([g], k)
        assert rows.dtype == np.uint64
        if m < 6:
            assert int(rows[0, 0]) >> (1 << m) == (1 << 64 - (1 << m)) - 1
        masks = brute_force_bad_colorings(g, k)
        assert masks.dtype == np.uint32
        assert (np.diff(masks.astype(np.int64)) > 0).all()
        assert len(masks) == count_bad_colorings(g, k).count


# the per-clause scan that the batched one replaced, kept as its reference
# red variable of edge i < 6 inside every word: bit b is set iff b >> i & 1
_LOW_EDGE_WORDS = tuple(
    np.uint64(sum(1 << b for b in range(64) if b >> i & 1)) for i in range(6)
)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _violation_words(g: Graph, k: int) -> np.ndarray:
    """Bitsliced violation flags over all 2^m colorings: bit b of word w is
    set iff coloring 64w + b is not bad (or, when m < 6, lies past 2^m)."""
    m = g.m
    words = np.arange(1 << max(0, m - 6), dtype=np.uint64)
    red = list(_LOW_EDGE_WORDS[: min(m, 6)])
    for i in range(6, m):
        red.append((words >> np.uint64(i - 6) & np.uint64(1)) * _ALL_ONES)
    viol = np.zeros(len(words), dtype=np.uint64)
    if m < 6:
        viol |= _ALL_ONES << np.uint64(1 << m)
    for a, b, c in g.triangle_edge_triples():
        viol |= red[a] & red[b] & red[c]
    for pick in enumerate_subtrees(g, k):
        viol |= ~functools.reduce(operator.or_, (red[i] for i in pick))
    return viol


def _assert_rows_match_reference(graphs, k):
    rows = oracle._violation_rows(graphs, k)
    assert rows.dtype == np.uint64
    assert rows.shape == (len(graphs), 1 << max(0, graphs[0].m - 6))
    for g, row in zip(graphs, rows):
        assert row.tobytes() == _violation_words(g, k).tobytes(), (g.edges, k)


@pytest.mark.parametrize("k", range(2, 7))
def test_violation_rows_match_reference_on_every_class(k):
    # every class on up to 6 vertices, each edge count's classes as one batch
    for n in range(7):
        by_size = {}
        for g in enumerate_graphs(n):
            by_size.setdefault(g.m, []).append(g)
        for graphs in by_size.values():
            _assert_rows_match_reference(graphs, k)


@pytest.mark.parametrize("m", range(1, 25))
def test_violation_rows_match_reference_on_seeded_graphs(m):
    # m < 6 leaves unused bits in each row's only word; up to
    # oracle._BASE_EDGES edges one fold takes every clause, and past it
    # each edge doubles the live words and folds the clauses it tops
    rng = random.Random(900 + m)
    n = 7 if m <= 21 else 8
    pairs = list(combinations(range(n), 2))
    graphs = [Graph(n, rng.sample(pairs, m)) for _ in range(2)]
    # one, two and three literals a subtree clause, so at k = 2 a subtree
    # without its top edge is empty; past m = 22 the reference takes over
    # a second on three-literal clauses, so they stop there
    for k in range(2, 5 if m <= 22 else 4):
        _assert_rows_match_reference(graphs, k)


@pytest.mark.parametrize("n, k", [(6, 3), (6, 4), (7, 3), (7, 4)])
def test_violation_rows_match_reference_on_complete_graphs(n, k):
    # every word dies partway through the doubling, except on K_6 at k = 4
    # (below r(K3, T_4) = 7), whose bad colorings keep a few words live
    _assert_rows_match_reference([complete(n)], k)


def test_violation_rows_match_reference_when_one_row_dies():
    # K_5 plus six edges has no bad coloring at k = 3, while K_{4,4}, with
    # the same 8 vertices and 16 edges, has 209 (its blue matchings): the
    # words the batch keeps are live in the second row only
    g = Graph(8, complete(5).edges + ((5, 6), (5, 7), (6, 7), (0, 5), (1, 6), (2, 7)))
    h = complete_bipartite(4, 4)
    assert g.m == h.m == 16
    _assert_rows_match_reference([g, h], 3)
    rows = oracle._violation_rows([g, h], 3)
    assert (rows[0] == _ALL_ONES).all()
    assert len(brute_force_bad_colorings(h, 3)) == 209


def _fold_widths(monkeypatch):
    """The width of every fold from here on, in call order."""
    widths = []
    fold = oracle._fold

    def recorded(out, *args, **kwargs):
        widths.append(out.shape[1])
        return fold(out, *args, **kwargs)

    monkeypatch.setattr(oracle, "_fold", recorded)
    return widths


def test_dead_words_are_not_folded(monkeypatch):
    # K_{4,6} at k = 3: the two base folds, then two folds per further
    # edge on the live words only, which stay a few hundred where the
    # whole-row doubling folded half a row (2^17 words) at the last edge
    widths = _fold_widths(monkeypatch)
    g = complete_bipartite(4, 6)
    assert len(brute_force_bad_colorings(g, 3)) == 1045
    base = oracle._BASE_EDGES
    assert widths[:2] == [1 << base - 6] * 2
    assert len(widths) == 2 + 2 * (g.m - base)
    assert max(widths[2:]) < (1 << 17) // 256


def test_scan_stops_once_no_word_is_live(monkeypatch):
    # K_7 has no bad coloring at k = 4: every word dies before the last
    # edge, and nothing is folded after that
    widths = _fold_widths(monkeypatch)
    g = complete(7)
    rows = oracle._violation_rows([g], 4)
    assert (rows == _ALL_ONES).all() and rows.shape == (1, 1 << g.m - 6)
    assert 2 <= len(widths) < 2 + 2 * (g.m - oracle._BASE_EDGES)
    assert min(widths) > 0


@pytest.mark.parametrize(
    "g, good_words",
    [
        # r(K3, T_3) = 5: K_5 has no bad coloring at k = 3
        (complete(5), "none"),
        # two disjoint K_4: 3 x 3 bad colorings, in 3 of 64 words
        (Graph(8, complete(4).edges + tuple((u + 4, v + 4) for u, v in complete(4).edges)), "some"),
        # a matching has no triangle and no 3-vertex tree: all bad
        (Graph(16, [(2 * i, 2 * i + 1) for i in range(8)]), "all"),
    ],
)
def test_brute_force_reads_the_good_words(g, good_words):
    viol = _violation_words(g, 3)
    good = int((viol != _ALL_ONES).sum())
    assert good_words == ("none" if not good else "all" if good == len(viol) else "some")
    _assert_scan_matches_predicate(g, 3)


def test_brute_force_peak_memory_at_the_edge_cap():
    # only the live words are doubled and folded, a few hundred at most,
    # and the full 2 MB row is built once, at the end: 28.3 MB traced when
    # the doubling carried every word, and 44.0 MB when every clause was
    # folded over full rows
    g = complete_bipartite(4, 6)
    brute_force_bad_colorings(g, 3)  # warm the subtree tables
    tracemalloc.start()
    try:
        brute_force_bad_colorings(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


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
    # every G+uv is another class on n vertices: the batched scans get 156
    # rows at n = 6, one per class, where one scan per G+uv took 311 or 312
    scanned = []
    scan = oracle._violation_rows

    def counted(graphs, k):
        scanned.extend(g.canonical_form() for g in graphs)
        return scan(graphs, k)

    monkeypatch.setattr(oracle, "_violation_rows", counted)
    assert compute_sat(6, k).graphs_scanned == 156
    assert len(scanned) == len(set(scanned)) == 156


# SHA-256 of the lines repr((n, k, min_edges, extremal_graph6,
# graphs_scanned)) for k = 2..5, pinned before compute_sat scanned each
# edge count's classes in one batch
SAT_DIGESTS = {
    0: "1c7806881904a81ccbd6dbb0bb74bb468285225d946a4803591a689f17284d6a",
    1: "3abd5fbcb27d9e511e463d238fc6327bc67bff76136b13c90524a9040c55de55",
    2: "927f2ad29240a898d8e42626e83b4b84e11124e246bfe0d4f0fb14012718fd3f",
    3: "6beb6dbcbf53dcea28f21b4a698f4eff336fb9de3e03434bc2c643e9df8035a8",
    4: "e703a8a0777f127fa55e0a20214235ae300fb1d359973963f4be70402d47e8aa",
    5: "6f5a1f16bcb3352b2f5085e19f112490ac95681ff944d638b0a6b3814dcc2590",
    6: "ce1eeb433bded4fd8ac1d9e07409b94fe3be7837a6b1466867b4524e511a13f2",
    7: "6b125cd49aad2ebf06e9cb8aaacf11b2288181b8aceb37cee27be5bdc9ab6863",
}


@pytest.mark.parametrize("n, digest", sorted(SAT_DIGESTS.items()))
def test_compute_sat_pinned(n, digest):
    lines = []
    for k in range(2, 6):
        r = compute_sat(n, k)
        lines.append(repr((r.n, r.k, r.min_edges, r.extremal_graph6, r.graphs_scanned)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


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
        # r(K3, T_k) = 2k - 1 (Chvatal); the scans reach it only for k <= 4
        r = family_ramsey_number(k) if k <= oracle.MAX_RAMSEY_K else 2 * k - 1
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
    for k in (1, 5):
        with pytest.raises(GraphError, match="2 <= k <= 4"):
            family_ramsey_number(k)


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


def _package_imports(path):
    """Modules of the package that the source file at ``path`` imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from . import search`` and ``from .graphs import Graph`` alike
            base = ".".join(filter(None, ["ramsat" if node.level else "", node.module]))
            names += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("ramsat.")}


def test_ground_truth_imports_no_engine_code():
    src = pathlib.Path(oracle.__file__).parent
    imports = {p.stem: _package_imports(p) for p in sorted(src.glob("*.py"))}
    assert {"search", "saturation", "verify"} <= imports.keys()
    assert "search" in imports["saturation"]  # the walk sees relative imports
    ground_truth = {"graphs", "colorings"}
    for module in ("graphs", "colorings", "oracle"):
        assert imports[module] <= ground_truth, (module, imports[module])


def _import_time_numpy(tree):
    """Line numbers of the numpy imports that run when the module parsed
    as ``tree`` is imported: every one outside a function body, however
    deep in a module-level ``if``, ``try``, ``with`` or class body."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_import_time_numpy_walk_sees_nested_imports():
    source = (
        "import numpy as np\n"
        "if True:\n    from numpy import uint64\n"
        "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
        "class A:\n    import numpy\n"
        "def f():\n    import numpy as np\n"
        "import numbers\n"
    )
    assert _import_time_numpy(ast.parse(source)) == [1, 3, 5, 9]


def test_no_module_imports_numpy_at_import_time():
    # numpy is imported in the functions that compute with it, so checking
    # one graph through the CLI never pays for loading it
    src = pathlib.Path(oracle.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert {"graphs", "colorings", "oracle", "verify", "cli"} <= {p.stem for p in paths}
    for path in paths:
        assert _import_time_numpy(ast.parse(path.read_text())) == [], path.name


def test_no_module_imports_dataclasses():
    # records are NamedTuples or plain __slots__ classes: importing
    # dataclasses also loads inspect, in every CLI process
    src = pathlib.Path(oracle.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert {"colorings", "constructions", "oracle", "saturation", "search", "verify"} <= {
        p.stem for p in paths
    }
    for path in paths:
        found = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses"
        ]
        assert found == [], path.name
