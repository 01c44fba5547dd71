"""Independent ground truth: exhaustive enumeration and full coloring scans.

Everything here is deliberately brute force. The coloring scan tests all
2^m colorings, bitsliced: coloring ``x`` (bit i set means edge i is red)
is bit ``x % 64`` of uint64 word ``x // 64``, so each edge's red variable
is one word per 64 colorings and every triangle or k-vertex subtree clause
is a handful of word-wide ANDs and ORs. One scan serves a batch of graphs
with the same vertex and edge counts (``compute_sat`` hands it each edge
count's classes; ``brute_force_bad_colorings`` is a batch of one): each
graph's clauses, listed by ``colorings.triangle_picks`` and
``colorings.subtree_picks`` as edge-index arrays tagged by graph, are
folded into that graph's own row in gathered chunks reduced per graph.
The rows grow by prefix doubling over live words: a clause whose highest
edge is j can only hold where edge j is red (a triangle) or blue (a
subtree), so past the first few edges each edge j doubles the words still
live, those where some graph has a coloring of edges 0..j-1 that violates
nothing yet, and folds only its own clauses, without j, on them. A word
that every graph's clauses rule out stays all ones however the later
edges go, so it is dropped, and the scan stops once no word is live.
Nothing here imports the search engine, so engine results can be
checked against it. Graph enumeration is orderly generation with
canonical-form rejection: one mask over all parents of a level, from
``graphs.lower_twins``, drops the one-vertex extensions that a twin swap
of the parent maps to an earlier one; the rest are built as adjacency rows
and go through ``graphs.canonical_forms`` in batches, which refines each
batch's vertex colors and then searches all its rows' minimizing vertex
orders together, one position at a time, skipping a vertex wherever a
lower twin of it is still unplaced; each representative keeps the form
its batch computed. It is capped at 7 vertices for all graphs and at 10
for triangle-free ones; larger orders come in through external graph6
streams.

numpy is imported inside the functions that compute with it, never at
module level, so importing the package does not load it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .colorings import edge_ids, subtree_picks, triangle_picks
from .graphs import (
    CANONICAL_BATCH,
    CANONICAL_MAX_N,
    Graph,
    GraphError,
    canonical_forms,
    complete,
    lower_twins,
)

MAX_ENUM_N = 7
MAX_SCAN_EDGES = 24
MAX_RAMSEY_K = 4


@functools.lru_cache(maxsize=None)
def enumerate_graphs(n: int, *, triangle_free: bool = False) -> tuple[Graph, ...]:
    """All non-isomorphic graphs on n vertices, or with ``triangle_free``
    only the triangle-free ones, one representative per class, sorted by
    canonical form.

    A triangle-free class is first met, in either mode, as a triangle-free
    parent joined to an independent set of it, so the triangle-free
    representatives are exactly the triangle-free subsequence of the full
    enumeration.
    """
    import numpy as np

    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    cap = CANONICAL_MAX_N if triangle_free else MAX_ENUM_N
    if n > cap:
        raise GraphError(
            f"built-in enumeration caps at n <= {cap}; use an external"
            " graph6 stream for larger orders"
        )
    if n == 0:
        return (Graph(0),)
    # lru_cache keys f(n) and f(n, triangle_free=False) apart: recurse in
    # the form callers use, so their calls and the recursion share entries
    parents = (
        enumerate_graphs(n - 1, triangle_free=True)
        if triangle_free
        else enumerate_graphs(n - 1)
    )
    base = np.array([g.adj for g in parents], dtype=np.int64)
    # parent p joined to subset s is entry p << n - 1 | s of the mask, so
    # the kept entries come parent-major and ascending
    kept = np.flatnonzero(_extension_mask(base, triangle_free))
    seen: dict[bytes, Graph] = {}
    # each candidate is its parent's rows plus vertex n-1 joined to a subset
    for start in range(0, len(kept), CANONICAL_BATCH):
        owner, batch = np.divmod(kept[start : start + CANONICAL_BATCH], 1 << n - 1)
        joined = base[owner] | (batch[:, None] >> np.arange(n - 1) & 1) << n - 1
        rows = np.concatenate([joined, batch[:, None]], axis=1)
        for row, form in zip(rows.tolist(), canonical_forms(rows)):
            if form not in seen:
                h = Graph._from_rows(row)
                h._form = form  # what h.canonical_form() would compute
                seen[form] = h
    return tuple(g for _, g in sorted(seen.items()))


def _extension_mask(base: np.ndarray, triangle_free: bool) -> np.ndarray:
    """Which neighborhoods s to join a new vertex to, for each parent p
    given by its rows of adjacency bitsets: ``keep[p, s]`` holds when s
    holds every lower twin of each vertex in it and, with
    ``triangle_free``, is an independent set of p.

    For twins u < v of p, a subset holding v but not u gives the same
    class as the smaller subset with v swapped for u, which enumeration
    reaches first; skipping it keeps every first representative.
    """
    import numpy as np

    # parents have at most CANONICAL_MAX_N - 1 vertices, so int16 holds
    # every bitset and keeps the (parents, subsets) temporaries small
    subsets = np.arange(1 << base.shape[1], dtype=np.int16)
    need = lower_twins(base).astype(np.int16)
    care = need | base.astype(np.int16) if triangle_free else need
    keep = np.ones((len(base), len(subsets)), dtype=bool)
    for v in range(base.shape[1]):
        keep &= (subsets >> v & 1 == 0) | (subsets & care[:, v, None] == need[:, v, None])
    return keep


# red variable of edge i < 6 inside every word: bit b is set iff b >> i & 1.
# Plain ints, so that the module loads without numpy; each use wraps them
# in np.uint64, which keeps the rows uint64 under numpy 1.x and 2.x alike
_LOW_EDGE_WORDS = tuple(sum(1 << b for b in range(64) if b >> i & 1) for i in range(6))
_ALL_ONES = (1 << 64) - 1
# words of gathered clause rows per chunk of a fold
_CHUNK_WORDS = 1 << 14
# the clauses within edges 0.._BASE_EDGES-1 (at least 6: each further
# edge is a bit of the word index) are folded in one pass. Of bases 6 to
# 12, 12 was fastest on the m = 20 scans and compute_sat's n = 6 batches,
# where a doubling's fixed cost outweighs its narrow folds; 9 or 10 won on
# the n = 7 batches at k >= 4, by about a tenth
_BASE_EDGES = 12


def _violation_rows(graphs: Sequence[Graph], k: int) -> np.ndarray:
    """Bitsliced violation flags over all 2^m colorings of graphs on one
    vertex count and one edge count m: bit b of word w of row i is set iff
    coloring 64w + b of graphs[i] is not bad (or, when m < 6, lies past
    2^m).

    Every clause within edges 0..base-1, base = min(m, _BASE_EDGES), is
    folded in one pass over the words of those edges' colorings. Then each
    edge j = base..m-1 keeps only the live words ``idx``, where some row
    still has a coloring that violates nothing, doubles them, blue on
    ``idx`` and red on ``idx + 2^(j-6)``, and folds only the clauses whose
    highest edge is j, without j: a triangle into the red copy, a subtree
    into the blue words. Every coloring of a dead word holds a clause
    within edges 0..j-1, as does every extension, so its copies would be
    all ones; the live words are scattered into rows of all ones at the
    end.
    """
    import numpy as np

    m = graphs[0].m
    base = min(m, _BASE_EDGES)
    # one edge-id table serves both kinds of clause
    ids = edge_ids(graphs)
    triangles = _by_top_edge(*triangle_picks(graphs, ids=ids), base, m)
    subtrees = _by_top_edge(*subtree_picks(graphs, k, ids=ids), base, m)
    idx = np.arange(1 << max(0, base - 6))
    words = np.zeros((len(graphs), len(idx)), dtype=np.uint64)
    if m < 6:
        words |= np.uint64(_ALL_ONES << (1 << m) & _ALL_ONES)
    red = _red_words(idx, base)
    _fold(words, red, *triangles[0], all_red=True)
    _fold(words, red, *subtrees[0], all_red=False)
    for j, tri, sub in zip(range(base, m), triangles[1:], subtrees[1:]):
        live = np.bitwise_and.reduce(words, axis=0) != np.uint64(_ALL_ONES)
        idx, words = idx[live], words[:, live]
        if not len(idx):
            # every row is all ones, and _fold divides by the width
            break
        red = _red_words(idx, j)
        # the next edge is blue on the live words and red on their copy
        words = np.concatenate([words, words], axis=1)
        blue, red_copy = words[:, : len(idx)], words[:, len(idx) :]
        _fold(red_copy, red, *tri, all_red=True)
        _fold(blue, red, *sub, all_red=False)
        idx = np.concatenate([idx, idx + (1 << j - 6)])
    viol = np.full((len(graphs), 1 << max(0, m - 6)), np.uint64(_ALL_ONES))
    viol[:, idx] = words
    return viol


def _by_top_edge(owner, picks, base: int, m: int) -> list:
    """The clauses ``(owner, picks)`` within edges 0..base-1, then for each
    j = base..m-1 the clauses whose highest edge is j, without edge j; each
    part keeps its clauses in order, so graph by graph. Rows of ``picks``
    come ascending from the pick functions: a row ends in its highest edge."""
    import numpy as np

    if base == m:
        return [(owner, picks)]
    top = np.maximum(picks[:, -1], base - 1)
    order = np.argsort(top, kind="stable")
    parts = np.split(order, np.searchsorted(top[order], np.arange(base, m)))
    return [(owner[parts[0]], picks[parts[0]])] + [
        (owner[part], picks[part, :-1]) for part in parts[1:]
    ]


def _red_words(idx: np.ndarray, count: int) -> np.ndarray:
    """The red variable of each edge i = 0..count-1 on the words ``idx``:
    for i >= 6, all ones on the words whose index has bit i - 6 set."""
    import numpy as np

    red = np.empty((count, len(idx)), dtype=np.uint64)
    red[:6] = np.array(_LOW_EDGE_WORDS[:count], dtype=np.uint64)[:, None]
    red[6:] = idx >> np.arange(count - 6)[:, None] & 1
    red[6:] *= np.uint64(_ALL_ONES)
    return red


def _fold(out, red, owner, picks, *, all_red: bool) -> None:
    """Set in ``out[g]`` each coloring in which some clause of graph g has
    all its edges red (``all_red``, triangles) or none (subtrees), on
    chunks of gathered clause rows reduced per graph."""
    import numpy as np

    if not len(owner):
        return
    width = out.shape[1]
    step = max(1, _CHUNK_WORDS // width)
    clause_op, graph_op = (
        (np.bitwise_and, np.bitwise_or) if all_red else (np.bitwise_or, np.bitwise_and)
    )
    # where each graph's clauses, or a chunk, start
    first = np.ones(len(owner), dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    first[::step] = True
    for start in range(0, len(picks), step):
        chunk = picks[start : start + step]
        if chunk.shape[1]:
            acc = red[chunk[:, 0]]
        else:
            # at k = 2 a subtree is its top edge alone, and without it no
            # edge is red
            acc = np.zeros((len(chunk), width), dtype=np.uint64)
        for column in chunk.T[1:]:
            clause_op(acc, red[column], out=acc)
        starts = first[start : start + step].nonzero()[0]
        if len(starts) > 1:
            rows = owner[start + starts]
            acc = graph_op.reduceat(acc, starts, axis=0)
        else:
            # reduceat walks the columns one by one: slow on wide rows
            rows = owner[start]
            acc = graph_op.reduce(acc, axis=0)
        # for subtrees, acc is where every clause has a red edge
        out[rows] = out[rows] | (acc if all_red else ~acc)


def brute_force_bad_colorings(g: Graph, k: int) -> np.ndarray:
    """Red-edge bitmasks of every bad coloring, ascending."""
    import numpy as np

    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    if g.m > MAX_SCAN_EDGES:
        raise GraphError(
            f"full scan caps at m <= {MAX_SCAN_EDGES} edges, got {g.m}"
        )
    viol = _violation_rows([g], k)[0]
    # unpack only the words that hold a bad coloring, and keep every
    # temporary of the result's length uint32, as the result is
    words = (viol != np.uint64(_ALL_ONES)).nonzero()[0]
    good = ~viol[words]
    bits = np.unpackbits(good.astype("<u8", copy=False).view(np.uint8), bitorder="little")
    masks = bits.nonzero()[0].astype(np.uint32)
    if len(words) < len(viol):
        # unpacked bit p is coloring p + 64 (words[i] - i) for i = p >> 6
        masks += ((words - np.arange(len(words))) << 6).astype(np.uint32)[masks >> 6]
    return masks


@dataclass(frozen=True)
class SatResult:
    """Minimum edge count over all saturated graphs on n vertices."""

    n: int
    k: int
    min_edges: int | None
    extremal_graph6: tuple[str, ...]  # in canonical-form order
    graphs_scanned: int


def compute_sat(n: int, k: int) -> SatResult:
    """Exact saturation number at tiny n by scanning every isomorphism class
    with the brute-force coloring oracle.

    Each class is scanned once; every G+uv is another class on n vertices,
    looked up by canonical form. The lookups run in rounds, one batch of
    forms per round, so that each class stops at its first G+uv that has
    a bad coloring.
    """
    import numpy as np

    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if n > MAX_ENUM_N:
        raise GraphError(f"compute_sat caps at n <= {MAX_ENUM_N}, got {n}")
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    classes = enumerate_graphs(n)
    # the classes of each edge count share one batched scan
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(classes):
        by_size.setdefault(g.m, []).append(i)
    bad = [False] * len(classes)
    for group in by_size.values():
        rows = _violation_rows([classes[i] for i in group], k)
        for i, flag in zip(group, (rows != np.uint64(_ALL_ONES)).any(axis=1).tolist()):
            bad[i] = flag
    has_bad = dict(zip((g.canonical_form() for g in classes), bad))
    saturated = [False] * len(classes)
    # classes with a bad coloring whose G+uv tried so far have none, each
    # with the non-edges it has left to try
    blocked = [(i, g.non_edges()) for i, g in enumerate(classes) if bad[i]]
    while blocked:
        tried, rows = [], []
        for i, todo in blocked:
            pair = next(todo, None)
            if pair is None:
                saturated[i] = True
                continue
            u, v = pair
            row = list(classes[i].adj)
            row[u] |= 1 << v
            row[v] |= 1 << u
            tried.append((i, todo))
            rows.append(row)
        forms = canonical_forms(rows)
        blocked = [t for t, form in zip(tried, forms) if not has_bad[form]]
    sat_classes = [g for g, sat in zip(classes, saturated) if sat]
    best = min((g.m for g in sat_classes), default=None)
    extremal = tuple(g.to_graph6() for g in sat_classes if g.m == best)
    return SatResult(n, k, best, extremal, len(classes))


def family_ramsey_number(k: int) -> int:
    """Least n such that every coloring of K_n has a red triangle or a blue
    k-vertex tree, by full scans of K_1, K_2, ...; K_7 is the largest
    complete graph within MAX_SCAN_EDGES, so k <= MAX_RAMSEY_K."""
    if not 2 <= k <= MAX_RAMSEY_K:
        raise GraphError(f"family_ramsey_number supports 2 <= k <= {MAX_RAMSEY_K}")
    n = 1
    while len(brute_force_bad_colorings(complete(n), k)):
        n += 1
    return n


def scan_k3_saturated(n: int, delta: int) -> tuple[tuple[Graph, int], ...]:
    """All K3-saturated graphs on n vertices with the given minimum degree,
    sorted by edge count (canonical form breaks ties). Such graphs are
    triangle-free, so only the triangle-free classes are filtered, and one
    of those is K3-saturated when every non-edge has a common neighbour."""
    found = [
        (g, g.m)
        for g in enumerate_graphs(n, triangle_free=True)
        if g.min_degree() == delta
        and all(g.adj[u] & g.adj[v] for u, v in g.non_edges())
    ]
    # stable: enumerate_graphs lists the classes in canonical-form order
    found.sort(key=lambda item: item[1])
    return tuple(found)
