"""Edge 2-colorings and the bad-coloring predicate.

A total red/blue coloring of E(G) is *bad* for parameter k when the red
subgraph contains no triangle and every component of the blue subgraph
spans at most k-1 vertices. The component bound is equivalent to the blue
subgraph containing no tree on k vertices: a graph contains some k-vertex
tree exactly when it has a connected subgraph on k vertices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import Graph, GraphError, component_masks

RED = 0
BLUE = 1
COLOR_NAMES = ("red", "blue")

CNF_MAX_K = 6
# K_8 has 8^6 = 262,144 spanning trees; the table of K_k's trees stops at 7
MAX_SUBTREE_K = 7
# items in each numpy block of the subtree enumeration
_BLOCK = 1 << 14


class TwoColoring:
    """Total assignment of every edge index to red (0) or blue (1)."""

    __slots__ = ("colors",)

    def __init__(self, colors: Iterable[int]):
        t = tuple(colors)
        if any(c not in (RED, BLUE) for c in t):
            raise GraphError("colors must be 0 (red) or 1 (blue)")
        self.colors = t

    @classmethod
    def from_blue_edges(cls, g: Graph, blue_pairs: Iterable[tuple[int, int]]) -> "TwoColoring":
        colors = [RED] * g.m
        for u, v in blue_pairs:
            colors[g.edge_index(u, v)] = BLUE
        return cls(colors)

    def __len__(self) -> int:
        return len(self.colors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoColoring):
            return NotImplemented
        return self.colors == other.colors

    def __hash__(self) -> int:
        return hash(self.colors)

    def __repr__(self) -> str:
        return "TwoColoring(%s)" % "".join("rb"[c] for c in self.colors)

    def is_blue(self, index: int) -> bool:
        return self.colors[index] == BLUE

    @property
    def red_count(self) -> int:
        return len(self.colors) - sum(self.colors)

    def red_adjacency(self, g: Graph) -> list[int]:
        """Bitset of each vertex's red neighbours."""
        self._check(g)
        radj = [0] * g.n
        for (u, v), c in zip(g.edges, self.colors):
            if c == RED:
                radj[u] |= 1 << v
                radj[v] |= 1 << u
        return radj

    def _check(self, g: Graph) -> None:
        if len(self.colors) != g.m:
            raise GraphError(
                f"coloring has {len(self.colors)} entries but graph has {g.m} edges"
            )

    @classmethod
    def from_mask(cls, m: int, mask: int) -> "TwoColoring":
        return cls(RED if mask >> i & 1 else BLUE for i in range(m))

    def as_edge_list(self, g: Graph) -> list[list]:
        self._check(g)
        return [[u, v, COLOR_NAMES[self.colors[i]]] for i, (u, v) in enumerate(g.edges)]


def _bad_coloring_sizes(
    g: Graph, k: int, coloring: TwoColoring
) -> tuple[int, ...] | None:
    """The blue component sizes when the coloring is bad, else None."""
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    radj = coloring.red_adjacency(g)
    if any(radj[u] >> v & 1 and radj[u] & radj[v] for u, v in g.edges):
        return None
    blue = [a & ~r for a, r in zip(g.adj, radj)]
    comps = component_masks(blue, (1 << g.n) - 1)
    sizes = tuple(sorted((comp.bit_count() for comp in comps), reverse=True))
    return None if sizes and sizes[0] > k - 1 else sizes


def is_bad_coloring(g: Graph, k: int, coloring: TwoColoring) -> bool:
    """True iff the red subgraph is triangle-free and every blue component
    has at most k-1 vertices."""
    return _bad_coloring_sizes(g, k, coloring) is not None


@dataclass(frozen=True)
class BadColoringCertificate:
    """A coloring plus the evidence that it is bad; re-verifiable from scratch."""

    coloring: TwoColoring
    blue_component_sizes: tuple[int, ...]

    def verify(self, g: Graph, k: int) -> bool:
        return _bad_coloring_sizes(g, k, self.coloring) == self.blue_component_sizes

    def as_dict(self, g: Graph) -> dict:
        return {
            "edges": self.coloring.as_edge_list(g),
            "blue_component_sizes": list(self.blue_component_sizes),
            "red_edge_count": self.coloring.red_count,
            "red_triangle_free": True,
        }


def make_certificate(g: Graph, k: int, coloring: TwoColoring) -> BadColoringCertificate:
    """Build and verify a certificate for a known-bad coloring."""
    sizes = _bad_coloring_sizes(g, k, coloring)
    if sizes is None:
        raise GraphError("coloring is not bad; cannot certify")
    return BadColoringCertificate(coloring, sizes)


class ForcedBlueResult(NamedTuple):
    """Edges blue in every bad coloring, via the triangle-count threshold."""

    edges: tuple[int, ...]
    applicable: bool


def forced_blue_edges(g: Graph, k: int) -> ForcedBlueResult:
    """Edges lying in at least 2k-3 triangles; blue in every bad coloring.

    Sound presolve only on n >= k+2 vertices (and k >= 3); below that the
    result is empty and flagged not-applicable.
    """
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    if g.n < k + 2 or k < 3:
        return ForcedBlueResult((), False)
    threshold = 2 * k - 3
    adj = g.adj
    forced = tuple(
        i
        for i, (u, v) in enumerate(g.edges)
        if (adj[u] & adj[v]).bit_count() >= threshold
    )
    return ForcedBlueResult(forced, True)


def enumerate_subtrees(g: Graph, k: int) -> tuple[tuple[int, ...], ...]:
    """Edge-index sets of every subtree of g on exactly k vertices.

    Each k-subset of vertices, in combinations order, contributes the
    spanning trees of its induced subgraph as ascending edge indices, in
    combinations order, so every tree is listed exactly once. These are
    the rows of ``subtree_picks`` for a batch of one.
    """
    return tuple(zip(*subtree_picks([g], k)[1].T.tolist()))


def subtree_picks(graphs: Sequence[Graph], k: int) -> tuple[np.ndarray, np.ndarray]:
    """``enumerate_subtrees`` for a batch of graphs on one vertex count: the
    index of the graph that holds each subtree and the subtree's k-1 edge
    indices, graph by graph, each graph's subtrees in the order
    ``enumerate_subtrees`` lists them.

    A k-subset's spanning trees are the spanning trees of K_k that its
    induced subgraph contains, so one table per k, from
    ``_spanning_trees``, serves every subset.
    """
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    if not graphs or k > graphs[0].n:
        return np.zeros(0, dtype=np.intp), np.zeros((0, k - 1), dtype=np.int32)
    if k > MAX_SUBTREE_K:
        raise GraphError(
            f"subtree enumeration caps at k <= {MAX_SUBTREE_K} on graphs with"
            f" at least k vertices, got k={k}"
        )
    return _induced_picks(graphs, k, *_spanning_trees(k))


def triangle_picks(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """The triangles of a batch of graphs on one vertex count, as
    ``subtree_picks`` lists subtrees: each graph's
    ``Graph.triangle_edge_triples()`` in the same order."""
    return _induced_picks(graphs, 3, np.array([0b111]), np.array([[0, 1, 2]]))


@functools.cache
def _spanning_trees(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The spanning trees of K_k over its pairs (a, b), a < b, numbered in
    combinations order: each tree's bitmask of pairs and its k-1 pair
    numbers, ascending, the trees in combinations order of those numbers."""
    ends = np.array([1 << a | 1 << b for a, b in combinations(range(k), 2)])
    picks = np.array(list(combinations(range(len(ends)), k - 1)), dtype=np.intp)
    # k-1 edges on k vertices form a tree iff they reach all k from vertex
    # 0, and each sweep over the edges reaches a new vertex until then
    reached = np.ones(len(picks), dtype=np.int64)
    for _ in range(k - 1):
        for e in ends[picks].T:
            reached |= np.where(reached & e, e, 0)
    trees = picks[reached == (1 << k) - 1]
    return (1 << trees).sum(axis=1), trees


def _induced_picks(
    graphs: Sequence[Graph], k: int, masks: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each graph and each k-subset in combinations order, the entries
    of ``table`` (subgraphs of K_k as pair numbers, with their bitmasks
    ``masks``) that the subset's induced subgraph contains, as edge
    indices of the graph, tagged by graph."""
    n = graphs[0].n
    pairs = np.array(list(combinations(range(k), 2))).T
    ids = _edge_ids(graphs)
    weights = 1 << np.arange(pairs.shape[1])
    owners = [np.zeros(0, dtype=np.intp)]
    picks = [np.zeros((0, table.shape[1]), dtype=np.int32)]
    # blocks of (graphs, subsets, pairs) and of (rows, table entries) each
    # hold at most _BLOCK items; a block spans several graphs only when it
    # holds all their subsets, so the picks come out graph by graph
    graph_step = max(1, _BLOCK // max(1, comb(n, k) * pairs.shape[1]))
    row_step = max(1, _BLOCK // len(masks))
    for start in range(0, len(graphs), graph_step):
        for sub in _subsets(n, k, max(1, _BLOCK // pairs.shape[1])):
            sub_ids = ids[start : start + graph_step][:, sub[:, pairs[0]], sub[:, pairs[1]]]
            present = sub_ids >= 0
            g, s = np.nonzero(present.sum(axis=2) >= table.shape[1])
            have = present[g, s] @ weights
            for r in range(0, len(g), row_step):
                row, entry = np.nonzero((masks & ~have[r : r + row_step, None]) == 0)
                row += r
                owners.append(start + g[row])
                picks.append(sub_ids[g[row, None], s[row, None], table[entry]])
    return np.concatenate(owners), np.concatenate(picks)


def _edge_ids(graphs: Sequence[Graph]) -> np.ndarray:
    """``ids[i, u, v]``: the index of edge (u, v), u < v, in graphs[i], or
    -1 when it is not an edge."""
    n = graphs[0].n
    ms = [g.m for g in graphs]
    ends = np.fromiter(
        chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
        dtype=np.intp,
        count=2 * sum(ms),
    ).reshape(-1, 2)
    ids = np.full((len(graphs), n, n), -1, dtype=np.int32)
    # one numpy assignment for the whole batch: a loop over the graphs
    # took four times as long on the classes of one edge count at n = 7
    owner = np.repeat(np.arange(len(graphs)), ms)
    ids[owner, ends[:, 0], ends[:, 1]] = np.arange(len(ends)) - np.repeat(
        np.cumsum(ms) - ms, ms
    )
    return ids


def _subsets(n: int, k: int, step: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in combinations order, as arrays of at
    most ``step`` rows."""
    it = combinations(range(n), k)
    while (chunk := np.fromiter(chain.from_iterable(islice(it, step)), np.intp)).size:
        yield chunk.reshape(-1, k)


def export_cnf(g: Graph, k: int) -> str:
    """DIMACS CNF satisfiable iff g has a bad coloring for k.

    One variable per edge (true = red). Clauses: each triangle is not all
    red; each k-vertex subtree is not all blue. Subtree enumeration is
    exponential in k, hence the k <= CNF_MAX_K cap.
    """
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    if k > CNF_MAX_K:
        raise GraphError(f"export_cnf supports k <= {CNF_MAX_K}, got {k}")
    tri = g.triangle_edge_triples()
    trees = subtree_picks([g], k)[1]
    lines = [
        f"c bad 2-coloring instance: n={g.n} m={g.m} k={k}",
        "c variable i <-> edge i-1 below; true = red",
    ]
    for i, (u, v) in enumerate(g.edges):
        lines.append(f"c edge var {i + 1} = ({u}, {v})")
    lines.append(f"p cnf {g.m} {len(tri) + len(trees)}")
    for a, b, c in tri:
        lines.append(f"-{a + 1} -{b + 1} -{c + 1} 0")
    # zipped from one list per column: no tuple or list per subtree is kept
    for pick in zip(*(trees + 1).T.tolist()):
        lines.append(" ".join(map(str, pick)) + " 0")
    return "\n".join(lines) + "\n"
