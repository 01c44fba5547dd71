"""Edge 2-colorings and the bad-coloring predicate.

A total red/blue coloring of E(G) is *bad* for parameter k when the red
subgraph contains no triangle and every component of the blue subgraph
spans at most k-1 vertices. The component bound is equivalent to the blue
subgraph containing no tree on k vertices: a graph contains some k-vertex
tree exactly when it has a connected subgraph on k vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple

from .graphs import EdgeRef, Graph, GraphError, bits

RED = 0
BLUE = 1
COLOR_NAMES = ("red", "blue")

CNF_MAX_K = 6


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

    @classmethod
    def all_red(cls, g: Graph) -> "TwoColoring":
        return cls([RED] * g.m)

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

    def is_red(self, index: int) -> bool:
        return self.colors[index] == RED

    def is_blue(self, index: int) -> bool:
        return self.colors[index] == BLUE

    def red_edge_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.colors) if c == RED)

    def blue_edge_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.colors) if c == BLUE)

    @property
    def red_count(self) -> int:
        return len(self.colors) - sum(self.colors)

    @property
    def blue_count(self) -> int:
        return sum(self.colors)

    def red_graph(self, g: Graph) -> Graph:
        """Spanning subgraph carrying the red edges."""
        self._check(g)
        return Graph(g.n, (g.edges[i] for i in self.red_edge_indices()))

    def blue_graph(self, g: Graph) -> Graph:
        """Spanning subgraph carrying the blue edges."""
        self._check(g)
        return Graph(g.n, (g.edges[i] for i in self.blue_edge_indices()))

    def _check(self, g: Graph) -> None:
        if len(self.colors) != g.m:
            raise GraphError(
                f"coloring has {len(self.colors)} entries but graph has {g.m} edges"
            )

    def as_mask(self) -> int:
        """Bitmask with bit i set when edge i is red (CNF/oracle convention)."""
        mask = 0
        for i, c in enumerate(self.colors):
            if c == RED:
                mask |= 1 << i
        return mask

    @classmethod
    def from_mask(cls, m: int, mask: int) -> "TwoColoring":
        return cls(RED if mask >> i & 1 else BLUE for i in range(m))

    def as_edge_list(self, g: Graph) -> list[list]:
        self._check(g)
        return [[u, v, COLOR_NAMES[self.colors[i]]] for i, (u, v) in enumerate(g.edges)]


def blue_component_sizes(g: Graph, coloring: TwoColoring) -> tuple[int, ...]:
    """Sizes of all blue components (singletons included), descending."""
    coloring._check(g)
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in coloring.blue_edge_indices():
        u, v = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    sizes: dict[int, int] = {}
    for v in range(g.n):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def is_bad_coloring(g: Graph, k: int, coloring: TwoColoring) -> bool:
    """True iff the red subgraph is triangle-free and every blue component
    has at most k-1 vertices."""
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    coloring._check(g)
    radj = [0] * g.n
    for i in coloring.red_edge_indices():
        u, v = g.edges[i]
        radj[u] |= 1 << v
        radj[v] |= 1 << u
    for i in coloring.red_edge_indices():
        u, v = g.edges[i]
        if radj[u] & radj[v]:
            return False
    sizes = blue_component_sizes(g, coloring)
    return not sizes or sizes[0] <= k - 1


@dataclass(frozen=True)
class BadColoringCertificate:
    """A coloring plus the evidence that it is bad; re-verifiable from scratch."""

    coloring: TwoColoring
    blue_component_sizes: tuple[int, ...]
    red_triangle_free: bool = True

    def verify(self, g: Graph, k: int) -> bool:
        return (
            self.red_triangle_free
            and is_bad_coloring(g, k, self.coloring)
            and self.blue_component_sizes == blue_component_sizes(g, self.coloring)
        )

    def as_dict(self, g: Graph) -> dict:
        return {
            "edges": self.coloring.as_edge_list(g),
            "blue_component_sizes": list(self.blue_component_sizes),
            "red_edge_count": self.coloring.red_count,
            "red_triangle_free": self.red_triangle_free,
        }


def make_certificate(g: Graph, k: int, coloring: TwoColoring) -> BadColoringCertificate:
    """Build and verify a certificate for a known-bad coloring."""
    if not is_bad_coloring(g, k, coloring):
        raise GraphError("coloring is not bad; cannot certify")
    return BadColoringCertificate(coloring, blue_component_sizes(g, coloring))


class ForcedBlueResult(NamedTuple):
    """Edges blue in every bad coloring, via the triangle-count threshold."""

    edges: tuple[EdgeRef, ...]
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
    forced = tuple(
        EdgeRef(i, u, v)
        for i, (u, v) in enumerate(g.edges)
        if g.common_neighbor_count(u, v) >= threshold
    )
    return ForcedBlueResult(forced, True)


def enumerate_subtrees(g: Graph, k: int) -> tuple[tuple[int, ...], ...]:
    """Edge-index sets of every subtree of g on exactly k vertices.

    Each k-subset of vertices contributes the spanning trees of its induced
    subgraph, so every tree is listed exactly once.
    """
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    out = []
    for subset in combinations(range(g.n), k):
        inside = sum(1 << v for v in subset)
        # edges (u, v), u < v, within the subset in index order
        local = [
            g.edge_index(u, v)
            for u in subset
            for v in bits(g.adj[u] & inside & ~((2 << u) - 1))
        ]
        if len(local) < k - 1:
            continue
        for pick in combinations(local, k - 1):
            if _spans_as_tree(g, pick, subset):
                out.append(pick)
    return tuple(out)


def _spans_as_tree(g: Graph, edge_indices, subset) -> bool:
    # k-1 edges on k vertices form a tree iff they touch all k and connect them
    parent = {v: v for v in subset}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    merges = 0
    for i in edge_indices:
        u, v = g.edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        merges += 1
    return merges == len(subset) - 1


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
    trees = enumerate_subtrees(g, k)
    lines = [
        f"c bad 2-coloring instance: n={g.n} m={g.m} k={k}",
        "c variable i <-> edge i-1 below; true = red",
    ]
    for i, (u, v) in enumerate(g.edges):
        lines.append(f"c edge var {i + 1} = ({u}, {v})")
    lines.append(f"p cnf {g.m} {len(tri) + len(trees)}")
    for a, b, c in tri:
        lines.append(f"-{a + 1} -{b + 1} -{c + 1} 0")
    for pick in trees:
        lines.append(" ".join(str(i + 1) for i in pick) + " 0")
    return "\n".join(lines) + "\n"
