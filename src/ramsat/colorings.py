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

from .graphs import Graph, GraphError, bits, component_masks

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
    forced = tuple(
        i
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
