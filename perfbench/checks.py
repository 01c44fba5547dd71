"""Output checks that share no code with ramsat.

Every function returns None when the output is right and a one-line reason
when it is wrong. Graphs are plain vertex counts and edge lists here, so a
fault in ramsat's graph, coloring or certificate code cannot hide itself.
"""

from __future__ import annotations

# OEIS A000088: graphs on n unlabeled vertices, n = 0..8
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def sorted_edges(edges):
    """Edges as (u, v) with u < v, in lexicographic order."""
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def non_edges(n, edges):
    present = set(sorted_edges(edges))
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]


class _BlueComponents:
    """Union-find over the blue edges, with component sizes."""

    def __init__(self, n, blue):
        self.parent = list(range(n))
        self.size = [1] * n
        for u, v in blue:
            ru, rv = self.root(u), self.root(v)
            if ru != rv:
                if self.size[ru] < self.size[rv]:
                    ru, rv = rv, ru
                self.parent[rv] = ru
                self.size[ru] += self.size[rv]

    def root(self, v):
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def largest(self):
        return max((self.size[r] for r in range(len(self.parent)) if self.root(r) == r), default=0)


def _red_adjacency(n, red):
    radj = [0] * n
    for u, v in red:
        radj[u] |= 1 << v
        radj[v] |= 1 << u
    return radj


def bad_coloring_error(n, k, edges, red_flags):
    """Check that coloring edge i red when red_flags[i] is a bad coloring:
    no red triangle, and every blue component on at most k-1 vertices."""
    if len(edges) != len(red_flags):
        return f"coloring has {len(red_flags)} entries for {len(edges)} edges"
    red = [e for e, r in zip(edges, red_flags) if r]
    blue = [e for e, r in zip(edges, red_flags) if not r]
    radj = _red_adjacency(n, red)
    for u, v in red:
        if radj[u] & radj[v]:
            return f"red triangle on edge ({u}, {v})"
    largest = _BlueComponents(n, blue).largest()
    if largest > k - 1:
        return f"blue component on {largest} vertices, k={k}"
    return None


def json_certificate_error(n, k, edges, cert):
    """Check a certificate printed by the CLI against the input's edge list."""
    listed = [(min(u, v), max(u, v)) for u, v, _ in cert["edges"]]
    if sorted(listed) != sorted_edges(edges) or len(set(listed)) != len(listed):
        return "certificate edges differ from the input graph's edges"
    flags = [name == "red" for _, _, name in cert["edges"]]
    return bad_coloring_error(n, k, listed, flags)


def json_red_flags(edges, cert):
    """Red flags of a CLI certificate, aligned with sorted_edges(edges)."""
    red = {(min(u, v), max(u, v)) for u, v, name in cert["edges"] if name == "red"}
    return [e in red for e in sorted_edges(edges)]


def blocking_error(n, k, edges, red_flags):
    """Check that the coloring extends across no non-edge uv: u and v have a
    red common neighbour (uv cannot be red), and their blue components differ
    and together span at least k vertices (uv cannot be blue).

    With the coloring the only bad one, this proves saturation: a bad
    coloring of G+uv restricts to a bad coloring of G.
    """
    edges = sorted_edges(edges)
    red = [e for e, r in zip(edges, red_flags) if r]
    blue = [e for e, r in zip(edges, red_flags) if not r]
    radj = _red_adjacency(n, red)
    comps = _BlueComponents(n, blue)
    for u, v in non_edges(n, edges):
        if not radj[u] & radj[v]:
            return f"non-edge ({u}, {v}) can be added red"
        ru, rv = comps.root(u), comps.root(v)
        if ru == rv or comps.size[ru] + comps.size[rv] < k:
            return f"non-edge ({u}, {v}) can be added blue"
    return None


def decode_graph6(text):
    """(n, edges) of a graph6 line with at most 62 vertices."""
    data = [ord(ch) - 63 for ch in text.strip()]
    n = data[0]
    bits = []
    for value in data[1:]:
        bits.extend(value >> s & 1 for s in range(5, -1, -1))
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                edges.append((u, v))
            i += 1
    return n, edges


def popcount(mask):
    return bin(int(mask)).count("1")
