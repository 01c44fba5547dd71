"""Simple undirected graphs on labeled vertices 0..n-1.

Adjacency is one Python-int bitset per vertex, so a neighbor-set
intersection is a single ``&``. Edges carry fixed indices in lexicographic
(u, v) order with u < v; colorings, certificates and CNF clauses all refer
to edges through these indices, which makes every emitted artifact
byte-reproducible.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Graph",
    "GraphError",
    "Graph6Error",
    "EdgeRef",
    "ComponentPartition",
    "complete",
    "empty",
    "cycle",
    "path",
    "star",
    "complete_bipartite",
    "petersen",
    "disjoint_union",
    "from_graph6",
]

CANONICAL_MAX_N = 10


class GraphError(ValueError):
    """Invalid argument to a graph operation."""


class Graph6Error(GraphError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EdgeRef(NamedTuple):
    """An edge identified by index and ordered endpoints (u < v)."""

    index: int
    u: int
    v: int


class ComponentPartition(NamedTuple):
    """Connected components: vertex -> id, and id -> size.

    Ids are contiguous from 0, ordered by each component's smallest vertex.
    """

    assignment: tuple[int, ...]
    sizes: tuple[int, ...]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: build once, query freely (thread-safe reads)."""

    __slots__ = ("n", "adj", "edges", "_edge_index", "_tri_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        adj = [0] * n
        edge_set = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} is not allowed")
            if u > v:
                u, v = v, u
            edge_set.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))
        self._edge_index = {e: i for i, e in enumerate(self.edges)}
        self._tri_cache: tuple | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(self.degrees())

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(self.degrees())

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def edge_ref(self, index: int) -> EdgeRef:
        if not 0 <= index < self.m:
            raise GraphError(f"edge index {index} out of range (m={self.m})")
        u, v = self.edges[index]
        return EdgeRef(index, u, v)

    def edge_refs(self) -> tuple[EdgeRef, ...]:
        return tuple(EdgeRef(i, u, v) for i, (u, v) in enumerate(self.edges))

    def edge_index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        try:
            return self._edge_index[(u, v)]
        except KeyError:
            raise GraphError(f"({u}, {v}) is not an edge") from None

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """Non-adjacent pairs u < v in lexicographic order."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.adj[u] >> v & 1:
                    yield (u, v)

    # -- derived graphs ---------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is already an edge")
        return Graph(self.n, self.edges + ((u, v),))

    def without_edge(self, u: int, v: int) -> "Graph":
        i = self.edge_index(u, v)
        return Graph(self.n, self.edges[:i] + self.edges[i + 1 :])

    def relabeled(self, perm: Iterable[int]) -> "Graph":
        """Apply vertex relabeling ``v -> perm[v]``."""
        p = list(perm)
        if sorted(p) != list(range(self.n)):
            raise GraphError("relabeling is not a permutation of 0..n-1")
        return Graph(self.n, ((p[u], p[v]) for u, v in self.edges))

    # -- structure --------------------------------------------------------

    def common_neighbor_count(self, u: int, v: int) -> int:
        return (self.adj[u] & self.adj[v]).bit_count()

    def triangles_through_edge(self, e: EdgeRef | int) -> int:
        """Number of triangles containing the edge: |N(u) & N(v)|."""
        index = e.index if isinstance(e, EdgeRef) else e
        ref = self.edge_ref(index)
        if isinstance(e, EdgeRef) and (e.u, e.v) != (ref.u, ref.v):
            raise GraphError(f"edge ref {e} does not belong to this graph")
        return self.common_neighbor_count(ref.u, ref.v)

    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles as vertex triples u < v < w."""
        return self._triangle_cache()[0]

    def triangle_edge_triples(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles as edge-index triples, aligned with triangles()."""
        return self._triangle_cache()[1]

    def _triangle_cache(self):
        if self._tri_cache is None:
            vtris = []
            etris = []
            for i, (u, v) in enumerate(self.edges):
                common = self.adj[u] & self.adj[v]
                # keep w > v so each triangle is reported once
                common >>= v + 1
                for off in bits(common):
                    w = v + off + 1
                    vtris.append((u, v, w))
                    etris.append((i, self._edge_index[(u, w)], self._edge_index[(v, w)]))
            self._tri_cache = (tuple(vtris), tuple(etris))
        return self._tri_cache

    def is_triangle_free(self) -> bool:
        for u, v in self.edges:
            if self.adj[u] & self.adj[v]:
                return False
        return True

    def components(self) -> ComponentPartition:
        assignment = [-1] * self.n
        sizes = []
        for v in range(self.n):
            if assignment[v] >= 0:
                continue
            cid = len(sizes)
            comp = 1 << v
            frontier = comp
            while frontier:
                nxt = 0
                for u in bits(frontier):
                    nxt |= self.adj[u]
                frontier = nxt & ~comp
                comp |= frontier
            for u in bits(comp):
                assignment[u] = cid
            sizes.append(comp.bit_count())
        return ComponentPartition(tuple(assignment), tuple(sizes))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return len(self.components().sizes) == 1

    def is_2_connected(self) -> bool:
        """True iff n >= 3, connected, and no articulation vertex."""
        if self.n < 3:
            return False
        if not self.is_connected():
            return False
        # Iterative DFS lowpoint (Hopcroft-Tarjan).
        n = self.n
        disc = [-1] * n
        low = [0] * n
        parent = [-1] * n
        timer = 0
        root_children = 0
        stack = [(0, iter(bits(self.adj[0])))]
        disc[0] = low[0] = timer
        timer += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] < 0:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == 0:
                        root_children += 1
                    stack.append((w, iter(bits(self.adj[w]))))
                    advanced = True
                    break
                elif w != parent[v]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if not advanced:
                stack.pop()
                p = parent[v]
                if p >= 0:
                    if low[v] < low[p]:
                        low[p] = low[v]
                    # non-root articulation test
                    if p != 0 and low[v] >= disc[p]:
                        return False
        return root_children <= 1

    # -- canonical form ---------------------------------------------------

    def canonical_form(self) -> bytes:
        """Isomorphism-invariant byte encoding; supported for n <= 10.

        Vertices are first partitioned by iterated neighbor-color
        refinement; the form is the minimum upper-triangle bitstring over
        all orderings that list the refinement classes in canonical order.
        Equal for isomorphic graphs, distinct otherwise.
        """
        n = self.n
        if n > CANONICAL_MAX_N:
            raise GraphError(f"canonical_form supports n <= {CANONICAL_MAX_N}, got {n}")
        if n == 0:
            return b"\x00"
        colors = _refinement_colors(self)
        nclasses = max(colors) + 1
        classes: list[list[int]] = [[] for _ in range(nclasses)]
        for v, c in enumerate(colors):
            classes[c].append(v)
        class_of_pos: list[int] = []
        for cid, cls in enumerate(classes):
            class_of_pos.extend([cid] * len(cls))

        adj = self.adj
        order = [0] * n
        cur = [0] * n
        placed = [False] * n
        best: list[int] | None = None

        def rec(level: int, tight: bool) -> bool:
            nonlocal best
            if level == n:
                best = cur[:level]
                return True
            items = []
            for v in classes[class_of_pos[level]]:
                if placed[v]:
                    continue
                chunk = 0
                av = adj[v]
                for i in range(level):
                    chunk = (chunk << 1) | (av >> order[i] & 1)
                items.append((chunk, v))
            items.sort()
            updated = False
            tried: list[tuple[int, int]] = []
            for chunk, v in items:
                if best is not None and tight and chunk > best[level]:
                    break
                # skip v when a tried twin u gives an isomorphic continuation:
                # (u v) is an automorphism iff their neighborhoods agree off {u, v}
                skip = False
                for tchunk, u in tried:
                    if tchunk == chunk:
                        mask = ~((1 << u) | (1 << v))
                        if adj[u] & mask == adj[v] & mask:
                            skip = True
                            break
                if skip:
                    continue
                tried.append((chunk, v))
                if best is None:
                    child_tight = True
                else:
                    child_tight = tight and chunk == best[level]
                placed[v] = True
                order[level] = v
                cur[level] = chunk
                if rec(level + 1, child_tight):
                    updated = True
                    tight = True  # best now extends the current prefix
                placed[v] = False
            return updated

        rec(0, True)
        assert best is not None
        acc = 0
        for level, chunk in enumerate(best):
            acc = (acc << level) | chunk
        nbits = n * (n - 1) // 2
        return bytes([n]) + acc.to_bytes((nbits + 7) // 8 or 1, "big")

    # -- serialization ----------------------------------------------------

    def to_graph6(self) -> str:
        """Headerless graph6 line (no trailing newline)."""
        # column v lists u = 0..v-1, first bit first: the reversed binary
        # digits of adj[v] below bit v
        bitstr = "".join(
            format(self.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1]
            for v in range(1, self.n)
        )
        bitstr += "0" * (-len(bitstr) % 6)
        return _graph6_encode_n(self.n) + "".join(
            chr(int(bitstr[i : i + 6], 2) + 63) for i in range(0, len(bitstr), 6)
        )

    def to_dot(self, coloring=None, labels: dict[int, str] | None = None) -> str:
        """DOT text; blue edges are drawn dashed when a coloring is given."""
        if coloring is not None and len(coloring) != self.m:
            raise GraphError("coloring length does not match edge count")
        lines = ["graph G {"]
        for v in range(self.n):
            if labels and v in labels:
                lines.append(f'  {v} [label="{labels[v]}"];')
            elif self.adj[v] == 0:
                lines.append(f"  {v};")
        for i, (u, v) in enumerate(self.edges):
            if coloring is None:
                lines.append(f"  {u} -- {v};")
            elif coloring.is_blue(i):
                lines.append(f"  {u} -- {v} [color=blue, style=dashed];")
            else:
                lines.append(f"  {u} -- {v} [color=red];")
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _refinement_colors(g: Graph) -> list[int]:
    """Stable neighbor-color refinement, canonically ranked at every round."""
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


def _rank(keys) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


# -- graph6 codec ----------------------------------------------------------


def _graph6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(
            chr((n >> s & 0x3F) + 63) for s in (30, 24, 18, 12, 6, 0)
        )
    raise GraphError(f"n={n} too large for graph6")


def from_graph6(line: str) -> Graph:
    """Decode one headerless graph6 line."""
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


def read_graph6_lines(lines: Iterable[str]) -> Iterator[Graph]:
    """Decode an iterable of graph6 lines, skipping blank ones."""
    for line in lines:
        if line.strip():
            yield from_graph6(line)


# -- standard constructions -------------------------------------------------


def complete(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def empty(n: int) -> Graph:
    return Graph(n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph(n, ((v, (v + 1) % n) for v in range(n)))


def path(n: int) -> Graph:
    return Graph(n, ((v, v + 1) for v in range(n - 1)))


def star(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    if n < 1:
        raise GraphError(f"star needs n >= 1, got {n}")
    return Graph(n, ((0, v) for v in range(1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def disjoint_union(*graphs: Graph) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)
