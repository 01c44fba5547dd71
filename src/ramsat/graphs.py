"""Simple undirected graphs on labeled vertices 0..n-1.

Adjacency is one Python-int bitset per vertex, so a neighbor-set
intersection is a single ``&``. Edges carry fixed indices in lexicographic
(u, v) order with u < v; colorings, certificates and CNF clauses all refer
to edges through these indices, which makes every emitted artifact
byte-reproducible.

numpy is imported inside the canonical-form functions that compute with
it, never at module level, so building, decoding and checking graphs
does not load it.
"""

from __future__ import annotations

import base64
from operator import index
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "GraphError",
    "Graph6Error",
    "complete",
    "empty",
    "cycle",
    "path",
    "star",
    "complete_bipartite",
    "petersen",
    "disjoint_union",
    "from_graph6",
    "canonical_forms",
]

CANONICAL_MAX_N = 10
# rows canonicalised together: enough to spread numpy's per-call cost,
# few enough to keep the batch's arrays small
CANONICAL_BATCH = 512


class GraphError(ValueError):
    """Invalid argument to a graph operation."""


class Graph6Error(GraphError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component_masks(adj: Sequence[int], mask: int) -> list[int]:
    """Vertex masks of the components of the subgraph that ``mask`` induces
    in the graph with adjacency bitsets ``adj``, by smallest vertex."""
    comps = []
    while mask:
        comp = todo = mask & -mask
        mask ^= comp
        while todo:
            low = todo & -todo
            todo ^= low
            grow = adj[low.bit_length() - 1] & mask
            mask ^= grow
            todo |= grow
            comp |= grow
        comps.append(comp)
    return comps


def is_2_connected(adj: Sequence[int]) -> bool:
    """True iff the graph with adjacency bitsets ``adj`` has n >= 3 and
    deleting any one vertex leaves it connected (which makes the graph
    itself connected)."""
    full = (1 << len(adj)) - 1
    return len(adj) >= 3 and all(
        len(component_masks(adj, full ^ 1 << v)) == 1 for v in range(len(adj))
    )


def _has_clique(g: Graph, inside: int, size: int) -> bool:
    if inside.bit_count() < size:
        return False
    if size <= 1:
        return True
    for v in bits(inside):
        if _has_clique(g, inside & g.adj[v] & ~((1 << (v + 1)) - 1), size - 1):
            return True
        inside &= ~(1 << v)
        if inside.bit_count() < size:
            return False
    return False


def has_kt(g: Graph, t: int) -> bool:
    """True iff g contains a complete subgraph on t vertices."""
    if t <= 0:
        return True
    full = (1 << g.n) - 1
    return _has_clique(g, full, t)


def is_kt_saturated(g: Graph, t: int) -> bool:
    """K_t-free, and every non-edge completes a K_t."""
    if t < 3:
        raise GraphError(f"is_kt_saturated requires t >= 3, got {t}")
    if has_kt(g, t):
        return False
    for u, v in g.non_edges():
        # a new K_t must use the new edge: K_{t-2} among common neighbors
        if not _has_clique(g, g.adj[u] & g.adj[v], t - 2):
            return False
    return True


class Graph:
    """Immutable simple graph: build once, query freely (thread-safe reads)."""

    __slots__ = ("n", "adj", "edges", "_edge_index", "_tri_cache", "_form")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        # n and the endpoints are taken through operator.index: a numpy
        # integer would leak into edges, and overflow a shift past bit 63
        try:
            n = index(n)
            if n < 0:
                raise GraphError(f"vertex count must be >= 0, got {n}")
            adj = [0] * n
            for u, v in edges:
                u = index(u)
                v = index(v)
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise GraphError(f"loop at vertex {u} is not allowed")
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        except TypeError as exc:
            raise GraphError(f"vertex count and endpoints must be integers: {exc}") from None
        self._set_rows(adj)

    @classmethod
    def _from_rows(cls, adj: list[int]) -> Graph:
        """The graph with adjacency rows adj, taken as they stand: trusted
        to be symmetric and loop-free, with no bit at or past len(adj). For
        rows already valid (graph6 decode, enumeration); ``Graph(n, edges)``
        is the validating constructor."""
        g = cls.__new__(cls)
        g._set_rows(adj)
        return g

    def _set_rows(self, adj: list[int]) -> None:
        """Keep adj and derive edges from each row's higher bits, so they
        come once each, in (u, v) order."""
        edges = []
        for u, row in enumerate(adj):
            row >>= u + 1
            v = u
            while row:
                step = (row & -row).bit_length()
                v += step
                edges.append((u, v))
                row >>= step
        self.n = len(adj)
        self.adj = tuple(adj)
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self._edge_index: dict[tuple[int, int], int] | None = None
        self._tri_cache: tuple | None = None
        self._form: bytes | None = None

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

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def edge_index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        try:
            return self._edge_indices()[(u, v)]
        except KeyError:
            raise GraphError(f"({u}, {v}) is not an edge") from None

    def _edge_indices(self) -> dict[tuple[int, int], int]:
        """Each edge's index, built on first use: most graphs, such as
        enumerated class representatives, never look an edge up."""
        if self._edge_index is None:
            self._edge_index = dict(zip(self.edges, range(len(self.edges))))
        return self._edge_index

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

    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles as vertex triples u < v < w, aligned with
        triangle_edge_triples()."""
        e = self.edges
        return tuple((*e[uv], e[uw][1]) for uv, uw, _ in self.triangle_edge_triples())

    def triangle_edge_triples(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles u < v < w as edge-index triples (uv, uw, vw),
        built on first use."""
        if self._tri_cache is None:
            etris = []
            adj = self.adj
            at = self._edge_indices()
            for i, (u, v) in enumerate(self.edges):
                # keep w > v so each triangle is reported once
                common = adj[u] & adj[v] & -(2 << v)
                while common:
                    low = common & -common
                    w = low.bit_length() - 1
                    etris.append((i, at[(u, w)], at[(v, w)]))
                    common ^= low
            self._tri_cache = tuple(etris)
        return self._tri_cache

    # -- canonical form ---------------------------------------------------

    def canonical_form(self) -> bytes:
        """Isomorphism-invariant byte encoding; supported for n <= 10
        (CANONICAL_MAX_N).

        A one-row ``canonical_forms`` call, made once and kept on the
        graph, which is immutable; ``oracle.enumerate_graphs`` stores the
        form its batch computed on each representative. Equal for
        isomorphic graphs, distinct otherwise.
        """
        if self._form is None:
            self._form = canonical_forms([self.adj])[0]
        return self._form

    # -- serialization ----------------------------------------------------

    def to_graph6(self) -> str:
        """Headerless graph6 line (no trailing newline)."""
        # column v lists u = 0..v-1, first bit first: bit u of adj[v]. The
        # columns are packed least significant bit first, each byte written
        # once full; bit-reversed bytes are base64 in graph6's alphabet
        packed = bytearray()
        acc = bits = 0
        for v in range(1, self.n):
            acc |= (self.adj[v] & ((1 << v) - 1)) << bits
            bits += v
            full = bits >> 3
            packed += (acc & ((1 << 8 * full) - 1)).to_bytes(full, "little")
            acc >>= 8 * full
            bits &= 7
        packed.append(acc)  # the last bits, or a zero byte
        digits = (self.n * (self.n - 1) // 2 + 5) // 6
        text = base64.b64encode(packed.translate(_BIT_REVERSED))
        return _graph6_encode_n(self.n) + text[:digits].translate(_GRAPH6).decode()

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


def canonical_forms(adjs) -> list[bytes]:
    """Canonical forms of graphs given as rows of adjacency bitsets, all of
    one order n <= CANONICAL_MAX_N.

    Vertices are first partitioned by iterated neighbor-color refinement;
    the form is the minimum upper-triangle bitstring over all orderings
    that list the refinement classes in canonical order. Both steps run
    for a whole batch in numpy: ``_canonical_orders`` finds a minimizing
    ordering by a level search over every row at once, pruned by twin
    swaps. Rows are processed CANONICAL_BATCH at a time, which bounds the
    memory held.
    """
    import numpy as np

    rows = np.asarray(adjs, dtype=np.int64)
    if rows.size == 0:
        return [b"\x00"] * len(rows)
    n = rows.shape[1]
    if n > CANONICAL_MAX_N:
        raise GraphError(f"canonical_form supports n <= {CANONICAL_MAX_N}, got {n}")
    forms: list[bytes] = []
    for start in range(0, len(rows), CANONICAL_BATCH):
        batch = rows[start : start + CANONICAL_BATCH]
        forms += _packed_forms(batch, _canonical_orders(batch))
    return forms


def _canonical_orders(rows: np.ndarray) -> np.ndarray:
    """For each row of adjacency bitsets, a vertex order that lists the
    refinement classes in color order and gives the least form of all
    such orders.

    Position i of the form holds the chunk of the vertex placed there: its
    adjacency to the vertices placed before it, first placed first. The
    form compares as its sequence of chunks, so the least one is found a
    position at a time, for all rows at once. Each row keeps its tied
    states, the prefixes whose chunks so far are the row's least, and
    each position extends every state by every unplaced vertex, keeping
    the extensions whose key, the vertex's color and then its chunk, is
    the row's least. All states of a row have placed the same colors, so
    the least color is that of the class filling the position. Any state
    left after the last position gives a minimizing order. A vertex is
    not tried while one of its ``lower_twins`` is unplaced: that twin has
    the same color (swapping the two is an automorphism) and chunk, and
    the swap fixes the prefix and maps one extension's continuations onto
    the other's. A row whose refinement is discrete keeps one state.
    """
    import numpy as np

    count, n = rows.shape
    vertex = np.arange(n)
    adj = rows[:, :, None] >> vertex & 1
    twins = lower_twins(rows)
    # the tied states, in row order: their row, their order so far, their
    # unplaced vertex set and each vertex's key, its color above its chunk
    ids = np.arange(count)
    row = ids
    order = np.zeros((count, n), dtype=np.int64)
    unplaced = np.full(count, (1 << n) - 1)
    key = _refinement_colors(rows) << n
    for i in range(n):
        tried = unplaced[:, None] >> vertex & 1 == 1
        tried &= twins[row] & unplaced[:, None] == 0
        # keys stay below n << n + i, so untried vertices never tie
        value = np.where(tried, key, n << 2 * n)
        # every row keeps a state, so the groups that start at each row's
        # first state are the rows
        least = np.minimum.reduceat(value.min(axis=1), row.searchsorted(ids))
        state, v = np.nonzero(value == least[row, None])
        row = row[state]
        order = order[state]
        order[:, i] = v
        unplaced = unplaced[state] ^ 1 << v
        key = key[state] << 1 | adj[row, :, v]
    return order[row.searchsorted(ids)]


def lower_twins(rows: np.ndarray) -> np.ndarray:
    """For each row of adjacency bitsets and each vertex v, the bitset of
    the vertices u < v that agree with v off {u, v}: the u for which
    swapping u and v is an automorphism. Twinness is an equivalence
    relation, so v's lower twins are the members of its class below it."""
    import numpy as np

    n = rows.shape[1]
    pair = 1 << np.arange(n)
    twin = (rows[:, :, None] ^ rows[:, None, :]) & ~(pair | pair[:, None]) == 0
    return (twin & np.tri(n, k=-1, dtype=bool)) @ pair


def _refinement_colors(rows: np.ndarray) -> np.ndarray:
    """Stable neighbor-color refinement of each row of adjacency bitsets,
    canonically ranked at every round.

    A vertex's key is its color, then one digit per color class: the class
    size minus the vertex's neighbor count there. Vertices of one color
    share a degree, so the keys rank them as their sorted neighbor-color
    tuples would: more neighbors in a lower class sorts first. A digit's
    radix is its class size plus one, so keys stay below n * 2^n in size
    and int64 ranks them exactly far past CANONICAL_MAX_N. The class sizes
    add the same amount to every key of a row, so they are left out: a key
    is its color times the product of all radixes, minus the place values
    of its neighbors' colors. A row stops when a round splits no class or
    leaves every vertex its own class.
    """
    import numpy as np

    n = rows.shape[1]
    adj = rows[:, :, None] >> np.arange(n) & 1
    colors, nclasses = _row_ranks(adj.sum(axis=2))
    live = np.flatnonzero(nclasses < n)
    while len(live):
        old = colors[live]
        radix = (old[:, :, None] == np.arange(old.max() + 1)).sum(axis=1) + 1
        # span[:, j]: product of the radixes of classes j and after
        span = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1]
        place = np.take_along_axis(span // radix, old, axis=1)
        keys = old * span[:, :1] - (adj[live] @ place[:, :, None])[:, :, 0]
        colors[live], split = _row_ranks(keys)
        going = (split > nclasses[live]) & (split < n)
        live = live[going]
        nclasses[live] = split[going]
    return colors


def _row_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense rank of each key among the distinct keys of its row, and the
    number of distinct keys per row."""
    import numpy as np

    n = keys.shape[1]
    equal = keys[:, :, None] == keys[:, None, :]
    # a key counts at the first vertex that has it
    first = ~(equal & np.tri(n, k=-1, dtype=bool)).any(axis=2)
    below = keys[:, None, :] < keys[:, :, None]
    return (below & first[:, None, :]).sum(axis=2), first.sum(axis=1)


def _packed_forms(rows: np.ndarray, order: np.ndarray) -> list[bytes]:
    """The order n, then the columns of each row's adjacency matrix in the
    given vertex order above the diagonal, first bit first, right-aligned
    in whole bytes (at least one)."""
    import numpy as np

    count, n = rows.shape
    placed = np.take_along_axis(rows, order, axis=1)
    later, earlier = np.tril_indices(n, -1)
    nbits = len(later)
    pad = np.zeros((count, -nbits % 8 if nbits else 8), dtype=np.int64)
    bits = np.concatenate([pad, placed[:, later] >> order[:, earlier] & 1], axis=1)
    return [bytes([n]) + bytes(form) for form in np.packbits(bits, axis=1)]


# -- graph6 codec ----------------------------------------------------------

# graph6 digit d is character 63 + d and base64 digit d; base64 reads
# each byte most significant bit first, graph6's packed columns least first
_ALPHABET = "".join(map(chr, range(63, 127)))
_BASE64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = bytes.maketrans(_BASE64_ALPHABET, _ALPHABET.encode())
_BASE64 = bytes.maketrans(_ALPHABET.encode(), _BASE64_ALPHABET)
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# the vertex-count forms, one per number of leading "~"s: the largest n
# each holds, its "~"s and its digits, most significant first
_HEADERS = ((62, 0, 1), (258047, 1, 3), (68719476735, 2, 6))
# graph6 digits of the body decoded at a time: whole base64 quanta, and a
# line of any graph on up to 222 vertices in one chunk
_CHUNK_DIGITS = 1 << 12


def _graph6_encode_n(n: int) -> str:
    for top, tildes, width in _HEADERS:
        if n <= top:
            return "~" * tildes + "".join(
                chr((n >> 6 * i & 0x3F) + 63) for i in reversed(range(width))
            )
    raise GraphError(f"n={n} too large for graph6")


def _unpack(digits: str) -> bytes:
    """graph6 digits as bytes, 6 bits a digit, most significant first,
    and zero digits up to a whole base64 quantum."""
    padded = digits + "?" * (-len(digits) % 4)
    return base64.b64decode(padded.encode().translate(_BASE64))


def from_graph6(line: str) -> Graph:
    """Decode one headerless graph6 line."""
    text = line.rstrip("\r\n")
    if not text:
        raise Graph6Error("empty graph6 line", 0)
    if text.startswith(">>"):
        raise Graph6Error("graph6 header is not accepted", 0)
    rest = text.lstrip(_ALPHABET)
    if rest:
        raise Graph6Error(
            f"invalid graph6 character {rest[0]!r}", len(text) - len(rest)
        )
    tildes = 0 if text[0] != "~" else 2 if text[1:2] == "~" else 1
    _, _, width = _HEADERS[tildes]
    pos = tildes + width
    if len(text) < pos:
        raise Graph6Error(f"truncated {width}-byte vertex count", len(text))
    # the padding digits are the low bits of the unpacked count
    n = int.from_bytes(_unpack(text[tildes:pos]), "big") >> 6 * (-width % 4)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(text) - pos != need:
        raise Graph6Error(
            f"expected {need} adjacency bytes for n={n}, got {len(text) - pos}",
            min(len(text), pos + need),
        )
    # the body is walked _CHUNK_DIGITS digits at a time; a leading 1 keeps
    # a chunk's leading zero bits: bin() writes "0b1", then the chunk's
    # bits from bitstr[3]. Bit b of the body is pair (u, v) with b =
    # v(v-1)/2 + u; column v starts at bitstr[base], where base moves back
    # by a chunk's bits after each chunk, and bitstr[end] is the body's end
    adj = [0] * n
    v = 1
    base = 3
    end = 3 + nbits
    for start in range(pos, len(text), _CHUNK_DIGITS):
        digits = text[start : start + _CHUNK_DIGITS]
        bitstr = bin(int.from_bytes(b"\x01" + _unpack(digits), "big"))
        b = bitstr.find("1", 3, end)
        while b >= 0:
            while b >= base + v:
                base += v
                v += 1
            u = b - base
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            b = bitstr.find("1", b + 1, end)
        # trailing padding must be zero; only the last chunk holds any
        if "1" in bitstr[end:]:
            raise Graph6Error("nonzero padding bits", len(text) - 1)
        base -= 6 * len(digits)
        end -= 6 * len(digits)
    return Graph._from_rows(adj)


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
    if a < 0 or b < 0:
        raise GraphError(f"complete_bipartite needs sides >= 0, got {a} and {b}")
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
