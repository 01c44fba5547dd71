"""Backtracking search for bad 2-colorings with constraint propagation.

State is a partial edge assignment plus two incremental structures:

* per-triangle red counters — two red edges force the third blue, three
  red edges are a conflict;
* a union-find over blue edges with size tracking and rollback — a blue
  assignment that would grow a component to k vertices is a conflict, and
  after every union each unassigned edge between the new component and a
  component with k or more vertices together with it is forced red. Roots
  are kept flat: every vertex points at its root, so a find is one read,
  and a union or its undo relabels the smaller component's vertices.

Branching is deterministic: unassigned edge lying in the most triangles
first, red tried before blue, so certificates are byte-reproducible.
Presolve assigns the forced-blue edges (>= 2k-3 triangles) up front.
Max-red prunes a node by branch and bound when every unassigned edge red,
less one edge per triangle in a greedy packing of triangles that have no
blue edge and share no unassigned edge, cannot beat the best coloring kept.
One iterative driver serves find, count, max-red and the extension
enumeration behind saturation, so search depth is bounded by memory, not
by the interpreter's recursion limit. Count settles the last unassigned
edge's two leaves without assigning them (k >= 3, see ``_Engine._dfs``).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

from .colorings import (
    BLUE,
    RED,
    BadColoringCertificate,
    TwoColoring,
    forced_blue_edges,
)
from .graphs import Graph, GraphError

UNASSIGNED = -1

FOUND = "found"
NONE = "none"
EXHAUSTED = "budget-exhausted"
OK = "ok"

_BUDGET_CHECK_MASK = 0x3FF  # wall-clock checked every 1024 nodes

# bad colorings an extension enumeration visits before it stops; the
# non-edges it leaves open fall back to a search of their own
EXTEND_CAP = 256


class InconclusiveError(RuntimeError):
    """A verdict could not be computed within the search budget."""


class SearchBudget:
    """A node and wall-time account that every search handed it draws on.

    The clock starts when the budget is made, and each search is charged
    the nodes it used, so one budget bounds every search of a command, not
    each one. Running out is reported as a distinct outcome, never
    conflated with 'no solution exists'.
    """

    def __init__(self, max_nodes: int = 50_000_000, max_seconds: float = 900.0):
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes_left = max_nodes
        self.deadline = time.perf_counter() + max_seconds

    def ran_out(self, what: str, start: int) -> InconclusiveError:
        """The error for ``what``, naming the nodes drawn since ``start``
        were left."""
        return InconclusiveError(f"{what} after {start - self.nodes_left} nodes")


@dataclass
class SearchStats:
    """Work done by one search.

    ``nodes``: branching edges colored by choice; this is what the search
    is charged to its ``SearchBudget``. ``backtracks``: branch colors
    refuted at once by propagation, whatever the search mode, a blue branch
    that would merge two blue components into k or more vertices included.
    ``propagations``: edge colors forced, presolve included: blue by a
    triangle with two red edges, and component-forced red on an edge
    between two blue components with k or more vertices together.
    ``wall_time``: seconds from start to verdict, presolve included.
    """

    nodes: int = 0
    backtracks: int = 0
    propagations: int = 0
    wall_time: float = 0.0


@dataclass
class FindResult:
    status: str  # found | none | budget-exhausted
    certificate: BadColoringCertificate | None
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.status == FOUND


@dataclass
class CountResult:
    status: str  # ok | budget-exhausted
    count: int
    stats: SearchStats


@dataclass
class ExtendResult:
    """Bad colorings of G tried as extensions across its non-edges.

    ``certificate`` is the first coloring, the one find returns.
    ``extensions`` maps each non-edge uv some coloring extends across to
    that bad coloring of G+uv, colors in G+uv's edge order.
    ``complete`` means every bad coloring of G was tried, so G+uv has no
    bad coloring for a non-edge ``uv`` missing from ``extensions``; it is
    False when the budget ran out or the enumeration stopped at
    ``EXTEND_CAP`` colorings.
    """

    status: str  # found | none | budget-exhausted
    certificate: BadColoringCertificate | None
    extensions: dict[tuple[int, int], tuple[int, ...]]
    complete: bool
    stats: SearchStats


class _Budget(Exception):
    pass


class _Engine:
    def __init__(self, g: Graph, k: int, budget: SearchBudget | None):
        if k < 2:
            raise GraphError(f"k must be >= 2, got {k}")
        self.g = g
        self.k = k
        self.budget = SearchBudget() if budget is None else budget
        self.m = g.m
        self.eu = [e[0] for e in g.edges]
        self.ev = [e[1] for e in g.edges]
        self.tri_edges = g.triangle_edge_triples()
        self.tris_of: list[list[int]] = [[] for _ in range(self.m)]
        for t, (a, b, c) in enumerate(self.tri_edges):
            self.tris_of[a].append(t)
            self.tris_of[b].append(t)
            self.tris_of[c].append(t)
        # (edge, other end) for each edge at a vertex
        self.inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(g.edges):
            self.inc[u].append((i, v))
            self.inc[v].append((i, u))
        self.tri_red = [0] * len(self.tri_edges)
        self.color = [UNASSIGNED] * self.m
        self.parent = list(range(g.n))
        self.size = [1] * g.n
        self.members: list[list[int]] = [[v] for v in range(g.n)]
        self.color_trail: list[int] = []
        self.union_trail: list[tuple[int, int]] = []
        self.red_count = 0
        # static branch order: densest-in-triangles first, index breaks ties
        self.order = sorted(range(self.m), key=lambda e: (-len(self.tris_of[e]), e))
        self.stats = SearchStats()
        self.best: BadColoringCertificate | None = None
        self.best_red = -1
        self.count = 0
        self.cap = 0
        self.open: list[tuple[int, int]] = []
        self.extensions: dict[tuple[int, int], tuple[int, ...]] = {}
        self.capped = False

    # -- incremental state -------------------------------------------------

    def _assign(self, e0: int, c0: int) -> bool:
        """Assign and propagate; False on conflict (caller must roll back)."""
        stack = [(e0, c0)]
        color = self.color
        tri_red = self.tri_red
        tri_edges = self.tri_edges
        parent = self.parent
        size = self.size
        members = self.members
        k = self.k
        while stack:
            e, c = stack.pop()
            cur = color[e]
            if cur != UNASSIGNED:
                if cur != c:
                    return False
                continue
            color[e] = c
            self.color_trail.append(e)
            if c == RED:
                self.red_count += 1
                conflict = False
                # increment every counter before bailing out: undo always
                # decrements all triangles of a popped red edge
                for t in self.tris_of[e]:
                    r = tri_red[t] + 1
                    tri_red[t] = r
                    if r == 3:
                        conflict = True
                    elif r == 2 and not conflict:
                        a, b, cc = tri_edges[t]
                        if color[a] != RED:
                            third = a
                        elif color[b] != RED:
                            third = b
                        else:
                            third = cc
                        if color[third] == UNASSIGNED:
                            stack.append((third, BLUE))
                            self.stats.propagations += 1
                if conflict:
                    return False
            else:
                ru = parent[self.eu[e]]
                rv = parent[self.ev[e]]
                if ru != rv:
                    su = size[ru]
                    sv = size[rv]
                    s = su + sv
                    if s >= k:
                        return False
                    if su < sv:
                        ru, rv = rv, ru
                    moved = members[rv]
                    for x in moved:
                        parent[x] = ru
                    size[ru] = s
                    joined = members[ru]
                    joined.extend(moved)
                    self.union_trail.append((rv, ru))
                    # edges to a component with >= k - s vertices must be red
                    need = k - s
                    for x in joined:
                        for f, y in self.inc[x]:
                            if color[f] == UNASSIGNED:
                                ry = parent[y]
                                if ry != ru and size[ry] >= need:
                                    stack.append((f, RED))
                                    self.stats.propagations += 1
        return True

    def _mark(self) -> tuple[int, int]:
        return (len(self.color_trail), len(self.union_trail))

    def _undo_to(self, mark: tuple[int, int]) -> None:
        ct, ut = mark
        union_trail = self.union_trail
        parent = self.parent
        size = self.size
        members = self.members
        while len(union_trail) > ut:
            small, big = union_trail.pop()
            for x in members[small]:
                parent[x] = small
            ssz = size[small]
            size[big] -= ssz
            del members[big][-ssz:]
        color_trail = self.color_trail
        color = self.color
        tri_red = self.tri_red
        while len(color_trail) > ct:
            e = color_trail.pop()
            if color[e] == RED:
                self.red_count -= 1
                for t in self.tris_of[e]:
                    tri_red[t] -= 1
            color[e] = UNASSIGNED

    # -- search driver -------------------------------------------------------

    def _presolve(self) -> bool:
        for e in forced_blue_edges(self.g, self.k).edges:
            if not self._assign(e, BLUE):
                return False
        return True

    def _certificate(self) -> BadColoringCertificate:
        sizes = sorted(
            (self.size[v] for v in range(self.g.n) if self.parent[v] == v),
            reverse=True,
        )
        return BadColoringCertificate(TwoColoring(self.color), tuple(sizes))

    # leaf actions: called on each complete bad coloring, True stops the search

    def keep_first(self) -> bool:
        self.best = self._certificate()
        return True

    def tally(self) -> bool:
        self.count += 1
        return self.count >= self.cap

    def keep_reddest(self) -> bool:
        if self.red_count > self.best_red:
            self.best_red = self.red_count
            self.best = self._certificate()
        return False

    def extend(self) -> bool:
        """Close every open non-edge this coloring extends across: uv can
        be red when u and v have no red common neighbour, and blue when
        they share a blue component or their two components together have
        at most k-1 vertices."""
        if self.best is None:
            self.best = self._certificate()
        self.count += 1
        color = self.color
        radj = [0] * self.g.n
        for e in range(self.m):
            if color[e] == RED:
                u = self.eu[e]
                v = self.ev[e]
                radj[u] |= 1 << v
                radj[v] |= 1 << u
        parent = self.parent
        size = self.size
        still = []
        snapshot = None
        for u, v in self.open:
            if not radj[u] & radj[v]:
                c = RED
            else:
                ru = parent[u]
                rv = parent[v]
                if ru != rv and size[ru] + size[rv] >= self.k:
                    still.append((u, v))
                    continue
                c = BLUE
            if snapshot is None:
                snapshot = tuple(color)
            i = bisect_left(self.g.edges, (u, v))  # uv's index in G+uv
            self.extensions[(u, v)] = snapshot[:i] + (c,) + snapshot[i:]
        self.open = still
        self.capped = bool(still) and self.count >= EXTEND_CAP
        return not still or self.capped

    def _cannot_beat_best(self) -> bool:
        """True when no bad coloring below this node has more red edges
        than the best one kept.

        Every unassigned edge red is the first bound. Past it, a triangle
        with no blue edge cannot end all red, so one of its unassigned
        edges ends blue; greedily picked triangles that share no unassigned
        edge each cost a distinct edge. At a propagation fixpoint such a
        triangle has at most one red edge.
        """
        best = self.best_red
        bound = self.red_count + self.m - len(self.color_trail)
        if bound <= best:
            return True
        if best < 0:
            return False
        color = self.color
        used = bytearray(self.m)
        for a, b, c in self.tri_edges:
            ca = color[a]
            cb = color[b]
            cc = color[c]
            # RED 0, BLUE 1, UNASSIGNED -1: the sum is at most -2 exactly
            # when no edge is blue and at least two are unassigned
            if ca + cb + cc > -2 or used[a] or used[b] or used[c]:
                continue
            # red edges stay unmarked: a triangle may share one
            used[a] = ca == UNASSIGNED
            used[b] = cb == UNASSIGNED
            used[c] = cc == UNASSIGNED
            bound -= 1
            if bound <= best:
                return True
        return False

    def _dfs(self, leaf) -> None:
        """Depth-first search over the static branch order.

        Each frame holds a branching edge, how many of its colors (red,
        then blue) were tried and the trail mark to undo to. Under max-red,
        a node that cannot beat the best red count so far is pruned (see
        ``_cannot_beat_best``). A count node with one edge left counts its
        two leaves without assigning them: at a propagation fixpoint with
        k >= 3, red closes no red triangle (two red edges would have forced
        it blue) and blue joins no components of k or more vertices
        together (such an edge is forced red), and neither color forces
        anything.
        """
        m = self.m
        order = self.order
        color = self.color
        color_trail = self.color_trail
        union_trail = self.union_trail
        stats = self.stats
        budget = self.budget
        bound = leaf == self.keep_reddest
        in_place = leaf == self.tally and self.k >= 3
        stack: list[list] = []
        start = 0
        while True:
            if not (bound and self._cannot_beat_best()):
                i = start
                last = in_place and len(color_trail) == m - 1
                if not last:
                    while i < m and color[order[i]] != UNASSIGNED:
                        i += 1
                if i == m:
                    if leaf():
                        return
                else:
                    if stats.nodes >= budget.nodes_left:
                        raise _Budget()
                    stats.nodes += 1
                    if (
                        stats.nodes & _BUDGET_CHECK_MASK == 0
                        and time.perf_counter() > budget.deadline
                    ):
                        raise _Budget()
                    if last:
                        self.count = min(self.count + 2, self.cap)
                        if self.count >= self.cap:
                            return
                    else:
                        mark = (len(color_trail), len(union_trail))
                        stack.append([i, order[i], 0, mark])
            while stack:
                frame = stack[-1]
                i, e, tried, mark = frame
                if tried:
                    self._undo_to(mark)
                if tried == 2:
                    stack.pop()
                    continue
                frame[2] = tried + 1
                if self._assign(e, BLUE if tried else RED):
                    start = i + 1
                    break
                stats.backtracks += 1
            else:
                return

    def run(self, leaf) -> str:
        """Presolve, then search: EXHAUSTED when the budget ran out first,
        else FOUND or NONE by whether a leaf kept a coloring. The nodes
        searched are charged to the budget."""
        start = time.perf_counter()
        try:
            if start >= self.budget.deadline:
                raise _Budget()
            if self._presolve():
                self._dfs(leaf)
        except _Budget:
            return EXHAUSTED
        finally:
            self.stats.wall_time = time.perf_counter() - start
            self.budget.nodes_left -= self.stats.nodes
        return NONE if self.best is None else FOUND


def find_bad_coloring(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> FindResult:
    """Find any bad coloring, or prove none exists (exhaustive search)."""
    engine = _Engine(g, k, budget)
    status = engine.run(engine.keep_first)
    return FindResult(status, engine.best, engine.stats)


def count_bad_colorings(
    g: Graph, k: int, cap: int = 1 << 62, budget: SearchBudget | None = None
) -> CountResult:
    """Exact number of bad colorings, saturating at ``cap``.

    Counts labeled colorings: no quotient by graph symmetry.
    """
    if cap < 1:
        raise GraphError(f"cap must be >= 1, got {cap}")
    engine = _Engine(g, k, budget)
    engine.cap = cap
    status = EXHAUSTED if engine.run(engine.tally) == EXHAUSTED else OK
    return CountResult(status, engine.count, engine.stats)


def find_max_red_bad_coloring(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> FindResult:
    """Among all bad colorings, one with the maximum number of red edges.

    When the budget runs out, the best coloring so far rides along, but
    its optimality is not claimed.
    """
    engine = _Engine(g, k, budget)
    status = engine.run(engine.keep_reddest)
    return FindResult(status, engine.best, engine.stats)


def extend_bad_colorings(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> ExtendResult:
    """Enumerate bad colorings of g and try each across every non-edge.

    Stops once every non-edge has an extension, or after ``EXTEND_CAP``
    colorings.
    """
    engine = _Engine(g, k, budget)
    engine.open = list(g.non_edges())
    status = engine.run(engine.extend)
    return ExtendResult(
        status,
        engine.best,
        engine.extensions,
        status != EXHAUSTED and not engine.capped,
        engine.stats,
    )
