"""Backtracking search for bad 2-colorings with constraint propagation.

State is a partial edge assignment plus one incremental structure, and
two rules propagate:

* two red edges force the third blue — read from the edge colors: a new
  red edge checks the other two edges of each of its triangles, so no
  triangle ends a successful assignment with three red edges, and a
  backtrack only resets colors;
* a union-find over blue edges with size tracking and rollback — a blue
  assignment that would grow a component to k vertices is a conflict, and
  each unassigned edge between a component and another with k or more
  vertices together with it is forced red. Roots are kept flat: every
  vertex points at its root, so a find is one read, and a union or its
  undo relabels the smaller component's vertices.

Propagation queues forced colors and applies them first. A component that
grew is scanned for its forced-red edges only once no forced color is
queued, at the size it has then, so a component that grows twice in one
cascade is scanned once, and a cascade that ends in a conflict skips the
scans it had left. Both rules are monotone, so whether a cascade ends at
a fixpoint or in a conflict, and so the search tree, does not depend on
this order.

Branching is deterministic: unassigned edge lying in the most triangles
first, red tried before blue, so certificates are byte-reproducible.
Presolve assigns the forced-blue edges (>= 2k-3 triangles) up front.
Max-red prunes a node by branch and bound when every unassigned edge red,
less one edge per triangle in a greedy packing of triangles that have no
blue edge and share no unassigned edge, cannot beat the best coloring kept.
One iterative driver serves enumeration (and find, which stops at the
first coloring), count and max-red, so search depth is bounded by memory,
not by the interpreter's recursion limit. Count settles the last unassigned
edge's two leaves without assigning them (k >= 3, see ``_Engine._dfs``).
"""

from __future__ import annotations

import time

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

# a SearchBudget's defaults, and so the CLI's --max-nodes and --max-seconds
DEFAULT_MAX_NODES = 50_000_000
DEFAULT_MAX_SECONDS = 900.0


class InconclusiveError(RuntimeError):
    """A verdict could not be computed within the search budget."""


class SearchBudget:
    """A node and wall-time account that every search handed it draws on.

    The clock starts when the budget is made, and each search is charged
    the nodes it used, so one budget bounds every search of a command, not
    each one. Running out is reported as a distinct outcome, never
    conflated with 'no solution exists'.
    """

    def __init__(
        self, max_nodes: int = DEFAULT_MAX_NODES, max_seconds: float = DEFAULT_MAX_SECONDS
    ):
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes_left = max_nodes
        self.deadline = time.perf_counter() + max_seconds

    def ran_out(self, what: str, start: int) -> InconclusiveError:
        """The error for ``what``, naming the nodes drawn since ``start``
        were left."""
        return InconclusiveError(f"{what} after {start - self.nodes_left} nodes")


class _Record:
    """``repr`` and ``==`` over ``_fields``, as a dataclass has them, for a
    record a search mutates or that must not be a tuple. A dataclass would
    load ``dataclasses``, and with it ``inspect``, into every process."""

    __slots__ = ()  # __eq__ with no __hash__: unhashable, as the records are mutable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        fields = self._fields
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]


class SearchStats(_Record):
    """Work done by one search.

    ``nodes``: branching edges colored by choice; this is what the search
    is charged to its ``SearchBudget``. ``backtracks``: branch colors
    refuted at once by propagation, whatever the search mode, a blue branch
    that would merge two blue components into k or more vertices included.
    ``propagations``: forced edge colors queued, presolve included: blue
    by a triangle with two red edges, and component-forced red on an edge
    between two blue components with k or more vertices together. A
    cascade that ends in a conflict stops queuing, so the order of
    propagation work moves this count, never the tree.
    ``wall_time``: seconds from start to verdict, presolve included.
    """

    nodes: int
    backtracks: int
    propagations: int
    wall_time: float
    __slots__ = _fields = ("nodes", "backtracks", "propagations", "wall_time")

    def __init__(self, nodes=0, backtracks=0, propagations=0, wall_time=0.0):
        self.nodes, self.backtracks, self.propagations = nodes, backtracks, propagations
        self.wall_time = wall_time


class FindResult(_Record):
    status: str  # found | none | budget-exhausted
    certificate: BadColoringCertificate | None
    stats: SearchStats
    __slots__ = _fields = ("status", "certificate", "stats")

    def __init__(self, status, certificate, stats):
        self.status, self.certificate, self.stats = status, certificate, stats

    @property
    def found(self) -> bool:
        return self.status == FOUND


class CountResult(_Record):
    status: str  # ok | budget-exhausted
    count: int
    stats: SearchStats
    __slots__ = _fields = ("status", "count", "stats")

    def __init__(self, status, count, stats):
        self.status, self.count, self.stats = status, count, stats


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
        self.tri_edges = g.triangle_edge_triples()
        # the other two edges of each of e's triangles, in triangle order
        self.tri_pairs: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for a, b, c in self.tri_edges:
            self.tri_pairs[a].append((b, c))
            self.tri_pairs[b].append((a, c))
            self.tri_pairs[c].append((a, b))
        # (edge, other end) for each edge at a vertex
        self.inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(g.edges):
            self.inc[u].append((i, v))
            self.inc[v].append((i, u))
        self.color = [UNASSIGNED] * self.m
        self.parent = list(range(g.n))
        self.size = [1] * g.n
        self.members: list[list[int]] = [[v] for v in range(g.n)]
        self.color_trail: list[int] = []
        self.union_trail: list[tuple[int, int]] = []
        # static branch order: densest-in-triangles first; the sort is
        # stable, so index breaks ties
        keys = [-len(pairs) for pairs in self.tri_pairs]
        self.order = sorted(range(self.m), key=keys.__getitem__)
        self.stats = SearchStats()
        self.best: BadColoringCertificate | None = None
        self.best_red = -1
        self.count = 0
        self.cap = 0

    # -- incremental state -------------------------------------------------

    def _assign(self, e0: int, c0: int) -> bool:
        """Assign and propagate to a fixpoint; False on conflict (caller
        must roll back).

        A blue union only notes its new root in ``grown``. Once no forced
        color is queued, one grown component is scanned for the edges it
        forces red (see the module docstring), skipping a root noted again
        or merged into another since: that root is noted too.

        Every queued blue is applied before the next queued red, and reds
        are queued only once both queues are empty, so an edge popped red
        while unassigned closes no red triangle, and none is looked for. A
        rule that queued reds mid-cascade would stay correct: the third
        edge's queued blue would fail when popped. Queued colors are
        counted in a local and added to ``stats.propagations`` on return.
        """
        blues = [e0] if c0 == BLUE else []
        reds = [] if c0 == BLUE else [e0]
        grown: list[int] = []
        color = self.color
        color_trail = self.color_trail
        tri_pairs = self.tri_pairs
        parent = self.parent
        size = self.size
        members = self.members
        edges = self.g.edges
        k = self.k
        queued = 0
        try:
            while True:
                while blues:
                    e = blues.pop()
                    cur = color[e]
                    if cur != UNASSIGNED:
                        if cur == RED:
                            return False
                        continue
                    color[e] = BLUE
                    color_trail.append(e)
                    u, v = edges[e]
                    ru = parent[u]
                    rv = parent[v]
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
                        members[ru].extend(moved)
                        self.union_trail.append((rv, ru))
                        grown.append(ru)
                if reds:
                    e = reds.pop()
                    cur = color[e]
                    if cur != UNASSIGNED:
                        if cur == BLUE:
                            return False
                        continue
                    color[e] = RED
                    color_trail.append(e)
                    for a, b in tri_pairs[e]:
                        ca = color[a]
                        # RED 0, UNASSIGNED -1: one red, one unassigned
                        if ca + color[b] == -1:
                            blues.append(a if ca == UNASSIGNED else b)
                            queued += 1
                    continue
                while grown:
                    ru = grown.pop()
                    if parent[ru] == ru and ru not in grown:
                        break
                else:
                    return True
                # edges to a component with >= k - size vertices must be red
                need = k - size[ru]
                for x in members[ru]:
                    for f, y in self.inc[x]:
                        if color[f] == UNASSIGNED:
                            ry = parent[y]
                            if ry != ru and size[ry] >= need:
                                reds.append(f)
                                queued += 1
        finally:
            self.stats.propagations += queued

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
        for e in color_trail[ct:]:
            color[e] = UNASSIGNED
        del color_trail[ct:]

    # -- search driver -------------------------------------------------------

    def _presolve(self) -> bool:
        for e in forced_blue_edges(self.g, self.k).edges:
            if not self._assign(e, BLUE):
                return False
        return True

    def _certificate(self) -> BadColoringCertificate:
        # roots are flat: the distinct parents are the roots
        sizes = sorted((self.size[r] for r in set(self.parent)), reverse=True)
        return BadColoringCertificate(TwoColoring(self.color), tuple(sizes))

    # leaf actions: called on each complete bad coloring, True stops the search

    def tally(self) -> bool:
        self.count += 1
        return self.count >= self.cap

    def keep_reddest(self) -> bool:
        red = self.color.count(RED)
        if red > self.best_red:
            self.best_red = red
            self.best = self._certificate()
        return False

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
        bound = self.color.count(RED) + self.m - len(self.color_trail)
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
        then blue) were tried and the trail mark to undo to. A frame with
        both colors tried is popped as it stands: the first ancestor with a
        color left undoes to its own, earlier mark. Under max-red,
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
                if tried == 2:
                    stack.pop()
                    continue
                if tried:
                    self._undo_to(mark)
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


def enumerate_bad_colorings(
    g: Graph, k: int, visitor, budget: SearchBudget | None = None
) -> FindResult:
    """Call ``visitor(colors, root, size)`` on each bad coloring, in search
    order, until it returns True.

    ``colors`` is the live edge-color list, ``root[v]`` is the root of v's
    blue component and ``size[r]`` is root r's vertex count; all three are
    valid only during the call. The certificate is the first coloring.
    """
    engine = _Engine(g, k, budget)

    def leaf() -> bool:
        if engine.best is None:
            engine.best = engine._certificate()
        return visitor(engine.color, engine.parent, engine.size)

    status = engine.run(leaf)
    return FindResult(status, engine.best, engine.stats)


def find_bad_coloring(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> FindResult:
    """Find any bad coloring, or prove none exists (exhaustive search)."""
    return enumerate_bad_colorings(g, k, lambda colors, root, size: True, budget)


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

