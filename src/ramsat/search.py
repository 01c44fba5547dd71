"""Backtracking search for bad 2-colorings with constraint propagation.

State is a partial edge assignment plus two incremental structures:

* per-triangle red counters — two red edges force the third blue, three
  red edges are a conflict;
* a union-find over blue edges with size tracking and rollback — a blue
  assignment that would grow a component to k vertices is a conflict, and
  once a component reaches the k-1 cap every unassigned edge leaving it
  is forced red.

Branching is deterministic: unassigned edge lying in the most triangles
first, red tried before blue, so certificates are byte-reproducible.
Presolve assigns the forced-blue edges (>= 2k-3 triangles) up front.
One iterative driver serves find, count, max-red and the extension
enumeration behind saturation, so search depth is bounded by memory, not
by the interpreter's recursion limit.
"""

from __future__ import annotations

import time
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


@dataclass(frozen=True)
class SearchBudget:
    """Explicit node and wall-time caps; exceeding either is reported as a
    distinct outcome, never conflated with 'no solution exists'."""

    max_nodes: int = 50_000_000
    max_seconds: float = 900.0


DEFAULT_BUDGET = SearchBudget()


@dataclass
class SearchStats:
    """Work done by one search.

    ``nodes``: branching edges colored by choice; this is what
    ``SearchBudget.max_nodes`` caps. ``backtracks``: branch colors refuted
    at once by propagation, whatever the search mode. ``propagations``:
    edge colors forced by a triangle with two red edges or by a blue
    component at the k-1 cap, presolve included. ``wall_time``: seconds
    from start to verdict, presolve included.
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
    ``extensions`` maps each non-edge some coloring extends across to that
    coloring (colors in G's edge order) and the color the non-edge takes.
    ``complete`` means every bad coloring of G was tried, so G+uv has no
    bad coloring for a non-edge ``uv`` missing from ``extensions``; it is
    False when the budget ran out or the enumeration stopped at
    ``EXTEND_CAP`` colorings.
    """

    status: str  # found | none | budget-exhausted
    certificate: BadColoringCertificate | None
    extensions: dict[tuple[int, int], tuple[tuple[int, ...], int]]
    complete: bool
    stats: SearchStats


class _Budget(Exception):
    pass


class _Engine:
    def __init__(self, g: Graph, k: int, budget: SearchBudget):
        self.g = g
        self.k = k
        self.budget = budget
        self.m = g.m
        self.eu = [e[0] for e in g.edges]
        self.ev = [e[1] for e in g.edges]
        self.tri_edges = g.triangle_edge_triples()
        self.tris_of: list[list[int]] = [[] for _ in range(self.m)]
        for t, (a, b, c) in enumerate(self.tri_edges):
            self.tris_of[a].append(t)
            self.tris_of[b].append(t)
            self.tris_of[c].append(t)
        self.inc: list[list[int]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(g.edges):
            self.inc[u].append(i)
            self.inc[v].append(i)
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
        self._start = 0.0
        self.best: BadColoringCertificate | None = None
        self.best_red = -1
        self.count = 0
        self.cap = 0
        self.open: list[tuple[int, int]] = []
        self.extensions: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
        self.capped = False

    # -- incremental state -------------------------------------------------

    def _find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            v = parent[v]
        return v

    def _assign(self, e0: int, c0: int) -> bool:
        """Assign and propagate; False on conflict (caller must roll back)."""
        stack = [(e0, c0)]
        color = self.color
        tri_red = self.tri_red
        tri_edges = self.tri_edges
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
                u = self.eu[e]
                v = self.ev[e]
                ru = self._find(u)
                rv = self._find(v)
                if ru != rv:
                    su = self.size[ru]
                    sv = self.size[rv]
                    if su + sv >= k:
                        return False
                    if su < sv:
                        ru, rv = rv, ru
                    self.parent[rv] = ru
                    self.size[ru] = su + sv
                    self.members[ru].extend(self.members[rv])
                    self.union_trail.append((rv, ru))
                    if su + sv == k - 1:
                        # component is full: edges leaving it must be red
                        for x in self.members[ru]:
                            for f in self.inc[x]:
                                if color[f] == UNASSIGNED:
                                    y = self.ev[f] if self.eu[f] == x else self.eu[f]
                                    if self._find(y) != ru:
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
            parent[small] = small
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

    def _tick(self) -> None:
        if self.stats.nodes >= self.budget.max_nodes:
            raise _Budget()
        self.stats.nodes += 1
        if self.stats.nodes & _BUDGET_CHECK_MASK == 0:
            if time.perf_counter() - self._start > self.budget.max_seconds:
                raise _Budget()

    def _next_unassigned(self, start: int) -> int:
        order = self.order
        color = self.color
        i = start
        while i < self.m and color[order[i]] != UNASSIGNED:
            i += 1
        return i

    def _branch_colors(self, e: int):
        u = self.eu[e]
        v = self.ev[e]
        ru = self._find(u)
        rv = self._find(v)
        if ru != rv and self.size[ru] + self.size[rv] >= self.k:
            return (RED,)
        return (RED, BLUE)

    def _presolve(self) -> bool:
        forced = forced_blue_edges(self.g, self.k)
        for ref in forced.edges:
            if not self._assign(ref.index, BLUE):
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
        size = self.size
        still = []
        snapshot = None
        for u, v in self.open:
            if not radj[u] & radj[v]:
                c = RED
            else:
                ru = self._find(u)
                rv = self._find(v)
                if ru != rv and size[ru] + size[rv] >= self.k:
                    still.append((u, v))
                    continue
                c = BLUE
            if snapshot is None:
                snapshot = tuple(color)
            self.extensions[(u, v)] = (snapshot, c)
        self.open = still
        self.capped = bool(still) and self.count >= EXTEND_CAP
        return not still or self.capped

    def _dfs(self, leaf, bound: bool) -> None:
        """Depth-first search over the static branch order.

        Each frame holds a branching edge, its colors, how many of them
        were tried and the trail mark to undo to. With ``bound``, a node
        that cannot beat the best red count so far (every unassigned edge
        red at best) is pruned.
        """
        stack: list[list] = []
        start = 0
        while True:
            unassigned = self.m - len(self.color_trail)
            if not (bound and self.red_count + unassigned <= self.best_red):
                i = self._next_unassigned(start)
                if i == self.m:
                    if leaf():
                        return
                else:
                    e = self.order[i]
                    self._tick()
                    stack.append([i, e, self._branch_colors(e), 0, self._mark()])
            while stack:
                frame = stack[-1]
                i, e, colors, tried, mark = frame
                if tried:
                    self._undo_to(mark)
                if tried == len(colors):
                    stack.pop()
                    continue
                frame[3] = tried + 1
                if self._assign(e, colors[tried]):
                    start = i + 1
                    break
                self.stats.backtracks += 1
            else:
                return

    def run(self, leaf, bound: bool = False) -> str:
        """Presolve, then search: EXHAUSTED when the budget ran out first,
        else FOUND or NONE by whether a leaf kept a coloring."""
        self._start = time.perf_counter()
        try:
            if self.budget.max_seconds <= 0:
                raise _Budget()
            if self._presolve():
                self._dfs(leaf, bound)
        except _Budget:
            return EXHAUSTED
        finally:
            self.stats.wall_time = time.perf_counter() - self._start
        return NONE if self.best is None else FOUND


def _validate(g: Graph, k: int) -> None:
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")


def find_bad_coloring(
    g: Graph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> FindResult:
    """Find any bad coloring, or prove none exists (exhaustive search)."""
    _validate(g, k)
    engine = _Engine(g, k, budget)
    status = engine.run(engine.keep_first)
    return FindResult(status, engine.best, engine.stats)


def count_bad_colorings(
    g: Graph, k: int, cap: int = 1 << 62, budget: SearchBudget = DEFAULT_BUDGET
) -> CountResult:
    """Exact number of bad colorings, saturating at ``cap``.

    Counts labeled colorings: no quotient by graph symmetry.
    """
    _validate(g, k)
    if cap < 1:
        raise GraphError(f"cap must be >= 1, got {cap}")
    engine = _Engine(g, k, budget)
    engine.cap = cap
    status = EXHAUSTED if engine.run(engine.tally) == EXHAUSTED else OK
    return CountResult(status, engine.count, engine.stats)


def find_max_red_bad_coloring(
    g: Graph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> FindResult:
    """Among all bad colorings, one with the maximum number of red edges.

    When the budget runs out, the best coloring so far rides along, but
    its optimality is not claimed.
    """
    _validate(g, k)
    engine = _Engine(g, k, budget)
    status = engine.run(engine.keep_reddest, bound=True)
    return FindResult(status, engine.best, engine.stats)


def extend_bad_colorings(
    g: Graph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> ExtendResult:
    """Enumerate bad colorings of g and try each across every non-edge.

    Stops once every non-edge has an extension, or after ``EXTEND_CAP``
    colorings.
    """
    _validate(g, k)
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


class BudgetPool:
    """One node pool and one deadline for all the searches of one call.

    Each search gets what the searches before it left, so a budget bounds
    a whole saturation, minimality or Ramsey check, not each sub-search.
    """

    def __init__(self, budget: SearchBudget):
        self.nodes_left = budget.max_nodes
        self.deadline = time.perf_counter() + budget.max_seconds

    def _left(self) -> SearchBudget:
        return SearchBudget(self.nodes_left, self.deadline - time.perf_counter())

    def find_bad_coloring(self, g: Graph, k: int) -> FindResult:
        res = find_bad_coloring(g, k, self._left())
        self.nodes_left -= res.stats.nodes
        return res

    def extend_bad_colorings(self, g: Graph, k: int) -> ExtendResult:
        res = extend_bad_colorings(g, k, self._left())
        self.nodes_left -= res.stats.nodes
        return res
