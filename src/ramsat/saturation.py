"""Saturation and minimality predicates, plus structure classifiers.

A graph is saturated for the pair (triangle, all k-vertex trees) when it
admits at least one bad 2-coloring but adding any non-edge destroys all of
them; it is Ramsey-minimal when it admits none but every single-edge
deletion restores one. Edge deletion suffices for minimality because
arrowing is monotone under subgraph inclusion and the blue targets all
carry edges.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import search
from .colorings import BLUE, RED, BadColoringCertificate, TwoColoring, make_certificate
from .graphs import Graph, GraphError, bits, component_masks, is_2_connected, is_kt_saturated
from .search import EXHAUSTED, FOUND, NONE, SearchBudget

SATURATED = "saturated"
NOT_SATURATED = "not-saturated"
INCONCLUSIVE = "inconclusive"


# -- saturation for (triangle, k-vertex trees) ---------------------------------

# bad colorings of G the enumeration visits before it stops; the non-edges
# it leaves open fall back to a search of their own
EXTEND_CAP = 256

# a bad coloring of G+uv as (coloring of G, uv's index in G+uv, uv's color)
Extension = tuple[tuple[int, ...], int, int]


# slots: one record per non-edge, so its build and reads are on the hot path
@dataclass(frozen=True, slots=True)
class NonEdgeOutcome:
    """A non-edge's verdict. When found, ``extension`` is the bad coloring
    of G+uv as an ``Extension``: a coloring of G, shared with the other
    non-edges it closes, uv's index in G+uv's edge order and uv's color."""

    pair: tuple[int, int]
    status: str  # found | none | budget-exhausted
    nodes: int
    extension: Extension | None = None

    @property
    def colors(self) -> tuple[int, ...] | None:
        """The bad coloring of G+uv, when found, built on each read."""
        if self.extension is None:
            return None
        colors, i, c = self.extension
        return colors[:i] + (c,) + colors[i:]


@dataclass
class SaturationReport:
    graph: Graph
    k: int
    status: str  # saturated | not-saturated | inconclusive
    base_certificate: BadColoringCertificate | None
    non_edge_outcomes: tuple[NonEdgeOutcome, ...]
    reason: str = ""

    @property
    def verdict(self) -> bool:
        return self.status == SATURATED

    @cached_property
    def failures(self) -> tuple[tuple[tuple[int, int], BadColoringCertificate], ...]:
        """Each found non-edge uv, in non-edge order, with its coloring of
        G+uv built and certified on the first read."""
        g, k = self.graph, self.k
        return tuple(
            (o.pair, make_certificate(g.with_edge(*o.pair), k, TwoColoring(o.colors)))
            for o in self.non_edge_outcomes
            if o.status == FOUND
        )

    def as_dict(self) -> dict:
        g = self.graph
        return {
            "n": g.n,
            "k": self.k,
            "status": self.status,
            "reason": self.reason,
            "base_certificate": (
                None
                if self.base_certificate is None
                else self.base_certificate.as_dict(g)
            ),
            "failures": [
                {
                    "non_edge": list(pair),
                    "certificate": cert.as_dict(g.with_edge(*pair)),
                }
                for pair, cert in self.failures
            ],
            "non_edges_checked": [
                {"non_edge": list(o.pair), "status": o.status, "nodes": o.nodes}
                for o in self.non_edge_outcomes
            ],
        }


def _extend_across(
    g: Graph, k: int, budget: SearchBudget
) -> tuple[search.FindResult, dict[tuple[int, int], Extension], bool]:
    """Enumerate g's bad colorings and close each non-edge one of them
    extends across: uv can be red when u and v have no red common
    neighbour, and blue when they share a blue component or their two
    components together have at most k-1 vertices. Stops once no non-edge
    is open, or after ``EXTEND_CAP`` colorings.

    Returns the enumeration's result, each closed non-edge's extension (a
    coloring tuple is shared by every non-edge it closes) and whether every
    bad coloring was tried, so that a non-edge left open has none.
    """
    open_pairs = list(g.non_edges())
    extensions: dict[tuple[int, int], Extension] = {}
    visits = 0

    def extend(colors, root, size) -> bool:
        nonlocal open_pairs, visits
        visits += 1
        radj = [0] * g.n
        for (u, v), c in zip(g.edges, colors):
            if c == RED:
                radj[u] |= 1 << v
                radj[v] |= 1 << u
        still = []
        snapshot = None
        for u, v in open_pairs:
            if not radj[u] & radj[v]:
                c = RED
            else:
                ru = root[u]
                rv = root[v]
                if ru != rv and size[ru] + size[rv] >= k:
                    still.append((u, v))
                    continue
                c = BLUE
            if snapshot is None:
                snapshot = tuple(colors)
            extensions[(u, v)] = (snapshot, bisect_left(g.edges, (u, v)), c)
        open_pairs = still
        return not still or visits >= EXTEND_CAP

    res = search.enumerate_bad_colorings(g, k, extend, budget)
    capped = open_pairs and visits >= EXTEND_CAP
    return res, extensions, res.status != EXHAUSTED and not capped


def is_rmin_saturated(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> SaturationReport:
    """Decide saturation; every verdict ships re-checkable evidence.

    A bad coloring of g+uv restricted to g is a bad coloring of g, so one
    enumeration of g's bad colorings (``_extend_across``) decides every
    non-edge. A non-edge still open when it stops at ``EXTEND_CAP``
    colorings gets a search of g+uv of its own; a non-edge's ``nodes``
    counts that search only, so it is 0 for one the enumeration settled. A
    failing non-edge keeps its bad coloring of g+uv as an ``Extension``, a
    fallback's too; ``failures`` builds and certifies it.

    A single surviving non-edge settles 'not saturated' even if other
    searches ran out of budget; 'inconclusive' is reported only when no
    counterexample was found and some search was cut short; its reason
    names that search and how many nodes the whole check drew. All
    searches draw on ``budget``, a fresh default one when None.
    """
    if budget is None:
        budget = SearchBudget()
    start = budget.nodes_left
    base, extensions, complete = _extend_across(g, k, budget)
    exhausted = ""
    if base.status == EXHAUSTED:
        what = "enumeration of G's bad colorings exhausted its budget"
        exhausted = str(budget.ran_out(what, start))
    outcomes = []
    for pair in g.non_edges() if base.certificate else ():
        nodes, extension = 0, extensions.get(pair)
        if extension is not None:
            status = FOUND
        elif complete:
            status = NONE
        elif base.status == EXHAUSTED:
            status = EXHAUSTED
        else:
            res = search.find_bad_coloring(g.with_edge(*pair), k, budget)
            status, nodes = res.status, res.stats.nodes
            if status == FOUND:
                colors = res.certificate.coloring.colors
                i = bisect_left(g.edges, pair)  # uv's index in G+uv
                extension = (colors[:i] + colors[i + 1 :], i, colors[i])
            if status == EXHAUSTED and not exhausted:
                what = f"search on G+({pair[0]},{pair[1]}) exhausted its budget"
                exhausted = str(budget.ran_out(what, start))
        outcomes.append(NonEdgeOutcome(pair, status, nodes, extension))
    failed = sum(o.status == FOUND for o in outcomes)
    if failed:
        status = NOT_SATURATED
        reason = f"{failed} non-edge(s) still admit a bad coloring"
    elif exhausted:
        status = INCONCLUSIVE
        reason = exhausted
    elif base.certificate is None:
        status = NOT_SATURATED
        reason = "graph admits no bad coloring"
    else:
        status = SATURATED
        reason = "every non-edge addition destroys all bad colorings"
    return SaturationReport(g, k, status, base.certificate, tuple(outcomes), reason)


def is_ramsey_minimal(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> bool:
    """True iff g admits no bad coloring but every g-e does.

    Raises InconclusiveError when a sub-search exhausts the budget that
    all of them draw on, a fresh default one when None; its reason names
    that sub-search and the nodes all of them drew.
    """
    if budget is None:
        budget = SearchBudget()
    start = budget.nodes_left
    base = search.find_bad_coloring(g, k, budget)
    if base.status == EXHAUSTED:
        raise budget.ran_out("base search exhausted its budget", start)
    if base.status == FOUND:
        return False
    for u, v in g.edges:
        res = search.find_bad_coloring(g.without_edge(u, v), k, budget)
        if res.status == EXHAUSTED:
            raise budget.ran_out(f"search on g - ({u},{v}) exhausted its budget", start)
        if res.status != FOUND:
            return False
    return True


# -- structure classifiers ------------------------------------------------------


@dataclass(frozen=True)
class StructureClass:
    """Classification of a triangle-saturated graph by minimum degree."""

    tag: str  # star | j | other
    y: int | None = None
    z: int | None = None
    set_a: tuple[int, ...] = ()
    set_b: tuple[int, ...] = ()
    set_c: tuple[int, ...] = ()

    @property
    def a(self) -> int:
        return len(self.set_a)

    @property
    def b(self) -> int:
        return len(self.set_b)

    @property
    def c(self) -> int:
        return len(self.set_c)


def classify_k3_saturated(g: Graph) -> StructureClass:
    """Star when the minimum degree is 1, the two-apex split when it is 2,
    'other' for minimum degree >= 3."""
    if not is_kt_saturated(g, 3):
        raise GraphError("classify_k3_saturated requires a K3-saturated graph")
    delta = g.min_degree()
    if delta <= 0:
        # K3-saturated graphs with an isolated vertex exist only at n <= 2
        return StructureClass("other") if g.n > 2 else StructureClass("star")
    if delta == 1:
        return StructureClass("star")
    if delta >= 3:
        return StructureClass("other")
    full = (1 << g.n) - 1
    for y, z in combinations(range(g.n), 2):
        if g.adj[y] >> z & 1:
            continue
        rest = full & ~(1 << y) & ~(1 << z)
        if (g.adj[y] | g.adj[z]) & rest == rest:
            masks = (
                g.adj[y] & g.adj[z],
                g.adj[y] & ~g.adj[z] & ~(1 << z),
                g.adj[z] & ~g.adj[y] & ~(1 << y),
            )
            _validate_j_split(g, *masks)
            return StructureClass("j", y, z, *(tuple(bits(m)) for m in masks))
    raise GraphError("no covering non-adjacent pair found; graph is not J-shaped")


def _validate_j_split(g: Graph, mask_a: int, mask_b: int, mask_c: int) -> None:
    ok = mask_a != 0 and ((mask_b == 0) == (mask_c == 0))
    for v in bits(mask_a):
        ok = ok and not g.adj[v] & (mask_a | mask_b | mask_c)
    for v in bits(mask_b):
        ok = ok and not g.adj[v] & mask_b and g.adj[v] & mask_c == mask_c
    for v in bits(mask_c):
        ok = ok and not g.adj[v] & mask_c
    if not ok:
        raise GraphError("covering pair does not induce a valid two-apex split")


def k3_saturated_edge_bound(g: Graph) -> int:
    """Degree-sum lower bound 2e >= max((d+1)n - d^2 - 1, (d+2)n - d(d+t) - 2)
    for K3-saturated graphs with minimum degree d >= 3; t is the least
    degree among neighbors of minimum-degree vertices."""
    if not is_kt_saturated(g, 3):
        raise GraphError("k3_saturated_edge_bound requires a K3-saturated graph")
    delta = g.min_degree()
    if delta < 3:
        raise GraphError(
            f"k3_saturated_edge_bound requires minimum degree >= 3, got {delta}"
        )
    n = g.n
    near_min = 0
    for v in range(n):
        if g.degree(v) == delta:
            near_min |= g.adj[v]
    t = min(g.degree(v) for v in bits(near_min))
    return max(
        (delta + 1) * n - delta * delta - 1,
        (delta + 2) * n - delta * (delta + t) - 2,
    )


# -- certificate structure checks ------------------------------------------------


@dataclass(frozen=True)
class CertificateStructureReport:
    """Pass/fail per structural clause; None marks a clause not evaluated."""

    small_blue_components: int
    small_count_ok: bool
    red_complete_ok: bool | None = None
    max_red_degree_ok: bool | None = None
    red_two_connected_ok: bool | None = None


def check_certificate_structure(
    g: Graph,
    k: int,
    cert: BadColoringCertificate,
    max_red: bool = False,
) -> CertificateStructureReport:
    """Check the structural consequences a bad coloring of a saturated graph
    must satisfy: at most two blue components smaller than k/2 (red-complete
    to each other when there are exactly two), and, for a coloring of
    maximum red size on n >= k+2 vertices, red max degree <= n-3 with a
    2-connected red subgraph."""
    if not cert.verify(g, k):
        raise GraphError("certificate does not verify for this graph and k")
    radj = cert.coloring.red_adjacency(g)
    blue = [a & ~r for a, r in zip(g.adj, radj)]
    # strict threshold: components on fewer than k/2 vertices
    small = [
        comp
        for comp in component_masks(blue, (1 << g.n) - 1)
        if 2 * comp.bit_count() < k
    ]
    complete_ok = degree_ok = two_conn_ok = None
    if len(small) == 2:
        d1, d2 = small
        complete_ok = all(radj[x] & d2 == d2 for x in bits(d1))
    if max_red and g.n >= k + 2:
        degree_ok = max(r.bit_count() for r in radj) <= g.n - 3
        two_conn_ok = is_2_connected(radj)
    return CertificateStructureReport(
        len(small), len(small) <= 2, complete_ok, degree_ok, two_conn_ok
    )
