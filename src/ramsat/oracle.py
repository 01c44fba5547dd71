"""Independent ground truth: exhaustive enumeration and full coloring scans.

Everything here is deliberately brute force. The coloring scan tests all
2^m colorings, bitsliced: coloring ``x`` (bit i set means edge i is red)
is bit ``x % 64`` of uint64 word ``x // 64``, so each edge's red variable
is one word per 64 colorings and every triangle or k-vertex subtree clause
is a handful of word-wide ANDs and ORs. It never consults the search
engine, so engine results can be checked against it. Graph enumeration is
orderly generation with canonical-form rejection, capped at 8 vertices;
larger orders come in through external graph6 streams.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .colorings import enumerate_subtrees
from .graphs import Graph, GraphError
from .saturation import is_kt_saturated
from .search import (
    DEFAULT_BUDGET,
    EXHAUSTED,
    FOUND,
    BudgetPool,
    InconclusiveError,
    SearchBudget,
)

MAX_ENUM_N = 8
MAX_SCAN_EDGES = 24
MAX_SAT_N = 7
MAX_RAMSEY_K = 5


@functools.lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic graphs on n vertices, one representative per
    class, sorted by canonical form."""
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if n > MAX_ENUM_N:
        raise GraphError(
            f"built-in enumeration caps at n <= {MAX_ENUM_N}; use an external"
            " graph6 stream for larger orders"
        )
    if n == 0:
        return (Graph(0),)
    seen: dict[bytes, Graph] = {}
    for g in enumerate_graphs(n - 1):
        base_edges = g.edges
        for subset in range(1 << (n - 1)):
            edges = base_edges + tuple(
                (u, n - 1) for u in range(n - 1) if subset >> u & 1
            )
            h = Graph(n, edges)
            key = h.canonical_form()
            if key not in seen:
                seen[key] = h
    return tuple(g for _, g in sorted(seen.items()))


class BruteForceResult(NamedTuple):
    exists: bool
    count: int


# red variable of edge i < 6 inside every word: bit b is set iff b >> i & 1
_LOW_EDGE_WORDS = tuple(
    np.uint64(sum(1 << b for b in range(64) if b >> i & 1)) for i in range(6)
)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _violation_words(g: Graph, k: int) -> np.ndarray:
    """Bitsliced violation flags over all 2^m colorings: bit b of word w is
    set iff coloring 64w + b is not bad (or, when m < 6, lies past 2^m)."""
    m = g.m
    words = np.arange(1 << max(0, m - 6), dtype=np.uint64)
    red = list(_LOW_EDGE_WORDS[: min(m, 6)])
    for i in range(6, m):
        red.append((words >> np.uint64(i - 6) & np.uint64(1)) * _ALL_ONES)
    viol = np.zeros(len(words), dtype=np.uint64)
    if m < 6:
        viol |= _ALL_ONES << np.uint64(1 << m)
    for a, b, c in g.triangle_edge_triples():
        viol |= red[a] & red[b] & red[c]
    for pick in enumerate_subtrees(g, k):
        viol |= ~functools.reduce(operator.or_, (red[i] for i in pick))
    return viol


def brute_force_bad_colorings(g: Graph, k: int) -> np.ndarray:
    """Red-edge bitmasks of every bad coloring, ascending."""
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    if g.m > MAX_SCAN_EDGES:
        raise GraphError(
            f"full scan caps at m <= {MAX_SCAN_EDGES} edges, got {g.m}"
        )
    if g.m == 0:
        # the empty coloring is bad: no red triangle, all blue components trivial
        return np.zeros(1, dtype=np.uint32)
    good = ~_violation_words(g, k)
    bits = np.unpackbits(good.astype("<u8").view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).astype(np.uint32)


def brute_force_bad_coloring(g: Graph, k: int) -> BruteForceResult:
    """Authoritative existence and exact count by scanning all 2^m colorings."""
    good = brute_force_bad_colorings(g, k)
    return BruteForceResult(len(good) > 0, int(len(good)))


@dataclass(frozen=True)
class SatResult:
    """Minimum edge count over all saturated graphs on n vertices."""

    n: int
    k: int
    min_edges: int | None
    extremal: tuple[bytes, ...]  # canonical forms achieving the minimum
    extremal_graph6: tuple[str, ...]
    graphs_scanned: int


def _oracle_rmin_saturated(g: Graph, k: int) -> bool:
    if not brute_force_bad_coloring(g, k).exists:
        return False
    for u, v in g.non_edges():
        if brute_force_bad_coloring(g.with_edge(u, v), k).exists:
            return False
    return True


def compute_sat(n: int, k: int) -> SatResult:
    """Exact saturation number at tiny n by scanning every isomorphism class
    with the brute-force coloring oracle."""
    if not 0 <= n <= MAX_SAT_N:
        raise GraphError(f"compute_sat caps at n <= {MAX_SAT_N}, got {n}")
    if k < 2:
        raise GraphError(f"k must be >= 2, got {k}")
    scanned = 0
    best: int | None = None
    extremal: list[tuple[bytes, str]] = []
    for g in enumerate_graphs(n):
        scanned += 1
        if not _oracle_rmin_saturated(g, k):
            continue
        if best is None or g.m < best:
            best = g.m
            extremal = [(g.canonical_form(), g.to_graph6())]
        elif g.m == best:
            extremal.append((g.canonical_form(), g.to_graph6()))
    extremal.sort()
    return SatResult(
        n,
        k,
        best,
        tuple(form for form, _ in extremal),
        tuple(g6 for _, g6 in extremal),
        scanned,
    )


def family_ramsey_number(k: int, budget: SearchBudget = DEFAULT_BUDGET) -> int:
    """Least n such that every coloring of K_n has a red triangle or a blue
    k-vertex tree.

    Uses the full scan while it fits, the pruned engine beyond; the value is
    reached quickly because the large complete graphs collapse under the
    forced-blue presolve. All engine searches share ``budget``.
    """
    if not 2 <= k <= MAX_RAMSEY_K:
        raise GraphError(f"family_ramsey_number supports 2 <= k <= {MAX_RAMSEY_K}")
    pool = BudgetPool(budget)
    n = 1
    while True:
        g = Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))
        if g.m <= MAX_SCAN_EDGES:
            exists = brute_force_bad_coloring(g, k).exists
        else:
            res = pool.find_bad_coloring(g, k)
            if res.status == EXHAUSTED:
                raise InconclusiveError(f"search on K_{n} exhausted its budget")
            exists = res.status == FOUND
        if not exists:
            return n
        n += 1


def scan_k3_saturated(n: int, delta: int) -> tuple[tuple[Graph, int], ...]:
    """All K3-saturated graphs on n vertices with the given minimum degree,
    sorted by edge count (canonical form breaks ties)."""
    if n > MAX_ENUM_N:
        raise GraphError(f"scan caps at n <= {MAX_ENUM_N}, got {n}")
    found = []
    for g in enumerate_graphs(n):
        if g.min_degree() == delta and is_kt_saturated(g, 3):
            found.append((g.m, g.canonical_form(), g))
    found.sort(key=lambda item: (item[0], item[1]))
    return tuple((g, m) for m, _, g in found)
