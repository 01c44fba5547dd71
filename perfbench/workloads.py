"""The three workloads: their inputs, their operations and the checks.

A workload is a list of operations built from the seed. One round runs
every operation once, in order. Each operation has an untimed ``prepare``
that returns the call to time, and an untimed ``check`` of the call's
output that returns None or the reason the output is wrong. Calls look up
ramsat's functions through module attributes when they run, so the layer
trace sees them.
"""

from __future__ import annotations

import io
import json
import random
import sys
from math import comb
from typing import Callable, NamedTuple

import checks


class Op(NamedTuple):
    name: str
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object], str | None]


def _gnm(rng, n, m):
    """Uniform graph with n vertices and m edges, as a sorted edge list."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


# -- witness ------------------------------------------------------------------

# every paper witness in range, as (construction, parameters, k); the seed
# only relabels the vertices, so each seed runs the same amount of work
WITNESSES = (
    [("geven", (n,), 4) for n in range(18, 41, 2)]
    + [("godd", (n,), 4) for n in range(19, 42, 2)]
    + [("general", (5, n), 5) for n in range(20, 41)]
    + [("general", (6, 30), 6), ("general", (7, 60), 7)]
)


class _Witness:
    def __init__(self, name, n, k, edges, g6, five_halves):
        self.name = name
        self.n = n
        self.k = k
        self.edges = edges
        self.g6 = g6
        self.five_halves = five_halves  # geven/godd: m must equal floor(5n/2)
        self.coloring = None  # red flags of the verified coloring, this round


def _cli_call(pkg, argv, stdin_text):
    def call():
        out = io.StringIO()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(stdin_text), out
        try:
            code = pkg.cli.main(argv)
        finally:
            sys.stdin, sys.stdout = saved
        return code, out.getvalue()

    return call


def witness_ops(pkg, seed):
    """check count|arrow|minimal|saturated on relabeled paper witnesses."""
    rng = random.Random(f"witness:{seed}")
    spec = pkg.constructions.ConstructionSpec
    ops = []
    for kind, params, k in WITNESSES:
        s = getattr(spec, kind)(*params)
        g = pkg.constructions.build(s).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = checks.sorted_edges((perm[u], perm[v]) for u, v in g.edges)
        g6 = pkg.graphs.Graph(g.n, edges).to_graph6()
        w = _Witness(s.name, g.n, k, edges, g6, kind != "general")
        for predicate in ("count", "arrow", "minimal", "saturated"):
            argv = ["check", predicate, "-", "--k", str(k), "--format", "json"]
            ops.append(
                Op(
                    f"{predicate} {w.name}",
                    lambda argv=argv, w=w: _cli_call(pkg, argv, w.g6 + "\n"),
                    lambda out, p=predicate, w=w: _check_witness(p, w, out),
                )
            )
    return ops


def _check_witness(predicate, w, out):
    code, text = out
    payload = json.loads(text)
    if predicate == "count":
        if code != 0 or payload["count"] != 1:
            return f"exit {code}, count {payload['count']}, want 0 and 1"
        return None
    if predicate == "arrow":
        w.coloring = None
        if code != 1 or payload["verdict"] is not False:
            return f"exit {code}, verdict {payload['verdict']}, want 1 and false"
        cert = payload["bad_coloring"]
        reason = checks.json_certificate_error(w.n, w.k, w.edges, cert)
        flags = checks.json_red_flags(w.edges, cert)
        reason = reason or checks.blocking_error(w.n, w.k, w.edges, flags)
        if reason is None:
            w.coloring = flags
        return reason
    if predicate == "minimal":
        if code != 1 or payload["verdict"] is not False:
            return f"exit {code}, verdict {payload['verdict']}, want 1 and false"
        if w.coloring is None:
            return "no verified bad coloring backs the verdict"
        return None
    if w.five_halves and len(w.edges) != 5 * w.n // 2:
        return f"{len(w.edges)} edges, want floor(5n/2) = {5 * w.n // 2}"
    if code != 0 or payload["status"] != "saturated" or payload["failures"]:
        return f"exit {code}, status {payload['status']}, want 0 and saturated"
    reason = checks.json_certificate_error(w.n, w.k, w.edges, payload["base_certificate"])
    if reason:
        return f"base certificate: {reason}"
    checked = payload["non_edges_checked"]
    want = checks.non_edges(w.n, w.edges)
    if sorted(tuple(c["non_edge"]) for c in checked) != want:
        return "checked non-edges differ from the graph's non-edges"
    if any(c["status"] != "none" for c in checked):
        return "a non-edge search did not report none"
    return None


# -- random ---------------------------------------------------------------------

# (family, draws per round, k, count cap, vertex counts, edges for n, and
# every how many draws count and max-red run beside find)
# arrow:  dense draws with no bad coloring; each search walks the whole
#         tree. Their cost is heavy-tailed, so many cheap k=5 draws keep the
#         round's cost steady from seed to seed (see README).
# sparse: thousands of bad colorings; count stops at the cap, max-red
#         runs branch and bound.
# exact:  small enough (m <= 24) for the oracle to check every answer.
RANDOM_DRAWS = (
    ("arrow", 800, 5, 1000, (18, 19, 20, 21, 22), lambda n: 4 * n, 10),
    ("sparse", 250, 5, 1000, (16,), lambda n: 34, 1),
    ("exact", 8, 4, 1 << 20, (12,), lambda n: 20, 1),
)
# is_rmin_saturated on sparse draws: every non-edge is searched
RANDOM_SATURATION = (150, 4, 12, 20)
# triangle-free, so colouring every edge red is bad; find_bad_coloring
# recurses once per branching edge, past the interpreter's recursion limit
# on these inputs, and both raise RecursionError today
RANDOM_FAILING = (
    ("find path(1200)", 1200, [(v, v + 1) for v in range(1199)], 3),
    ("find K(40,40)", 80, [(u, 40 + v) for u in range(40) for v in range(40)], 3),
)


class _Draw:
    def __init__(self, n, k, edges, cap):
        self.n = n
        self.k = k
        self.edges = edges
        self.cap = cap
        self.masks = None  # oracle's bad colorings, computed once
        self.found = None  # this round's find outcome: red edge count or None
        self.count = None


def random_ops(pkg, seed):
    rng = random.Random(f"random:{seed}")
    ops = []
    for family, draws, k, cap, sizes, m_of, every in RANDOM_DRAWS:
        for i in range(draws):
            n = sizes[i % len(sizes)]
            d = _Draw(n, k, _gnm(rng, n, m_of(n)), cap)
            searches = _searches(pkg, f"{family}{i}", d)
            ops += searches if i % every == 0 else searches[:1]
    draws, k, n, m = RANDOM_SATURATION
    for i in range(draws):
        d = _Draw(n, k, _gnm(rng, n, m), None)
        ops.append(
            Op(
                f"saturated sat{i}",
                lambda d=d: _graph_call(pkg, d, lambda g: pkg.saturation.is_rmin_saturated(g, d.k)),
                lambda rep, d=d: _check_saturation(pkg, d, rep),
            )
        )
    for name, n, edges, k in RANDOM_FAILING:
        d = _Draw(n, k, edges, None)
        ops.append(
            Op(
                name,
                lambda d=d: _graph_call(pkg, d, lambda g: pkg.search.find_bad_coloring(g, d.k)),
                lambda res, d=d: _certificate_error(d, res.certificate)
                if res.found
                else f"status {res.status}, but all-red is a bad coloring",
            )
        )
    return ops


def _graph_call(pkg, d, fn):
    g = pkg.graphs.Graph(d.n, d.edges)  # a fresh graph: no cached triangles
    return lambda: fn(g)


def _searches(pkg, name, d):
    """find, count and max-red on one draw, in that order."""
    return [
        Op(
            f"find {name}",
            lambda: _graph_call(pkg, d, lambda g: pkg.search.find_bad_coloring(g, d.k)),
            lambda res: _check_find(pkg, d, res),
        ),
        Op(
            f"count {name}",
            lambda: _graph_call(pkg, d, lambda g: pkg.search.count_bad_colorings(g, d.k, cap=d.cap)),
            lambda res: _check_count(pkg, d, res),
        ),
        Op(
            f"max-red {name}",
            lambda: _graph_call(pkg, d, lambda g: pkg.search.find_max_red_bad_coloring(g, d.k)),
            lambda res: _check_max_red(pkg, d, res),
        ),
    ]


def _red_flags(cert):
    return [c == 0 for c in cert.coloring.colors]  # ramsat's RED is 0


def _certificate_error(d, cert, edges=None):
    edges = d.edges if edges is None else edges
    return checks.bad_coloring_error(d.n, d.k, edges, _red_flags(cert))


def _oracle_masks(pkg, d):
    if d.masks is None and len(d.edges) <= 24:
        d.masks = pkg.oracle.brute_force_bad_colorings(pkg.graphs.Graph(d.n, d.edges), d.k)
    return d.masks


def _check_find(pkg, d, res):
    d.found = d.count = None
    if res.status not in ("found", "none"):
        return f"status {res.status}"
    masks = _oracle_masks(pkg, d)
    if masks is not None and res.found != (len(masks) > 0):
        return f"find says {res.status}, the oracle counts {len(masks)}"
    if res.found:
        reason = _certificate_error(d, res.certificate)
        if reason:
            return reason
        d.found = sum(_red_flags(res.certificate))
    return None


def _check_count(pkg, d, res):
    if res.status != "ok" or not 0 <= res.count <= d.cap:
        return f"status {res.status}, count {res.count}, cap {d.cap}"
    if (res.count > 0) != (d.found is not None):
        return f"count {res.count} disagrees with find"
    masks = _oracle_masks(pkg, d)
    if masks is not None and res.count != min(len(masks), d.cap):
        return f"count {res.count}, the oracle counts {len(masks)}"
    d.count = res.count
    return None


def _check_max_red(pkg, d, res):
    if res.found != (d.found is not None) or res.found != bool(d.count):
        return f"max-red {res.status} disagrees with find and count"
    if not res.found:
        return None
    reason = _certificate_error(d, res.certificate)
    if reason:
        return reason
    red = sum(_red_flags(res.certificate))
    if red < d.found:
        return f"max-red coloring has {red} red edges, find's has {d.found}"
    masks = _oracle_masks(pkg, d)
    if masks is not None and red != max(checks.popcount(x) for x in masks):
        return f"max-red coloring has {red} red edges, the oracle's maximum differs"
    return None


def _check_saturation(pkg, d, rep):
    if rep.base_certificate is None:
        if rep.status != "not-saturated":
            return f"status {rep.status} without a base coloring"
        masks = _oracle_masks(pkg, d)
        if masks is None or len(masks):
            return "no base coloring, but the oracle finds one"
        return None
    reason = _certificate_error(d, rep.base_certificate)
    if reason:
        return f"base certificate: {reason}"
    for (u, v), cert in rep.failures:
        plus = checks.sorted_edges(d.edges + [(u, v)])
        reason = _certificate_error(d, cert, plus)
        if reason:
            return f"certificate for non-edge ({u}, {v}): {reason}"
    if rep.status == "not-saturated":
        return None if rep.failures else "not saturated, without a counterexample"
    if rep.status != "saturated":
        return f"status {rep.status}"
    # a saturated verdict on a random draw is rare: confirm it with the oracle
    for u, v in checks.non_edges(d.n, d.edges):
        plus = _Draw(d.n, d.k, checks.sorted_edges(d.edges + [(u, v)]), None)
        masks = _oracle_masks(pkg, plus)
        if masks is None or len(masks):
            return f"saturated, but non-edge ({u}, {v}) is not confirmed blocked"
    return None


# -- oracle --------------------------------------------------------------------

ENUMERATE_N = (5, 6, 7)
SAT_CASES = ((5, 3), (6, 3), (7, 3), (5, 4), (6, 4), (6, 5))
RAMSEY_K = (3, 4)
# (k, vertices) of the brute-force scans, all with 20 edges. A scan's cost
# follows the draw's subtree count; twelve draws of similar cost keep the
# round's cost steady from seed to seed, and put the round's median
# operation inside this one cluster rather than in a gap between two
SCANS = tuple((4, n) for n in (8, 9, 10) for _ in range(4))
SCAN_EDGES = 20


def oracle_ops(pkg, seed):
    """Cold brute-force ground truth: every op starts with an empty cache."""
    rng = random.Random(f"oracle:{seed}")
    clear = pkg.oracle.enumerate_graphs.cache_clear

    def cold(fn):
        def prepare():
            clear()
            return fn

        return prepare

    ops = []
    for n in ENUMERATE_N:
        ops.append(
            Op(
                f"enumerate_graphs({n})",
                cold(lambda n=n: pkg.oracle.enumerate_graphs(n)),
                lambda res, n=n: None
                if len(res) == checks.GRAPH_CLASSES[n]
                else f"{len(res)} classes, want {checks.GRAPH_CLASSES[n]}",
            )
        )
    for n, k in SAT_CASES:
        ops.append(
            Op(
                f"compute_sat({n}, {k})",
                cold(lambda n=n, k=k: pkg.oracle.compute_sat(n, k)),
                lambda res, n=n, k=k: _check_sat(pkg, n, k, res),
            )
        )
    for k in RAMSEY_K:
        ops.append(
            Op(
                f"family_ramsey_number({k})",
                cold(lambda k=k: pkg.oracle.family_ramsey_number(k)),
                # Chvatal: r(K3, T) = 2(k-1) + 1 for every k-vertex tree T
                lambda res, k=k: None if res == 2 * k - 1 else f"{res}, want {2 * k - 1}",
            )
        )
    for i, (k, n) in enumerate(SCANS):
        d = _Draw(n, k, _gnm(rng, n, SCAN_EDGES), None)
        ops.append(
            Op(
                f"brute_force_bad_colorings scan{i} n={n} k={k}",
                cold(lambda d=d: pkg.oracle.brute_force_bad_colorings(pkg.graphs.Graph(d.n, d.edges), d.k)),
                lambda res, d=d: _check_scan(pkg, d, res),
            )
        )
    ops.append(
        Op(
            "verify-paper --quick",
            cold(_cli_call(pkg, ["verify-paper", "--quick"], "")),
            lambda out: None
            if out[0] == 0 and out[1].splitlines()[-1] == "10/10 criteria passed"
            else f"exit {out[0]}: {out[1].splitlines()[-1]}",
        )
    )
    return ops


def _check_sat(pkg, n, k, res):
    if res.graphs_scanned != checks.GRAPH_CLASSES[n]:
        return f"scanned {res.graphs_scanned} classes, want {checks.GRAPH_CLASSES[n]}"
    if n < 2 * k - 1:
        # below the family Ramsey number K_n has a bad coloring, and so does
        # every graph on n vertices: only K_n is saturated
        if res.min_edges != comb(n, 2) or len(res.extremal_graph6) != 1:
            return f"sat = {res.min_edges}, want C({n}, 2) = {comb(n, 2)}"
        return None
    if not res.extremal_graph6:
        return "no extremal graph"
    for g6 in res.extremal_graph6:
        gn, edges = checks.decode_graph6(g6)
        if gn != n or len(edges) != res.min_edges:
            return f"extremal {g6} has {len(edges)} edges, want {res.min_edges}"
        report = pkg.saturation.is_rmin_saturated(pkg.graphs.Graph(n, edges), k)
        if report.status != "saturated":
            return f"extremal {g6} is {report.status}"
    return None


def _check_scan(pkg, d, masks):
    values = [int(x) for x in masks]
    if values != sorted(set(values)):
        return "masks are not strictly ascending"
    for mask in values:
        reason = checks.bad_coloring_error(
            d.n, d.k, d.edges, [mask >> i & 1 == 1 for i in range(len(d.edges))]
        )
        if reason:
            return f"mask {mask}: {reason}"
    count = pkg.search.count_bad_colorings(pkg.graphs.Graph(d.n, d.edges), d.k).count
    if count != len(values):
        return f"{len(values)} colorings, the engine counts {count}"
    return None


WORKLOADS = {"witness": witness_ops, "random": random_ops, "oracle": oracle_ops}
