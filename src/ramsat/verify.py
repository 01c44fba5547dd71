"""One-shot verification of every checkable claim, with a pass/fail table.

Each criterion is an independent function returning a CriterionResult; the
CLI's verify-paper command and the acceptance test suite both run them.
All expected values are exact. A criterion whose search ran out of budget,
or whose oracle scan was due to start after the budget's deadline, is
reported inconclusive, never passed, and failed only when some other check
definitely failed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from math import comb

import numpy as np

from . import oracle, saturation, search
from .colorings import forced_blue_edges
from .constructions import (
    ConstructionSpec,
    build,
    general_min_n,
    general_printed_formula_edge_count,
    predicted_edge_count,
    theorem_bounds,
)
from .graphs import is_kt_saturated, petersen
from .search import OK, InconclusiveError, SearchBudget

# Admissible (|B|, |C|) with |B| <= |C| for each deficit e = 2n - k
_SPLIT_TABLE = {
    5: lambda b, c: b == 1,
    4: lambda b, c: (b, c) in {(0, 0), (2, 2)},
    3: lambda b, c: (b, c) == (2, 3),
    2: lambda b, c: (b, c) == (2, 4),
    1: lambda b, c: (b, c) in {(2, 5), (3, 3)},
    0: lambda b, c: (b, c) == (2, 6),
}


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: str
    inconclusive: bool = False  # not passed only because a search ran out of budget


class _Failed(Exception):
    """A check of the criterion failed; the message is the criterion's details."""


def _criterion(number: int, title: str):
    """Turn a criterion body into the criterion: the body returns its PASS
    details, raises _Failed when a check failed, and raises
    InconclusiveError when a budget or deadline ran out first."""

    def wrap(body):
        @functools.wraps(body)
        def criterion(*args, **kwargs) -> CriterionResult:
            try:
                details, passed, inconclusive = body(*args, **kwargs), True, False
            except _Failed as exc:
                details, passed, inconclusive = str(exc), False, False
            except InconclusiveError as exc:
                details, passed, inconclusive = str(exc), False, True
            return CriterionResult(number, title, passed, details, inconclusive)

        return criterion

    return wrap


def _settle(details: str, failed: bool, exhausted: bool) -> str:
    """``details`` when no check failed and no search ran out of budget."""
    if failed:
        raise _Failed(details)
    if exhausted:
        raise InconclusiveError(details)
    return details


def _check_deadline(budget: SearchBudget | None, when: str) -> None:
    """Raise once the deadline of ``budget`` has passed; the oracle scans
    check it before they start and before each graph's 2^m scan, since no
    search inside them draws on it."""
    if budget is not None and time.perf_counter() >= budget.deadline:
        raise InconclusiveError(f"time budget ran out {when}")


@_criterion(1, "construction edge counts: e(geven(n)) = 5n/2, e(godd(n)) = (5n-1)/2")
def criterion_1() -> str:
    bad = []
    for make, first in ((ConstructionSpec.geven, 8), (ConstructionSpec.godd, 9)):
        for n in range(first, first + 33, 2):
            spec = make(n)
            m = build(spec).graph.m
            # 5n // 2 is 5n/2 for even n and (5n-1)/2 for odd n
            if m != 5 * n // 2 or m != predicted_edge_count(spec):
                bad.append((spec.kind, n, m))
    if bad:
        raise _Failed(f"mismatches: {bad}")
    return "even n in [8,40] and odd n in [9,41] all exact"


@_criterion(2, "geven(18) and godd(19) are saturated with 45 and 47 edges")
def criterion_2(budget: SearchBudget | None = None) -> str:
    details = []
    failed = exhausted = False
    for spec, want_m in ((ConstructionSpec.geven(18), 45), (ConstructionSpec.godd(19), 47)):
        g = build(spec).graph
        rep = saturation.is_rmin_saturated(g, 4, budget)
        failed = failed or g.m != want_m or rep.status == saturation.NOT_SATURATED
        exhausted = exhausted or rep.status == saturation.INCONCLUSIVE
        details.append(f"{spec.name}: m={g.m} (want {want_m}), {rep.status}")
    return _settle("; ".join(details), failed, exhausted)


@_criterion(3, "geven(18) and godd(19) admit exactly one bad 2-coloring")
def criterion_3(budget: SearchBudget | None = None) -> str:
    details = []
    failed = exhausted = False
    for spec in (ConstructionSpec.geven(18), ConstructionSpec.godd(19)):
        g = build(spec).graph
        res = search.count_bad_colorings(g, 4, cap=2, budget=budget)
        failed = failed or (res.status == OK and res.count != 1)
        exhausted = exhausted or res.status != OK
        details.append(f"{spec.name}: count={res.count} ({res.status})")
    return _settle("; ".join(details), failed, exhausted)


@_criterion(4, "general(5,20): saturated, unique coloring, 68 edges in [47, 74]")
def criterion_4(budget: SearchBudget | None = None) -> str:
    g = build(ConstructionSpec.general(5, 20)).graph
    want_m = 68  # frozen direct join-list count
    bounds = theorem_bounds(5, 20)
    rep = saturation.is_rmin_saturated(g, 5, budget)
    cnt = search.count_bad_colorings(g, 5, cap=2, budget=budget)
    failed = (
        g.m != want_m
        or not bounds.lower <= g.m <= bounds.upper
        or rep.status == saturation.NOT_SATURATED
        or (cnt.status == OK and cnt.count != 1)
    )
    exhausted = rep.status == saturation.INCONCLUSIVE or cnt.status != OK
    details = (
        f"m={g.m} (want {want_m}), bounds [{bounds.lower}, {bounds.upper}],"
        f" {rep.status}, count={cnt.count}"
    )
    return _settle(details, failed, exhausted)


@_criterion(5, "general(k,n) built count equals the direct join-list count")
def criterion_5(quick: bool = False) -> str:
    ks = (5, 6) if quick else (5, 6, 7)
    bad = []
    deltas = set()
    for k in ks:
        lo = general_min_n(k)
        for n in range(lo, lo + 3 * ((k + 1) // 2) + 1):
            spec = ConstructionSpec.general(k, n)
            built = build(spec).graph.m
            direct = predicted_edge_count(spec)
            deltas.add(general_printed_formula_edge_count(k, n) - built)
            if built != direct:
                bad.append((k, n, built, direct))
    if bad:
        raise _Failed(f"mismatches: {bad}")
    return (
        f"k in {ks}, all valid n <= n_min + 3*ceil(k/2): built == direct;"
        f" printed closed form exceeds the built count by {sorted(deltas)}"
    )


@_criterion(6, "engine existence/count verdicts equal the 2^m scan (all n <= 6)")
def criterion_6(quick: bool = False, budget: SearchBudget | None = None) -> str:
    if budget is None:
        budget = SearchBudget()
    start = budget.nodes_left
    max_n = 5 if quick else 6
    checked = 0
    for n in range(max_n + 1):
        for g in oracle.enumerate_graphs(n):
            for k in (3, 4, 5):
                _check_deadline(budget, f"during the scan at n={n}")
                want = len(oracle.brute_force_bad_colorings(g, k))
                f = search.find_bad_coloring(g, k, budget)
                c = search.count_bad_colorings(g, k, budget=budget)
                if f.status == search.EXHAUSTED or c.status != OK:
                    raise budget.ran_out(f"budget exhausted on n={n}, k={k}", start)
                if (f.status == search.FOUND) != (want > 0) or c.count != want:
                    raise _Failed(
                        f"mismatch on {g.to_graph6()} k={k}:"
                        f" engine ({f.status}, {c.count}) vs scan count {want}"
                    )
                if f.found and not f.certificate.verify(g, k):
                    raise _Failed(f"bad certificate on {g.to_graph6()} k={k}")
                checked += 1
    return f"{checked} (graph, k) pairs agree on existence and count"


@_criterion(7, "sat(n,k) = C(n,2) below the family Ramsey number; r(3)=5, r(4)=7")
def criterion_7(budget: SearchBudget | None = None) -> str:
    _check_deadline(budget, "before the scans")
    rams = {k: oracle.family_ramsey_number(k) for k in (3, 4)}
    if rams != {3: 5, 4: 7}:
        raise _Failed(f"family Ramsey numbers {rams}")
    bad = []
    for k, r in rams.items():
        for n in range(2, r):
            res = oracle.compute_sat(n, k)
            if res.min_edges != comb(n, 2):
                bad.append((n, k, res.min_edges))
    if bad:
        raise _Failed(f"sat mismatches: {bad}")
    return "full scans confirm K_n is the unique extremum"


@_criterion(8, "K3-saturated, min degree 2: all are J; deficit table; min 2n-5")
def criterion_8(quick: bool = False, budget: SearchBudget | None = None) -> str:
    max_n = 7 if quick else 9
    checked = 0
    for n in range(5, max_n + 1):
        _check_deadline(budget, f"before the scan at n={n}")
        scan = oracle.scan_k3_saturated(n, 2)
        if not scan:
            raise _Failed(f"no graphs found at n={n}")
        min_m = scan[0][1]
        minimizer_splits = []
        for g, m in scan:
            cls = saturation.classify_k3_saturated(g)
            if cls.tag != "j":
                raise _Failed(f"non-J graph at n={n}: {g.to_graph6()}")
            b, c = sorted((cls.b, cls.c))
            if m != 2 * (n - 2) + b * c - b - c:
                raise _Failed(f"edge formula fails at n={n}: {g.to_graph6()}")
            deficit = 2 * n - m
            if deficit in _SPLIT_TABLE and not _SPLIT_TABLE[deficit](b, c):
                raise _Failed(
                    f"(|B|,|C|)=({b},{c}) not admissible for e=2n-{deficit} at n={n}"
                )
            if m == min_m:
                minimizer_splits.append((b, c))
            checked += 1
        if min_m != 2 * n - 5:
            raise _Failed(f"minimum at n={n} is {min_m}, want {2*n-5}")
        if any(1 not in split for split in minimizer_splits):
            raise _Failed(f"minimizer without |B|=1 or |C|=1 at n={n}")
    return f"{checked} graphs over 5 <= n <= {max_n} all conform"


@_criterion(9, "Petersen: K3-saturated, min degree 3, 15 = 3n-15 edges, bound tight")
def criterion_9() -> str:
    p = petersen()
    saturated = is_kt_saturated(p, 3)
    bound = saturation.k3_saturated_edge_bound(p)
    details = (
        f"saturated={saturated}, delta={p.min_degree()},"
        f" e={p.m}, bound={bound} vs 2e={2 * p.m}"
    )
    ok = saturated and p.min_degree() == 3 and p.m == 15 == 3 * p.n - 15
    if not (ok and bound == 2 * p.m):
        raise _Failed(details)
    return details


@_criterion(10, "bad-coloring structure: forced-blue edges, small components, max-red")
def criterion_10(quick: bool = False, budget: SearchBudget | None = None) -> str:
    witnesses = (
        (ConstructionSpec.geven(18), 4),
        (ConstructionSpec.godd(19), 4),
        (ConstructionSpec.general(5, 20), 5),
    )
    if budget is None:
        budget = SearchBudget()
    start = budget.nodes_left
    # (a) every high-triangle edge is blue in every bad coloring
    unique = {}  # each witness's graph and its unique bad coloring
    for spec, k in witnesses:
        g = build(spec).graph
        res = search.find_bad_coloring(g, k, budget)
        if res.status == search.EXHAUSTED:
            raise budget.ran_out(f"{spec.name}: search exhausted its budget", start)
        if not res.found:
            raise _Failed(f"{spec.name}: no bad coloring found")
        unique[spec] = g, res.certificate
        forced = forced_blue_edges(g, k)
        if not forced.applicable:
            raise _Failed(f"{spec.name}: threshold not applicable")
        for e in forced.edges:
            if not res.certificate.coloring.is_blue(e):
                raise _Failed(f"{spec.name}: forced edge {g.edges[e]} is red")
    max_n = 5 if quick else 6
    scanned = 0
    for n in range(max_n + 1):
        for g in oracle.enumerate_graphs(n):
            for k in (3, 4, 5):
                if n < k + 2:
                    continue
                _check_deadline(budget, f"during the scan at n={n}")
                masks = oracle.brute_force_bad_colorings(g, k)
                if len(masks) == 0:
                    continue
                forced = forced_blue_edges(g, k).edges
                if any(np.any(masks & np.uint32(1 << e)) for e in forced):
                    raise _Failed(f"red high-triangle edge in {g.to_graph6()} k={k}")
                scanned += 1
    # (b) + (c) structure of the unique and the max-red colorings
    for spec, k in witnesses:
        g, cert = unique[spec]
        rep = saturation.check_certificate_structure(g, k, cert)
        if rep.small_count_ok is not True or rep.red_complete_ok is False:
            raise _Failed(f"{spec.name}: small-component clauses fail: {rep}")
        mr = search.find_max_red_bad_coloring(g, k, budget)
        if mr.status == search.EXHAUSTED:
            raise budget.ran_out(f"{spec.name}: max-red search {mr.status}", start)
        if not mr.found:
            raise _Failed(f"{spec.name}: max-red search {mr.status}")
        rep = saturation.check_certificate_structure(g, k, mr.certificate, max_red=True)
        if rep.max_red_degree_ok is not True or rep.red_two_connected_ok is not True:
            raise _Failed(f"{spec.name}: max-red clauses fail: {rep}")
    return (
        f"witness colorings and {scanned} enumerated (graph, k) pairs conform;"
        " max-red colorings have red max degree <= n-3 and 2-connected red graphs"
    )


def run_all(
    quick: bool = False, budget: SearchBudget | None = None
) -> list[CriterionResult]:
    """Every criterion in order; all their searches draw on one budget, a
    fresh default one when None."""
    if budget is None:
        budget = SearchBudget()
    return [
        criterion_1(),
        criterion_2(budget),
        criterion_3(budget),
        criterion_4(budget),
        criterion_5(quick),
        criterion_6(quick, budget),
        criterion_7(budget),
        criterion_8(quick, budget),
        criterion_9(),
        criterion_10(quick, budget),
    ]


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "INCONCLUSIVE" if r.inconclusive else "FAIL"
        lines.append(f"[{r.number:2d}] {mark}  {r.title}")
        lines.append(f"          {r.details}")
    passed = sum(r.passed for r in results)
    summary = f"{passed}/{len(results)} criteria passed"
    inconclusive = sum(r.inconclusive for r in results)
    if inconclusive:
        summary += f", {inconclusive} inconclusive"
    lines.append(summary)
    return "\n".join(lines)
