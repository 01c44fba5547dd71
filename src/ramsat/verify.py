"""One-shot verification of every checkable claim, with a pass/fail table.

Each criterion is an independent function returning a CriterionResult; the
CLI's verify-paper command and the acceptance test suite both run them.
All expected values are exact. A criterion whose search ran out of budget,
or whose oracle scan was due to start after the budget's deadline, is
reported inconclusive, never passed, and failed only when some other check
definitely failed.
"""

from __future__ import annotations

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
from .graphs import petersen
from .search import OK, SearchBudget

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


def _checked(
    number: int, title: str, failed: bool, exhausted: bool, details: str
) -> CriterionResult:
    """Pass when no check failed and no search ran out of budget."""
    return CriterionResult(
        number, title, not (failed or exhausted), details, exhausted and not failed
    )


def _out_of_time(budget: SearchBudget | None) -> bool:
    """True once the deadline of ``budget`` has passed; the oracle scans
    check it before they start and before each graph's 2^m scan, since no
    search inside them draws on it."""
    return budget is not None and time.perf_counter() >= budget.deadline


def criterion_1() -> CriterionResult:
    title = "construction edge counts: e(geven(n)) = 5n/2, e(godd(n)) = (5n-1)/2"
    bad = []
    for n in range(8, 41, 2):
        g = build(ConstructionSpec.geven(n)).graph
        if g.m != 5 * n // 2 or g.m != predicted_edge_count(ConstructionSpec.geven(n)):
            bad.append(("geven", n, g.m))
    for n in range(9, 42, 2):
        g = build(ConstructionSpec.godd(n)).graph
        if g.m != (5 * n - 1) // 2 or g.m != predicted_edge_count(
            ConstructionSpec.godd(n)
        ):
            bad.append(("godd", n, g.m))
    if bad:
        return CriterionResult(1, title, False, f"mismatches: {bad}")
    return CriterionResult(
        1, title, True, "even n in [8,40] and odd n in [9,41] all exact"
    )


def criterion_2(budget: SearchBudget | None = None) -> CriterionResult:
    title = "geven(18) and godd(19) are saturated with 45 and 47 edges"
    details = []
    failed = exhausted = False
    for spec, want_m in ((ConstructionSpec.geven(18), 45), (ConstructionSpec.godd(19), 47)):
        g = build(spec).graph
        rep = saturation.is_rmin_saturated(g, 4, budget)
        failed = failed or g.m != want_m or rep.status == saturation.NOT_SATURATED
        exhausted = exhausted or rep.status == saturation.INCONCLUSIVE
        details.append(f"{spec.name}: m={g.m} (want {want_m}), {rep.status}")
    return _checked(2, title, failed, exhausted, "; ".join(details))


def criterion_3(budget: SearchBudget | None = None) -> CriterionResult:
    title = "geven(18) and godd(19) admit exactly one bad 2-coloring"
    details = []
    failed = exhausted = False
    for spec in (ConstructionSpec.geven(18), ConstructionSpec.godd(19)):
        g = build(spec).graph
        res = search.count_bad_colorings(g, 4, cap=2, budget=budget)
        if res.status == OK:
            failed = failed or res.count != 1
        else:
            exhausted = True
        details.append(f"{spec.name}: count={res.count} ({res.status})")
    return _checked(3, title, failed, exhausted, "; ".join(details))


def criterion_4(budget: SearchBudget | None = None) -> CriterionResult:
    title = "general(5,20): saturated, unique coloring, 68 edges in [47, 74]"
    spec = ConstructionSpec.general(5, 20)
    g = build(spec).graph
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
    return _checked(4, title, failed, exhausted, details)


def criterion_5(quick: bool = False) -> CriterionResult:
    title = "general(k,n) built count equals the direct join-list count"
    ks = (5, 6) if quick else (5, 6, 7)
    bad = []
    deltas = set()
    for k in ks:
        q = (k + 1) // 2
        lo = general_min_n(k)
        for n in range(lo, lo + 3 * q + 1):
            spec = ConstructionSpec.general(k, n)
            built = build(spec).graph.m
            direct = predicted_edge_count(spec)
            printed = general_printed_formula_edge_count(k, n)
            deltas.add(printed - built)
            if built != direct:
                bad.append((k, n, built, direct))
    if bad:
        return CriterionResult(5, title, False, f"mismatches: {bad}")
    details = (
        f"k in {ks}, all valid n <= n_min + 3*ceil(k/2): built == direct;"
        f" printed closed form exceeds the built count by {sorted(deltas)}"
    )
    return CriterionResult(5, title, True, details)


def criterion_6(
    quick: bool = False, budget: SearchBudget | None = None
) -> CriterionResult:
    title = "engine existence/count verdicts equal the 2^m scan (all n <= 6)"
    max_n = 5 if quick else 6
    checked = 0
    for n in range(max_n + 1):
        for g in oracle.enumerate_graphs(n):
            for k in (3, 4, 5):
                if _out_of_time(budget):
                    return CriterionResult(
                        6,
                        title,
                        False,
                        f"time budget ran out during the scan at n={n}",
                        inconclusive=True,
                    )
                want = len(oracle.brute_force_bad_colorings(g, k))
                f = search.find_bad_coloring(g, k, budget)
                c = search.count_bad_colorings(g, k, budget=budget)
                if f.status == search.EXHAUSTED or c.status != OK:
                    return CriterionResult(
                        6,
                        title,
                        False,
                        f"budget exhausted on n={n}, k={k}",
                        inconclusive=True,
                    )
                if (f.status == search.FOUND) != (want > 0) or c.count != want:
                    return CriterionResult(
                        6,
                        title,
                        False,
                        f"mismatch on {g.to_graph6()} k={k}:"
                        f" engine ({f.status}, {c.count}) vs scan count {want}",
                    )
                if f.found and not f.certificate.verify(g, k):
                    return CriterionResult(
                        6, title, False, f"bad certificate on {g.to_graph6()} k={k}"
                    )
                checked += 1
    return CriterionResult(
        6, title, True, f"{checked} (graph, k) pairs agree on existence and count"
    )


def criterion_7(budget: SearchBudget | None = None) -> CriterionResult:
    title = "sat(n,k) = C(n,2) below the family Ramsey number; r(3)=5, r(4)=7"
    if _out_of_time(budget):
        return CriterionResult(
            7, title, False, "time budget ran out before the scans", inconclusive=True
        )
    rams = {k: oracle.family_ramsey_number(k, budget) for k in (3, 4)}
    if rams != {3: 5, 4: 7}:
        return CriterionResult(7, title, False, f"family Ramsey numbers {rams}")
    bad = []
    for k, r in rams.items():
        for n in range(2, r):
            res = oracle.compute_sat(n, k)
            if res.min_edges != comb(n, 2):
                bad.append((n, k, res.min_edges))
    if bad:
        return CriterionResult(7, title, False, f"sat mismatches: {bad}")
    return CriterionResult(
        7, title, True, "full scans confirm K_n is the unique extremum"
    )


def criterion_8(
    quick: bool = False, budget: SearchBudget | None = None
) -> CriterionResult:
    title = "K3-saturated, min degree 2: all are J; deficit table; min 2n-5"
    max_n = 7 if quick else 8
    checked = 0
    for n in range(5, max_n + 1):
        if _out_of_time(budget):
            return CriterionResult(
                8,
                title,
                False,
                f"time budget ran out before the scan at n={n}",
                inconclusive=True,
            )
        scan = oracle.scan_k3_saturated(n, 2)
        if not scan:
            return CriterionResult(8, title, False, f"no graphs found at n={n}")
        for g, m in scan:
            cls = saturation.classify_k3_saturated(g)
            if cls.tag != "j":
                return CriterionResult(
                    8, title, False, f"non-J graph at n={n}: {g.to_graph6()}"
                )
            b, c = sorted((cls.b, cls.c))
            if m != 2 * (n - 2) + b * c - b - c:
                return CriterionResult(
                    8, title, False, f"edge formula fails at n={n}: {g.to_graph6()}"
                )
            deficit = 2 * n - m
            if deficit in _SPLIT_TABLE and not _SPLIT_TABLE[deficit](b, c):
                return CriterionResult(
                    8,
                    title,
                    False,
                    f"(|B|,|C|)=({b},{c}) not admissible for e=2n-{deficit} at n={n}",
                )
            checked += 1
        min_m = scan[0][1]
        if min_m != 2 * n - 5:
            return CriterionResult(
                8, title, False, f"minimum at n={n} is {min_m}, want {2*n-5}"
            )
        for g, m in scan:
            if m != min_m:
                continue
            cls = saturation.classify_k3_saturated(g)
            if 1 not in (cls.b, cls.c):
                return CriterionResult(
                    8, title, False, f"minimizer without |B|=1 or |C|=1 at n={n}"
                )
    return CriterionResult(
        8, title, True, f"{checked} graphs over 5 <= n <= {max_n} all conform"
    )


def criterion_9() -> CriterionResult:
    title = "Petersen: K3-saturated, min degree 3, 15 = 3n-15 edges, bound tight"
    p = petersen()
    ok = (
        saturation.is_kt_saturated(p, 3)
        and p.min_degree() == 3
        and p.m == 15 == 3 * p.n - 15
        and saturation.k3_saturated_edge_bound(p) == 2 * p.m
    )
    return CriterionResult(
        9,
        title,
        ok,
        f"saturated={saturation.is_kt_saturated(p, 3)}, delta={p.min_degree()},"
        f" e={p.m}, bound={saturation.k3_saturated_edge_bound(p)} vs 2e={2 * p.m}",
    )


def criterion_10(
    quick: bool = False, budget: SearchBudget | None = None
) -> CriterionResult:
    title = "bad-coloring structure: forced-blue edges, small components, max-red"
    witnesses = (
        (ConstructionSpec.geven(18), 4),
        (ConstructionSpec.godd(19), 4),
        (ConstructionSpec.general(5, 20), 5),
    )
    # (a) every high-triangle edge is blue in every bad coloring
    unique = {}
    for spec, k in witnesses:
        g = build(spec).graph
        res = search.find_bad_coloring(g, k, budget)
        if res.status == search.EXHAUSTED:
            return CriterionResult(
                10,
                title,
                False,
                f"{spec.name}: search exhausted its budget",
                inconclusive=True,
            )
        if not res.found:
            return CriterionResult(
                10, title, False, f"{spec.name}: no bad coloring found"
            )
        unique[spec] = res.certificate
        forced = forced_blue_edges(g, k)
        if not forced.applicable:
            return CriterionResult(
                10, title, False, f"{spec.name}: threshold not applicable"
            )
        for e in forced.edges:
            if not res.certificate.coloring.is_blue(e):
                return CriterionResult(
                    10, title, False, f"{spec.name}: forced edge {g.edges[e]} is red"
                )
    max_n = 5 if quick else 6
    scanned = 0
    for n in range(max_n + 1):
        for g in oracle.enumerate_graphs(n):
            for k in (3, 4, 5):
                if n < k + 2:
                    continue
                if _out_of_time(budget):
                    return CriterionResult(
                        10,
                        title,
                        False,
                        f"time budget ran out during the scan at n={n}",
                        inconclusive=True,
                    )
                masks = oracle.brute_force_bad_colorings(g, k)
                if len(masks) == 0:
                    continue
                for e in forced_blue_edges(g, k).edges:
                    bit = np.uint32(1 << e)
                    if np.any(masks & bit):
                        return CriterionResult(
                            10,
                            title,
                            False,
                            f"red high-triangle edge in {g.to_graph6()} k={k}",
                        )
                scanned += 1
    # (b) + (c) structure of the unique and the max-red colorings
    for spec, k in witnesses:
        g = build(spec).graph
        rep = saturation.check_certificate_structure(
            g, k, unique[spec], saturated=True
        )
        if rep.small_count_ok is not True or rep.red_complete_ok is False:
            return CriterionResult(
                10, title, False, f"{spec.name}: small-component clauses fail: {rep}"
            )
        mr = search.find_max_red_bad_coloring(g, k, budget)
        if not mr.found:
            return CriterionResult(
                10,
                title,
                False,
                f"{spec.name}: max-red search {mr.status}",
                inconclusive=mr.status == search.EXHAUSTED,
            )
        rep = saturation.check_certificate_structure(
            g, k, mr.certificate, saturated=True, max_red=True
        )
        if rep.max_red_degree_ok is not True or rep.red_two_connected_ok is not True:
            return CriterionResult(
                10, title, False, f"{spec.name}: max-red clauses fail: {rep}"
            )
    details = (
        f"witness colorings and {scanned} enumerated (graph, k) pairs conform;"
        " max-red colorings have red max degree <= n-3 and 2-connected red graphs"
    )
    return CriterionResult(10, title, True, details)


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
