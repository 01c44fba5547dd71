"""Command-line surface.

Exit codes: 0 = verdict computed (property holds where one was asked),
1 = property fails, 2 = usage or input error, 3 = budget exhausted or
inconclusive, 4 = internal error (a crash, never a verdict). Outputs are
deterministic: identical inputs and budgets produce byte-identical output
(wall-clock time never appears).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle, saturation, search, verify
from .colorings import export_cnf
from .constructions import (
    ConstructionSpec,
    build,
    general_printed_formula_edge_count,
    predicted_edge_count,
)
from .graphs import Graph, GraphError, from_graph6
from .search import EXHAUSTED, FOUND, InconclusiveError, SearchBudget

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _read_graph(path: str) -> Graph:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    for line in lines:
        if line.strip():
            return from_graph6(line.strip())
    raise GraphError(f"no graph6 line found in {path!r}")


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _emit(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- construct ----------------------------------------------------------------


def _spec_from_args(args) -> ConstructionSpec:
    kind = args.kind
    need = {
        "star": ("n",),
        "j": ("a", "b", "c"),
        "c5dup": ("multiplicities",),
        "petersen": (),
        "geven": ("n",),
        "godd": ("n",),
        "general": ("k", "n"),
    }[kind]
    for field in need:
        if getattr(args, field, None) is None:
            raise GraphError(f"construct {kind} requires --{field}")
    if kind == "star":
        return ConstructionSpec.star(args.n)
    if kind == "j":
        return ConstructionSpec.j(args.a, args.b, args.c)
    if kind == "c5dup":
        try:
            mult = tuple(int(x) for x in args.multiplicities.split(","))
        except ValueError:
            raise GraphError("--multiplicities must be comma-separated integers")
        return ConstructionSpec.c5dup(*mult)
    if kind == "petersen":
        return ConstructionSpec.petersen()
    if kind == "geven":
        return ConstructionSpec.geven(args.n)
    if kind == "godd":
        return ConstructionSpec.godd(args.n)
    return ConstructionSpec.general(args.k, args.n)


def _cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    built = build(spec)
    g = built.graph
    coloring = built.reference_coloring if args.coloring else None
    if args.coloring and coloring is None:
        raise GraphError(f"{spec.name} has no reference coloring")
    if args.format == "graph6":
        _emit(g.to_graph6() + "\n", args.output)
    elif args.format == "dot":
        _emit(g.to_dot(coloring, built.vertex_labels()), args.output)
    elif args.format == "json":
        payload = {
            "construction": spec.name,
            "n": g.n,
            "m": g.m,
            "graph6": g.to_graph6(),
            "predicted_edge_count": predicted_edge_count(spec),
            "roles": {role: list(vs) for role, vs in built.roles.items()},
            "notes": list(built.notes),
        }
        if spec.kind == "general":
            payload["printed_formula_edge_count"] = general_printed_formula_edge_count(
                *spec.params
            )
        if coloring is not None:
            payload["reference_coloring"] = {
                "k": built.reference_k,
                "edges": coloring.as_edge_list(g),
            }
        _emit(_json(payload), args.output)
    else:
        lines = [
            f"{spec.name}: {g.n} vertices, {g.m} edges"
            f" (predicted {predicted_edge_count(spec)})",
            f"graph6: {g.to_graph6()}",
        ]
        for role, vs in built.roles.items():
            lines.append(f"  {role}: {' '.join(map(str, vs))}")
        for note in built.notes:
            lines.append(f"note: {note}")
        if coloring is not None:
            lines.append(f"reference coloring (k={built.reference_k}):")
            for u, v, name in coloring.as_edge_list(g):
                lines.append(f"  {u} {v} {name}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# -- check --------------------------------------------------------------------


def _inconclusive(args, reason: str = "budget exhausted") -> str:
    if getattr(args, "format", "text") == "json":
        return _json({"verdict": "inconclusive", "reason": reason})
    return f"inconclusive: {reason}\n"


def _cmd_check(args) -> int:
    g = _read_graph(args.input)
    budget = _budget(args)
    k = args.k
    if args.predicate in ("arrow", "bad-coloring"):
        res = search.find_bad_coloring(g, k, budget)
        if res.status == EXHAUSTED:
            _emit(_inconclusive(args), None)
            return EXIT_INCONCLUSIVE
        found = res.status == FOUND
        verdict = found if args.predicate == "bad-coloring" else not found
        payload = {
            "predicate": args.predicate,
            "k": k,
            "verdict": verdict,
            "nodes": res.stats.nodes,
        }
        if found:
            payload["bad_coloring"] = res.certificate.as_dict(g)
        _emit(_json(payload) if args.format == "json" else _text_verdict(payload), None)
        return EXIT_OK if verdict else EXIT_FAIL
    if args.predicate == "count":
        res = search.count_bad_colorings(g, k, cap=args.cap, budget=budget)
        if res.status != search.OK:
            _emit(_inconclusive(args), None)
            return EXIT_INCONCLUSIVE
        payload = {
            "predicate": "count",
            "k": k,
            "count": res.count,
            "cap": args.cap,
            "nodes": res.stats.nodes,
        }
        if args.format == "json":
            _emit(_json(payload), None)
        else:
            _emit(f"count = {res.count}\n", None)
        return EXIT_OK
    if args.predicate == "saturated":
        rep = saturation.is_rmin_saturated(g, k, budget)
        if args.format == "json":
            _emit(_json(rep.as_dict(g)), None)
        else:
            lines = [f"saturated: {rep.verdict} ({rep.status})", rep.reason]
            for pair, _cert in rep.failures:
                lines.append(f"  non-edge {pair} still admits a bad coloring")
            _emit("\n".join(lines) + "\n", None)
        if rep.status == saturation.SATURATED:
            return EXIT_OK
        if rep.status == saturation.NOT_SATURATED:
            return EXIT_FAIL
        return EXIT_INCONCLUSIVE
    # minimal
    try:
        verdict = saturation.is_ramsey_minimal(g, k, budget)
    except InconclusiveError as exc:
        _emit(_inconclusive(args, str(exc)), None)
        return EXIT_INCONCLUSIVE
    payload = {"predicate": "minimal", "k": k, "verdict": verdict}
    _emit(_json(payload) if args.format == "json" else _text_verdict(payload), None)
    return EXIT_OK if verdict else EXIT_FAIL


def _text_verdict(payload) -> str:
    lines = [f"{payload['predicate']}: {payload['verdict']}"]
    if "bad_coloring" in payload:
        cert = payload["bad_coloring"]
        lines.append(
            "bad coloring (blue component sizes"
            f" {cert['blue_component_sizes']}):"
        )
        for u, v, name in cert["edges"]:
            lines.append(f"  {u} {v} {name}")
    return "\n".join(lines) + "\n"


# -- sat / export / verify ------------------------------------------------------


def _cmd_sat(args) -> int:
    res = oracle.compute_sat(args.n, args.k)
    payload = {
        "n": res.n,
        "k": res.k,
        "min_edges": res.min_edges,
        "extremal_graph6": list(res.extremal_graph6),
        "graphs_scanned": res.graphs_scanned,
    }
    if args.format == "json":
        _emit(_json(payload), None)
    else:
        _emit(
            f"sat(n={res.n}, k={res.k}) = {res.min_edges}"
            f" ({len(res.extremal_graph6)} extremal class(es),"
            f" {res.graphs_scanned} scanned)\n"
            + "".join(f"  {g6}\n" for g6 in res.extremal_graph6),
            None,
        )
    return EXIT_OK


def _cmd_export(args) -> int:
    g = _read_graph(args.input)
    if args.what == "cnf":
        if args.k is None:
            raise GraphError("export cnf requires --k")
        _emit(export_cnf(g, args.k), args.output)
    elif args.what == "dot":
        _emit(g.to_dot(), args.output)
    else:
        _emit(g.to_graph6() + "\n", args.output)
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    budget = SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    results = verify.run_all(quick=args.quick, budget=budget)
    _emit(verify.format_table(results) + "\n", None)
    if all(r.passed for r in results):
        return EXIT_OK
    if any(not (r.passed or r.inconclusive) for r in results):
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


# -- parser ----------------------------------------------------------------------


def _add_budget_args(p) -> None:
    p.add_argument("--max-nodes", type=int, default=search.DEFAULT_BUDGET.max_nodes)
    p.add_argument(
        "--max-seconds", type=float, default=search.DEFAULT_BUDGET.max_seconds
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsat",
        description=(
            "Extremal constructions, bad 2-coloring search, and saturation"
            " checking for the pair (triangle, all k-vertex trees)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a catalog graph")
    p.add_argument(
        "kind", choices=("star", "j", "c5dup", "petersen", "geven", "godd", "general")
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--multiplicities", type=str, help="comma-separated, e.g. 2,1,3,1,1")
    p.add_argument("--coloring", action="store_true", help="include the reference coloring")
    p.add_argument("--format", choices=("text", "json", "graph6", "dot"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="decide a predicate for a graph6 input")
    p.add_argument(
        "predicate",
        choices=("arrow", "bad-coloring", "count", "saturated", "minimal"),
    )
    p.add_argument("input", help="graph6 file, or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=1 << 62, help="saturation cap for count")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_budget_args(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sat", help="exact saturation number at tiny n (full scan)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("export", help="convert a graph6 input")
    p.add_argument("what", choices=("cnf", "dot", "graph6"))
    p.add_argument("input", help="graph6 file, or - for stdin")
    p.add_argument("--k", type=int, help="tree-family parameter (cnf only)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "verify-paper", help="run the full claim-verification suite"
    )
    p.add_argument("--quick", action="store_true", help="reduced enumeration ranges")
    _add_budget_args(p)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:
        # a crash must not exit 1, which reads as "property fails"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
