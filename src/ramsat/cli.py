"""Command-line surface.

Exit codes: 0 = verdict computed (property holds where one was asked),
1 = property fails, 2 = usage or input error, 3 = budget exhausted or
inconclusive, 4 = internal error (a crash, never a verdict). Outputs are
deterministic: identical inputs and budgets produce byte-identical output
(wall-clock time never appears).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import oracle, saturation, search, verify
from .colorings import export_cnf
from .constructions import (
    KINDS,
    ConstructionSpec,
    build,
    general_printed_formula_edge_count,
    predicted_edge_count,
)
from .graphs import Graph, GraphError, from_graph6
from .saturation import Records
from .search import EXHAUSTED, FOUND, InconclusiveError, SearchBudget

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _read_graph(path: str) -> Graph:
    # a byte that is not UTF-8 becomes one lone surrogate, which
    # from_graph6 rejects by its offset; a text stream without a byte
    # buffer (io.StringIO) is read as it stands
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        # split the read text at once and keep no name for it, so only
        # the lines, as from a file, are alive while the first decodes
        if buffer is None:
            lines = sys.stdin.read().splitlines()
        else:
            lines = buffer.read().decode("utf-8", "surrogateescape").splitlines()
    else:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            lines = fh.read().splitlines()
    for line in lines:
        if line := line.strip():
            return from_graph6(line)
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
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` for dict keys that
    are str, written without the stdlib's pure-Python indent encoder, which
    is most of a JSON command's time on large reports, with a
    ``saturation.Records`` written as the list of its records.

    A list of flat records is filled into one ``%``-template, column by
    column, not written item by item: its items are all dicts with one set
    of str keys or all lists/tuples of one nonzero length, and each field,
    across the items, holds only exact ints, only strs, or only such records
    in turn (lists/tuples of one length, or dicts with one key set) whose
    fields hold only exact ints or only strs. That covers every
    certificate's ``edges`` rows; any other list is written item by item.
    A ``Records`` hands over its columns as they stand, with no record
    built and no type scan: a saturation report's ``non_edges_checked``."""
    return _write_json(obj, "") + "\n"


_encode_str = json.encoder.encode_basestring_ascii
# exact types, so bool is not taken for int; a subclass goes to json.dumps
_JSON_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class _Shape:
    """One record shape for the template path: ``fields`` pairs each key's
    template text with its column, a sequence of leaves (exact ints, or
    strs already encoded: each leaf's ``str`` is its JSON) or the
    ``_Shape`` of records in turn; ``brackets`` are the record's, "{}" or
    "[]". A plain class: a NamedTuple costs every CLI import ~70 us."""

    __slots__ = ("fields", "brackets")

    def __init__(self, fields: list, brackets: str):
        self.fields = fields
        self.brackets = brackets


def _write_json(obj, pad: str) -> str:
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = pad + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            scalar = _JSON_SCALARS.get(type(value))
            text = scalar(value) if scalar else _write_json(value, inner)
            items.append(f"{_encode_str(key)}: {text}")
        brackets = "{}"
    elif type(obj) in (list, tuple):
        if not obj:
            return "[]"
        try:  # scalars, such as a [u, v] pair
            items = [_JSON_SCALARS[type(item)](item) for item in obj]
        except KeyError:
            shape = _record_fields(obj, True)
            if shape is None:
                items = [_write_json(item, inner) for item in obj]
            else:
                items = _filled(shape, inner)
        brackets = "[]"
    elif type(obj) is Records:
        if not len(obj):
            return "[]"
        items = _filled(_columns_shape(obj), inner)
        brackets = "[]"
    else:
        # floats and whatever else the CLI does not emit; a JSON string never
        # holds a raw newline, so re-indenting by replacement is exact
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{pad}{brackets[1]}"


def _filled(shape: _Shape, pad: str) -> list[str]:
    """Each record's text at indent pad: one ``%``-template, filled row by
    row from the columns of its leaves."""
    leaves: list = []
    template = _record_template(shape, pad, leaves)
    return [template % row for row in zip(*leaves)]


def _record_template(shape: _Shape, pad: str, leaves: list) -> str:
    """The ``%``-template of one record of shape at indent pad; each "%s"
    in it appends its column, in order, to leaves."""
    inner = pad + "  "
    parts = []
    for key, column in shape.fields:
        if type(column) is _Shape:
            parts.append(key + _record_template(column, inner, leaves))
        else:
            leaves.append(column)
            parts.append(key + "%s")
    sep = ",\n" + inner
    return f"{shape.brackets[0]}\n{inner}{sep.join(parts)}\n{pad}{shape.brackets[1]}"


def _key_text(key: str) -> str:
    # a key is literal template text
    return _encode_str(key).replace("%", "%%") + ": "


def _record_fields(items, nested: bool) -> _Shape | None:
    """The ``_Shape`` of items when they share one record shape: all dicts
    with one set of str keys, or all lists/tuples of one nonzero length,
    each field a column of exact ints or of strs, or, where nested, of such
    records in turn (see ``_json``). None otherwise."""
    first = items[0]
    kinds = set(map(type, items))
    if kinds == {dict}:
        if (
            not first
            or any(type(key) is not str for key in first)
            or set(map(len, items)) != {len(first)}
        ):
            return None
        try:
            pairs = [(_key_text(key), [item[key] for item in items]) for key in sorted(first)]
        except KeyError:
            return None
        brackets = "{}"
    elif kinds <= {list, tuple} and first and set(map(len, items)) == {len(first)}:
        pairs = [("", column) for column in zip(*items)]
        brackets = "[]"
    else:
        return None
    fields = []
    for key, column in pairs:
        kinds = set(map(type, column))
        if kinds == {str}:
            column = list(map(_encode_str, column))
        elif kinds != {int}:
            column = _record_fields(column, False) if nested else None
            if column is None:
                return None
        fields.append((key, column))
    return _Shape(fields, brackets)


def _columns_shape(records: Records) -> _Shape:
    """The ``_Shape`` of a nonempty ``Records``, read off each column's
    first value: a column holds one type throughout."""
    fields = []
    for key, column in sorted(records.columns.items()):
        if type(column[0]) is tuple:  # int tuples, written as lists
            column = _Shape([("", part) for part in zip(*column)], "[]")
        elif type(column[0]) is str:
            column = list(map(_encode_str, column))
        fields.append((_key_text(key), column))
    return _Shape(fields, "{}")


# -- construct ----------------------------------------------------------------


def _spec_from_args(args) -> ConstructionSpec:
    kind = args.kind
    params = []
    for name in KINDS[kind].params:
        value = getattr(args, name)
        if value is None:
            raise GraphError(f"construct {kind} requires --{name}")
        params.append(value)
    if kind == "c5dup":
        try:
            params = [int(x) for x in args.multiplicities.split(",")]
        except ValueError:
            raise GraphError("--multiplicities must be comma-separated integers")
    return ConstructionSpec(kind, tuple(params))


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


def _inconclusive(args, reason: str) -> str:
    if args.format == "json":
        return _json({"verdict": "inconclusive", "reason": reason})
    return f"inconclusive: {reason}\n"


def _cmd_check(args) -> int:
    g = _read_graph(args.input)
    budget = _budget(args)
    k = args.k
    if args.predicate == "saturated":
        rep = saturation.is_rmin_saturated(g, k, budget)
        if args.format == "json":
            _emit(_json(rep.payload()), None)
        else:
            lines = [f"saturated: {rep.verdict} ({rep.status})", rep.reason]
            for o in rep.non_edge_outcomes:
                if o.status == FOUND:
                    lines.append(f"  non-edge {o.pair} still admits a bad coloring")
            _emit("\n".join(lines) + "\n", None)
        if rep.status == saturation.SATURATED:
            return EXIT_OK
        if rep.status == saturation.NOT_SATURATED:
            return EXIT_FAIL
        return EXIT_INCONCLUSIVE
    payload = {"predicate": args.predicate, "k": k}
    try:
        if args.predicate == "minimal":
            payload["verdict"] = saturation.is_ramsey_minimal(g, k, budget)
        else:
            if args.predicate == "count":
                res = search.count_bad_colorings(g, k, cap=args.cap, budget=budget)
                payload.update(count=res.count, cap=args.cap)
            else:
                res = search.find_bad_coloring(g, k, budget)
                found = res.status == FOUND
                payload["verdict"] = (
                    found if args.predicate == "bad-coloring" else not found
                )
                if found:
                    payload["bad_coloring"] = res.certificate.as_dict(g)
            if res.status == EXHAUSTED:
                raise budget.ran_out("search exhausted its budget", budget.max_nodes)
            payload["nodes"] = res.stats.nodes
    except InconclusiveError as exc:
        _emit(_inconclusive(args, str(exc)), None)
        return EXIT_INCONCLUSIVE
    if args.format == "json":
        _emit(_json(payload), None)
    elif "count" in payload:
        _emit(f"count = {payload['count']}\n", None)
    else:
        _emit(_text_verdict(payload), None)
    return EXIT_OK if payload.get("verdict", True) else EXIT_FAIL  # a count has none


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
    results = verify.run_all(quick=args.quick, budget=_budget(args))
    _emit(verify.format_table(results) + "\n", None)
    if all(r.passed for r in results):
        return EXIT_OK
    if any(not (r.passed or r.inconclusive) for r in results):
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


# -- parser ----------------------------------------------------------------------


def _at_least_zero(convert):
    """argparse type: ``convert``, then reject values below 0 and NaN."""

    def parse(text: str):
        value = convert(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # keeps "invalid int value" messages
    return parse


def _add_budget_args(p) -> None:
    p.add_argument("--max-nodes", type=_at_least_zero(int), default=search.DEFAULT_MAX_NODES)
    p.add_argument(
        "--max-seconds", type=_at_least_zero(float), default=search.DEFAULT_MAX_SECONDS
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every ``main`` call
    of the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ramsat",
        description=(
            "Extremal constructions, bad 2-coloring search, and saturation"
            " checking for the pair (triangle, all k-vertex trees)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a catalog graph")
    p.add_argument("kind", choices=tuple(KINDS))
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
    args = build_parser().parse_args(argv)
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
