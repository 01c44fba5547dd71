"""CLI surface: subcommands, exit codes, output determinism."""

import argparse
import enum
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import OrderedDict
from pathlib import Path
from types import SimpleNamespace

import pytest

from ramsat import cli, oracle, verify
from ramsat.cli import main
from ramsat.colorings import TwoColoring, is_bad_coloring
from ramsat.constructions import KINDS, ConstructionSpec, build
from ramsat.graphs import complete, disjoint_union, from_graph6, path, petersen, star
from ramsat.search import InconclusiveError, _Engine


@pytest.fixture
def geven18_file(tmp_path):
    p = tmp_path / "geven18.g6"
    p.write_text(build(ConstructionSpec.geven(18)).graph.to_graph6() + "\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_construct_dot(capsys):
    code, out, _ = run(
        capsys, ["construct", "geven", "--n", "18", "--coloring", "--format", "dot"]
    )
    assert code == 0
    assert out.count(" -- ") == 45
    assert out.count("color=red") == 33
    assert out.count("color=blue, style=dashed") == 12


def test_construct_graph6_and_json(capsys):
    code, out, _ = run(capsys, ["construct", "godd", "--n", "19", "--format", "graph6"])
    assert code == 0
    assert from_graph6(out.strip()).m == 47

    code, out, _ = run(
        capsys,
        ["construct", "general", "--k", "5", "--n", "20", "--format", "json", "--coloring"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 68
    assert payload["predicted_edge_count"] == 68
    assert payload["printed_formula_edge_count"] == 70
    assert payload["reference_coloring"]["k"] == 5


def test_construct_usage_errors(capsys):
    code, _, err = run(capsys, ["construct", "geven"])  # missing --n
    assert code == 2 and "requires --n" in err
    code, _, err = run(capsys, ["construct", "geven", "--n", "7"])
    assert code == 2
    code, _, err = run(capsys, ["construct", "petersen", "--coloring"])
    assert code == 2 and "no reference coloring" in err


# exit code and stdout digest of construct --format text; the text lists
# the roles in the builder's insertion order, which JSON output sorts away
CONSTRUCT_TEXT_CASES = {
    "geven18": (
        ["geven", "--n", "18"],
        "ddf9134a8b563036e1639b88b549d5d85a53365f2069c40d549c969c480c2825",
    ),
    "godd19-coloring": (
        ["godd", "--n", "19", "--coloring"],
        "6f80b209af35864bc364c3fe7b41febce7f03de630778e297765d1815a681601",
    ),
    # roles H1-H4 and the S blocks, the weaker-range note and the coloring
    "general5-20-coloring": (
        ["general", "--k", "5", "--n", "20", "--coloring"],
        "e53af4660c619282cd43e6be3cfc5d03feb65f22bf0a6b8369ae683abf8433ab",
    ),
}


@pytest.mark.parametrize("case", list(CONSTRUCT_TEXT_CASES))
def test_construct_text_output_is_pinned(capsys, case):
    args, digest = CONSTRUCT_TEXT_CASES[case]
    code, out, err = run(capsys, ["construct"] + args + ["--format", "text"])
    assert (code, sha256(out), err) == (0, digest, "")


def test_construct_rejects_non_integer_multiplicities(capsys):
    argv = ["construct", "c5dup", "--multiplicities", "2,x"]
    want = "error: --multiplicities must be comma-separated integers\n"
    assert run(capsys, argv) == (2, "", want)


@pytest.mark.parametrize(
    "args, name, m",
    [
        (["geven", "--n", "1000000000"], "geven(1000000000)", 2_500_000_000),
        (
            ["c5dup", "--multiplicities", "100000,100000,100000,100000,100000"],
            "c5dup(100000, 100000, 100000, 100000, 100000)",
            50_000_000_000,
        ),
        (
            ["general", "--k", "5000", "--n", "20000000"],
            "general(5000, 20000000)",
            25_067_475_001,
        ),
        (["star", "--n", "10002"], "star(10002)", 10_001),
    ],
)
def test_construct_rejects_more_than_max_edges_at_once(capsys, args, name, m):
    """Each spec is refused from its predicted edge count, before anything
    is built."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["construct"] + args + ["--format", "graph6"])
    assert time.perf_counter() - start < 0.5
    want = f"error: {name} would have {m} edges; construct builds at most 10000"
    assert (code, out, err) == (2, "", want + " (constructions.MAX_EDGES)\n")


def test_construct_accepts_max_edges():
    # star(10001) has 10,000 edges, one fewer than the last spec above
    assert main(["construct", "star", "--n", "10001", "--format", "dot", "-o", os.devnull]) == 0


# one valid flag value per parameter of each construction kind
KIND_FLAGS = {
    "star": {"n": "6"},
    "j": {"a": "2", "b": "1", "c": "1"},
    "c5dup": {"multiplicities": "2,1,3,1,1"},
    "petersen": {},
    "geven": {"n": "18"},
    "godd": {"n": "19"},
    "general": {"k": "5", "n": "20"},
}


def _kind_argv(kind, flags):
    return ["construct", kind] + [
        arg for name, value in flags.items() for arg in (f"--{name}", value)
    ]


@pytest.mark.parametrize("kind", list(KINDS))
def test_construct_builds_every_kind(capsys, kind):
    flags = KIND_FLAGS[kind]
    assert tuple(flags) == KINDS[kind].params
    params = tuple(int(x) for value in flags.values() for x in value.split(","))
    want = build(ConstructionSpec(kind, params)).graph.to_graph6() + "\n"
    argv = _kind_argv(kind, flags) + ["--format", "graph6"]
    assert run(capsys, argv) == (0, want, "")


@pytest.mark.parametrize(
    "kind, flag", [(kind, flag) for kind in KINDS for flag in KINDS[kind].params]
)
def test_construct_names_each_missing_flag(capsys, kind, flag):
    flags = {name: value for name, value in KIND_FLAGS[kind].items() if name != flag}
    want = f"error: construct {kind} requires --{flag}\n"
    assert run(capsys, _kind_argv(kind, flags)) == (2, "", want)


def test_check_saturated(capsys, geven18_file):
    code, out, _ = run(capsys, ["check", "saturated", geven18_file, "--k", "4"])
    assert code == 0
    assert "saturated: True" in out


def test_check_saturated_failure_exit(capsys, tmp_path):
    p = tmp_path / "star.g6"
    p.write_text(star(10).to_graph6() + "\n")
    code, out, _ = run(capsys, ["check", "saturated", str(p), "--k", "4"])
    assert code == 1
    assert "saturated: False" in out


# exit code and stdout digest of check saturated: (graph, k, EXTEND_CAP,
# extra flags) -> {format: (code, sha256)}
SATURATED_CASES = {
    # the enumeration finds every failure
    "star10": (
        lambda: star(10),
        4,
        256,
        [],
        {
            "text": (1, "cf1a48903dfa8358411f737a7ec569aa411a456ead89eccb7072410ba15b0ed8"),
            "json": (1, "ff07428c3424c92d6fdfeeea9d695aa0a74709ed8f9da1b067a1808ff5ba3b84"),
        },
    ),
    # 406 failing non-edges, each found by the enumeration
    "star30": (
        lambda: star(30),
        3,
        256,
        [],
        {
            "text": (1, "a94e59df025e79a9876a1adf3ad532ed15bbb8828ce2d50413dc6b353f2cf333"),
            "json": (1, "fa61ee85f79d4ed2447144f24214ed159f546a2557542be51018794a22039c1b"),
        },
    ),
    # the enumeration stops at one coloring; the per-non-edge searches find
    # the rest
    "fallback": (
        lambda: disjoint_union(from_graph6("D]{").without_edge(0, 2), path(11)),
        3,
        1,
        [],
        {
            "text": (1, "7de6910891d6fc1448bcec733e1a557d3aef02443fe9422e3aa1f722492cc945"),
            "json": (1, "bdb6ab5948131fa2734d1d8e01b1c9250b29cc2534c9bbbf73262bbc20e4eb26"),
        },
    ),
    # the per-non-edge searches run out of the shared budget
    "geven18": (
        lambda: build(ConstructionSpec.geven(18)).graph,
        4,
        1,
        ["--max-nodes", "10"],
        {
            "text": (3, "4ffb68f7b5173712132e0e24caa4e0de9d1b513adc776b4fa94b2595ef9cc0af"),
            "json": (3, "b22034df5c7b01908a534ba3776232e4dbbcef59bd21fe837958bc337b9b2fcd"),
        },
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", list(SATURATED_CASES))
def test_check_saturated_output_is_pinned(capsys, monkeypatch, tmp_path, case, fmt):
    make, k, cap, extra, want = SATURATED_CASES[case]
    p = tmp_path / "g.g6"
    p.write_text(make().to_graph6() + "\n")
    monkeypatch.setattr("ramsat.saturation.EXTEND_CAP", cap)
    argv = ["check", "saturated", str(p), "--k", str(k), "--format", fmt] + extra
    code, out, err = run(capsys, argv)
    assert (code, sha256(out), err) == (*want[fmt], "")


def test_check_count(capsys, geven18_file):
    code, out, _ = run(capsys, ["check", "count", geven18_file, "--k", "4"])
    assert code == 0
    assert out.strip() == "count = 1"


def test_check_arrow(capsys, tmp_path):
    k7 = tmp_path / "k7.g6"
    k7.write_text(complete(7).to_graph6() + "\n")
    code, out, _ = run(capsys, ["check", "arrow", str(k7), "--k", "4"])
    assert code == 0 and "arrow: True" in out

    k6 = tmp_path / "k6.g6"
    k6.write_text(complete(6).to_graph6() + "\n")
    code, out, _ = run(capsys, ["check", "arrow", str(k6), "--k", "4"])
    assert code == 1 and "arrow: False" in out

    # 1199 branching levels
    deep = tmp_path / "p1200.g6"
    deep.write_text(path(1200).to_graph6() + "\n")
    code, out, _ = run(capsys, ["check", "arrow", str(deep), "--k", "3"])
    assert code == 1 and "arrow: False" in out and "bad coloring" in out


def test_emitted_certificate_reverifies(capsys, tmp_path):
    k6 = tmp_path / "k6.g6"
    g = complete(6)
    k6.write_text(g.to_graph6() + "\n")
    code, out, _ = run(
        capsys, ["check", "bad-coloring", str(k6), "--k", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    colors = {"red": 0, "blue": 1}
    coloring = TwoColoring(
        colors[name]
        for _, _, name in sorted(
            payload["bad_coloring"]["edges"], key=lambda e: (e[0], e[1])
        )
    )
    assert is_bad_coloring(g, 4, coloring)


def test_check_minimal(capsys, tmp_path):
    p = tmp_path / "s.g6"
    p.write_text(star(5).to_graph6() + "\n")
    code, out, _ = run(capsys, ["check", "minimal", str(p), "--k", "3"])
    assert code == 1 and "minimal: False" in out


def test_check_minimal_names_the_nodes_used(capsys, tmp_path):
    # at k = 4 this graph on 7 vertices arrows after 18 base nodes; every
    # deletion then needs a search of its own
    p = tmp_path / "arrowing.g6"
    p.write_text("FFz~o\n")
    argv = ["check", "minimal", str(p), "--k", "4"]
    code, out, _ = run(capsys, argv + ["--max-nodes", "10"])
    assert (code, out) == (
        3,
        "inconclusive: base search exhausted its budget after 10 nodes\n",
    )
    code, out, _ = run(capsys, argv + ["--max-nodes", "50", "--format", "json"])
    assert code == 3
    assert json.loads(out) == {
        "verdict": "inconclusive",
        "reason": "search on g - (0,6) exhausted its budget after 50 nodes",
    }
    code, out, _ = run(capsys, argv + ["--max-seconds", "0"])
    assert (code, out) == (
        3,
        "inconclusive: base search exhausted its budget after 0 nodes\n",
    )


def test_check_budget_exhaustion_exit(capsys, monkeypatch, tmp_path, geven18_file):
    p = tmp_path / "k8.g6"
    p.write_text(complete(8).to_graph6() + "\n")
    code, out, _ = run(
        capsys, ["check", "count", str(p), "--k", "5", "--max-nodes", "1"]
    )
    assert code == 3
    assert out == "inconclusive: search exhausted its budget after 1 nodes\n"

    # the enumeration of geven(18)'s bad colorings needs 4 nodes
    code, out, _ = run(
        capsys, ["check", "saturated", geven18_file, "--k", "4", "--max-nodes", "4"]
    )
    assert code == 0
    for budget in (["--max-nodes", "3"], ["--max-nodes", "0"], ["--max-seconds", "0"]):
        code, out, _ = run(
            capsys, ["check", "saturated", geven18_file, "--k", "4"] + budget
        )
        assert code == 3 and "inconclusive" in out

    # per-non-edge fallback: each of the 109 searches needs at most 5 nodes,
    # 355 together
    monkeypatch.setattr("ramsat.saturation.EXTEND_CAP", 1)
    code, out, _ = run(
        capsys, ["check", "saturated", geven18_file, "--k", "4", "--max-nodes", "10"]
    )
    assert code == 3 and "inconclusive" in out


@pytest.mark.parametrize("predicate", ["arrow", "bad-coloring", "count"])
@pytest.mark.parametrize(
    "fmt, want",
    [
        ("text", "inconclusive: search exhausted its budget after 1 nodes\n"),
        (
            "json",
            '{\n  "reason": "search exhausted its budget after 1 nodes",\n'
            '  "verdict": "inconclusive"\n}\n',
        ),
    ],
)
def test_check_search_out_of_budget_is_inconclusive(capsys, tmp_path, predicate, fmt, want):
    p = tmp_path / "k8.g6"
    p.write_text(complete(8).to_graph6() + "\n")
    argv = ["check", predicate, str(p), "--k", "5", "--max-nodes", "1", "--format", fmt]
    assert run(capsys, argv) == (3, want, "")


@pytest.mark.parametrize(
    "command", [["check", "saturated", "GEVEN18", "--k", "4"], ["verify-paper"]]
)
@pytest.mark.parametrize(
    "budget",
    [["--max-nodes", "-1"], ["--max-seconds", "-5"], ["--max-seconds", "nan"]],
)
def test_negative_or_nan_budget_is_a_usage_error(capsys, geven18_file, command, budget):
    # a NaN deadline never passes, and a negative budget would read as spent
    argv = [geven18_file if a == "GEVEN18" else a for a in command] + budget
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{budget[0]}: must be >= 0, got '{budget[1]}'" in capsys.readouterr().err


def test_crash_is_not_a_verdict(capsys, monkeypatch, geven18_file):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("ramsat.search.find_bad_coloring", crash)
    code, out, err = run(capsys, ["check", "arrow", geven18_file, "--k", "4"])
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_check_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(complete(7).to_graph6() + "\n"))
    code, out, _ = run(capsys, ["check", "arrow", "-", "--k", "4"])
    assert code == 0


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_ascii_bytes_in_graph6_input(capsys, monkeypatch, tmp_path, source):
    import io

    def check(data):
        if source == "stdin":
            # stdin as the interpreter opens it in UTF-8 mode
            stream = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape")
            monkeypatch.setattr("sys.stdin", stream)
            path = "-"
        else:
            path = tmp_path / "in.g6"
            path.write_bytes(data)
        return run(capsys, ["check", "count", str(path), "--k", "3"])

    # only the first non-blank line is parsed
    assert check(b"\nD~{\n\xff\n") == (0, "count = 0\n", "")
    code, out, err = check(b"D~\xff{\n")
    assert code == 2 and out == ""
    assert err == "error: invalid graph6 character '\\udcff' (byte offset 2)\n"


def test_stdin_decode_peak_matches_a_file(monkeypatch, tmp_path):
    # once split, the read text is dropped on stdin as it is for a file:
    # keeping it alive while the line decoded traced one more line's bytes
    import io

    data = (star(3001).to_graph6() + "\n").encode()
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    stream = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape")
    monkeypatch.setattr("sys.stdin", stream)
    cli._read_graph(str(path))  # warm the decoder's tables

    def peak(source):
        tracemalloc.start()
        try:
            g = cli._read_graph(source)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == star(3001)
        return traced

    from_file = peak(str(path))
    assert peak("-") < from_file + len(data) // 4


def test_check_rejects_a_truncated_long_header(capsys, tmp_path):
    p = tmp_path / "in.g6"
    p.write_text("~~\n")
    want = "error: truncated 6-byte vertex count (byte offset 2)\n"
    assert run(capsys, ["check", "count", str(p), "--k", "3"]) == (2, "", want)


@pytest.mark.parametrize(
    "data, want",
    [
        (b"D~{\n\xff\n", (0, b"count = 0\n", b"")),
        (
            b"D~\xff{\n",
            (2, b"", b"error: invalid graph6 character '\\udcff' (byte offset 2)\n"),
        ),
    ],
)
def test_stdin_bytes_under_a_strict_decoder(data, want):
    # the interpreter's own stdin, with an error handler that raises
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ramsat.cli", "check", "count", "-", "--k", "3"],
        input=data,
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_sat_command(capsys):
    code, out, _ = run(capsys, ["sat", "--n", "5", "--k", "4"])
    assert code == 0
    assert "sat(n=5, k=4) = 10" in out


def test_sat_rejects_a_negative_order(capsys):
    assert run(capsys, ["sat", "--n", "-1", "--k", "4"]) == (
        2,
        "",
        "error: n must be >= 0, got -1\n",
    )


def test_export(capsys, geven18_file, tmp_path):
    code, out, _ = run(capsys, ["export", "cnf", geven18_file, "--k", "4"])
    assert code == 0 and "p cnf 45 " in out

    code, _, err = run(capsys, ["export", "cnf", geven18_file])
    assert code == 2 and "requires --k" in err

    code, out, _ = run(capsys, ["export", "graph6", geven18_file])
    assert from_graph6(out.strip()).m == 45

    code, out, _ = run(capsys, ["export", "dot", geven18_file])
    assert out.count(" -- ") == 45

    out_path = tmp_path / "out.dot"
    code, _, _ = run(capsys, ["export", "dot", geven18_file, "-o", str(out_path)])
    assert code == 0 and out_path.read_text().count(" -- ") == 45


def test_malformed_input_is_usage_error(capsys, tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("garbage\x01\n")
    code, _, err = run(capsys, ["check", "arrow", str(p), "--k", "4"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "godd", "--n", "19", "--coloring", "--format", "json"],
        ["construct", "general", "--k", "5", "--n", "20", "--format", "json"],
        ["sat", "--n", "5", "--k", "4", "--format", "json"],
        # star(10) and star(30) are not saturated, so their reports list
        # failures, each with a certificate's edge rows
        ["check", "saturated", "STAR10", "--k", "4", "--format", "json"],
    ]
    + [
        ["check", predicate, "GEVEN18", "--k", "4", "--format", "json"] + budget
        for predicate in ("arrow", "bad-coloring", "count", "minimal", "saturated")
        for budget in ([], ["--max-nodes", "0"])
    ]
    + [
        ["check", "saturated", "STAR30", "--k", "3", "--format", "json"],
        # the largest paper witness report
        ["check", "saturated", "GENERAL7_60", "--k", "7", "--format", "json"],
    ],
)
def test_json_output_is_stdlib_indent_2(capsys, tmp_path, geven18_file, argv):
    graphs = {
        "STAR10": lambda: star(10),
        "STAR30": lambda: star(30),
        "GENERAL7_60": lambda: build(ConstructionSpec.general(7, 60)).graph,
    }
    files = {"GEVEN18": geven18_file}
    for name in set(argv) & set(graphs):
        files[name] = tmp_path / f"{name}.g6"
        files[name].write_text(graphs[name]().to_graph6() + "\n")
    code, out, _ = run(capsys, [str(files.get(a, a)) for a in argv])
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if "STAR10" in argv or "STAR30" in argv:
        assert code == 1 and payload["failures"]
        assert all(f["certificate"]["edges"] for f in payload["failures"])
    if "GENERAL7_60" in argv:
        assert code == 0 and len(payload["non_edges_checked"]) > 1000


class _Color(enum.IntEnum):
    RED = 0
    BLUE = 1


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}], "d": [{}]},
        [[[]]],
        (1, (2, 3), [4, (5,)]),
        [True, False, 0, 1, None],
        {"t": True, "f": False, "zero": 0, "one": 1, "none": None},
        [-1, -(2**63) - 1, 2**63, 2**100],
        ["caf\u00e9", "\u2264\U0001f600", 'say "hi"', "back\\slash"],
        ["\x00\t\n\x1f\x7f"],
        {"caf\u00e9": 1, '"': 2, "\\": 3, "\n\x01": 4, "": 5, "b": 6, "B": 7},
        {"edges": [[0, 1, "red"], [0, 2, "blue"]], "sizes": [3, 1], "x": {"y": [[2]]}},
        1.5,
        [0.1, {"x": -2.5e-300}, [1, 2.0]],
        {"inf": float("inf"), "mixed": [1, "a", None, 1e100]},
        {"outer": [OrderedDict(b=1, a=[2, {}])]},
        "plain",
        7,
        None,
        # lists of flat records, which take the template path, and their
        # near misses, which do not
        [{"non_edge": [0, 1], "status": "saturated", "nodes": 3}] * 3,
        [{"non_edge": [u, u + 1], "status": s, "nodes": u} for u, s in enumerate("ab")],
        [{"n": 1, "b": [2, "x"]}, {"n": -(2**70), "b": [4, "y"]}],
        [{"n": 1}, {"n": True}],
        [{"n": [1, 2]}, {"n": [3, False]}],
        [[1, 2], [True, 3]],
        [
            {"%": 1, "%s": "%s", "%d": "%d", "%%": "100%"},
            {"%": 2, "%s": "%", "%d": "", "%%": "%%"},
        ],
        [{'say "hi"': 'say "hi"', "back\\slash": "back\\slash"}] * 2,
        [{"caf\u00e9": "\u2264\U0001f600", "\u00e9": ["\x00\n", 1]}] * 2,
        [[0, 1, "red"], [0, 2, "blue"], [1, 2, "red"]],
        [(0, 1, "red"), (0, 2, "blue"), [1, 2, "red"]],
        {"edges": ((0, 1, "red"), (0, 2, "blue"))},
        [[0, 1, "red"], [0, 2]],
        [[0, 1], []],
        [[], []],
        [{"a": 1}, {}],
        [{}, {}],
        [{"a": 1}, {"b": 1}],
        [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
        [{"a": 1}, {"a": 2, "b": 3}],
        [{"a": 1.5}, {"a": 2.5}],
        [{"a": None}, {"a": None}],
        [{"a": _Color.RED}, {"a": _Color.BLUE}],
        [[_Color.RED, 1], [2, 3]],
        [{"a": [[1]]}, {"a": [[2]]}],
        [{"a": {"b": 1, "c": "x"}}, {"a": {"b": 2, "c": "y"}}],
        [{"a": {"b": [1]}}, {"a": {"b": [2]}}],
        [{"a": 1}, [1]],
        [[1], {"a": 1}],
        [{"non_edge": [0, 1], "status": "saturated", "nodes": 3}],
        [[0, 1, "red"]],
    ],
)
def test_json_writer_matches_stdlib(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


_TEXTS = ["a", "b", "red", "", "%", "%s", "%d", "%%", '"', "\\"]
_TEXTS += ["caf\u00e9", "\U0001f600", "\x00\n"]


def _random_scalar(rng):
    return rng.choice(
        [
            lambda: rng.randint(-3, 3),
            lambda: rng.randint(-(2**70), 2**70),
            lambda: rng.choice(_TEXTS),
            lambda: rng.choice(_TEXTS),
            lambda: rng.choice([True, False, None]),
            lambda: rng.choice([0.5, -1e300, 2.0]),
            lambda: rng.choice(list(_Color)),
        ]
    )()


def _random_field(rng, depth):
    """A function drawing one field's value: mostly an int, a str or a
    record of those, else any value."""
    kind = rng.randrange(4 if depth >= 0 else 3)
    if kind == 0:
        return lambda: rng.randint(-(2**40), 2**40)
    if kind == 1:
        return lambda: rng.choice(_TEXTS)
    if kind == 2:
        return lambda: _random_json(rng, depth - 1)
    return _random_record(rng, depth - 1)


def _random_record(rng, depth):
    """A function drawing records of one shape: a dict or a list/tuple."""
    fields = [_random_field(rng, depth) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        keys = rng.sample(_TEXTS, len(fields))
        return lambda: {key: field() for key, field in zip(keys, fields)}
    seq = rng.choice([list, tuple])
    return lambda: seq(field() for field in fields)


def _random_json(rng, depth):
    roll = rng.random()
    if depth < 0 or roll < 0.3:
        return _random_scalar(rng)
    if roll < 0.4:
        return {rng.choice(_TEXTS): _random_json(rng, depth - 1) for _ in range(rng.randint(0, 3))}
    if roll < 0.5:
        return [_random_json(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    # a list of records of one shape, at times with one item of another
    record = _random_record(rng, depth)
    items = [record() for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        items[rng.randrange(len(items))] = _random_json(rng, depth - 1)
    return rng.choice([list, tuple])(items)


def test_json_writer_matches_stdlib_on_random_objects(monkeypatch):
    templated = 0
    record_template = cli._record_template

    def counted(items, pad, leaves, nested):
        nonlocal templated
        template = record_template(items, pad, leaves, nested)
        templated += nested and template is not None
        return template

    monkeypatch.setattr(cli, "_record_template", counted)
    rng = random.Random(20)
    for _ in range(2500):
        obj = _random_json(rng, 3)
        assert cli._json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n", obj
    assert templated > 500


def test_flat_records_are_written_from_one_template(monkeypatch):
    # a silent fallback to the item-by-item path would keep the output right
    # and lose the speed, so count the recursive calls
    calls = 0
    write_json = cli._write_json

    def counted(obj, pad):
        nonlocal calls
        calls += 1
        return write_json(obj, pad)

    monkeypatch.setattr(cli, "_write_json", counted)
    records = [
        {"non_edge": [u, u + 7], "status": "saturated", "nodes": u % 5} for u in range(500)
    ]
    payload = {"non_edges_checked": records}
    assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert calls <= 3


def test_parser_is_built_once_and_reused(capsys, monkeypatch, geven18_file):
    builds = 0
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        nonlocal builds
        builds += 1
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    argv = ["check", "count", geven18_file, "--k", "4"]
    alone = run(capsys, argv)
    assert alone == (0, "count = 1\n", "")
    assert run(capsys, argv) == alone
    assert builds == 1

    # a usage error leaves nothing behind in the shared parser
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json", "--max-nodes", "1e3"])
    assert exc.value.code == 2
    assert "invalid int value: '1e3'" in capsys.readouterr().err
    assert run(capsys, argv) == alone
    assert builds == 1


def test_output_is_deterministic(capsys, geven18_file):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(
            capsys,
            ["check", "saturated", geven18_file, "--k", "4", "--format", "json"],
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_paper_quick(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--quick"])
    assert code == 0
    assert "10/10 criteria passed" in out
    assert out.count("PASS") == 10
    assert sha256(out) == (
        "840366f93195d160d30ef8a5bbdf62dc0aa3574945a61f243b5d90e4f8a62f23"
    )


def test_verify_paper_inconclusive_error_marks_its_criterion(capsys, monkeypatch):
    def ran_out(*args):
        raise InconclusiveError("the Ramsey scans ran out of time")

    monkeypatch.setattr(oracle, "family_ramsey_number", ran_out)
    code, out, _ = run(capsys, ["verify-paper", "--quick"])
    assert code == 3
    lines = out.splitlines()
    assert [line[:4] for line in lines[:-1:2]] == [f"[{i:2d}]" for i in range(1, 11)]
    assert lines[12].startswith("[ 7] INCONCLUSIVE  ")
    assert lines[13].strip() == "the Ramsey scans ran out of time"
    assert lines[-1] == "9/10 criteria passed, 1 inconclusive"


def test_verify_paper_budget_exhaustion_is_inconclusive(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--quick", "--max-nodes", "1"])
    assert code == 3
    assert "FAIL" not in out and "no bad coloring found" not in out
    assert out.count("INCONCLUSIVE") == 5
    lines = out.splitlines()
    assert lines[-1] == "5/10 criteria passed, 5 inconclusive"
    # criteria 2-4 spend the one node, so 6 and 10 draw none
    assert lines[11].strip() == "budget exhausted on n=2, k=3 after 0 nodes"
    assert lines[19].strip() == "geven(18): search exhausted its budget after 0 nodes"
    assert sha256(out) == (
        "fe83d7bb927d819fca607d48087ed392e7ff9056776bd30443e72df88ee9bc94"
    )


def test_verify_paper_budget_bounds_the_whole_command(capsys, monkeypatch):
    spent = []
    run_search = _Engine.run

    def counted(self, *args, **kwargs):
        try:
            return run_search(self, *args, **kwargs)
        finally:
            spent.append(self.stats.nodes)

    monkeypatch.setattr(_Engine, "run", counted)
    code, out, _ = run(capsys, ["verify-paper", "--quick", "--max-nodes", "20"])
    assert code == 3
    lines = out.splitlines()
    assert lines[-1] == "8/10 criteria passed, 2 inconclusive"
    assert sum(spent) <= 20
    assert lines[11].strip() == "budget exhausted on n=3, k=5 after 10 nodes"
    assert lines[19].strip() == "geven(18): search exhausted its budget after 0 nodes"
    assert sha256(out) == (
        "3730e78b89800fca91148fadce450f43bac9d2ca50bef355f9e86ad8a494f4e6"
    )


def test_verify_paper_deadline_bounds_the_oracle_scans(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify-paper", "--max-seconds", "0"])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "FAIL" not in out
    assert out.splitlines()[-1] == "3/10 criteria passed, 7 inconclusive"
    passed = [line[1:3].strip() for line in out.splitlines() if "] PASS " in line]
    assert passed == ["1", "5", "9"]
    assert elapsed < 3.0
    assert out.splitlines()[19].strip() == (
        "geven(18): search exhausted its budget after 0 nodes"
    )
    assert sha256(out) == (
        "fe1a056716d4d72be088c5541bad2b1c6b28854be69128dcb386be653368ecb8"
    )


@pytest.mark.parametrize(
    "max_nodes, details",
    [
        (3, "geven(18): search exhausted its budget after 3 nodes"),
        (4, "general(5, 20): search exhausted its budget after 4 nodes"),
        (7, "geven(18): max-red search budget-exhausted after 7 nodes"),
    ],
)
def test_criterion_10_names_the_nodes_it_drew(max_nodes, details):
    result = verify.criterion_10(quick=True, budget=verify.SearchBudget(max_nodes))
    assert result.inconclusive and result.details == details


@pytest.mark.parametrize(
    "criterion, stopped_at", [(verify.criterion_6, 4), (verify.criterion_10, 6)]
)
def test_verify_deadline_stops_a_scan_part_way(monkeypatch, criterion, stopped_at):
    # the deadline passes after the 40th 2^m scan; only verify's clock
    # moves, so no search inside the criterion runs out
    scans = 0
    scan = oracle.brute_force_bad_colorings

    def counted(*args):
        nonlocal scans
        scans += 1
        return scan(*args)

    clock = time.perf_counter
    monkeypatch.setattr(oracle, "brute_force_bad_colorings", counted)
    monkeypatch.setattr(
        verify,
        "time",
        SimpleNamespace(perf_counter=lambda: clock() + (1e6 if scans >= 40 else 0)),
    )
    result = criterion(budget=verify.SearchBudget(max_seconds=60))
    assert result.inconclusive and not result.passed
    assert result.details == f"time budget ran out during the scan at n={stopped_at}"
    assert scans == 40


class _JumpingClock:
    """A ``time`` stand-in whose every ``perf_counter()`` read is 10^6 s
    after the previous one, so any deadline has passed by the next read."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return 1e6 * self.reads


def test_a_cold_parser_build_reads_no_clock(monkeypatch):
    """The budget defaults the parser shows are constants: building it
    makes no ``SearchBudget`` and so starts no clock."""
    clock = _JumpingClock()
    monkeypatch.setattr("ramsat.search.time", clock)
    cli.build_parser.cache_clear()
    cli.build_parser()
    assert clock.reads == 0


@pytest.mark.parametrize(
    "argv",
    [["construct", "geven", "--n", "18", "--format", fmt] for fmt in ("text", "json")]
    + [
        ["check", predicate, "GEVEN18", "--k", "4", "--format", fmt]
        for predicate in ("arrow", "bad-coloring", "count", "saturated", "minimal")
        for fmt in ("text", "json")
    ]
    + [["sat", "--n", "5", "--k", "3", "--format", fmt] for fmt in ("text", "json")]
    + [["export", "cnf", "GEVEN18", "--k", "4"]]
    + [["export", what, "GEVEN18"] for what in ("dot", "graph6")]
    + [["verify-paper", "--quick"]],
    ids=" ".join,
)
def test_every_subcommand_stops_under_a_jumping_clock(
    capsys, monkeypatch, geven18_file, argv
):
    """Each subcommand ends in a verdict (0 or 1) or exit 3 when every
    clock read is past the deadline, the search-backed ones in exit 3, and
    none reads the clock more than a few times: no loop waits on a clock
    that its work does not check. A deadline that passes while output is
    written (the JSON of a large not-saturated report) is still unchecked."""
    clock = _JumpingClock()
    monkeypatch.setattr("ramsat.search.time", clock)
    monkeypatch.setattr("ramsat.verify.time", clock)
    argv = [geven18_file if a == "GEVEN18" else a for a in argv]
    code, _, _ = run(capsys, argv)
    assert code in (0, 1, 3)
    if argv[0] in ("check", "verify-paper"):  # the search-backed ones
        assert code == 3
    # at most 3 reads for a check and 18 for verify-paper --quick, as
    # measured; the rest read none
    assert clock.reads <= 20


# run in a fresh interpreter: each step is an argv for cli.main or
# "canonical_form" (of the Petersen graph); prints whether numpy is loaded
# at the start, then per step its exit code, stdout, and whether numpy is
# loaded after it
_FRESH_STEPS = r"""
import contextlib, io, json, sys
import ramsat, ramsat.cli, ramsat.verify
from ramsat.graphs import petersen

loaded = "numpy" in sys.modules
results = []
for step in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if step == "canonical_form":
            code = 0
            print(petersen().canonical_form().hex())
        else:
            code = ramsat.cli.main(step)
    results.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps([loaded, results]))
"""


def _fresh_steps(steps):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_STEPS, json.dumps(steps)],
        capture_output=True,
        env=env,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_loads_only_for_the_commands_that_compute_with_it(capsys, geven18_file):
    """Importing the package and running every check, construct and
    export dot|graph6 leaves numpy unloaded; export cnf, sat and
    Graph.canonical_form() each load it, and every output is the one this
    process gives."""
    plain = (
        [
            ["check", predicate, geven18_file, "--k", "4", "--format", fmt]
            for predicate in ("arrow", "bad-coloring", "count", "saturated", "minimal")
            for fmt in ("text", "json")
        ]
        + [["construct", "geven", "--n", "18", "--format", "graph6"]]
        + [
            ["construct", "geven", "--n", "18", "--coloring", "--format", fmt]
            for fmt in ("text", "json", "dot")
        ]
        + [["export", what, geven18_file] for what in ("dot", "graph6")]
    )
    loaded, results = _fresh_steps(plain)
    assert not loaded
    for argv, (code, out, numpy_loaded) in zip(plain, results, strict=True):
        assert not numpy_loaded, argv
        assert [code, out] == list(run(capsys, argv)[:2]), argv
    for step in (
        ["export", "cnf", geven18_file, "--k", "4"],
        ["sat", "--n", "5", "--k", "3"],
        "canonical_form",
    ):
        loaded, [(code, out, numpy_loaded)] = _fresh_steps([step])
        assert not loaded and numpy_loaded, step
        if step == "canonical_form":
            want = [0, petersen().canonical_form().hex() + "\n"]
        else:
            want = list(run(capsys, step)[:2])
        assert [code, out] == want, step
