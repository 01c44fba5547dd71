"""CLI surface: subcommands, exit codes, output determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path
from types import SimpleNamespace

import pytest

from ramsat import cli, oracle, verify
from ramsat.cli import main
from ramsat.colorings import TwoColoring, is_bad_coloring
from ramsat.constructions import ConstructionSpec, build
from ramsat.graphs import complete, from_graph6, path, star
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
    monkeypatch.setattr("ramsat.search.EXTEND_CAP", 1)
    code, out, _ = run(
        capsys, ["check", "saturated", geven18_file, "--k", "4", "--max-nodes", "10"]
    )
    assert code == 3 and "inconclusive" in out


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
        # star(10) is not saturated, so its report lists failures
        ["check", "saturated", "STAR10", "--k", "4", "--format", "json"],
    ]
    + [
        ["check", predicate, "GEVEN18", "--k", "4", "--format", "json"] + budget
        for predicate in ("arrow", "bad-coloring", "count", "minimal", "saturated")
        for budget in ([], ["--max-nodes", "0"])
    ],
)
def test_json_output_is_stdlib_indent_2(capsys, tmp_path, geven18_file, argv):
    star10 = tmp_path / "star10.g6"
    star10.write_text(star(10).to_graph6() + "\n")
    files = {"GEVEN18": geven18_file, "STAR10": str(star10)}
    code, out, _ = run(capsys, [files.get(a, a) for a in argv])
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if "STAR10" in argv:
        assert code == 1 and payload["failures"]


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
    ],
)
def test_json_writer_matches_stdlib(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
        raise InconclusiveError("search on K_8 exhausted its budget")

    monkeypatch.setattr(oracle, "family_ramsey_number", ran_out)
    code, out, _ = run(capsys, ["verify-paper", "--quick"])
    assert code == 3
    lines = out.splitlines()
    assert [line[:4] for line in lines[:-1:2]] == [f"[{i:2d}]" for i in range(1, 11)]
    assert lines[12].startswith("[ 7] INCONCLUSIVE  ")
    assert lines[13].strip() == "search on K_8 exhausted its budget"
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


def test_family_ramsey_number_names_the_nodes_it_drew():
    with pytest.raises(InconclusiveError) as exc:
        oracle.family_ramsey_number(5, verify.SearchBudget(max_nodes=1))
    assert str(exc.value) == "search on K_8 exhausted its budget after 1 nodes"


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
