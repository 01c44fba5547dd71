"""CLI surface: subcommands, exit codes, output determinism."""

import json

import pytest

from ramsat.cli import main
from ramsat.colorings import TwoColoring, is_bad_coloring
from ramsat.constructions import ConstructionSpec, build
from ramsat.graphs import complete, from_graph6, path, star


@pytest.fixture
def geven18_file(tmp_path):
    p = tmp_path / "geven18.g6"
    p.write_text(build(ConstructionSpec.geven(18)).graph.to_graph6() + "\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_check_budget_exhaustion_exit(capsys, monkeypatch, tmp_path, geven18_file):
    p = tmp_path / "k8.g6"
    p.write_text(complete(8).to_graph6() + "\n")
    code, out, _ = run(
        capsys, ["check", "count", str(p), "--k", "5", "--max-nodes", "1"]
    )
    assert code == 3 and "inconclusive" in out

    # the enumeration of geven(18)'s bad colorings needs 4 nodes
    code, out, _ = run(
        capsys, ["check", "saturated", geven18_file, "--k", "4", "--max-nodes", "4"]
    )
    assert code == 0
    for budget in (["--max-nodes", "3"], ["--max-seconds", "0"]):
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


def test_sat_command(capsys):
    code, out, _ = run(capsys, ["sat", "--n", "5", "--k", "4"])
    assert code == 0
    assert "sat(n=5, k=4) = 10" in out


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


def test_verify_paper_budget_exhaustion_is_inconclusive(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--quick", "--max-nodes", "1"])
    assert code == 3
    assert "FAIL" not in out and "no bad coloring found" not in out
    assert out.count("INCONCLUSIVE") == 5
    assert out.splitlines()[-1] == "5/10 criteria passed, 5 inconclusive"
