"""Command-line interface: subcommands, formats, exit codes."""

import io
import json

import pytest

import graphmonoid as gm
from graphmonoid.cli import main

from conftest import make_abcd

ABCD_TEXT = gm.format_graph_text(make_abcd())


@pytest.fixture()
def abcd_file(tmp_path):
    path = tmp_path / "abcd.graph"
    path.write_text(ABCD_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------------
# eq


def test_eq_equal(abcd_file, capsys):
    code, out, _ = run(capsys, "eq", abcd_file, "b", "a+c")
    assert code == 0
    assert "verdict: equal" in out
    assert "reduct: a + c" in out


def test_eq_distinct(abcd_file, capsys):
    code, out, _ = run(capsys, "eq", abcd_file, "d", "c")
    assert code == 1
    assert "support-closure" in out


def test_eq_unknown(abcd_file, capsys):
    code, out, _ = run(capsys, "eq", abcd_file, "--depth", "0", "a", "2*a")
    assert code == 2
    assert "unknown" in out


@pytest.mark.parametrize(
    "lhs, rhs, flag, value, message",
    [
        ("a", "2*a", "--depth", "-3", "depth must be nonnegative"),
        ("a", "a", "--depth", "-1", "depth must be nonnegative"),
        ("a", "2*a", "--reduct-cap", "0", "reduct cap must be positive"),
    ],
)
def test_eq_rejects_bad_search_bounds(tmp_path, capsys, lhs, rhs, flag, value, message):
    path = tmp_path / "t.graph"
    path.write_text("vertex a\nvertex b\nedge a a\nedge a b\nedge b a\n")
    code, out, err = run(capsys, "eq", str(path), lhs, rhs, flag, value)
    assert code == 3
    assert out == ""
    assert message in err


def test_eq_json_payload(abcd_file, capsys):
    code, out, _ = run(capsys, "eq", abcd_file, "--format", "json", "b", "a+c")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equal"
    assert payload["reduct"] == "a + c"
    assert payload["lhs_trace"]["start"] == "b"
    assert payload["lhs_trace"]["steps"][0]["vertex"] == "b"


def test_eq_json_distinct_certificate(abcd_file, capsys):
    code, out, _ = run(capsys, "eq", abcd_file, "--format", "json", "d", "c")
    assert code == 1
    payload = json.loads(out)
    assert payload["certificate"]["invariant"] == "support-closure"


def test_eq_distinct_inside_a_proper_closure(tmp_path, capsys):
    # b and 2*b differ only in K0 of the restriction to {b, c}
    g = gm.Graph(("a", "b", "c"), (("a", "a"), ("a", "b"), ("b", "b"), ("b", "c")))
    path = tmp_path / "chain.graph"
    path.write_text(gm.format_graph_text(g))
    code, out, _ = run(capsys, "eq", str(path), "b", "2*b")
    assert code == 1
    assert out.splitlines() == [
        "verdict: distinct",
        "invariant: restriction-grothendieck",
        "context: {b, c}",
        "lhs: [1]",
        "rhs: [2]",
    ]
    code, out, _ = run(capsys, "eq", str(path), "--format", "json", "b", "2*b")
    assert code == 1
    assert json.loads(out) == {
        "verdict": "distinct",
        "certificate": {
            "invariant": "restriction-grothendieck",
            "context": ["b", "c"],
            "lhs": [1],
            "rhs": [2],
        },
    }


# ----------------------------------------------------------------------
# lattice and series


def test_lattice_text(abcd_file, capsys):
    code, out, _ = run(capsys, "lattice", abcd_file)
    assert code == 0
    assert "sets: 6" in out
    assert "{a, d}" in out
    assert "cover: {} < {a}" in out


def test_lattice_ideal_filter(abcd_file, capsys):
    code, out, _ = run(capsys, "lattice", abcd_file, "--ideal", "c+d")
    assert code == 0
    assert "{c, d}" in out
    assert "{a, b, c, d}" in out


def test_lattice_cap_exceeded(tmp_path, capsys):
    big = gm.Graph(tuple(f"v{i}" for i in range(21)), ())
    path = tmp_path / "big.graph"
    path.write_text(gm.format_graph_text(big))
    code, _, err = run(capsys, "lattice", str(path))
    assert code == 4
    assert "error" in err


def test_series_build(abcd_file, capsys):
    code, out, _ = run(capsys, "series", abcd_file)
    assert code == 0
    assert "series: {} < {a} < {a, d} < {a, b, c, d}" in out
    assert "SinkType (sink d)" in out


def test_series_validate_good(abcd_file, capsys):
    code, out, _ = run(capsys, "series", abcd_file, "--validate", "d; c,d; a,b,c,d")
    assert code == 0
    assert "valid" in out


def test_series_validate_bad(abcd_file, capsys):
    code, out, _ = run(capsys, "series", abcd_file, "--validate", "a; d")
    assert code == 1
    assert "invalid" in out


# ----------------------------------------------------------------------
# k0 and filtration


def test_k0_json(abcd_file, capsys):
    code, out, _ = run(capsys, "k0", abcd_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["free_rank"] == 1
    assert payload["torsion"] == []
    assert payload["images"]["a"] == [0]
    assert payload["images"]["d"] == [1]
    assert payload["images"]["b"] == payload["images"]["c"] == [-1]


def test_filtration_text(abcd_file, capsys):
    code, out, _ = run(capsys, "filtration", abcd_file, "--level", "2")
    assert code == 0
    assert "block: vertex d stage 0 size 1" in out
    assert "block: vertex b stage 2 size 0 degenerate" in out
    assert "transition: a -> a x2" in out


def test_filtration_requires_level(abcd_file, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["filtration", abcd_file])
    assert stop.value.code == 3


# ----------------------------------------------------------------------
# check


def test_check_default_props(abcd_file, capsys):
    code, out, _ = run(capsys, "check", abcd_file)
    assert code == 0
    assert "separativity: holds-within-bounds" in out
    assert "unperforation: holds-within-bounds" in out


def test_check_refinement(abcd_file, capsys):
    code, out, _ = run(capsys, "check", abcd_file, "--props", "refinement")
    assert code == 0
    assert "refinement: holds-within-bounds" in out


def test_check_size_bound_reaches_every_property(abcd_file, capsys):
    argv = ["check", abcd_file, "--props", "refinement,separativity"]
    argv += ["--format", "json"]
    _, out, _ = run(capsys, *argv)
    reports = json.loads(out)["reports"]
    # without the flag each property keeps its own default bound
    assert [r["bounds"]["size_bound"] for r in reports] == [3, 4]
    _, out, _ = run(capsys, *argv, "--size-bound", "2")
    reports = json.loads(out)["reports"]
    assert [r["bounds"]["size_bound"] for r in reports] == [2, 2]


def test_check_n_bound_defaults_to_each_sweep_scale(abcd_file, capsys):
    argv = ["check", abcd_file, "--format", "json"]
    _, out, _ = run(capsys, *argv)
    reports = json.loads(out)["reports"]
    assert [r["property"] for r in reports] == ["separativity", "unperforation"]
    assert [r["bounds"]["scale"] for r in reports] == [3, 3]
    _, out, _ = run(capsys, *argv, "--n-bound", "2")
    assert [r["bounds"]["scale"] for r in json.loads(out)["reports"]] == [2, 2]


def test_check_unknown_exit(tmp_path, capsys):
    g = gm.Graph(tuple(f"v{i}" for i in range(11)), (("v0", "v0"),))
    path = tmp_path / "wide.graph"
    path.write_text(gm.format_graph_text(g))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    assert "unknown" in out


def test_check_rejects_unknown_property(abcd_file, capsys):
    code, _, err = run(capsys, "check", abcd_file, "--props", "frobnication")
    assert code == 3
    assert "error" in err


# ----------------------------------------------------------------------
# show, stdin, errors, determinism


def test_show_roundtrip(abcd_file, capsys):
    code, out, _ = run(capsys, "show", abcd_file)
    assert code == 0
    assert gm.parse_graph_text(out) == make_abcd()


def test_show_json(abcd_file, capsys):
    code, out, _ = run(capsys, "show", abcd_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert gm.graph_from_json(payload) == make_abcd()


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ABCD_TEXT))
    code, out, _ = run(capsys, "show", "-")
    assert code == 0
    assert gm.parse_graph_text(out) == make_abcd()


def test_missing_file(capsys):
    code, _, err = run(capsys, "eq", "/nonexistent/g.graph", "a", "b")
    assert code == 3
    assert "error" in err


def test_bad_graph_text(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("vertex a\nedge a\n")
    code, _, err = run(capsys, "show", str(path))
    assert code == 3
    assert "line 2" in err


def test_bad_element(abcd_file, capsys):
    code, _, err = run(capsys, "eq", abcd_file, "a+", "b")
    assert code == 3
    assert "error" in err


def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["frobnicate"])
    assert stop.value.code == 3


def test_outputs_are_deterministic(abcd_file, capsys):
    args = ["lattice", abcd_file, "--format", "json"]
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    args = ["check", abcd_file, "--format", "json"]
    assert run(capsys, *args) == run(capsys, *args)
