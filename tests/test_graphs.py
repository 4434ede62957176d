"""Graph container, subset machinery, text and JSON formats."""

import pytest
from hypothesis import given, strategies as st

import graphmonoid as gm
from graphmonoid import Graph, GraphFormatError, Path

from conftest import corpus, make_abcd, make_bouquet


# ----------------------------------------------------------------------
# construction and validation


def test_vertex_order_is_sorted_and_declaration_preserved():
    g = Graph(("z", "m", "a"), (("z", "m"),))
    assert g.vertices == ("z", "m", "a")
    assert g.vertex_order == ("a", "m", "z")


def test_duplicate_vertex_rejected():
    with pytest.raises(ValueError):
        Graph(("a", "a"), ())


def test_undeclared_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(("a",), (("a", "b"),))


@pytest.mark.parametrize("bad", ["", "0", "a b", "x#y", "p+q", "u*v", "s,t", "m;n"])
def test_forbidden_vertex_names(bad):
    with pytest.raises(ValueError):
        Graph((bad,), ())


def test_membership_and_adjacency(abcd):
    assert "a" in abcd and "e" not in abcd
    assert abcd.adjacency("a", "a") == 2
    assert abcd.adjacency("b", "a") == 1
    assert abcd.adjacency("d", "a") == 0
    assert abcd.adjacency_matrix == (
        (2, 0, 0, 0),
        (1, 0, 1, 0),
        (0, 0, 2, 1),
        (0, 0, 0, 0),
    )


def test_out_edges_and_ranges(abcd):
    assert [abcd.edges[i] for i in abcd.out_edges("b")] == [("b", "a"), ("b", "c")]
    assert abcd.ranges_from("c") == ("c", "c", "d")
    assert abcd.is_sink("d") and not abcd.is_sink("a")


def test_require_vertex_raises():
    g = make_bouquet(1)
    with pytest.raises(ValueError):
        g.require_vertex("w")


# ----------------------------------------------------------------------
# paths


def test_path_composition_checked(abcd):
    loop = Path(abcd, (0,))
    assert loop.is_loop() and loop.source == "a" and loop.length == 1
    with pytest.raises(ValueError):
        Path(abcd, ())
    with pytest.raises(ValueError):
        Path(abcd, (99,))
    with pytest.raises(ValueError):
        Path(abcd, (2, 6))  # b->a then c->d does not compose


def test_path_visited(abcd):
    p = Path(abcd, (3, 6))  # b->c then c->d
    assert p.visited == ("b", "c")
    assert p.source == "b" and p.target == "d"
    assert not p.is_loop()


# ----------------------------------------------------------------------
# hereditary and saturated subsets


def test_sinks(abcd, fork):
    assert gm.sinks(abcd) == frozenset({"d"})
    assert gm.sinks(fork) == frozenset({"a", "c"})


def test_tree_is_reachability(abcd):
    assert gm.tree(abcd, "b") == frozenset({"a", "b", "c", "d"})
    assert gm.tree(abcd, "c") == frozenset({"c", "d"})
    assert gm.tree(abcd, "d") == frozenset({"d"})


def test_hereditary_and_saturated(abcd):
    assert gm.is_hereditary(abcd, {"a"})
    assert gm.is_hereditary(abcd, {"c", "d"})
    assert not gm.is_hereditary(abcd, {"c"})
    assert gm.saturate(abcd, {"a"}) == frozenset({"a"})
    with pytest.raises(ValueError):
        gm.saturate(abcd, {"c"})  # not hereditary


def test_saturation_pulls_in_forced_vertices(parallel_pair):
    # v's only edges land on w, so saturating {w} forces v in
    assert gm.saturate(parallel_pair, {"w"}) == frozenset({"v", "w"})


def test_closures(abcd):
    assert gm.hereditary_closure(abcd, {"b"}) == frozenset({"a", "b", "c", "d"})
    assert gm.hsat_closure(abcd, {"c"}) == frozenset({"c", "d"})
    assert gm.hsat_closure(abcd, set()) == frozenset()


@given(st.integers(0, 108), st.integers(0, 7))
def test_hsat_closure_idempotent_and_sound(graph_idx, subset_mask):
    g = corpus()[graph_idx]
    subset = {v for k, v in enumerate(g.vertex_order) if subset_mask >> k & 1}
    closed = gm.hsat_closure(g, subset)
    assert subset <= closed
    assert gm.is_hereditary(g, closed)
    assert gm.saturate(g, closed) == closed
    assert gm.hsat_closure(g, closed) == closed


@given(st.integers(0, 108), st.integers(0, 2))
def test_tree_is_hereditary(graph_idx, vertex_idx):
    g = corpus()[graph_idx]
    order = g.vertex_order
    v = order[vertex_idx % len(order)]
    assert gm.is_hereditary(g, gm.tree(g, v))


# ----------------------------------------------------------------------
# completion


def test_completion_keeps_emitted_edges(abcd):
    done = gm.completion(abcd, {"b"}, ())
    assert done.vertices == ("a", "b", "c")
    assert sorted(done.edges) == [("b", "a"), ("b", "c")]


def test_completion_validates_edge_indices(abcd):
    with pytest.raises(ValueError):
        gm.completion(abcd, {"a"}, (99,))
    with pytest.raises(ValueError):
        gm.completion(abcd, {"b"}, (2,))  # b->a leaves {b}


def test_completion_result_is_complete(abcd):
    # every emitting vertex of the result emits all of its original edges
    done = gm.completion(abcd, {"b"}, ())
    for v in done.vertices:
        if done.out_edges(v):
            assert done.ranges_from(v) == abcd.ranges_from(v)


def test_iterated_completion_stabilizes_at_hereditary_closure(abcd):
    seed = {"b"}
    cur = gm.completion(abcd, seed, ())
    for _ in range(len(abcd.vertices)):
        nxt = gm.completion(abcd, cur.vertices, ())
        if nxt.vertices == cur.vertices and nxt.edges == cur.edges:
            break
        cur = nxt
    assert set(cur.vertices) == gm.hereditary_closure(abcd, seed)
    expect = {i for v in cur.vertices for i in abcd.out_edges(v)}
    assert sorted(cur.edges) == sorted(abcd.edges[i] for i in expect)


# ----------------------------------------------------------------------
# cofinality, loops, topology


def test_cofinal(abcd, ladder, fork):
    assert not gm.is_cofinal(abcd)  # tree(d) saturates to {d} only
    assert gm.is_cofinal(ladder)  # saturation climbs back up to p1
    assert not gm.is_cofinal(fork)
    assert gm.is_cofinal(make_bouquet(2))
    assert gm.is_cofinal(Graph(("v",), ()))


def _kinds(g):
    return {c.members: (c.kind, c.has_exit) for c in g.components}


def test_component_kinds(abcd):
    # a's two loops have no way out; c's two loops exit to d
    assert _kinds(abcd) == {
        ("a",): ("cyclic", False),
        ("b",): ("acyclic", True),
        ("c",): ("cyclic", True),
        ("d",): ("sink", False),
    }


def test_component_kinds_two_cycle():
    g = Graph(("a", "b"), (("a", "b"), ("b", "a")))
    assert _kinds(g) == {("a", "b"): ("cycle", False)}


def test_has_exit():
    assert _kinds(make_bouquet(1)) == {("v",): ("cycle", False)}
    g = Graph(("a", "b"), (("a", "a"), ("a", "b")))
    assert _kinds(g) == {("a",): ("cycle", True), ("b",): ("sink", False)}


def test_topological_order(ladder):
    assert [c.members for c in ladder.components] == [("p1",), ("p2",), ("x",)]
    for g in corpus():
        pos = {v: k for k, c in enumerate(g.components) for v in c.members}
        for src, dst in g.edges:
            assert pos[src] <= pos[dst]
        for v in g.vertices:
            # v's component: the vertices v reaches that reach v back
            mutual = {w for w in gm.tree(g, v) if v in gm.tree(g, w)}
            assert set(g.components[pos[v]].members) == mutual


def test_components_of_a_long_chain_need_no_deep_recursion():
    names = [f"v{i:04d}" for i in range(3000)]
    g = Graph(names, tuple(zip(names, names[1:])))
    comps = g.components
    assert [c.members[0] for c in comps] == names
    assert [c.kind for c in comps[-2:]] == ["acyclic", "sink"]
    looped = Graph(names, tuple(zip(names, names[1:])) + ((names[-1], names[0]),))
    assert [(len(c.members), c.kind) for c in looped.components] == [(3000, "cycle")]


def test_is_acyclic(abcd, ladder):
    assert gm.is_acyclic(ladder)
    assert not gm.is_acyclic(abcd)


def test_sink_distribution(ladder):
    out = gm.sink_distribution(ladder, {"p1": 1})
    assert out == {"x": 2}
    out = gm.sink_distribution(ladder, {"p1": 2, "x": 1})
    assert out == {"x": 5}
    with pytest.raises(ValueError):
        gm.sink_distribution(ladder, {"p1": -1})
    with pytest.raises(ValueError, match="graph has a cycle"):
        gm.sink_distribution(make_bouquet(1), {"v": 1})


# ----------------------------------------------------------------------
# text and JSON formats


def test_parse_graph_text_roundtrip(abcd):
    text = gm.format_graph_text(abcd)
    assert gm.parse_graph_text(text) == abcd


def test_parse_graph_text_comments_and_blanks():
    g = gm.parse_graph_text(
        """
        # demo
        vertex a
        vertex b  # trailing
        edge a b
        """
    )
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)


@pytest.mark.parametrize(
    "text, line",
    [
        ("vertex", 1),
        ("vertex a\nedge a", 2),
        ("vertex a\nedge a b", 2),
        ("frob a", 1),
        ("vertex a\nvertex a", 2),
    ],
)
def test_parse_graph_text_errors_carry_line(text, line):
    with pytest.raises(GraphFormatError) as err:
        gm.parse_graph_text(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}:")


def test_parse_graph_text_rejects_empty():
    with pytest.raises(GraphFormatError, match="no vertices"):
        gm.parse_graph_text("# only a comment\n")


def test_graph_json_roundtrip(abcd):
    blob = gm.graph_to_json(abcd)
    assert set(blob) == {"vertices", "edges"}
    assert gm.graph_from_json(blob) == abcd


@given(st.integers(0, 108))
def test_text_roundtrip_on_corpus(graph_idx):
    g = corpus()[graph_idx]
    assert gm.parse_graph_text(gm.format_graph_text(g)) == g
