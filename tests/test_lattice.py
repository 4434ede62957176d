"""Hereditary saturated subsets: lattice, quotients, composition series."""

import random
import time

import pytest
from hypothesis import given, strategies as st

import graphmonoid as gm
from graphmonoid import CapExceeded, Graph, HSatSet

from conftest import corpus, make_abcd, make_bouquet, make_ladder, small_graphs

ABCD = make_abcd()


# ----------------------------------------------------------------------
# HSatSet and enumeration


def test_hsatset_validates():
    h = HSatSet(ABCD, frozenset({"a", "d"}))
    assert "a" in h and "b" not in h
    with pytest.raises(ValueError):
        HSatSet(ABCD, frozenset({"c"}))  # not hereditary
    with pytest.raises(ValueError):
        HSatSet(ABCD, frozenset({"b", "a", "c"}))  # not saturated (misses d)


def test_enumerate_hsat_workhorse():
    sets = gm.enumerate_hsat(ABCD)
    assert [sorted(s.members) for s in sets] == [
        [],
        ["a"],
        ["d"],
        ["a", "d"],
        ["c", "d"],
        ["a", "b", "c", "d"],
    ]


def test_enumerate_hsat_cap():
    big = Graph(tuple(f"v{i}" for i in range(21)), ())
    with pytest.raises(CapExceeded):
        gm.enumerate_hsat(big)
    # every subset of an edgeless graph qualifies
    small = Graph(tuple(f"v{i}" for i in range(5)), ())
    assert len(gm.enumerate_hsat(small)) == 2**5


def test_join_and_meet():
    sets = {tuple(sorted(s.members)): s for s in gm.enumerate_hsat(ABCD)}
    a, d = sets[("a",)], sets[("d",)]
    assert sorted(gm.join(a, d).members) == ["a", "d"]
    assert sorted(gm.meet(sets[("a", "d")], sets[("c", "d")]).members) == ["d"]
    # join can force saturation beyond the union
    cd = sets[("c", "d")]
    assert sorted(gm.join(a, cd).members) == ["a", "b", "c", "d"]


def test_lattice_report_tables():
    rep = gm.lattice_report(ABCD)
    n = len(rep.sets)
    assert n == 6
    bottom = rep.sets[0].members
    top = rep.sets[-1].members
    assert bottom == frozenset() and top == frozenset("abcd")
    for i in range(n):
        for j in range(n):
            ij = rep.join_table[i][j]
            mj = rep.meet_table[i][j]
            assert rep.sets[ij].members == gm.join(rep.sets[i], rep.sets[j]).members
            assert rep.sets[mj].members == gm.meet(rep.sets[i], rep.sets[j]).members
            # commutativity and absorption
            assert rep.join_table[i][j] == rep.join_table[j][i]
            assert rep.meet_table[i][j] == rep.meet_table[j][i]
    # hasse covers connect comparable sets with nothing in between
    for lo, hi in rep.hasse:
        assert rep.sets[lo].members < rep.sets[hi].members


def test_order_ideal_membership():
    sets = {tuple(sorted(s.members)): s for s in gm.enumerate_hsat(ABCD)}
    cd = sets[("c", "d")]
    assert gm.order_ideal_membership(cd, gm.parse_element(ABCD, "c + 2*d"))
    assert not gm.order_ideal_membership(cd, gm.parse_element(ABCD, "a"))
    assert gm.order_ideal_membership(sets[()], gm.zero(ABCD))


@given(st.integers(0, 108))
def test_enumerated_sets_are_closed_under_join_meet(graph_idx):
    g = corpus()[graph_idx]
    sets = gm.enumerate_hsat(g)
    members = {s.members for s in sets}
    for s in sets:
        for t in sets:
            assert gm.join(s, t).members in members
            assert gm.meet(s, t).members in members


# ----------------------------------------------------------------------
# differential checks against a brute-force powerset oracle


def _set_key(members):
    return (len(members), tuple(sorted(members)))


def _oracle_sets(g):
    """Every hereditary saturated subset, found by testing all 2^n."""
    names = sorted(g.vertices)
    found = []
    for mask in range(1 << len(names)):
        members = frozenset(v for i, v in enumerate(names) if mask >> i & 1)
        if gm.is_hereditary(g, members) and gm.saturate(g, members) == members:
            found.append(members)
    return sorted(found, key=_set_key)


def _oracle_covers(sets):
    return {
        (lo, hi)
        for lo in sets
        for hi in sets
        if lo < hi and not any(lo < mid < hi for mid in sets)
    }


def _check_against_oracle(g):
    expected = _oracle_sets(g)
    assert [s.members for s in gm.enumerate_hsat(g)] == expected
    rep = gm.lattice_report(g)
    assert [s.members for s in rep.sets] == expected
    assert list(rep.hasse) == sorted(rep.hasse)
    covers = _oracle_covers(expected)
    listed = {(expected[i], expected[j]) for i, j in rep.hasse}
    assert len(listed) == len(rep.hasse)
    assert listed == covers
    for i, a in enumerate(rep.sets):
        for j, b in enumerate(rep.sets):
            assert rep.sets[rep.join_table[i][j]].members == gm.join(a, b).members
            assert rep.sets[rep.meet_table[i][j]].members == gm.meet(a, b).members
    if not g.vertices:
        return
    chain = [expected[0]]
    while chain[-1] != frozenset(g.vertices):
        above = [hi for lo, hi in covers if lo == chain[-1]]
        chain.append(min(above, key=_set_key))
    assert [s.members for s in gm.composition_series(g).sets] == chain


def test_lattice_matches_oracle_on_corpus():
    for g in corpus():
        _check_against_oracle(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    names = tuple(f"v{i}" for i in range(n))
    vertex = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return Graph(names, tuple(edges))


@given(small_graphs())
def test_lattice_matches_oracle_on_random_graphs(g):
    _check_against_oracle(g)


def test_long_chain_enumerates_without_the_powerset():
    # 15 two-cycles, each feeding the next: 30 vertices, 16 sets (the
    # empty set and the 15 tails of the chain), against 2^30 subsets
    names = [f"{side}{i:02d}" for i in range(15) for side in "ab"]
    edges = []
    for i in range(15):
        edges += [(f"a{i:02d}", f"b{i:02d}"), (f"b{i:02d}", f"a{i:02d}")]
        if i < 14:
            edges.append((f"a{i:02d}", f"a{i + 1:02d}"))
    g = Graph(tuple(names), tuple(edges))
    start = time.perf_counter()
    sets = gm.enumerate_hsat(g, cap=30)
    assert time.perf_counter() - start < 1.0
    tails = [
        frozenset(v for v in names if int(v[1:]) >= k) for k in range(15, -1, -1)
    ]
    assert [s.members for s in sets] == tails


# ----------------------------------------------------------------------
# quotient and restriction graphs


def test_quotient_graph():
    sets = {tuple(sorted(s.members)): s for s in gm.enumerate_hsat(ABCD)}
    q = gm.quotient_graph(ABCD, sets[("c", "d")])
    assert q.vertices == ("a", "b")
    assert sorted(q.edges) == [("a", "a"), ("a", "a"), ("b", "a")]


def test_restriction_graph():
    sets = {tuple(sorted(s.members)): s for s in gm.enumerate_hsat(ABCD)}
    r = gm.restriction_graph(ABCD, sets[("c", "d")])
    assert r.vertices == ("c", "d")
    assert sorted(r.edges) == [("c", "c"), ("c", "c"), ("c", "d")]


def test_quotient_of_wrong_graph_rejected():
    ladder = make_ladder()
    h = HSatSet(ladder, frozenset(ladder.vertices))
    with pytest.raises(ValueError):
        gm.quotient_graph(ABCD, h)


# ----------------------------------------------------------------------
# simple classification


def test_classify_sink():
    g = Graph(("s",), ())
    cls = gm.classify_simple(g)
    assert cls.kind == "SinkType" and cls.witness == "s"


def test_classify_cycle_no_exit():
    g = Graph(("a", "b"), (("a", "b"), ("b", "a")))
    cls = gm.classify_simple(g)
    assert cls.kind == "CycleNoExitType"
    assert cls.witness.is_loop() and cls.witness.length == 2


def test_classify_loops_with_exit():
    cls = gm.classify_simple(make_bouquet(2))
    assert cls.kind == "LoopsWithExitType" and cls.witness is None


def test_classify_rejects_non_simple():
    with pytest.raises(ValueError):
        gm.classify_simple(ABCD)  # not cofinal
    with pytest.raises(ValueError):
        gm.classify_simple(Graph((), ()))


def _ref_simple_loops(g):
    # the retired enumeration, kept as the reference: every loop with
    # pairwise distinct sources, from its least vertex, sorted
    order = g.vertex_index
    loops = []

    def extend(start, current, path, seen):
        for i in g.out_edges(current):
            t = g.edge_target(i)
            if t == start:
                loops.append(gm.Path(g, tuple(path + [i])))
            elif t not in seen and order[t] > order[start]:
                extend(start, t, path + [i], seen | {t})

    for start in g.vertex_order:
        extend(start, start, [], {start})
    loops.sort(key=lambda p: (p.visited, p.edge_indices))
    return loops


def _ref_classify(g):
    if not g.vertices:
        raise ValueError("empty graph has no classification")
    if not gm.is_cofinal(g):
        raise ValueError("graph is not cofinal")
    loops = _ref_simple_loops(g)
    if not loops:
        only_sinks = sorted(gm.sinks(g))
        if len(only_sinks) != 1:
            raise ValueError("cofinal acyclic graph must have a unique sink")
        return gm.SimpleClass("SinkType", only_sinks[0])
    for loop in loops:
        on_loop = set(loop.edge_indices)
        if all(i in on_loop for v in loop.visited for i in g.out_edges(v)):
            return gm.SimpleClass("CycleNoExitType", loop)
    return gm.SimpleClass("LoopsWithExitType", None)


def _check_classify_against_loops(g):
    # the graph itself, and the simple step graphs of its series
    graphs = [g] + [step.graph for step in gm.composition_series(g).steps]
    for h in graphs:
        try:
            expected = _ref_classify(h)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                gm.classify_simple(h)
        else:
            assert gm.classify_simple(h) == expected


def test_classify_matches_simple_loops_on_corpus():
    rng = random.Random(4)
    for g in corpus():
        _check_classify_against_loops(g)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 6))]
        edges = [
            (rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(0, 2 * len(names)))
        ]
        _check_classify_against_loops(Graph(names, edges))


@given(small_graphs())
def test_classify_matches_simple_loops_on_random_graphs(g):
    _check_classify_against_loops(g)


def _complete_digraph(n):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, [(a, b) for a in names for b in names if a != b])


def test_classify_complete_digraph_lists_no_loops(monkeypatch):
    # 125 664 simple loops; the components answer without listing one
    def enumerate_loops(*args):
        raise AssertionError("simple loops enumerated")

    for module in (gm.graphs, gm.lattice):
        monkeypatch.setattr(module, "simple_loops", enumerate_loops, raising=False)
    g = _complete_digraph(9)
    assert gm.classify_simple(g) == gm.SimpleClass("LoopsWithExitType", None)
    series = gm.composition_series(g)
    assert [s.classification.kind for s in series.steps] == ["LoopsWithExitType"]


# ----------------------------------------------------------------------
# composition series


def test_composition_series_greedy_chain():
    series = gm.composition_series(ABCD)
    assert [sorted(s.members) for s in series.sets] == [
        [],
        ["a"],
        ["a", "d"],
        ["a", "b", "c", "d"],
    ]
    kinds = [step.classification.kind for step in series.steps]
    assert kinds == ["LoopsWithExitType", "SinkType", "LoopsWithExitType"]
    assert series.steps[1].classification.witness == "d"


def test_series_step_graphs():
    series = gm.composition_series(ABCD)
    first = series.steps[0].graph
    assert first.vertices == ("a",)
    assert first.edges == (("a", "a"), ("a", "a"))


def test_validate_series_accepts_alternate_chain():
    assert gm.validate_series(ABCD, [{"d"}, {"c", "d"}, {"a", "b", "c", "d"}])


def test_validate_series_explicit_bottom_allowed():
    assert gm.validate_series(ABCD, [set(), {"a"}, {"a", "d"}, {"a", "b", "c", "d"}])


def test_validate_series_rejects_bad_chains():
    # not ending at the whole vertex set
    assert not gm.validate_series(ABCD, [{"a"}, {"a", "d"}])
    # not a chain
    assert not gm.validate_series(ABCD, [{"a"}, {"d"}, {"a", "b", "c", "d"}])
    # not hereditary saturated
    assert not gm.validate_series(ABCD, [{"c"}, {"a", "b", "c", "d"}])
    # step subquotient not simple: {a, d} to top leaves b, c with c's sink gone
    assert not gm.validate_series(ABCD, [{"a", "b", "c", "d"}, {"a"}])


@given(st.integers(0, 108))
def test_series_on_corpus_validates(graph_idx):
    g = corpus()[graph_idx]
    series = gm.composition_series(g)
    assert gm.validate_series(g, [set(s.members) for s in series.sets])
    assert series.sets[-1].members == frozenset(g.vertices)


# ----------------------------------------------------------------------
# order-ideal correspondence


def test_phi_psi_roundtrip_examples():
    assert gm.phi_psi_roundtrip(ABCD)
    assert gm.phi_psi_roundtrip(make_bouquet(2))
    assert gm.phi_psi_roundtrip(make_ladder())
