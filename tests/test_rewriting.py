"""One-step rewriting, reduct search, the word problem, refinement."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import graphmonoid as gm
from graphmonoid import CapExceeded, Graph, RewriteTrace
from graphmonoid.knuth_bendix import complete

from conftest import (
    corpus,
    make_abcd,
    make_bouquet,
    make_fork,
    make_parallel_pair,
    small_graphs,
)

ABCD = make_abcd()
O2 = make_bouquet(2)
# a loop that feeds a sink: cyclic, yet some elements have finite reduct sets
LOOP_EXIT = Graph(("s", "v"), (("v", "v"), ("v", "s")))
# a loop feeding a looped vertex with an exit to a sink: b and 2*b agree
# in K0 of the whole graph, but not in K0 of the restriction to {b, c}
LOOP_CHAIN = Graph(
    ("a", "b", "c"), (("a", "a"), ("a", "b"), ("b", "b"), ("b", "c"))
)


def el(g, text):
    return gm.parse_element(g, text)


# ----------------------------------------------------------------------
# elementary moves


def test_r_of():
    assert gm.r_of(ABCD, "a") == el(ABCD, "2*a")
    assert gm.r_of(ABCD, "b") == el(ABCD, "a + c")
    assert gm.r_of(ABCD, "c") == el(ABCD, "2*c + d")
    with pytest.raises(ValueError):
        gm.r_of(ABCD, "d")  # sink


def test_apply_rewrite():
    x = el(ABCD, "b + d")
    assert gm.apply_rewrite(x, "b") == el(ABCD, "a + c + d")
    with pytest.raises(ValueError):
        gm.apply_rewrite(x, "a")  # not present
    with pytest.raises(ValueError):
        gm.apply_rewrite(x, "d")  # sink


def test_successors_order_and_content():
    x = el(ABCD, "b + c + d")
    succ = gm.successors(x)
    assert [v for v, _ in succ] == ["b", "c"]
    assert dict(succ)["b"] == el(ABCD, "a + 2*c + d")
    assert gm.successors(gm.zero(ABCD)) == []


@given(st.integers(0, 108), st.integers(0, 10**6))
def test_rewriting_never_shrinks(graph_idx, seed):
    g = corpus()[graph_idx]
    rng = random.Random(seed)
    x = gm.from_counts(
        g, {v: rng.randrange(2) for v in g.vertex_order}
    )
    for _ in range(4):
        succ = gm.successors(x)
        if not succ:
            break
        _, nxt = rng.choice(succ)
        assert nxt.size >= x.size
        x = nxt


# ----------------------------------------------------------------------
# reduct enumeration


def test_reduct_set_two_loops_depth_two():
    v = gm.vertex_element(O2, "v")
    got = gm.reduct_set(v, depth=2)
    assert got == {v, 2 * v, 3 * v}


def test_reduct_set_cap():
    v = gm.vertex_element(O2, "v")
    with pytest.raises(CapExceeded):
        gm.reduct_set(v, depth=50, cap=10)


def test_exhaustive_reducts():
    g = make_parallel_pair()
    v = gm.vertex_element(g, "v")
    w = gm.vertex_element(g, "w")
    assert gm.exhaustive_reducts(v) == {v, 2 * w}
    # infinitely many reducts: signalled with None
    assert gm.exhaustive_reducts(gm.vertex_element(O2, "v"), cap=64) is None


def test_normal_form():
    fork = make_fork()
    assert gm.normal_form(el(fork, "b")) == el(fork, "a + c")
    assert gm.normal_form(el(fork, "2*b + a")) == el(fork, "3*a + 2*c")
    with pytest.raises(ValueError):
        gm.normal_form(gm.vertex_element(O2, "v"))


# ----------------------------------------------------------------------
# traces


def test_trace_replay_and_validation():
    start = el(ABCD, "a + b")
    good = RewriteTrace(start, ((("b"), el(ABCD, "2*a + c")), ("a", el(ABCD, "3*a + c"))))
    assert gm.validate_trace(good)
    assert good.end == el(ABCD, "3*a + c")
    assert len(good) == 2
    bad = RewriteTrace(start, (("b", el(ABCD, "2*a")),))
    assert not gm.validate_trace(bad)


# ----------------------------------------------------------------------
# the word problem


def test_decide_eq_reflexive():
    x = el(ABCD, "2*a + c")
    res = gm.decide_eq(x, x)
    assert res.verdict == "equal"
    assert res.lhs_trace.steps == () and res.rhs_trace.steps == ()
    assert res.reduct == x


def test_decide_eq_graph_mismatch():
    with pytest.raises(ValueError):
        gm.decide_eq(gm.vertex_element(O2, "v"), gm.vertex_element(ABCD, "a"))


def test_decide_eq_zero_certificate():
    res = gm.decide_eq(gm.zero(ABCD), el(ABCD, "b"))
    assert res.verdict == "distinct"
    assert res.certificate.invariant == "zero"
    assert gm.check_certificate(res.certificate, gm.zero(ABCD), el(ABCD, "b"))


def test_decide_eq_equal_with_traces():
    b = el(ABCD, "b")
    ac = el(ABCD, "a + c")
    res = gm.decide_eq(b, ac)
    assert res.verdict == "equal"
    assert res.reduct == ac
    assert gm.validate_trace(res.lhs_trace) and gm.validate_trace(res.rhs_trace)
    assert res.lhs_trace.start == b and res.rhs_trace.start == ac
    assert res.lhs_trace.end == res.rhs_trace.end == res.reduct


def test_decide_eq_support_closure_certificate():
    d, c = el(ABCD, "d"), el(ABCD, "c")
    res = gm.decide_eq(d, c)
    assert res.verdict == "distinct"
    assert res.certificate.invariant == "support-closure"
    assert gm.check_certificate(res.certificate, d, c)


def test_decide_eq_group_certificate():
    g = make_bouquet(3)
    v = gm.vertex_element(g, "v")
    res = gm.decide_eq(v, 2 * v)
    assert res.verdict == "distinct"
    assert res.certificate.invariant == "grothendieck"
    assert gm.check_certificate(res.certificate, v, 2 * v)
    # parity: one and three loops-worth are congruent
    assert gm.decide_eq(v, 3 * v).verdict == "equal"


def test_decide_eq_restriction_certificate():
    s = gm.vertex_element(LOOP_EXIT, "s")
    res = gm.decide_eq(s, 2 * s)
    assert res.verdict == "distinct"
    assert res.certificate.invariant == "restriction-grothendieck"
    assert res.certificate.context == ("s",)
    assert gm.check_certificate(res.certificate, s, 2 * s)


def test_decide_eq_restriction_certificate_beyond_global_k0():
    b = gm.vertex_element(LOOP_CHAIN, "b")
    assert gm.group_image(b) == gm.group_image(2 * b)
    res = gm.decide_eq(b, 2 * b)
    assert res == gm.Distinct(
        gm.Certificate("restriction-grothendieck", ("b", "c"), (1,), (2,))
    )
    assert gm.check_certificate(res.certificate, b, 2 * b)


def test_check_certificate_rejects_foreign_context_and_swapped_sides():
    b = gm.vertex_element(LOOP_CHAIN, "b")
    cert = gm.distinctness_certificate(b, 2 * b)
    for context in (None, (), ("c",), ("b",), ("a", "b", "c")):
        forged = gm.Certificate(cert.invariant, context, cert.lhs, cert.rhs)
        assert not gm.check_certificate(forged, b, 2 * b)
    swapped = gm.Certificate(cert.invariant, cert.context, cert.rhs, cert.lhs)
    assert not gm.check_certificate(swapped, b, 2 * b)
    assert not gm.check_certificate(cert, 2 * b, b)
    # the shared closure must belong to both sides
    a = gm.vertex_element(LOOP_CHAIN, "a")
    assert not gm.check_certificate(cert, b, a)


def test_check_certificate_rejects_retired_kinds():
    # both were accepted once: K0 of the quotient by the empty set is
    # the global K0, and the two reduct sets of s and 2*s are disjoint
    v = gm.vertex_element(make_bouquet(3), "v")
    cert = gm.decide_eq(v, 2 * v).certificate
    assert cert.invariant == "grothendieck"
    quotient = gm.Certificate("quotient-grothendieck", (), cert.lhs, cert.rhs)
    assert not gm.check_certificate(quotient, v, 2 * v)
    assert not gm.check_certificate(
        gm.Certificate("grothendieck", (), cert.lhs, cert.rhs), v, 2 * v
    )
    s = gm.vertex_element(LOOP_EXIT, "s")
    reducts = gm.Certificate("disjoint-reducts", None, ((1, 0),), ((2, 0),))
    assert not gm.check_certificate(reducts, s, 2 * s)
    # sink weights on an acyclic quotient: a state now carries them
    d = el(ABCD, "d")
    sink = gm.Certificate("restriction-sink-dominance", ("d",), (2,), (1,))
    assert not gm.check_certificate(sink, 2 * d, d)
    assert gm.leq_obstruction(2 * d, d).invariant == "state"


def _check_invariant_is_complete(g):
    # a pair gets a certificate exactly when its completed normal forms
    # differ, and every certificate replays, on its own sides only
    reduce = complete(g).reduce
    for x, y in itertools.combinations(list(gm.elements_up_to(g, 2)), 2):
        cert = gm.distinctness_certificate(x, y)
        assert (cert is None) == (reduce(x.counts) == reduce(y.counts))
        if cert is not None:
            assert gm.check_certificate(cert, x, y)
            assert not gm.check_certificate(cert, y, x)


def test_invariant_is_complete_on_corpus():
    for g in corpus():
        _check_invariant_is_complete(g)


@given(small_graphs())
def test_invariant_is_complete_on_random_graphs(g):
    _check_invariant_is_complete(g)


def test_decide_eq_absorbing_loop():
    v = gm.vertex_element(LOOP_EXIT, "v")
    s = gm.vertex_element(LOOP_EXIT, "s")
    res = gm.decide_eq(v, v + s)
    assert res.verdict == "equal"


def test_decide_eq_acyclic_equal_and_distinct():
    fork = make_fork()
    res = gm.decide_eq(el(fork, "b"), el(fork, "a + c"))
    assert res.verdict == "equal"
    assert gm.validate_trace(res.lhs_trace)
    res = gm.decide_eq(el(fork, "a"), el(fork, "c"))
    assert res.verdict == "distinct"
    assert gm.check_certificate(res.certificate, el(fork, "a"), el(fork, "c"))


def test_decide_eq_unknown_at_zero_depth():
    v = gm.vertex_element(O2, "v")
    res = gm.decide_eq(v, 2 * v, depth=0)
    assert res.verdict == "unknown"
    assert gm.decide_eq(v, 2 * v).verdict == "equal"


def test_decide_eq_unknown_under_tiny_cap():
    v = gm.vertex_element(O2, "v")
    res = gm.decide_eq(v, 5 * v, reduct_cap=1)
    assert res.verdict == "unknown"


# a loop at a and a two-cycle through b
TWO_CYCLE = Graph(("a", "b"), (("a", "a"), ("a", "b"), ("b", "a")))


@pytest.mark.parametrize("lhs, rhs", [("a", "a + b"), ("a", "a")])
def test_decide_eq_rejects_negative_depth_and_empty_cap(lhs, rhs):
    x, y = el(TWO_CYCLE, lhs), el(TWO_CYCLE, rhs)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        gm.decide_eq(x, y, -2)
    with pytest.raises(ValueError, match="reduct cap must be positive"):
        gm.decide_eq(x, y, reduct_cap=0)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        gm.refine(x, gm.zero(TWO_CYCLE), y, gm.zero(TWO_CYCLE), depth=-1)


def test_decide_eq_without_certificates_fails_loudly(monkeypatch):
    monkeypatch.setattr(gm.rewriting, "distinctness_certificate", lambda x, y: None)
    # one loop: v and 2*v each rewrite only to themselves, so both
    # reduct sets run out, disjoint, after one level
    loop = Graph(("v",), (("v", "v"),))
    v = gm.vertex_element(loop, "v")
    with pytest.raises(RuntimeError, match="no certificate separated"):
        gm.decide_eq(v, 2 * v)
    # distinct normal forms on an acyclic graph
    fork = make_fork()
    with pytest.raises(RuntimeError, match="no certificate separated"):
        gm.decide_eq(el(fork, "a"), el(fork, "c"))


def test_certificates_reject_corruption():
    d, c = el(ABCD, "d"), el(ABCD, "c")
    cert = gm.decide_eq(d, c).certificate
    # right invariant, wrong elements
    assert not gm.check_certificate(cert, c, d)
    forged = gm.Certificate("support-closure", None, cert.lhs, cert.lhs)
    assert not gm.check_certificate(forged, d, c)


@given(st.integers(0, 108), st.integers(0, 10**6))
def test_random_zigzags_stay_equal(graph_idx, seed):
    g = corpus()[graph_idx]
    rng = random.Random(seed)
    order = g.vertex_order
    x = gm.from_counts(g, {order[rng.randrange(len(order))]: 1 + rng.randrange(2)})
    a = b = x
    for _ in range(rng.randrange(4)):
        cur, other = (a, b) if rng.randrange(2) == 0 else (b, a)
        opts = [v for v in order if cur.count(v) and not g.is_sink(v)]
        if not opts:
            continue
        cur = gm.apply_rewrite(cur, rng.choice(opts))
        a, b = (cur, other) if cur.size >= 0 else (a, b)
        if rng.randrange(2) == 0:
            a, b = b, a
    res = gm.decide_eq(a, b)
    assert res.verdict == "equal"
    assert res.lhs_trace.end == res.rhs_trace.end


# ----------------------------------------------------------------------
# the acyclic shortcut of the shared search, against the normal-form path
# decide_eq and leq took before they shared it


def _ref_normalizing_trace(x):
    steps, current = [], x
    while True:
        succ = gm.successors(current)
        if not succ:
            return RewriteTrace(x, tuple(steps))
        steps.append(succ[0])
        current = succ[0][1]


def _ref_acyclic_decide_eq(x, y):
    if x == y:
        return gm.Equal(x, RewriteTrace(x), RewriteTrace(y))
    nx, ny = gm.normal_form(x), gm.normal_form(y)
    if nx == ny:
        return gm.Equal(nx, _ref_normalizing_trace(x), _ref_normalizing_trace(y))
    return gm.Distinct(gm.distinctness_certificate(x, y))


def _ref_acyclic_leq(x, y):
    cert = gm.leq_obstruction(x, y)
    if cert is not None:
        return gm.LeqFalse(cert)
    lhs, rhs = _ref_normalizing_trace(x), _ref_normalizing_trace(y)
    z = gm.MonoidElement(
        x.graph, tuple(b - a for a, b in zip(lhs.end.counts, rhs.end.counts))
    )
    shifted = RewriteTrace(x + z, tuple((v, s + z) for v, s in lhs.steps))
    return gm.LeqTrue(z, gm.Equal(rhs.end, shifted, rhs))


def _check_acyclic_shortcut(g):
    elements = list(gm.elements_up_to(g, 2))
    for x in elements:
        for y in elements:
            assert repr(gm.decide_eq(x, y)) == repr(_ref_acyclic_decide_eq(x, y))
            assert repr(gm.leq(x, y)) == repr(_ref_acyclic_leq(x, y))


def _forward_edges(g):
    # keep the edges that run up the vertex order: an acyclic graph
    return Graph(g.vertices, tuple((u, v) for u, v in g.edges if u < v))


def test_acyclic_shortcut_on_corpus():
    acyclic = [g for g in corpus() if gm.is_acyclic(g)]
    assert acyclic
    for g in acyclic:
        _check_acyclic_shortcut(g)


@given(small_graphs().map(_forward_edges))
def test_acyclic_shortcut_on_random_graphs(g):
    _check_acyclic_shortcut(g)


# ----------------------------------------------------------------------
# splitting traces and refinement


def test_split_carries_parts():
    start = el(ABCD, "a + b")
    trace = RewriteTrace(
        start,
        (("b", el(ABCD, "2*a + c")), ("a", el(ABCD, "3*a + c"))),
    )
    p1, p2 = gm.split(trace, el(ABCD, "a"), el(ABCD, "b"))
    assert p1 == el(ABCD, "2*a")
    assert p2 == el(ABCD, "a + c")
    assert p1 + p2 == trace.end


def test_split_rejects_bad_partition():
    trace = RewriteTrace(el(ABCD, "a"), ())
    with pytest.raises(ValueError):
        gm.split(trace, el(ABCD, "a"), el(ABCD, "a"))


def test_refine_parallel_edge_example():
    g = make_parallel_pair()
    v, w = gm.vertex_element(g, "v"), gm.vertex_element(g, "w")
    out = gm.refine(v, v, w, 3 * w)
    table = out.table
    assert table[0][0] == w and table[0][1] == w
    assert table[1][0] == gm.zero(g) and table[1][1] == 2 * w
    # rows match the first pair, columns the second, up to congruence
    assert gm.decide_eq(table[0][0] + table[0][1], v).verdict == "equal"
    assert gm.decide_eq(table[1][0] + table[1][1], v).verdict == "equal"
    assert gm.decide_eq(table[0][0] + table[1][0], w).verdict == "equal"
    assert gm.decide_eq(table[0][1] + table[1][1], 3 * w).verdict == "equal"


def test_refine_rejects_distinct_sums():
    g = make_parallel_pair()
    v, w = gm.vertex_element(g, "v"), gm.vertex_element(g, "w")
    with pytest.raises(ValueError):
        gm.refine(v, gm.zero(g), w, gm.zero(g))


def test_refine_on_workhorse():
    x1, x2 = el(ABCD, "a"), el(ABCD, "c")
    y1, y2 = el(ABCD, "b"), gm.zero(ABCD)
    out = gm.refine(x1, x2, y1, y2)
    t = out.table
    assert gm.decide_eq(t[0][0] + t[0][1], x1).verdict == "equal"
    assert gm.decide_eq(t[1][0] + t[1][1], x2).verdict == "equal"
    assert gm.decide_eq(t[0][0] + t[1][0], y1).verdict == "equal"
    assert gm.decide_eq(t[0][1] + t[1][1], y2).verdict == "equal"
