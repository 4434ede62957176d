"""The algebraic order and the bounded property sweeps."""

import functools
import json

import pytest
from hypothesis import given, strategies as st

import graphmonoid as gm
from graphmonoid import Graph, cli

from conftest import (
    corpus,
    make_abcd,
    make_bouquet,
    make_fork,
    make_ladder,
    small_graphs,
)

ABCD = make_abcd()


def el(text):
    return gm.parse_element(ABCD, text)


# ----------------------------------------------------------------------
# the algebraic order


def test_leq_true_with_witness():
    res = gm.leq(el("d"), el("c"))
    assert res.verdict == "true"
    assert res.witness == el("2*c")
    assert res.evidence.verdict == "equal"
    assert gm.validate_trace(res.evidence.lhs_trace)
    assert res.evidence.lhs_trace.start == el("d") + res.witness


def test_leq_false_with_certificate():
    res = gm.leq(el("2*d"), el("d"))
    assert res.verdict == "false"
    assert res.certificate.invariant == "state"
    assert gm.check_certificate(res.certificate, el("2*d"), el("d"))


def test_leq_false_support_bound():
    res = gm.leq(el("c"), el("d"))
    assert res.verdict == "false"
    assert res.certificate.invariant == "support-bound"


def test_leq_unknown_when_bounds_exhausted():
    res = gm.leq(el("a"), el("b"), depth=0)
    assert res.verdict == "unknown"
    assert gm.leq(el("a"), el("b")).verdict == "true"


def test_leq_acyclic_exact():
    fork = make_fork()
    b = gm.vertex_element(fork, "b")
    a = gm.vertex_element(fork, "a")
    res = gm.leq(a, b)
    assert res.verdict == "true"
    res = gm.leq(b, a)
    assert res.verdict == "false"
    assert gm.check_certificate(res.certificate, b, a)


def test_leq_zero_below_everything():
    assert gm.leq(gm.zero(ABCD), el("a")).verdict == "true"


def test_leq_rejects_negative_depth_and_empty_cap():
    # a loop at a and a two-cycle through b
    g = Graph(("a", "b"), (("a", "a"), ("a", "b"), ("b", "a")))
    a, ab = gm.parse_element(g, "a"), gm.parse_element(g, "a + b")
    for x, y in ((2 * a, ab), (a, a)):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            gm.leq(x, y, depth=-1)
        with pytest.raises(ValueError, match="reduct cap must be positive"):
            gm.leq(x, y, reduct_cap=0)


def test_leq_without_obstructions_stays_unknown(monkeypatch):
    from graphmonoid import properties

    monkeypatch.setattr(properties, "leq_obstruction", lambda x, y: None)
    # one loop: 2*v and v each rewrite only to themselves, so both
    # reduct sets run out after one level with no dominated pair
    v = gm.vertex_element(Graph(("v",), (("v", "v"),)), "v")
    assert repr(gm.leq(2 * v, v)) == repr(gm.LeqUnknown(1))


@given(st.integers(0, 108), st.integers(0, 3), st.integers(0, 3))
def test_leq_is_sound_on_witnesses(graph_idx, i, j):
    g = corpus()[graph_idx]
    order = g.vertex_order
    x = gm.vertex_element(g, order[i % len(order)])
    y = gm.vertex_element(g, order[j % len(order)])
    res = gm.leq(x, y)
    if res.verdict == "true":
        assert gm.decide_eq(x + res.witness, y).verdict == "equal"
    elif res.verdict == "false":
        assert gm.check_certificate(res.certificate, x, y)


def test_leq_finds_witnesses_beyond_any_size_bound():
    # the witness has size 6, past the size bound 4 of a candidate scan
    g = Graph(
        ("v00", "v01", "v02", "v03"),
        (
            ("v00", "v01"),
            ("v01", "v00"),
            ("v01", "v00"),
            ("v02", "v02"),
            ("v02", "v02"),
            ("v00", "v02"),
            ("v01", "v02"),
            ("v02", "v03"),
        ),
    )
    x = gm.parse_element(g, "2*v01 + v03")
    y = gm.parse_element(g, "v00 + v02")
    res = gm.leq(x, y)
    assert res.verdict == "true"
    assert res.witness == gm.parse_element(g, "6*v02")
    _check_evidence_replays(res, x, y)


def _looped_chain(n):
    names = [f"v{i:02d}" for i in range(n)]
    return Graph(names, [(v, v) for v in names] + list(zip(names, names[1:])))


def _tuples(value):
    # JSON arrays back to the tuples a certificate holds
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


@pytest.mark.parametrize(
    "g, text",
    [
        (make_bouquet(1), "v"),
        (Graph(("a", "b"), (("a", "a"), ("a", "b"), ("b", "b"))), "a"),
        (_looped_chain(40), "v00"),
    ],
    ids=["one-loop", "loop-into-loop", "looped-chain-40"],
)
def test_leq_refutes_doubling_a_cycle_by_a_state(g, text):
    # a cycle no other cycle reaches carries the state 1 on it, and two
    # copies of one of its vertices weigh 2 against 1
    y = gm.parse_element(g, text)
    res = gm.leq(2 * y, y)
    assert res.verdict == "false"
    cert = res.certificate
    assert cert.invariant == "state"
    assert gm.check_certificate(cert, 2 * y, y)
    data = json.loads(json.dumps(cli._jsonify(cert)))
    replayed = gm.Certificate(
        data["invariant"],
        tuple(data["context"]),
        _tuples(data["lhs"]),
        _tuples(data["rhs"]),
    )
    assert replayed == cert and gm.check_certificate(replayed, 2 * y, y)


def test_check_certificate_rejects_tampered_states():
    loop_exit = Graph(("a", "b"), (("a", "a"), ("a", "b"), ("b", "b")))
    feed = Graph(("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")))

    def el_(g, text):
        return gm.parse_element(g, text)

    def state(g, x, y, context, f):
        order = g.vertex_order
        fx = sum(a * x.count(v) for a, v in zip(f, context))
        fy = sum(a * y.count(v) for a, v in zip(f, context))
        assert fx > fy and set(context) <= set(order)
        return gm.Certificate("state", context, (f, fx), fy)

    # each forgery has exactly one defect, and each "refutes" a pair
    # that is in fact below or names vertices it must not
    a, b = el_(loop_exit, "a"), el_(loop_exit, "b")
    negative = state(loop_exit, a, 2 * a, ("a", "b"), (-1, 0))
    assert not gm.check_certificate(negative, a, 2 * a)
    not_harmonic = state(loop_exit, b, a, ("a", "b"), (0, 1))
    assert not gm.check_certificate(not_harmonic, b, a)
    fb = el_(feed, "b")
    wide = state(feed, 2 * fb, fb, ("a", "b", "c"), (1, 1, 0))
    assert not gm.check_certificate(wide, 2 * fb, fb)
    assert gm.check_certificate(state(feed, 2 * fb, fb, ("b",), (1,)), 2 * fb, fb)
    outside = el_(feed, "a + 2*b")
    unsupported = state(feed, outside, fb, ("b",), (1,))
    assert not gm.check_certificate(unsupported, outside, fb)


@functools.lru_cache(maxsize=None)
def _ref_acyclic_quotients(g, closure):
    inner = gm.restriction_graph(g, gm.HSatSet(g, closure))
    quotients = (gm.quotient_graph(inner, h) for h in gm.enumerate_hsat(inner))
    return [q for q in quotients if q.vertices and gm.is_acyclic(q)]


def _ref_sink_dominance(x, y):
    # the retired refutation, kept as the reference: the sink weights on
    # every acyclic quotient of the restriction to y's support closure
    for q in _ref_acyclic_quotients(x.graph, gm.support_closure(y)):
        vx = gm.sink_distribution(q, {v: x.count(v) for v in q.vertices})
        vy = gm.sink_distribution(q, {v: y.count(v) for v in q.vertices})
        if any(vx.get(s, 0) > vy.get(s, 0) for s in gm.sinks(q)):
            return True
    return False


def _check_states_against_references(g):
    elements = [x for x in gm.elements_up_to(g, 2) if not x.is_zero]
    for x in elements:
        for y in elements:
            cert = gm.leq_obstruction(x, y)
            if not x.support <= gm.support_closure(y):
                assert cert.invariant == "support-bound"
                continue
            if _ref_sink_dominance(x, y):
                assert cert is not None
            if cert is not None:
                assert cert.invariant == "state"
                assert gm.check_certificate(cert, x, y)
                # nor does a search find a witness (on acyclic graphs the
                # search trusts its caller's sink weights instead)
                if not gm.is_acyclic(g):
                    found = gm.rewriting._search(
                        x, y, 12, 3000, gm.rewriting._dominance_match
                    )
                    assert isinstance(found, gm.Unknown)
    # no pair the class model proves below is refuted
    model = gm.class_model(g, 4)
    position, reachable = model.le_table()
    for r in model.roots:
        for s in model.roots:
            if reachable[r] >> position[s] & 1:
                assert gm.leq_obstruction(model.rep(r), model.rep(s)) is None


def test_states_refute_what_sink_dominance_did_on_corpus():
    for g in corpus():
        _check_states_against_references(g)


@given(small_graphs())
def test_states_refute_what_sink_dominance_did_on_random_graphs(g):
    _check_states_against_references(g)


def _check_evidence_replays(res, x, y):
    ev = res.evidence
    assert ev.lhs_trace.start == x + res.witness
    assert ev.rhs_trace.start == y
    assert ev.lhs_trace.end == ev.rhs_trace.end == ev.reduct
    assert gm.validate_trace(ev.lhs_trace)
    assert gm.validate_trace(ev.rhs_trace)


def _candidate_leq(x, y, size_bound=4):
    # the reference: every candidate addition up to ``size_bound`` put to
    # the word problem, with the acyclic normal-form shortcut
    g = x.graph
    if gm.leq_obstruction(x, y) is not None:
        return "false"
    if gm.is_acyclic(g):
        nx, ny = gm.normal_form(x), gm.normal_form(y)
        diff = gm.from_counts(
            g, {v: max(ny.count(v) - nx.count(v), 0) for v in g.vertices}
        )
        assert gm.decide_eq(x + diff, y).verdict == "equal"
        return "true"
    for z in gm.elements_up_to(g, size_bound):
        if gm.decide_eq(x + z, y).verdict == "equal":
            return "true"
    return "unknown"


def _check_leq_against_candidates(g):
    elements = list(gm.elements_up_to(g, 2))
    for x in elements:
        for y in elements:
            res = gm.leq(x, y)
            reference = _candidate_leq(x, y)
            if reference != "unknown":
                assert res.verdict == reference
            if res.verdict == "true":
                _check_evidence_replays(res, x, y)
            elif res.verdict == "false":
                assert reference == "false"
                assert gm.check_certificate(res.certificate, x, y)


def test_leq_matches_candidate_scan_on_corpus():
    for g in corpus():
        _check_leq_against_candidates(g)


@given(small_graphs())
def test_leq_matches_candidate_scan_on_random_graphs(g):
    _check_leq_against_candidates(g)


# ----------------------------------------------------------------------
# separativity and unperforation


def test_separativity_workhorse():
    rep = gm.check_separativity(ABCD)
    assert rep.property == "separativity"
    assert rep.verdict == "holds-within-bounds"
    assert rep.counterexample is None
    assert rep.bounds == {"size_bound": 4, "scale": 3, "cap": 24}


def test_separativity_acyclic_shortcut():
    rep = gm.check_separativity(make_fork())
    assert rep.verdict == "holds-within-bounds"
    assert "acyclic" in rep.details


def test_unperforation_workhorse():
    rep = gm.check_unperforation(ABCD)
    assert rep.property == "unperforation"
    assert rep.verdict == "holds-within-bounds"


def test_unperforation_two_loops():
    assert gm.check_unperforation(make_bouquet(2)).verdict == "holds-within-bounds"


def test_sweep_refuses_oversized_models():
    vs = tuple(f"v{i}" for i in range(11))
    g = Graph(vs, (("v0", "v0"),))
    rep = gm.check_separativity(g)
    assert rep.verdict == "unknown"
    assert "too large" in rep.details


def test_sweeps_name_the_cap_when_multiples_exceed_it():
    # size-4 representatives times 3 reach size 12, beyond a cap of 9
    g = Graph(
        ("a", "b", "c", "d"),
        (("a", "a"), ("a", "b"), ("b", "c"), ("c", "c"), ("c", "d")),
    )
    reports = [
        gm.check_separativity(g, cap=9),
        gm.check_unperforation(g, cap=9),
        gm.is_prime(gm.parse_element(g, "10*a"), cap=9),
    ]
    for rep in reports:
        assert rep.verdict == "unknown"
        assert "class cap 9" in rep.details


# ----------------------------------------------------------------------
# primality


def test_is_prime_rejects_zero():
    with pytest.raises(ValueError):
        gm.is_prime(gm.zero(ABCD))


def test_is_prime_workhorse_sink():
    rep = gm.is_prime(el("d"))
    assert rep.verdict == "holds-within-bounds"


def test_is_prime_counterexample_on_fork():
    fork = make_fork()
    rep = gm.is_prime(gm.vertex_element(fork, "b"))
    assert rep.verdict == "counterexample"
    a1, a2 = rep.counterexample
    # b sits below the sum but below neither part
    b = gm.vertex_element(fork, "b")
    assert gm.leq(b, a1 + a2).verdict == "true"
    assert gm.leq(b, a1).verdict == "false"
    assert gm.leq(b, a2).verdict == "false"


def test_primes_up_to_fork_and_ladder():
    fork = make_fork()
    assert [str(p) for p in gm.primes_up_to(fork)] == ["c", "a"]
    ladder = make_ladder()
    assert [str(p) for p in gm.primes_up_to(ladder)] == ["x"]


def test_primes_up_to_workhorse():
    got = [str(p) for p in gm.primes_up_to(ABCD)]
    assert got == [
        "d",
        "c",
        "a",
        "c + d",
        "2*c",
        "c + 2*d",
        "3*c",
        "c + 3*d",
        "4*c",
    ]


# ----------------------------------------------------------------------
# refinement sweep


def test_refinement_sweep():
    rep = gm.check_refinement(ABCD)
    assert rep.property == "refinement"
    assert rep.verdict == "holds-within-bounds"
    assert gm.check_refinement(make_fork()).verdict == "holds-within-bounds"


def test_refinement_quad_cap_stops_the_whole_sweep(monkeypatch):
    from graphmonoid import properties

    attempts = []
    real_refine = properties.refine

    def counting_refine(*args):
        attempts.append(args)
        return real_refine(*args)

    monkeypatch.setattr(properties, "refine", counting_refine)
    capped = gm.check_refinement(ABCD, quad_cap=1)
    assert len(attempts) == 1
    assert capped.bounds["quad_cap"] == 1
    assert capped.verdict == gm.check_refinement(ABCD).verdict


def test_refinement_searches_each_sum_once(monkeypatch):
    from graphmonoid import properties, rewriting

    searches, tables = [], []
    real_decide, real_refine = rewriting.decide_eq, properties.refine

    def decide(*args):
        searches.append(args)
        return real_decide(*args)

    def refine(*args):
        out = real_refine(*args)
        tables.append(isinstance(out, rewriting.Refinement))
        return out

    monkeypatch.setattr(rewriting, "decide_eq", decide)
    monkeypatch.setattr(properties, "decide_eq", decide)
    monkeypatch.setattr(properties, "refine", refine)
    assert gm.check_refinement(ABCD).verdict == "holds-within-bounds"
    assert tables and all(tables)
    # per quadruple: refine's one search of the two sums, then the four
    # row and column checks of its table
    assert len(searches) == 5 * len(tables)


def test_refinement_counts_only_distinct_sums_as_unknown(monkeypatch):
    from graphmonoid import properties, rewriting

    def distinct(*args):
        raise rewriting.DistinctSums("the sums are provably inequivalent")

    monkeypatch.setattr(properties, "refine", distinct)
    assert gm.check_refinement(ABCD).verdict == "unknown"

    def broken(*args):
        raise ValueError("trace step does not match its recorded result")

    # an inconsistent trace is a fault, not an unresolved instance
    monkeypatch.setattr(properties, "refine", broken)
    with pytest.raises(ValueError, match="trace step"):
        gm.check_refinement(ABCD)
