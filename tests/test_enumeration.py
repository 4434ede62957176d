"""Class models: counting, comparison, order-ideal membership."""

import math
import random
import time

import pytest
from hypothesis import given, strategies as st

import graphmonoid as gm
from graphmonoid import enumeration
from graphmonoid.knuth_bendix import _complete, complete
from graphmonoid.elements import count_vectors

from conftest import (
    corpus,
    make_abcd,
    make_bouquet,
    make_fork,
    make_parallel_pair,
    small_graphs,
)

ABCD = make_abcd()


def el(text):
    return gm.parse_element(ABCD, text)


# ----------------------------------------------------------------------
# the class model


def test_model_universe_and_classes():
    model = gm.class_model(ABCD)
    v = gm.vertex_element(ABCD, "b")
    assert model.in_universe(v)
    assert not model.in_universe(gm.from_counts(ABCD, {"a": 25}))
    with pytest.raises(ValueError):
        model.class_of(gm.from_counts(ABCD, {"a": 25}))
    assert model.class_of_vertex("b") == model.class_of(el("a + c"))


def test_model_reps_are_minimal():
    model = gm.class_model(ABCD)
    for root in model.roots_up_to(3):
        rep = model.rep(root)
        assert model.class_of(rep) == root
        assert rep.size == model.rep_size(root)


def test_eq3_three_values():
    model = gm.class_model(ABCD)
    assert model.eq3(el("b"), el("a + c")) == "equal"
    assert model.eq3(el("d"), el("c")) == "distinct"
    # beyond every certificate yet never merged: not present in this graph,
    # so exercise the equal/distinct paths on a second graph instead
    g = make_bouquet(3)
    m2 = gm.class_model(g)
    v = gm.vertex_element(g, "v")
    assert m2.eq3(v, 3 * v) == "equal"
    assert m2.eq3(v, 2 * v) == "distinct"


def test_add_classes_models_addition():
    model = gm.class_model(ABCD)
    ra = model.class_of(el("a"))
    rc = model.class_of(el("c"))
    both = model.add_classes(ra, rc)
    assert both == model.class_of(el("a + c"))
    assert model.add_classes(ra, rc) == model.add_classes(rc, ra)


def test_le_witness_soundness():
    model = gm.class_model(ABCD)
    rd = model.class_of(el("d"))
    rc = model.class_of(el("c"))
    w = model.le_witness(rd, rc)
    assert w is not None
    assert model.add_classes(rd, w) == rc
    # c is not below d
    assert model.le_witness(rc, rd) is None


def test_le_table_matches_le_classes():
    model = gm.class_model(ABCD)
    position, reachable = model.le_table()
    roots = model.roots_up_to(3)
    for r in roots:
        for s in roots:
            via_table = bool(reachable[r] >> position[s] & 1)
            assert via_table == model.le_classes(r, s)


def test_model_universe_size():
    # the universe is every element of size at most the cap; without
    # edges every element is its own class
    free = gm.Graph(("a", "b", "c"), ())
    for g in (ABCD, make_fork(), free, gm.Graph((), ())):
        n = len(g.vertices)
        for cap in (1, 5, 24):
            model = gm.class_model(g, cap)
            for x in gm.elements_up_to(g, cap + 1):
                assert model.in_universe(x) == (x.size <= cap)
            if not g.edges:
                assert len(model.roots) == math.comb(n + cap, n)


# ----------------------------------------------------------------------
# differential checks against the union-find model over count tuples


def _quotient_table(g):
    # K0 of every proper quotient, the empty set first: the fingerprint
    # family the tuple model bounds its class counts with
    table = []
    for h in gm.enumerate_hsat(g):
        if h.members != frozenset(g.vertices):
            q = gm.quotient_graph(g, h)
            table.append((tuple(sorted(h.members)), q, gm.grothendieck_group(q)))
    return table


def _quotient_image(q, pres, x):
    return pres.image_of_vec(tuple(x.count(v) for v in q.vertex_order))


class _TupleModel:
    """The earlier class model over count tuples, kept as the reference:
    a tuple-keyed index and a union-find with union by rank, fed the
    moves in vertex order for every vector in ``count_vectors`` order.
    Its blocks join vectors linked by moves inside the cap, so they may
    split a class near the cap; invariant fingerprints bound the class
    counts from below."""

    def __init__(self, g, cap):
        order = g.vertex_order
        n = len(order)
        self.graph = g
        self.cap = cap
        self.quotients = _quotient_table(g)
        self.vectors = list(count_vectors(n, cap))
        self.index = {v: i for i, v in enumerate(self.vectors)}
        self.sizes = [sum(v) for v in self.vectors]
        self.parent = list(range(len(self.vectors)))
        self.rank = [0] * len(self.vectors)
        deltas = []
        for p, v in enumerate(order):
            if not g.is_sink(v):
                d = [0] * n
                d[p] -= 1
                for w in g.ranges_from(v):
                    d[g.vertex_index[w]] += 1
                deltas.append((p, tuple(d), sum(d)))
        for i, vec in enumerate(self.vectors):
            for p, d, growth in deltas:
                if vec[p] and self.sizes[i] + growth <= cap:
                    j = self.index[tuple(a + b for a, b in zip(vec, d))]
                    self.union(i, j)
        best = {}
        for i, vec in enumerate(self.vectors):
            r = self.find(i)
            key = (self.sizes[i], vec)
            if r not in best or key < best[r]:
                best[r] = key
        self.best = best
        self.roots = sorted(best, key=best.__getitem__)

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.rank[ri] < self.rank[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        if self.rank[ri] == self.rank[rj]:
            self.rank[ri] += 1

    def add(self, r, s):
        total = tuple(a + b for a, b in zip(self.best[r][1], self.best[s][1]))
        i = self.index.get(total)
        return None if i is None else self.find(i)

    def fingerprint(self, r):
        rep = gm.MonoidElement(self.graph, self.best[r][1])
        parts = [tuple(sorted(gm.support_closure(rep)))]
        for _, q, pres in self.quotients:
            parts.append(_quotient_image(q, pres, rep))
        return tuple(parts)

    def count(self, size_limit):
        roots = [r for r in self.roots if self.best[r][0] <= size_limit]
        return len({self.fingerprint(r) for r in roots}), len(roots)

    def le_table(self):
        position = {r: k for k, r in enumerate(self.roots)}
        reachable = {}
        for r in self.roots:
            bits = 0
            for t in self.roots:
                if self.best[t][0] > self.cap - self.best[r][0]:
                    break
                s = self.add(r, t)
                if s is not None:
                    bits |= 1 << position[s]
            reachable[r] = bits
        return position, reachable

    def quotient_count(self, h, size_limit):
        g = self.graph
        parent = [self.find(i) for i in range(len(self.vectors))]

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        h_positions = [p for p, v in enumerate(g.vertex_order) if v in h]
        for i, vec in enumerate(self.vectors):
            if self.sizes[i] < self.cap:
                for p in h_positions:
                    bumped = list(vec)
                    bumped[p] += 1
                    ri, rj = find(i), find(self.index[tuple(bumped)])
                    if ri != rj:
                        parent[rj] = ri
        wanted = {
            find(i)
            for i, vec in enumerate(self.vectors)
            if self.sizes[i] <= size_limit and all(vec[p] == 0 for p in h_positions)
        }
        best = {}
        for i, vec in enumerate(self.vectors):
            r = find(i)
            if r in wanted:
                key = (self.sizes[i], vec)
                if r not in best or key < best[r]:
                    best[r] = key
        entries = [(q, pres) for ctx, q, pres in self.quotients if h <= set(ctx)]
        profiles = set()
        for r in wanted:
            elem = gm.MonoidElement(g, best[r][1])
            parts = [tuple(sorted(gm.hsat_closure(g, elem.support | h)))]
            for q, pres in entries:
                parts.append(_quotient_image(q, pres, elem))
            profiles.add(tuple(parts))
        return len(profiles), len(wanted)


def _check_against_tuple_model(g, cap):
    ref = _TupleModel(g, cap)
    model = gm.class_model(g, cap)
    # each reference block lies in one class
    block_class = {}
    for i, vec in enumerate(ref.vectors):
        c = model.class_of(gm.MonoidElement(g, vec))
        assert block_class.setdefault(ref.find(i), c) == c
    # a class's representative is the least one of its blocks, and the
    # classes come in that order
    least = {}
    for r in ref.roots:
        least.setdefault(block_class[r], ref.best[r])
    assert model.roots == list(least)
    assert [(model.rep_size(c), model.rep(c).counts) for c in model.roots] == [
        least[c] for c in model.roots
    ]
    # counts are exact and inside the reference's bounds
    for size in range(cap + 1):
        low, high = ref.count(size)
        got = gm.bounded_class_count(g, size, cap)
        assert got[0] == got[1] and low <= got[0] <= high
    # whatever the reference proves below, the model reaches too
    position, reachable = model.le_table()
    ref_position, ref_reachable = ref.le_table()
    for r in ref.roots:
        row = reachable[block_class[r]]
        bits = ref_reachable[r]
        for k, s in enumerate(ref.roots):
            if bits >> k & 1:
                assert row >> position[block_class[s]] & 1
    for h in gm.enumerate_hsat(g):
        if len(h.members) == len(g.vertices):
            continue
        members = tuple(sorted(h.members))
        size_limit = (cap + 1) // 2
        got = gm.quotient_bounded_class_count(g, members, size_limit, cap)
        low, high = ref.quotient_count(h.members, size_limit)
        assert got[0] == got[1] and low <= got[0] <= high


def test_model_matches_tuple_model_on_corpus():
    for g in corpus():
        for cap in range(1, 11):
            _check_against_tuple_model(g, cap)


@given(small_graphs(), st.integers(1, 10))
def test_model_matches_tuple_model_on_random_graphs(g, cap):
    _check_against_tuple_model(g, cap)


# ----------------------------------------------------------------------
# models built in any order


def _proper_hsats(g):
    return [
        tuple(sorted(h.members))
        for h in gm.enumerate_hsat(g)
        if len(h.members) < len(g.vertices)
    ]


def _model_summary(g, cap):
    model = gm.class_model(g, cap)
    n = len(g.vertices)
    position, reachable = model.le_table()
    return (
        model.roots,
        [model.rep(r).counts for r in model.roots],
        [model.class_of(gm.MonoidElement(g, v)) for v in count_vectors(n, cap)],
        position,
        [reachable[r] for r in model.roots],
        [gm.quotient_bounded_class_count(g, h, cap // 2, cap) for h in _proper_hsats(g)],
    )


def _clear_model_caches():
    enumeration._build_model.cache_clear()
    _complete.cache_clear()


def make_abcd_twin():
    # abcd with the sink fed by a loop-free vertex instead: same vertex
    # count, different classes
    return gm.Graph(
        ("a", "b", "c", "d"),
        (("a", "a"), ("a", "b"), ("b", "c"), ("c", "c"), ("c", "d")),
    )


def test_build_order_does_not_change_models():
    by_size: dict[int, list] = {}
    for g in corpus():
        by_size.setdefault(len(g.vertices), []).append(g)
    pairs = [(gs[0], gs[-1]) for gs in by_size.values() if len(gs) > 1]
    pairs.append((ABCD, make_abcd_twin()))
    for g1, g2 in pairs:
        _clear_model_caches()
        forward = (_model_summary(g1, 8), _model_summary(g2, 8))
        _clear_model_caches()
        second = _model_summary(g2, 8)
        backward = (_model_summary(g1, 8), second)
        assert forward == backward


def test_quotient_counts_do_not_depend_on_earlier_sets():
    for g in (ABCD, make_abcd_twin(), make_fork()):
        hsats = _proper_hsats(g)
        for h2 in hsats:
            enumeration._build_model.cache_clear()
            fresh = gm.quotient_bounded_class_count(g, h2, 5, 10)
            for h1 in hsats:
                enumeration._build_model.cache_clear()
                gm.quotient_bounded_class_count(g, h1, 5, 10)
                assert gm.quotient_bounded_class_count(g, h2, 5, 10) == fresh


# ----------------------------------------------------------------------
# class counting


def test_bounded_class_count_workhorse():
    assert gm.bounded_class_count(ABCD, 4) == (23, 23)


def test_bounded_class_count_free():
    g = gm.Graph(("a", "b"), ())
    # multisets over two free generators: (k+1)(k+2)/2 up to size k
    assert gm.bounded_class_count(g, 4) == (15, 15)


def test_bounded_class_count_collapse():
    # two loops: every nonzero element is congruent
    assert gm.bounded_class_count(make_bouquet(2), 4) == (2, 2)


def _strongly_connected(n, seed):
    # a directed cycle through every vertex plus n seeded extra edges
    rng = random.Random(seed)
    names = tuple(f"v{i}" for i in range(n))
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges += [(rng.choice(names), rng.choice(names)) for _ in range(n)]
    return gm.Graph(names, tuple(edges))


@pytest.mark.parametrize("n", [8, 10])
def test_class_counts_scale_past_the_vector_universe(n):
    # every count vector up to size 24 would be C(32, 8) = 10.5M vectors
    # on 8 vertices; the normal forms need only the classes themselves
    for seed in range(3):
        g = _strongly_connected(n, seed)
        start = time.perf_counter()
        low, high = gm.bounded_class_count(g, 4)
        assert time.perf_counter() - start < 1.0
        assert low == high >= 2


def test_quotient_counts_match_quotient_graph():
    for h in gm.enumerate_hsat(ABCD):
        members = tuple(sorted(h.members))
        got = gm.quotient_bounded_class_count(ABCD, members, 4)
        if set(members) == set(ABCD.vertices):
            expect = (1, 1)
        else:
            expect = gm.bounded_class_count(gm.quotient_graph(ABCD, h), 4)
        assert got == expect


def test_quotient_count_rejects_bad_subset():
    with pytest.raises(ValueError):
        gm.quotient_bounded_class_count(ABCD, ("c",), 4)


@given(st.integers(0, 108))
def test_count_sandwich_is_ordered(graph_idx):
    g = corpus()[graph_idx]
    lo, hi = gm.bounded_class_count(g, 3)
    assert 1 <= lo <= hi


# ----------------------------------------------------------------------
# order-ideal membership


def test_ideal_membership_member():
    verdict, data = gm.ideal_membership(el("d"), el("c"))
    assert verdict == "member"
    k, z = data
    assert 1 <= k <= 3
    target = k * el("c")
    assert gm.decide_eq(el("d") + z, target).verdict == "equal"


def test_ideal_membership_not_member():
    verdict, cert = gm.ideal_membership(el("c"), el("d"))
    assert verdict == "not-member"
    assert cert.invariant == "support-bound"


def test_ideal_membership_multiple_needed():
    g = make_parallel_pair()
    v = gm.vertex_element(g, "v")
    w = gm.vertex_element(g, "w")
    # v is two w's, so three w's need two copies of v: the obstruction
    # refutes one copy, not the ideal
    assert gm.ideal_membership(3 * w, v) == ("member", (2, w))
    cert = gm.leq_obstruction(3 * w, v)
    assert cert.invariant == "state"
    assert gm.check_certificate(cert, 3 * w, v)


def test_ideal_membership_sink_multiple_beyond_k_bound():
    # 5*s lies in the ideal of s (five copies); the obstructions at 1-4
    # copies of s must not be reported as a refutation
    g = gm.Graph(("s",), ())
    s = gm.vertex_element(g, "s")
    assert gm.ideal_membership(5 * s, s) == ("member", (5, gm.zero(g)))


def test_ideal_membership_zero_cases():
    verdict, data = gm.ideal_membership(gm.zero(ABCD), el("a"))
    assert verdict == "member" and data[0] == 0
    verdict, _ = gm.ideal_membership(el("a"), gm.zero(ABCD))
    assert verdict == "not-member"


def test_ideal_membership_mismatch():
    fork = make_fork()
    with pytest.raises(ValueError):
        gm.ideal_membership(el("a"), gm.vertex_element(fork, "a"))


def test_ideal_membership_escalation_stays_bounded(monkeypatch):
    # a looped vertex with an exit to a sink: 5*w0 and w0 keep their
    # loop counts apart, so only five copies of w0 lie above 5*w0; the
    # answer needs no class model
    names = tuple(f"w{i}" for i in range(5))
    g = gm.Graph(names, (("w0", "w0"), ("w0", "w4")))
    built = []
    real = enumeration.class_model
    monkeypatch.setattr(
        enumeration,
        "class_model",
        lambda graph, cap=24: built.append(cap) or real(graph, cap),
    )
    w0 = gm.vertex_element(g, "w0")
    start = time.perf_counter()
    assert gm.ideal_membership(5 * w0, w0) == ("member", (5, gm.zero(g)))
    assert time.perf_counter() - start < 1.0
    assert built == []


def test_ideal_membership_reduces_elements_beyond_the_cap():
    # 25*w lies beyond the cap, but its normal form 12*v + w does not
    g = make_parallel_pair()
    v = gm.vertex_element(g, "v")
    w = gm.vertex_element(g, "w")
    model = gm.class_model(g)
    assert not model.in_universe(25 * w)
    assert model.rep(model.reduced_class(25 * w)) == 12 * v + w
    assert model.reduced_class(25 * v) is None
    assert gm.ideal_membership(25 * w, 13 * v) == ("member", (1, w))


def test_ideal_membership_escalates_on_small_graphs():
    # on the edgeless pair 25*a has no member within the class cap 24,
    # and no cap limits the multiple: two copies of 13*a lie above it
    g = gm.Graph(("a", "b"), ())
    a = gm.vertex_element(g, "a")
    verdict, (k, z) = gm.ideal_membership(25 * a, 13 * a)
    assert verdict == "member" and k == 2 and z == (13 * 2 - 25) * a


def test_ideal_membership_doubling_chain():
    # v_i has two edges to v_(i-1): v10 is 1024 copies of v0, and only
    # saturation puts v10 in the closure of v0
    names = tuple(f"v{i}" for i in range(11))
    g = gm.Graph(
        names, tuple((names[i], names[i - 1]) for i in range(1, 11) for _ in "ab")
    )
    v0, v10 = gm.vertex_element(g, "v0"), gm.vertex_element(g, "v10")
    start = time.perf_counter()
    assert gm.ideal_membership(v10, v0) == ("member", (1024, gm.zero(g)))
    assert time.perf_counter() - start < 2.0


def _check_ideal_membership(g):
    reduce = complete(g).reduce
    elements = list(gm.elements_up_to(g, 2))
    for x in elements:
        for y in elements:
            verdict, data = gm.ideal_membership(x, y)
            inside = x.support <= gm.support_closure(y)
            assert (verdict == "member") == inside
            if verdict == "member":
                k, z = data
                assert reduce((x + z).counts) == reduce((y * k).counts)
            else:
                assert verdict == "not-member"
                assert gm.check_certificate(data, x, y)


def test_ideal_membership_is_the_support_closure_on_corpus():
    for g in corpus():
        _check_ideal_membership(g)


@given(small_graphs())
def test_ideal_membership_is_the_support_closure_on_random_graphs(g):
    _check_ideal_membership(g)


def test_eq3_is_unknown_past_the_class_limit(monkeypatch):
    monkeypatch.setattr(enumeration, "_CLASS_LIMIT", 3)
    model = enumeration.ClassModel(ABCD, 24)
    assert model.eq3(el("b"), el("a + c")) == "equal"
    assert model.eq3(el("c"), el("d")) == "unknown"
