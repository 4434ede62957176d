"""The move table and the saturation worklist against independent oracles.

Every reader of a move (``r_of``, ``apply_rewrite``, ``successors``,
``validate_trace``, the completion's relations and the relation matrix)
reads ``Graph.moves``, so the table is checked against the adjacency
matrix, which is built edge by edge without it.  The searches and the
saturation worklist are checked against the element-level searches and
the fixpoint sweep they replaced, kept here as references.
"""

import itertools

from hypothesis import given

import graphmonoid as gm
from graphmonoid import rewriting
from graphmonoid.graphs import _saturate
from graphmonoid.knuth_bendix import _complete

from conftest import corpus, small_graphs


# ----------------------------------------------------------------------
# references: the code paths that read edges directly


def ref_saturate(g, members):
    # the fixpoint sweep: adjoin every non-sink whose targets all lie in
    # the set, until a sweep adjoins nothing
    current = set(members)
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            if v in current or g.is_sink(v):
                continue
            if all(w in current for w in g.ranges_from(v)):
                current.add(v)
                changed = True
    return frozenset(current)


def ref_successors(x):
    g = x.graph
    out = []
    for pos, v in enumerate(g.vertex_order):
        if x.counts[pos] and not g.is_sink(v):
            counts = list(x.counts)
            counts[pos] -= 1
            for w in g.ranges_from(v):
                counts[g.vertex_index[w]] += 1
            out.append((v, gm.MonoidElement(g, tuple(counts))))
    return out


def ref_reduct_set(x, depth, cap):
    seen = {x}
    frontier = [x]
    for _ in range(depth):
        nxt = []
        for e in frontier:
            for _, s in ref_successors(e):
                if s not in seen:
                    if len(seen) >= cap:
                        raise gm.CapExceeded(f"reduct set exceeds cap {cap}")
                    seen.add(s)
                    nxt.append(s)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def ref_exhaustive_reducts(x, cap):
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for e in frontier:
            for _, s in ref_successors(e):
                if s not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(seen)


def ref_bfs_meet(x, y, depth, reduct_cap):
    parents_x = {x: None}
    parents_y = {y: None}
    frontier_x, frontier_y = [x], [y]
    capped_x = capped_y = False

    def expand(frontier, parents, other):
        nxt, hits = [], []
        for e in frontier:
            for v, s in ref_successors(e):
                if s not in parents:
                    if len(parents) >= reduct_cap:
                        return nxt, True, hits
                    parents[s] = (e, v)
                    nxt.append(s)
                    if s in other:
                        hits.append(s)
        return nxt, False, hits

    def trace_to(parents, root, target):
        steps = []
        cur = target
        while parents[cur] is not None:
            prev, v = parents[cur]
            steps.append((v, cur))
            cur = prev
        steps.reverse()
        return gm.RewriteTrace(root, tuple(steps))

    def equal_via(meet):
        return gm.Equal(
            meet, trace_to(parents_x, x, meet), trace_to(parents_y, y, meet)
        )

    for level in range(depth):
        if not capped_x:
            frontier_x, capped_x, hits = expand(frontier_x, parents_x, parents_y)
            if hits:
                return equal_via(min(hits, key=lambda e: (e.size, e.counts)))
        if not capped_y:
            frontier_y, capped_y, hits = expand(frontier_y, parents_y, parents_x)
            if hits:
                return equal_via(min(hits, key=lambda e: (e.size, e.counts)))
        done_x = capped_x or not frontier_x
        done_y = capped_y or not frontier_y
        if done_x and done_y:
            if capped_x or capped_y:
                return gm.Unknown(level + 1)
            lhs = tuple(sorted(e.counts for e in parents_x))
            rhs = tuple(sorted(e.counts for e in parents_y))
            return gm.Distinct(gm.Certificate("disjoint-reducts", None, lhs, rhs))
    return gm.Unknown(depth)


# ----------------------------------------------------------------------
# the move table and its readers against the adjacency matrix


def _check_table(g):
    a = g.adjacency_matrix
    order = g.vertex_order
    expected = {}
    for p, v in enumerate(order):
        if any(a[p]):
            delta = [a[p][q] - (q == p) for q in range(len(order))]
            expected[v] = (p, tuple((q, d) for q, d in enumerate(delta) if d))
    assert g.moves == expected
    assert list(g.moves) == [v for v in order if v in expected]

    rel = gm.relation_matrix(g)
    assert rel.row_vertices == tuple(expected)
    for v, row in zip(rel.row_vertices, rel.matrix):
        p = order.index(v)
        assert row == tuple((q == p) - a[p][q] for q in range(len(order)))

    # the completed rules identify each relation's two sides
    reduce = _complete(g, frozenset()).reduce
    for v in expected:
        p = order.index(v)
        assert gm.r_of(g, v).counts == a[p]
        assert reduce(tuple(int(q == p) for q in range(len(order)))) == reduce(a[p])

    for x in gm.elements_up_to(g, 2):
        assert gm.successors(x) == ref_successors(x)
        for v, after in ref_successors(x):
            assert gm.apply_rewrite(x, v) == after
            assert gm.validate_trace(gm.RewriteTrace(x, ((v, after),)))


def test_move_table_on_corpus():
    for g in corpus():
        _check_table(g)


@given(small_graphs())
def test_move_table_on_random_graphs(g):
    _check_table(g)


def test_loop_has_an_empty_move():
    # a single loop rewrites v to v: the move exists and changes nothing
    g = gm.Graph(("v",), (("v", "v"),))
    assert g.moves == {"v": (0, ())}
    v = gm.vertex_element(g, "v")
    assert gm.successors(v) == [("v", v)]
    assert gm.relation_matrix(g).matrix == ((0,),)


def test_validate_trace_rejects_illegal_steps():
    g = corpus()[-1]
    b = gm.parse_element(g, "b")
    ac = gm.parse_element(g, "a + c")
    d = gm.parse_element(g, "d")
    assert not gm.validate_trace(gm.RewriteTrace(d, (("d", d),)))  # sink
    assert not gm.validate_trace(gm.RewriteTrace(b, (("a", b),)))  # absent
    assert not gm.validate_trace(gm.RewriteTrace(b, (("e", ac),)))  # unknown
    assert not gm.validate_trace(gm.RewriteTrace(b, (("b", d),)))  # wrong result


# ----------------------------------------------------------------------
# saturation against the fixpoint sweep


def _check_saturation(g):
    order = g.vertex_order
    for k in range(len(order) + 1):
        for members in itertools.combinations(order, k):
            members = frozenset(members)
            assert _saturate(g, members) == ref_saturate(g, members)
    # the lattice walk's closures start from a saturated set and name
    # the added part
    for h in gm.enumerate_hsat(g):
        for v in order:
            t = gm.tree(g, v)
            grown = h.members | t
            assert _saturate(g, grown, t - h.members) == ref_saturate(g, grown)
    assert gm.is_cofinal(g) == all(
        ref_saturate(g, gm.tree(g, v)) == frozenset(order) for v in order
    )


def test_saturation_on_corpus():
    for g in corpus():
        _check_saturation(g)


@given(small_graphs())
def test_saturation_on_random_graphs(g):
    _check_saturation(g)


# ----------------------------------------------------------------------
# the shared search loop against the element-level searches


def _check_searches(g, depth=4, cap=60):
    elems = list(gm.elements_up_to(g, 2))
    for x in elems:
        for d in range(depth + 1):
            try:
                want = ref_reduct_set(x, d, cap)
            except gm.CapExceeded:
                want = None
            try:
                got = gm.reduct_set(x, d, cap)
            except gm.CapExceeded:
                got = None
            assert got == want
        assert gm.exhaustive_reducts(x, cap) == ref_exhaustive_reducts(x, cap)
    cyclic = not gm.is_acyclic(g)
    for x, y in itertools.combinations(elems, 2):
        # the certificates separate every distinct pair, so the search
        # only ever meets equivalent ones, where the copy never answers
        # distinct
        cert = gm.distinctness_certificate(x, y)
        if cert is not None:
            assert repr(gm.decide_eq(x, y, depth, cap)) == repr(gm.Distinct(cert))
            continue
        want = ref_bfs_meet(x, y, depth, cap)
        assert want.verdict != "distinct"
        assert repr(rewriting._bfs_meet(x, y, depth, cap)) == repr(want)
        if cyclic:
            verdict = gm.decide_eq(x, y, depth, cap)
            assert repr(verdict) == repr(want)


def test_searches_on_corpus():
    for g in corpus():
        _check_searches(g)


@given(small_graphs())
def test_searches_on_random_graphs(g):
    _check_searches(g)
