"""The graph-keyed caches stay bounded and forget nothing they answer."""

import pytest

import graphmonoid as gm
from graphmonoid import certificates, ktheory


def _graph(i):
    # distinct names make distinct cache keys; the edge count varies K0
    x = f"x{i}"
    return gm.Graph((x, "y"), ((x, "y"),) * (i % 3 + 1) + (("y", "y"),) * 2)


# each cache with the arguments it is asked for on a graph
CACHES = [
    (certificates._closure, lambda g: (g, frozenset({g.vertex_order[0]}))),
    (certificates._restriction, lambda g: (g, frozenset(g.vertices))),
    (certificates._states, lambda g: (g, frozenset(g.vertices))),
    (ktheory.grothendieck_group, lambda g: (g,)),
]


@pytest.mark.parametrize("cache, args", CACHES, ids=[c.__name__ for c, _ in CACHES])
def test_graph_keyed_cache_stays_bounded(cache, args):
    limit = cache.cache_info().maxsize
    assert limit is not None
    graphs = [_graph(i) for i in range(limit + 5)]
    first = [cache(*args(g)) for g in graphs[:3]]
    for g in graphs:
        cache(*args(g))
        assert cache.cache_info().currsize <= limit
    # the first graphs were evicted, and asking again recomputes the same
    misses = cache.cache_info().misses
    assert [cache(*args(g)) for g in graphs[:3]] == first
    assert cache.cache_info().misses == misses + 3
    for g in graphs[::97]:
        assert cache(*args(g)) == cache.__wrapped__(*args(g))
