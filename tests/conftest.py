"""Shared fixtures: named example graphs and the exhaustive small corpus."""

import itertools

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from graphmonoid import Graph

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_abcd() -> Graph:
    """Four-vertex workhorse: two loops at a, b feeding a and c, two
    loops at c with an exit to the sink d."""
    return Graph(
        ("a", "b", "c", "d"),
        (
            ("a", "a"),
            ("a", "a"),
            ("b", "a"),
            ("b", "c"),
            ("c", "c"),
            ("c", "c"),
            ("c", "d"),
        ),
    )


def make_bouquet(n: int) -> Graph:
    """One vertex carrying n loops."""
    return Graph(("v",), tuple(("v", "v") for _ in range(n)))


def make_parallel_pair() -> Graph:
    """Two parallel edges from v to the sink w."""
    return Graph(("v", "w"), (("v", "w"), ("v", "w")))


def make_ladder() -> Graph:
    """p1 feeds p2 and x, p2 feeds x."""
    return Graph(("p1", "p2", "x"), (("p1", "p2"), ("p1", "x"), ("p2", "x")))


def make_fork() -> Graph:
    """b feeds the two sinks a and c."""
    return Graph(("a", "b", "c"), (("b", "a"), ("b", "c")))


def _weakly_connected(n: int, combo) -> bool:
    adj = {i: set() for i in range(n)}
    for i, j in combo:
        adj[i].add(j)
        adj[j].add(i)
    stack, comp = [0], {0}
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in comp:
                comp.add(w)
                stack.append(w)
    return len(comp) == n


def small_corpus(max_vertices: int = 3, max_edges: int = 4) -> list[Graph]:
    """Every connected multigraph within the size bounds, one per
    isomorphism class, plus the four-vertex workhorse."""
    names = ("a", "b", "c")
    seen = set()
    out = []
    for n in range(1, max_vertices + 1):
        verts = names[:n]
        pair_types = [(i, j) for i in range(n) for j in range(n)]
        for k in range(0, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pair_types, k):
                if not _weakly_connected(n, combo):
                    continue
                canon = min(
                    tuple(sorted((p[i], p[j]) for i, j in combo))
                    for p in itertools.permutations(range(n))
                )
                if (n, canon) in seen:
                    continue
                seen.add((n, canon))
                out.append(
                    Graph(verts, tuple((names[i], names[j]) for i, j in combo))
                )
    out.append(make_abcd())
    return out


@st.composite
def small_graphs(draw):
    """Random multigraphs on 1-4 vertices with up to two edges each."""
    n = draw(st.integers(1, 4))
    names = tuple(f"v{i}" for i in range(n))
    vertex = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    return Graph(names, tuple(edges))


_CORPUS = None


def corpus() -> list[Graph]:
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = small_corpus()
    return _CORPUS


@pytest.fixture(scope="session")
def abcd() -> Graph:
    return make_abcd()


@pytest.fixture(scope="session")
def bouquet2() -> Graph:
    return make_bouquet(2)


@pytest.fixture(scope="session")
def parallel_pair() -> Graph:
    return make_parallel_pair()


@pytest.fixture(scope="session")
def ladder() -> Graph:
    return make_ladder()


@pytest.fixture(scope="session")
def fork() -> Graph:
    return make_fork()


@pytest.fixture(scope="session")
def corpus_graphs() -> list[Graph]:
    return corpus()
