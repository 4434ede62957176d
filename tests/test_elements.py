"""Free-monoid elements: arithmetic, parsing, enumeration."""

import pytest
from hypothesis import given, strategies as st

import graphmonoid as gm
from graphmonoid import ElementFormatError
from graphmonoid.elements import count_vectors

from conftest import make_abcd

ABCD = make_abcd()


def test_zero_and_vertex():
    z = gm.zero(ABCD)
    assert z.is_zero and z.size == 0 and z.support == frozenset()
    a = gm.vertex_element(ABCD, "a")
    assert a.size == 1 and a.count("a") == 1 and a.support == {"a"}
    with pytest.raises(ValueError):
        gm.vertex_element(ABCD, "nope")


def test_from_counts_and_accessors():
    x = gm.from_counts(ABCD, {"a": 2, "d": 1})
    assert x.size == 3
    assert x.count("a") == 2 and x.count("b") == 0
    assert x.support == {"a", "d"}
    with pytest.raises(ValueError):
        gm.from_counts(ABCD, {"a": -1})
    with pytest.raises(ValueError):
        gm.from_counts(ABCD, {"q": 1})


def test_addition_and_scaling():
    a = gm.vertex_element(ABCD, "a")
    d = gm.vertex_element(ABCD, "d")
    assert (a + d).size == 2
    assert (a + d) + a == a + (d + a)
    assert 0 * a == gm.zero(ABCD)
    assert 3 * a == a + a + a
    with pytest.raises(ValueError):
        (-1) * a


def test_cross_graph_addition_rejected():
    other = gm.Graph(("a",), ())
    with pytest.raises(ValueError):
        gm.vertex_element(ABCD, "a") + gm.vertex_element(other, "a")


def test_parse_element_forms():
    assert gm.parse_element(ABCD, "0") == gm.zero(ABCD)
    assert gm.parse_element(ABCD, "a") == gm.vertex_element(ABCD, "a")
    x = gm.parse_element(ABCD, "2*a + d")
    assert x == gm.from_counts(ABCD, {"a": 2, "d": 1})
    # repeated terms accumulate
    assert gm.parse_element(ABCD, "a + a + 3*a") == gm.from_counts(ABCD, {"a": 5})


@pytest.mark.parametrize("bad", ["", "+", "a +", "2*", "*a", "q", "2a*", "a++d"])
def test_parse_element_errors(bad):
    with pytest.raises(ElementFormatError):
        gm.parse_element(ABCD, bad)


def test_format_element():
    assert gm.format_element(gm.zero(ABCD)) == "0"
    x = gm.from_counts(ABCD, {"d": 1, "a": 2})
    assert gm.format_element(x) == "2*a + d"
    assert str(x) == "2*a + d"


@given(
    st.lists(
        st.tuples(st.sampled_from(ABCD.vertex_order), st.integers(1, 5)),
        max_size=6,
    )
)
def test_parse_format_roundtrip(pairs):
    counts = {}
    for v, k in pairs:
        counts[v] = counts.get(v, 0) + k
    x = gm.from_counts(ABCD, counts)
    assert gm.parse_element(ABCD, gm.format_element(x)) == x


def test_count_vectors_order_and_completeness():
    vecs = list(count_vectors(2, 2))
    assert vecs == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(set(vecs)) == len(vecs)
    # grouped by total, first coordinate descending within a total
    totals = [sum(v) for v in vecs]
    assert totals == sorted(totals)


def test_count_vectors_counts():
    # binomial(n + cap, n) vectors in total
    assert len(list(count_vectors(3, 4))) == 35
    assert len(list(count_vectors(1, 6))) == 7


def test_elements_up_to():
    got = list(gm.elements_up_to(ABCD, 1))
    assert got[0].is_zero
    assert {str(x) for x in got[1:]} == {"a", "b", "c", "d"}
    assert len(list(gm.elements_up_to(ABCD, 2))) == 15


@given(st.integers(1, 3), st.integers(0, 5))
def test_count_vectors_complete(n, cap):
    got = set(count_vectors(n, cap))
    brute = set()

    def build(prefix, left):
        if len(prefix) == n:
            brute.add(tuple(prefix))
            return
        for k in range(left + 1):
            build(prefix + [k], left - k)

    build([], cap)
    assert got == brute


def _recursive_count_vectors(positions, max_total):
    """The definition: by total, then first entry descending, recursively."""

    def rec(remaining, slots):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(remaining, -1, -1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    for total in range(max_total + 1):
        yield from rec(total, positions)


@pytest.mark.parametrize("positions", range(6))
def test_count_vectors_match_recursive_definition(positions):
    for max_total in range(7):
        assert list(count_vectors(positions, max_total)) == list(
            _recursive_count_vectors(positions, max_total)
        )
