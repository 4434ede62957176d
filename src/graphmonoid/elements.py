"""Elements of the free commutative monoid on a graph's vertices.

An element is a multiset of vertices, stored as a count vector aligned
with the graph's canonical vertex order.  The relations that turn this
free monoid into the graph's monoid live in :mod:`graphmonoid.rewriting`;
here elements are just vectors with formatting, parsing and enumeration.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import ElementFormatError
from .graphs import Graph
from .records import frozen_delattr, frozen_setattr


class MonoidElement:
    """A formal nonnegative integer combination of vertices.

    An immutable value: equality and hashing go by ``(graph, counts)``.
    Its methods are written out rather than built by ``records.record``,
    since searches build and hash elements once per state.
    """

    graph: Graph
    counts: tuple[int, ...]

    def __init__(self, graph: Graph, counts: Iterable[int]) -> None:
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(graph.vertices):
            raise ValueError("count vector length does not match the graph")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "counts", counts)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}"
            f"(graph={self.graph!r}, counts={self.counts!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.graph, self.counts) == (other.graph, other.counts)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.graph, self.counts))

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    @cached_property
    def size(self) -> int:
        """Total number of vertex occurrences."""
        return sum(self.counts)

    @cached_property
    def support(self) -> frozenset[str]:
        order = self.graph.vertex_order
        return frozenset(order[i] for i, c in enumerate(self.counts) if c)

    @property
    def is_zero(self) -> bool:
        return not any(self.counts)

    def count(self, v: str) -> int:
        return self.counts[self.graph.vertex_index[v]]

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        if self.graph != other.graph:
            raise ValueError("elements belong to different graphs")
        return MonoidElement(
            self.graph, tuple(a + b for a, b in zip(self.counts, other.counts))
        )

    def __mul__(self, k: int) -> "MonoidElement":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("scalar must be nonnegative")
        return MonoidElement(self.graph, tuple(k * c for c in self.counts))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_element(self)


def zero(g: Graph) -> MonoidElement:
    return MonoidElement(g, (0,) * len(g.vertices))


def vertex_element(g: Graph, v: str) -> MonoidElement:
    g.require_vertex(v)
    counts = [0] * len(g.vertices)
    counts[g.vertex_index[v]] = 1
    return MonoidElement(g, tuple(counts))


def from_counts(g: Graph, counts: Mapping[str, int]) -> MonoidElement:
    vec = [0] * len(g.vertices)
    for v, k in counts.items():
        g.require_vertex(v)
        vec[g.vertex_index[v]] = int(k)
    return MonoidElement(g, tuple(vec))


_TERM = re.compile(r"^(?:(\d+)\*)?(\S+)$")


def parse_element(g: Graph, text: str) -> MonoidElement:
    """Parse ``k*v`` terms joined by ``+``; the literal ``0`` is zero.

    Whitespace around terms is ignored.  Repeated vertices accumulate.
    """
    body = text.strip()
    if not body:
        raise ElementFormatError("empty element literal")
    if body == "0":
        return zero(g)
    vec = [0] * len(g.vertices)
    for chunk in body.split("+"):
        term = chunk.strip()
        m = _TERM.match(term)
        if not m:
            raise ElementFormatError(f"cannot parse term {term!r}")
        k = int(m.group(1)) if m.group(1) else 1
        name = m.group(2)
        if name not in g.vertex_index:
            raise ElementFormatError(f"unknown vertex {name!r}")
        vec[g.vertex_index[name]] += k
    return MonoidElement(g, tuple(vec))


def format_element(x: MonoidElement) -> str:
    """Render in canonical vertex order; the zero element prints as ``0``."""
    parts = []
    for v, c in zip(x.graph.vertex_order, x.counts):
        if c == 1:
            parts.append(v)
        elif c > 1:
            parts.append(f"{c}*{v}")
    return " + ".join(parts) if parts else "0"


def count_vectors(positions: int, max_total: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative vectors of the given length with entry sum at most
    ``max_total``, ordered by total and then lexicographically descending
    within each total (so single-vertex vectors come out in vertex order).
    """
    if positions == 0:
        if max_total >= 0:
            yield ()
        return
    for total in range(max_total + 1):
        # stars and bars: positions - 1 bars among total + positions - 1
        # slots cut the stars into the entries; combinations come out in
        # ascending order of the vectors, so each block is reversed
        slots = total + positions - 1
        block = []
        for bars in itertools.combinations(range(slots), positions - 1):
            vec = []
            prev = -1
            for bar in bars:
                vec.append(bar - prev - 1)
                prev = bar
            vec.append(slots - prev - 1)
            block.append(tuple(vec))
        block.reverse()
        yield from block


def elements_up_to(g: Graph, max_size: int) -> Iterator[MonoidElement]:
    """All elements of the free monoid with size at most ``max_size``."""
    for vec in count_vectors(len(g.vertices), max_size):
        yield MonoidElement(g, vec)
