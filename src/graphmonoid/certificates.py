"""Checkable separating invariants for monoid elements.

A certificate records an invariant of rewriting together with its values
on two elements.  When the values differ (or violate the containment the
certificate asserts), the elements cannot be related, no matter how the
search that produced the certificate was conducted.  Certificates are
therefore the package's proof objects for negative answers: anyone can
recompute both sides with :func:`check_certificate`.

Two invariants decide distinctness completely.  The least hereditary
saturated set containing an element's support (its support closure) is
constant on rewrite classes: rewriting a vertex pushes support along
edges, and saturation pulls it back.  When two elements share a closure
H, their images in the group completion of the restriction of the graph
to H decide the rest.  Forward moves stay inside H, both elements
generate the whole order ideal of H, and the restriction's monoid is
separative, so equal images there force equal classes (Ara, Goodearl,
O'Meara and Pardo, Israel J. Math. 105 (1998), Lemma 2.1).  The group
completion of the whole graph is consulted first, and the restriction's
only when H is a nonempty proper subset; a pair no certificate separates
is therefore equivalent.

The algebraic order has certificates of its own.  On acyclic graphs
(and acyclic quotients) the sink weights of the normal form decide it
exactly, so a sink where the left side outweighs the right refutes
divisibility.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .errors import CapExceeded
from .graphs import Graph, hsat_closure, is_acyclic, sink_distribution, sinks
from .elements import MonoidElement
from .ktheory import grothendieck_group
from .lattice import HSatSet, enumerate_hsat, quotient_graph, restriction_graph
from .records import record


@record
class Certificate:
    """A named invariant with its computed value on each element.

    ``context`` names the vertices an invariant is computed on: the
    shared support closure for ``restriction-grothendieck`` and the
    surviving vertices of an acyclic quotient for
    ``restriction-sink-dominance``.  It is None for invariants of the
    graph itself.
    """

    invariant: str
    context: Optional[tuple[str, ...]]
    lhs: object
    rhs: object


# The graph-keyed caches are bounded so a long-lived process does not
# grow with every graph it sees.  The largest batch of the `bench/`
# workloads fills at most about 860 closures, 45 group completions and
# 13 restrictions.
@lru_cache(maxsize=4096)
def _closure(g: Graph, support: frozenset) -> frozenset:
    return hsat_closure(g, support)


def support_closure(x: MonoidElement) -> frozenset:
    """Least hereditary saturated set containing the element's support."""
    return _closure(x.graph, x.support)


@lru_cache(maxsize=128)
def _restriction(g: Graph, members: frozenset) -> Graph:
    # the restriction to a hereditary saturated set
    return restriction_graph(g, HSatSet(g, members))


def _image(q: Graph, x: MonoidElement) -> tuple[int, ...]:
    # x's image in K0 of q, a graph whose vertices hold x's support
    vec = tuple(x.count(v) for v in q.vertex_order)
    return grothendieck_group(q).image_of_vec(vec)


def _sink_vector(q: Graph, x: MonoidElement) -> tuple[int, ...]:
    dist = sink_distribution(q, {v: x.count(v) for v in q.vertices})
    return tuple(dist.get(s, 0) for s in sorted(sinks(q)))


@lru_cache(maxsize=128)
def _restriction_quotients(
    g: Graph, members: frozenset
) -> tuple[tuple[tuple[str, ...], Graph], ...]:
    # acyclic quotients of the restriction to a hereditary saturated set,
    # keyed by their surviving vertices
    inner = _restriction(g, members)
    try:
        hsats = enumerate_hsat(inner)
    except CapExceeded:
        hsats = (HSatSet(inner, frozenset()),)
    entries = []
    for h in hsats:
        q = quotient_graph(inner, h)
        if q.vertices and is_acyclic(q):
            entries.append((tuple(sorted(q.vertices)), q))
    return tuple(entries)


def distinctness_certificate(
    x: MonoidElement, y: MonoidElement
) -> Optional[Certificate]:
    """An invariant separating the two classes, or None when the
    elements are equivalent."""
    if x.graph != y.graph:
        raise ValueError("elements belong to different graphs")
    if x.is_zero != y.is_zero:
        return Certificate("zero", None, x.is_zero, y.is_zero)
    h = support_closure(x)
    cx = tuple(sorted(h))
    cy = tuple(sorted(support_closure(y)))
    if cx != cy:
        return Certificate("support-closure", None, cx, cy)
    g = x.graph
    ix, iy = _image(g, x), _image(g, y)
    if ix != iy:
        return Certificate("grothendieck", None, ix, iy)
    if h and len(h) < len(g.vertices):
        inner = _restriction(g, h)
        ix, iy = _image(inner, x), _image(inner, y)
        if ix != iy:
            return Certificate("restriction-grothendieck", cx, ix, iy)
    return None


def leq_obstruction(x: MonoidElement, y: MonoidElement) -> Optional[Certificate]:
    """An invariant refuting ``x`` below ``y`` in the algebraic order.

    Divisibility confines any candidate addition to the closure of the
    target's support, so the question restricts to that part of the
    graph; on each of its acyclic quotients divisibility means pointwise
    domination of sink weights, and a sink where the left side outweighs
    the right is a refutation.
    """
    if x.graph != y.graph:
        raise ValueError("elements belong to different graphs")
    cy = support_closure(y)
    if not x.support <= cy:
        return Certificate(
            "support-bound",
            None,
            tuple(sorted(x.support)),
            tuple(sorted(cy)),
        )
    for kept, q in _restriction_quotients(x.graph, cy):
        vx = _sink_vector(q, x)
        vy = _sink_vector(q, y)
        if any(a > b for a, b in zip(vx, vy)):
            return Certificate("restriction-sink-dominance", kept, vx, vy)
    return None


def check_certificate(
    cert: Certificate, x: MonoidElement, y: MonoidElement
) -> bool:
    """Recompute a certificate's invariant on both elements and confirm it
    still separates (or still refutes the order relation it targets)."""
    if x.graph != y.graph:
        return False
    g = x.graph
    kind = cert.invariant
    if kind == "zero":
        lhs: object = x.is_zero
        rhs: object = y.is_zero
        holds = lhs != rhs
    elif kind == "support-closure":
        lhs = tuple(sorted(support_closure(x)))
        rhs = tuple(sorted(support_closure(y)))
        holds = lhs != rhs
    elif kind == "grothendieck":
        if cert.context is not None:
            return False
        lhs = _image(g, x)
        rhs = _image(g, y)
        holds = lhs != rhs
    elif kind == "restriction-grothendieck":
        h = support_closure(x)
        if cert.context != tuple(sorted(h)) or support_closure(y) != h:
            return False
        inner = _restriction(g, h)
        lhs = _image(inner, x)
        rhs = _image(inner, y)
        holds = lhs != rhs
    elif kind == "support-bound":
        lhs = tuple(sorted(x.support))
        rhs = tuple(sorted(support_closure(y)))
        holds = not set(lhs) <= set(rhs)
    elif kind == "restriction-sink-dominance":
        if cert.context is None:
            return False
        cy = support_closure(y)
        if not x.support <= cy:
            return False
        q = None
        for kept, candidate in _restriction_quotients(g, cy):
            if kept == cert.context:
                q = candidate
                break
        if q is None:
            return False
        lhs = _sink_vector(q, x)
        rhs = _sink_vector(q, y)
        holds = any(a > b for a, b in zip(lhs, rhs))
    else:
        return False
    return holds and lhs == cert.lhs and rhs == cert.rhs
