"""Checkable separating invariants for monoid elements.

A certificate records an invariant of rewriting together with its values
on two elements.  When the values differ (or violate the containment the
certificate asserts), the elements cannot be related, no matter how the
search that produced the certificate was conducted.  Certificates are
therefore the package's proof objects for negative answers: anyone can
recompute both sides with :func:`check_certificate`.

Three families are used.  The group completion of the graph's monoid
(and of each of its quotients by a hereditary saturated set) is constant
on rewrite classes.  The least hereditary saturated set containing an
element's support is also constant: rewriting a vertex pushes support
along edges, and saturation pulls it back.  Finally, on acyclic graphs
(and acyclic quotients) the sink weights of the normal form decide the
algebraic order exactly, so a sink where the left side outweighs the
right refutes divisibility.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .errors import CapExceeded
from .graphs import Graph, hsat_closure, is_acyclic, sink_distribution, sinks
from .elements import MonoidElement
from .ktheory import GroupPresentation, grothendieck_group
from .lattice import enumerate_hsat, quotient_graph
from .records import record


@record
class Certificate:
    """A named invariant with its computed value on each element.

    ``context`` names the deleted vertex set for quotient invariants and
    is None for invariants of the graph itself.
    """

    invariant: str
    context: Optional[tuple[str, ...]]
    lhs: object
    rhs: object


# The graph-keyed caches are bounded so a long-lived process does not
# grow with every graph it sees.  The largest batch of the `bench/`
# workloads fills at most about 860 closures, 130 group completions and
# 12 quotient tables.
@lru_cache(maxsize=4096)
def _closure(g: Graph, support: frozenset) -> frozenset:
    return hsat_closure(g, support)


def support_closure(x: MonoidElement) -> frozenset:
    """Least hereditary saturated set containing the element's support."""
    return _closure(x.graph, x.support)


@lru_cache(maxsize=128)
def _quotient_data(
    g: Graph,
) -> tuple[tuple[tuple[str, ...], Graph, GroupPresentation], ...]:
    # one entry per proper hereditary saturated set, the empty set first
    try:
        hsats = enumerate_hsat(g)
    except CapExceeded:
        hsats = ()
    entries = []
    for h in hsats:
        if h.members == frozenset(g.vertices):
            continue
        q = quotient_graph(g, h)
        entries.append((tuple(sorted(h.members)), q, grothendieck_group(q)))
    if not entries and g.vertices:
        entries.append(((), g, grothendieck_group(g)))
    return tuple(entries)


def _quotient_image(
    q: Graph, pres: GroupPresentation, x: MonoidElement
) -> tuple[int, ...]:
    return pres.image_of_vec(tuple(x.count(v) for v in q.vertex_order))


def _sink_vector(q: Graph, x: MonoidElement) -> tuple[int, ...]:
    dist = sink_distribution(q, {v: x.count(v) for v in q.vertices})
    return tuple(dist.get(s, 0) for s in sorted(sinks(q)))


def _entry_for(g: Graph, context: tuple[str, ...]):
    for ctx, q, pres in _quotient_data(g):
        if ctx == context:
            return q, pres
    return None


@lru_cache(maxsize=128)
def _restriction_quotients(
    g: Graph, members: frozenset
) -> tuple[tuple[tuple[str, ...], Graph], ...]:
    # acyclic quotients of the restriction to a hereditary saturated set,
    # keyed by their surviving vertices
    from .lattice import HSatSet, quotient_graph, restriction_graph

    inner = restriction_graph(g, HSatSet(g, members))
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
    """An invariant separating the two classes, or None if none applies."""
    if x.graph != y.graph:
        raise ValueError("elements belong to different graphs")
    if x.is_zero != y.is_zero:
        return Certificate("zero", None, x.is_zero, y.is_zero)
    cx = tuple(sorted(support_closure(x)))
    cy = tuple(sorted(support_closure(y)))
    if cx != cy:
        return Certificate("support-closure", None, cx, cy)
    for ctx, q, pres in _quotient_data(x.graph):
        ix = _quotient_image(q, pres, x)
        iy = _quotient_image(q, pres, y)
        if ix != iy:
            if ctx:
                return Certificate("quotient-grothendieck", ctx, ix, iy)
            return Certificate("grothendieck", None, ix, iy)
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
    elif kind in ("grothendieck", "quotient-grothendieck"):
        found = _entry_for(g, cert.context or ())
        if found is None:
            return False
        q, pres = found
        lhs = _quotient_image(q, pres, x)
        rhs = _quotient_image(q, pres, y)
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
    elif kind == "disjoint-reducts":
        from .rewriting import exhaustive_reducts

        rx = exhaustive_reducts(x)
        ry = exhaustive_reducts(y)
        if rx is None or ry is None:
            return False
        lhs = tuple(sorted(e.counts for e in rx))
        rhs = tuple(sorted(e.counts for e in ry))
        holds = not set(lhs) & set(rhs)
    else:
        return False
    return holds and lhs == cert.lhs and rhs == cert.rhs
