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

The algebraic order has certificates of its own: a support outside the
closure H of the right side's support, or a *state* of the restriction
E_H that weighs the left side more.  A state is a graph trace (Pask and
Rennie, J. Funct. Anal. 233 (2006)): f from H to the naturals with f(v)
the sum of f over v's edges at each non-sink v, so moves keep it.  The
states tried are one per terminal component T of E_H, a sink or a cycle
no other cycle reaches: 1 on T, elsewhere the paths that first enter T.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .graphs import Graph, hsat_closure
from .elements import MonoidElement
from .ktheory import grothendieck_group
from .lattice import HSatSet, restriction_graph
from .records import record


@record
class Certificate:
    """A named invariant with its computed value on each element.

    ``context`` names the vertices an invariant is computed on: the
    shared support closure for ``restriction-grothendieck`` and the
    closure H of the right side's support for ``state``, whose ``lhs``
    is ``(f, f(x))`` with f a tuple over sorted H, and ``rhs`` is f(y).
    It is None for invariants of the graph itself.
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


@lru_cache(maxsize=128)
def _states(g: Graph, members: frozenset) -> tuple[tuple[int, ...], ...]:
    # the states of the restriction to a hereditary saturated set, one
    # per terminal component, over its canonical order
    inner = _restriction(g, members)
    comps = inner.components
    states = []
    for t, terminal in enumerate(comps):
        if terminal.kind not in ("sink", "cycle"):
            continue
        f = {v: int(v in terminal.members) for v in inner.vertices}
        # only earlier components reach T, in reverse topological order
        for c in reversed(comps[:t]):
            flow = {v: sum(f[w] for w in inner.ranges_from(v)) for v in c.members}
            if c.kind == "acyclic":
                f.update(flow)
            elif any(flow.values()):
                break  # another cycle reaches T
        else:
            states.append(tuple(f[v] for v in inner.vertex_order))
    return tuple(states)


def _value(f: tuple[int, ...], order: tuple[str, ...], x: MonoidElement) -> int:
    return sum(a * x.count(v) for a, v in zip(f, order))


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

    Any addition stays inside the closure H of the target's support, so
    a support outside H is refuted by ``support-bound``.  Otherwise the
    first state of the restriction to H that weighs ``x`` above ``y``
    refutes, since every state is additive and kept by moves.
    """
    if x.graph != y.graph:
        raise ValueError("elements belong to different graphs")
    cy = support_closure(y)
    context = tuple(sorted(cy))
    if not x.support <= cy:
        return Certificate("support-bound", None, tuple(sorted(x.support)), context)
    for f in _states(x.graph, cy):
        fx, fy = _value(f, context, x), _value(f, context, y)
        if fx > fy:
            return Certificate("state", context, (f, fx), fy)
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
    elif kind == "state":
        h = support_closure(y)
        q = _restriction(g, h)
        f = cert.lhs[0] if isinstance(cert.lhs, tuple) and cert.lhs else None
        # a state: nonnegative integers over sorted H, kept by every move
        if not (
            cert.context == q.vertex_order
            and x.support <= h
            and isinstance(f, tuple)
            and len(f) == len(h)
            and all(isinstance(a, int) and a >= 0 for a in f)
            and not any(sum(d * f[i] for i, d in m) for _, m in q.moves.values())
        ):
            return False
        lhs = (f, _value(f, q.vertex_order, x))
        rhs = _value(f, q.vertex_order, y)
        holds = lhs[1] > rhs
    else:
        return False
    return holds and lhs == cert.lhs and rhs == cert.rhs
