"""The lattice of hereditary saturated vertex sets and its consequences.

These subsets classify the order-ideals of the graph's monoid: a class
lies in the ideal attached to a subset exactly when its support does.
The module enumerates the lattice by walking up from the empty set
through covering sets, one closure per vertex for each set, so the cost
follows the lattice's size rather than the 2^n subsets.  It also builds
quotient and restriction graphs, produces a composition series whose
step quotients are simple, and classifies those simple quotients by
their loop structure.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Union

from .errors import CapExceeded
from .graphs import (
    Graph,
    Path,
    VertexSet,
    _saturate,
    is_acyclic,
    is_cofinal,
    is_hereditary,
    tree,
)
from .elements import MonoidElement
from .records import record

DEFAULT_LATTICE_CAP = 20


def _set_key(members: VertexSet) -> tuple[int, tuple[str, ...]]:
    return (len(members), tuple(sorted(members)))


@record
class HSatSet:
    """A vertex subset that is both hereditary and saturated."""

    graph: Graph
    members: VertexSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if not is_hereditary(self.graph, self.members):
            raise ValueError("subset is not hereditary")
        if _saturate(self.graph, self.members) != self.members:
            raise ValueError("subset is not saturated")

    def __contains__(self, v: object) -> bool:
        return v in self.members

    def __le__(self, other: "HSatSet") -> bool:
        return self.members <= other.members

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        return _set_key(self.members)


def join(a: HSatSet, b: HSatSet) -> HSatSet:
    if a.graph != b.graph:
        raise ValueError("subsets belong to different graphs")
    return HSatSet(a.graph, _saturate(a.graph, a.members | b.members))


def meet(a: HSatSet, b: HSatSet) -> HSatSet:
    if a.graph != b.graph:
        raise ValueError("subsets belong to different graphs")
    return HSatSet(a.graph, a.members & b.members)


def _hsat_covers(g: Graph, cap: int) -> dict[VertexSet, list[VertexSet]]:
    """Every hereditary saturated set, mapped to its upper covers.

    A breadth-first search upward from the bottom set.  For a closed set
    C, each vertex v outside it generates a closed set, the closure of C
    and ``tree(v)``; the minimal ones among those are exactly C's covers.
    A result is minimal when every one of its vertices outside C
    generates it (a smaller result would be generated by one of them),
    so counting generators finds the covers.  Each closure saturates
    from the added part only, since C is already saturated.
    """
    names = g.vertex_order
    if len(names) > cap:
        raise CapExceeded(
            f"lattice enumeration over {len(names)} vertices exceeds cap {cap}"
        )
    trees = {v: tree(g, v) for v in names}
    bottom = _saturate(g, frozenset())
    covers: dict[VertexSet, list[VertexSet]] = {}
    queue = deque([bottom])
    while queue:
        current = queue.popleft()
        if current in covers:
            continue
        found = Counter(
            _saturate(g, current | trees[v], trees[v] - current)
            for v in names
            if v not in current
        )
        ups = [d for d, k in found.items() if k == len(d) - len(current)]
        covers[current] = ups
        queue.extend(ups)
    return covers


def enumerate_hsat(g: Graph, cap: int = DEFAULT_LATTICE_CAP) -> tuple[HSatSet, ...]:
    """All hereditary saturated subsets, ordered by size then name.

    Walks the lattice upward through its covers, computing at most one
    closure per vertex for each set found, so the cost follows the
    number of sets rather than the 2^n subsets.  The vertex count is
    still capped, because the output itself can have 2^n sets (an
    edgeless graph); raise the cap explicitly for larger graphs.
    """
    found = sorted(_hsat_covers(g, cap), key=_set_key)
    return tuple(HSatSet(g, m) for m in found)


@record
class LatticeReport:
    """The full lattice: its sets, covering pairs and operation tables."""

    graph: Graph
    sets: tuple[HSatSet, ...]
    hasse: tuple[tuple[int, int], ...]
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]


def lattice_report(g: Graph, cap: int = DEFAULT_LATTICE_CAP) -> LatticeReport:
    covers = _hsat_covers(g, cap)
    members = sorted(covers, key=_set_key)
    sets = tuple(HSatSet(g, m) for m in members)
    index = {m: i for i, m in enumerate(members)}
    hasse = sorted((index[c], index[d]) for c, ups in covers.items() for d in ups)

    def join_index(a: VertexSet, b: VertexSet) -> int:
        found = index.get(a | b)
        return index[_saturate(g, a | b)] if found is None else found

    joins = tuple(tuple(join_index(a, b) for b in members) for a in members)
    meets = tuple(tuple(index[a & b] for b in members) for a in members)
    return LatticeReport(g, sets, tuple(hasse), joins, meets)


def order_ideal_membership(h: HSatSet, x: MonoidElement) -> bool:
    """Whether the element's class lies in the ideal attached to ``h``.

    Rewriting never moves support across the boundary of a hereditary
    saturated set, so this is decided by the support alone.
    """
    if x.graph != h.graph:
        raise ValueError("element belongs to a different graph")
    return x.support <= h.members


# ----------------------------------------------------------------------
# quotients and restrictions


def quotient_graph(g: Graph, h: HSatSet) -> Graph:
    """Delete the subset's vertices and every edge into them.

    Saturation guarantees no surviving vertex loses all of its edges
    without having been a sink already.
    """
    if h.graph != g:
        raise ValueError("subset belongs to a different graph")
    keep_v = tuple(v for v in g.vertices if v not in h.members)
    keep_e = tuple(
        (s, t) for s, t in g.edges if t not in h.members and s not in h.members
    )
    return Graph(keep_v, keep_e)


def restriction_graph(g: Graph, h: HSatSet) -> Graph:
    """The subgraph on the subset's vertices with all their edges.

    Heredity guarantees those edges never leave the subset.
    """
    if h.graph != g:
        raise ValueError("subset belongs to a different graph")
    keep_v = tuple(v for v in g.vertices if v in h.members)
    keep_e = tuple((s, t) for s, t in g.edges if s in h.members)
    return Graph(keep_v, keep_e)


# ----------------------------------------------------------------------
# composition series and simple quotients


@record
class SimpleClass:
    """Classification of a simple quotient by its loop structure.

    ``kind`` is ``"SinkType"`` (no loops; witness is the unique sink),
    ``"CycleNoExitType"`` (witness: the loop with no exit, from its least
    vertex) or ``"LoopsWithExitType"`` (every loop has an exit; none).
    """

    kind: str
    witness: Union[str, Path, None]


def classify_simple(g: Graph) -> SimpleClass:
    """Classify the monoid of a cofinal graph.

    A loop with no exit is a ``cycle`` component with no exit; the loops
    of other components all have exits.  Raises ValueError when the
    graph is empty or not cofinal, since the trichotomy only applies to
    simple monoids.
    """
    if not g.vertices:
        raise ValueError("empty graph has no classification")
    if not is_cofinal(g):
        raise ValueError("graph is not cofinal")
    for c in g.components:
        if c.kind == "cycle" and not c.has_exit:
            # each member emits one edge: follow it from the least one
            edges = [g.out_edges(c.members[0])[0]]
            while g.edge_target(edges[-1]) != c.members[0]:
                edges.append(g.out_edges(g.edge_target(edges[-1]))[0])
            return SimpleClass("CycleNoExitType", Path(g, tuple(edges)))
    if is_acyclic(g):  # a cofinal acyclic graph drains into one sink, the last
        return SimpleClass("SinkType", g.components[-1].members[0])
    return SimpleClass("LoopsWithExitType", None)


@record
class SeriesStep:
    """One step of a composition series: its boundary sets, the simple
    subquotient graph between them, and that graph's classification."""

    lower: HSatSet
    upper: HSatSet
    graph: Graph
    classification: SimpleClass


@record
class CompositionSeries:
    graph: Graph
    sets: tuple[HSatSet, ...]
    steps: tuple[SeriesStep, ...]


def _step_graph(g: Graph, lower: HSatSet, upper: HSatSet) -> Graph:
    inside = restriction_graph(g, upper)
    return quotient_graph(inside, HSatSet(inside, lower.members))


def composition_series(g: Graph, cap: int = DEFAULT_LATTICE_CAP) -> CompositionSeries:
    """A maximal chain of hereditary saturated sets with simple quotients.

    Built greedily from the bottom: each step moves to the smallest cover
    of the current set (ties broken by size then name).  Maximality of
    each step makes every subquotient cofinal, hence simple.  In the
    size-then-name order the first set strictly above the current one
    is that smallest cover, since a set between them would be smaller
    and come earlier, so one scan of the ordered sets builds the chain.
    """
    if not g.vertices:
        raise ValueError("empty graph has no composition series")
    sets = enumerate_hsat(g, cap)
    chain = [sets[0]]
    for h in sets[1:]:
        if chain[-1].members < h.members:
            chain.append(h)
    steps = []
    for lower, upper in zip(chain, chain[1:]):
        sub = _step_graph(g, lower, upper)
        steps.append(SeriesStep(lower, upper, sub, classify_simple(sub)))
    return CompositionSeries(g, tuple(chain), tuple(steps))


def validate_series(g: Graph, members_chain: Iterable[Iterable[str]]) -> bool:
    """Check a proposed chain of vertex sets for being a composition series.

    The empty set is supplied automatically if missing.  Returns False on
    any defect (not hereditary saturated, not strictly increasing, not
    ending at the full vertex set, or some subquotient not simple).
    """
    try:
        chain = [HSatSet(g, frozenset(m)) for m in members_chain]
    except ValueError:
        return False
    if not chain or chain[0].members:
        chain.insert(0, HSatSet(g, frozenset()))
    if chain[-1].members != frozenset(g.vertices):
        return False
    for lower, upper in zip(chain, chain[1:]):
        if not lower.members < upper.members:
            return False
        try:
            classify_simple(_step_graph(g, lower, upper))
        except ValueError:
            return False
    return True


# ----------------------------------------------------------------------
# the ideal correspondence, checked against the bounded class model


_ROUNDTRIP_CLASS_CAP = 10


def phi_psi_roundtrip(
    g: Graph,
    cap: int = DEFAULT_LATTICE_CAP,
    class_cap: int = _ROUNDTRIP_CLASS_CAP,
) -> bool:
    """Verify the order-ideal correspondence on the bounded class model.

    For each hereditary saturated set, the classes whose support-closure
    lands inside it form a candidate ideal.  The check confirms that
    vertices recover the set, that each candidate is downward closed and
    closed under in-model addition, and that inclusion of sets matches
    inclusion of ideals.  Memberships are packed into per-class bitmasks
    so one pass over pairs of classes covers every set at once: a sum
    must lie in exactly the ideals containing both summands, which gives
    closure under addition and (reading it backwards) downward closure.
    Raises ``CapExceeded`` when the lattice, the completion or the class
    model outgrows its caps.
    """
    from .enumeration import class_model

    lattice_sets = enumerate_hsat(g, cap)
    model = class_model(g, class_cap)
    roots = model.roots
    mask: dict[int, int] = {}
    for r in roots:
        closure = model.closure_of(r)
        bits = 0
        for pos, h in enumerate(lattice_sets):
            if closure <= h.members:
                bits |= 1 << pos
        mask[r] = bits
    for v in g.vertices:
        rv = model.class_of_vertex(v)
        for pos, h in enumerate(lattice_sets):
            if bool(mask[rv] >> pos & 1) != (v in h.members):
                return False
    for i, r in enumerate(roots):
        for s in roots[i:]:
            total = model.add_classes(r, s)
            if total is not None and mask[total] != mask[r] & mask[s]:
                return False
    ideal_bits = []
    for pos in range(len(lattice_sets)):
        bits = 0
        for k, r in enumerate(roots):
            if mask[r] >> pos & 1:
                bits |= 1 << k
        ideal_bits.append(bits)
    for i, hi in enumerate(lattice_sets):
        for j, hj in enumerate(lattice_sets):
            contained = ideal_bits[i] & ~ideal_bits[j] == 0
            if (hi.members <= hj.members) != contained:
                return False
    return True
