"""Finite directed multigraphs and the vertex-set machinery built on them.

Vertices are user-chosen strings.  Parallel edges are meaningful, so edges
are kept as an indexed sequence of (source, target) pairs; an edge is
identified by its position in that sequence.  ``Graph`` keeps vertices in
declaration order (that order is what file round-trips preserve), while
everything derived from a graph (vertex sets, matrices, enumeration) uses
the canonical lexicographic order so results never depend on declaration
order.

The subset operations implement the two closure notions that drive the
rest of the package: a subset is *hereditary* when it is closed under
following edges out of its members, and *saturated* when it swallows every
vertex all of whose outgoing edges land inside the subset.  ``tree`` gives
the least hereditary set containing a vertex, ``saturate`` the least
saturated superset of a hereditary set, and ``is_cofinal`` asks whether
every such tree saturates to the whole vertex set.  ``Graph.components``
lists the strongly connected components, classified by their cycles.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import GraphFormatError
from .records import frozen_delattr, frozen_setattr, record

# A validated subset of some graph's vertices.
VertexSet = frozenset[str]

# One entry of ``Graph.moves``: a vertex's canonical position and the
# nonzero (position, change) entries of its move.
Move = tuple[int, tuple[tuple[int, int], ...]]

_ID_FORBIDDEN = set("#+*,;")


def _check_vertex_id(name: str) -> None:
    if not isinstance(name, str) or not name or name == "0":
        raise ValueError(f"invalid vertex identifier {name!r}")
    if any(ch.isspace() or ch in _ID_FORBIDDEN for ch in name):
        raise ValueError(f"invalid vertex identifier {name!r}")


@record
class Component:
    """A strongly connected component, its members in canonical order.

    ``kind`` is ``"sink"``, ``"acyclic"`` (one vertex on no cycle that
    emits edges), ``"cycle"`` (each member emits exactly one edge inside
    it, so the members form one loop) or ``"cyclic"``.
    """

    members: tuple[str, ...]
    kind: str
    has_exit: bool


class Graph:
    """A finite directed multigraph with string vertex identifiers.

    An immutable value: equality and hashing go by ``(vertices, edges)``.
    Its methods are written out rather than built by ``records.record``,
    since searches compare and hash graphs once per state.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(
        self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()
    ) -> None:
        vertices = tuple(vertices)
        edges = tuple((s, t) for s, t in edges)
        declared = set()
        for name in vertices:
            _check_vertex_id(name)
            if name in declared:
                raise ValueError(f"duplicate vertex {name!r}")
            declared.add(name)
        for pos, (src, dst) in enumerate(edges):
            if src not in declared:
                raise ValueError(f"edge {pos} has undeclared source {src!r}")
            if dst not in declared:
                raise ValueError(f"edge {pos} has undeclared target {dst!r}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}"
            f"(vertices={self.vertices!r}, edges={self.edges!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.vertices, self.edges) == (other.vertices, other.edges)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    # ------------------------------------------------------------------
    # canonical order and lookups

    @cached_property
    def vertex_order(self) -> tuple[str, ...]:
        """Vertices in canonical (lexicographic) order."""
        return tuple(sorted(self.vertices))

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        """Position of each vertex in the canonical order."""
        return {v: i for i, v in enumerate(self.vertex_order)}

    @cached_property
    def _out(self) -> dict[str, tuple[int, ...]]:
        table: dict[str, list[int]] = {v: [] for v in self.vertices}
        for pos, (src, _) in enumerate(self.edges):
            table[src].append(pos)
        return {v: tuple(ix) for v, ix in table.items()}

    def require_vertex(self, v: str) -> None:
        if v not in self._out:
            raise ValueError(f"unknown vertex {v!r}")

    def out_edges(self, v: str) -> tuple[int, ...]:
        """Indices of the edges emitted by ``v``, in edge order."""
        self.require_vertex(v)
        return self._out[v]

    def ranges_from(self, v: str) -> tuple[str, ...]:
        """Targets of the edges emitted by ``v`` (with multiplicity)."""
        return tuple(self.edges[i][1] for i in self.out_edges(v))

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def adjacency(self, v: str, w: str) -> int:
        """Number of edges from ``v`` to ``w``."""
        return sum(1 for i in self.out_edges(v) if self.edges[i][1] == w)

    @cached_property
    def moves(self) -> dict[str, Move]:
        """The move table, keyed by the non-sinks in canonical order.

        A move replaces one occurrence of a non-sink ``v`` by ``r(v)``,
        the sum of its edge targets.  Each entry holds ``v``'s canonical
        position and the nonzero entries ``(position, change)`` of
        ``r(v) - v``, by position.
        """
        index = self.vertex_index
        counts: dict[str, dict[int, int]] = {v: {} for v in self.vertices}
        for src, dst in self.edges:
            row, j = counts[src], index[dst]
            row[j] = row.get(j, 0) + 1
        table = {}
        for v in self.vertex_order:
            row = counts[v]
            if row:
                pos = index[v]
                row[pos] = row.get(pos, 0) - 1
                table[v] = (pos, tuple(sorted((i, d) for i, d in row.items() if d)))
        return table

    @cached_property
    def targets(self) -> dict[str, frozenset[str]]:
        """The set of edge targets of each vertex (empty for a sink)."""
        table: dict[str, set[str]] = {v: set() for v in self.vertices}
        for src, dst in self.edges:
            table[src].add(dst)
        return {v: frozenset(s) for v, s in table.items()}

    @cached_property
    def predecessors(self) -> dict[str, frozenset[str]]:
        """The set of sources of edges into each vertex."""
        table: dict[str, set[str]] = {v: set() for v in self.vertices}
        for src, dst in self.edges:
            table[dst].add(src)
        return {v: frozenset(s) for v, s in table.items()}

    @cached_property
    def components(self) -> tuple[Component, ...]:
        """The strongly connected components in topological order, found
        by Tarjan's search with an explicit stack, so a long chain needs no
        deep recursion."""
        # a virtual root "", which no vertex can be named, emits an edge to
        # every vertex, so one search visits them all in canonical order
        succ: dict[str, list[str]] = {"": list(self.vertex_order)}
        succ.update((v, []) for v in self.vertices)
        for src, dst in self.edges:
            succ[src].append(dst)
        index, low, stack, groups = {"": 0}, {"": 0}, [""], []
        work = [("", iter(succ[""]), 0)]
        while work:
            v, todo, cut = work[-1]
            for w in todo:
                if w not in index:
                    index[w] = low[w] = len(index)
                    work.append((w, iter(succ[w]), len(stack)))
                    stack.append(w)
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    groups.append(stack[cut:])
                    del stack[cut:]
                    # a finished vertex lowers no other
                    index.update(dict.fromkeys(groups[-1], len(succ)))
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
        groups.pop()  # the virtual root's, finished last
        out = []
        for group in reversed(groups):  # Tarjan ends a component after those it reaches
            targets = [w for v in group for w in succ[v]]
            inner = sum(map(set(group).__contains__, targets))
            exit_ = inner < len(targets)
            # on a cycle each member has an inner edge; one each is one loop
            shape = (inner > 0) + (inner > len(group))
            kind = ("acyclic" if exit_ else "sink", "cycle", "cyclic")[shape]
            out.append(Component(tuple(sorted(group)), kind, exit_))
        return tuple(out)

    @cached_property
    def adjacency_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Edge-count matrix over the canonical vertex order."""
        order = self.vertex_order
        return tuple(tuple(self.adjacency(v, w) for w in order) for v in order)

    def edge_source(self, pos: int) -> str:
        return self.edges[pos][0]

    def edge_target(self, pos: int) -> str:
        return self.edges[pos][1]

    def __contains__(self, v: object) -> bool:
        return v in self._out


@record
class Path:
    """A nonempty composable sequence of edge indices in a fixed graph."""

    graph: Graph
    edge_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_indices", tuple(self.edge_indices))
        if not self.edge_indices:
            raise ValueError("a path needs at least one edge")
        n_edges = len(self.graph.edges)
        for pos in self.edge_indices:
            if not 0 <= pos < n_edges:
                raise ValueError(f"edge index {pos} out of range")
        for prev, nxt in zip(self.edge_indices, self.edge_indices[1:]):
            if self.graph.edge_target(prev) != self.graph.edge_source(nxt):
                raise ValueError("path edges do not compose")

    @property
    def source(self) -> str:
        return self.graph.edge_source(self.edge_indices[0])

    @property
    def target(self) -> str:
        return self.graph.edge_target(self.edge_indices[-1])

    @property
    def length(self) -> int:
        return len(self.edge_indices)

    @property
    def visited(self) -> tuple[str, ...]:
        """Sources of the path's edges, in order."""
        return tuple(self.graph.edge_source(i) for i in self.edge_indices)

    def is_loop(self) -> bool:
        return self.source == self.target


# ----------------------------------------------------------------------
# subset machinery


def _as_subset(g: Graph, subset: Iterable[str]) -> VertexSet:
    out = frozenset(subset)
    for v in out:
        g.require_vertex(v)
    return out


def sinks(g: Graph) -> VertexSet:
    """Vertices that emit no edges."""
    return frozenset(v for v in g.vertices if g.is_sink(v))


def tree(g: Graph, v: str) -> VertexSet:
    """All vertices reachable from ``v``, including ``v``.

    This is the least hereditary subset containing ``v``.
    """
    g.require_vertex(v)
    seen = {v}
    queue = deque([v])
    while queue:
        cur = queue.popleft()
        for w in g.ranges_from(cur):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def is_hereditary(g: Graph, subset: Iterable[str]) -> bool:
    """True when every edge leaving the subset's vertices stays inside it."""
    members = _as_subset(g, subset)
    return all(w in members for v in members for w in g.ranges_from(v))


def _saturate(
    g: Graph, members: VertexSet, fresh: Iterable[str] | None = None
) -> VertexSet:
    """Least saturated superset of ``members``.

    A vertex can only join once one of its edge targets has joined, so a
    worklist visits just the predecessors of new members.  ``fresh``
    names the members to start from when the others are already known
    to be saturated; by default every member is a start.
    """
    grown = set(members)
    targets, preds = g.targets, g.predecessors
    work = [u for w in (members if fresh is None else fresh) for u in preds[w]]
    while work:
        u = work.pop()
        # sinks have no successors, so none is ever a predecessor
        if u not in grown and targets[u] <= grown:
            grown.add(u)
            work.extend(preds[u])
    return frozenset(grown)


def saturate(g: Graph, subset: Iterable[str]) -> VertexSet:
    """Least saturated superset of a hereditary subset.

    Iteratively adjoins every vertex whose outgoing edges all land in the
    current set.  The result is again hereditary.
    """
    members = _as_subset(g, subset)
    if not is_hereditary(g, members):
        raise ValueError("subset is not hereditary")
    return _saturate(g, members)


def hereditary_closure(g: Graph, subset: Iterable[str]) -> VertexSet:
    """Least hereditary superset of an arbitrary subset."""
    members = _as_subset(g, subset)
    out: set[str] = set()
    for v in members:
        out |= tree(g, v)
    return frozenset(out)


def hsat_closure(g: Graph, subset: Iterable[str]) -> VertexSet:
    """Least hereditary and saturated superset of an arbitrary subset."""
    return _saturate(g, hereditary_closure(g, subset))


def completion(g: Graph, x_vertices: Iterable[str], x_edges: Iterable[int]) -> Graph:
    """Close a subgraph so that its emitting vertices keep all their edges.

    Given a subgraph (a vertex subset plus some edge indices between those
    vertices), return the graph whose vertices are the subgraph's vertices
    together with all targets of edges leaving them, and whose edges are
    every edge of ``g`` emitted by one of the original vertices.  In the
    result each vertex that emits at all emits exactly its edges from
    ``g``, so the inclusion into ``g`` is a complete graph homomorphism.
    """
    base = _as_subset(g, x_vertices)
    n_edges = len(g.edges)
    for pos in x_edges:
        if not 0 <= pos < n_edges:
            raise ValueError(f"edge index {pos} out of range")
        src, dst = g.edges[pos]
        if src not in base or dst not in base:
            raise ValueError(f"edge {pos} leaves the subgraph's vertex set")
    keep = [i for i in range(n_edges) if g.edge_source(i) in base]
    grown = set(base)
    grown.update(g.edge_target(i) for i in keep)
    return Graph(tuple(sorted(grown)), tuple(g.edges[i] for i in keep))


def is_cofinal(g: Graph) -> bool:
    """True when every vertex's tree saturates to the whole vertex set."""
    everything = frozenset(g.vertices)
    return all(_saturate(g, tree(g, v)) == everything for v in g.vertices)


# ----------------------------------------------------------------------
# acyclic structure


def is_acyclic(g: Graph) -> bool:
    """True when no component of the graph carries a cycle."""
    return all(c.kind in ("sink", "acyclic") for c in g.components)


def sink_distribution(g: Graph, weights: Mapping[str, int]) -> dict[str, int]:
    """Push vertex weights forward along edges until only sinks carry weight.

    Only defined on acyclic graphs.  The result maps each sink with a
    nonzero total to that total; weights must be nonnegative.
    """
    if not is_acyclic(g):
        raise ValueError("graph has a cycle")
    load = {v: 0 for v in g.vertices}
    for v, k in weights.items():
        g.require_vertex(v)
        if k < 0:
            raise ValueError("weights must be nonnegative")
        load[v] += int(k)
    for v in (c.members[0] for c in g.components):
        if not g.is_sink(v) and load[v]:
            k = load[v]
            load[v] = 0
            for w in g.ranges_from(v):
                load[w] += k
    return {v: c for v, c in load.items() if c}


# ----------------------------------------------------------------------
# text and JSON formats


def parse_graph_text(text: str) -> Graph:
    """Parse the line-based graph format.

    ``#`` starts a comment, ``vertex <id>`` declares a vertex and
    ``edge <src> <dst>`` appends an edge (repetition gives parallel
    edges; edge indices follow file order).  Errors carry line numbers.
    """
    vertices: list[str] = []
    declared: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            name = parts[1]
            try:
                _check_vertex_id(name)
            except ValueError as exc:
                raise GraphFormatError(str(exc), lineno) from None
            if name in declared:
                raise GraphFormatError(f"duplicate vertex {name!r}", lineno)
            declared.add(name)
            vertices.append(name)
        elif parts[0] == "edge" and len(parts) == 3:
            src, dst = parts[1], parts[2]
            for name in (src, dst):
                if name not in declared:
                    raise GraphFormatError(f"unknown vertex {name!r}", lineno)
            edges.append((src, dst))
        else:
            raise GraphFormatError(f"cannot parse {raw.strip()!r}", lineno)
    if not vertices:
        raise GraphFormatError("no vertices")
    return Graph(tuple(vertices), tuple(edges))


def format_graph_text(g: Graph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {s} {t}" for s, t in g.edges]
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[s, t] for s, t in g.edges],
    }


def graph_from_json(obj: dict) -> Graph:
    try:
        vertices = tuple(obj["vertices"])
        edges = tuple((s, t) for s, t in obj["edges"])
        return Graph(vertices, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad graph JSON: {exc}") from None
