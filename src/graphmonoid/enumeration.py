"""Class models and class counts over normal forms; order-ideal membership.

The completed rewriting system of :mod:`graphmonoid.knuth_bendix` gives
every class one normal form, its least member by size and then count
tuple.  A model names the classes that have a member of size at most
its cap, and finds them by size level: a class whose normal form has
size k is ``NF(N + e_v)`` for some class ``N`` of level k - 1 and vertex
``v``, because dropping one vertex from an irreducible vector leaves an
irreducible vector.  Levels are built only as far as a caller asks, and
a model that would hold more than ``_CLASS_LIMIT`` classes raises
``CapExceeded``.

Each class keeps its row of the transition table, the class of its
normal form plus one vertex, computed on first use.  Sums of classes
walk a normal form through that table, and the algebraic order is a
breadth-first walk over it.  Distinct normal forms are distinct classes,
so counts are exact: a count comes back as ``(n, n)``.  Collapsing a
hereditary saturated set ``H`` adds the rules ``e_p -> 0`` for ``p`` in
``H``, and quotient counts are the normal forms of that completion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from .knuth_bendix import complete
from .errors import CapExceeded
from .graphs import Graph, hereditary_closure, is_hereditary, _saturate
from .elements import MonoidElement, vertex_element, zero
from .certificates import Certificate, leq_obstruction, support_closure

DEFAULT_CLASS_CAP = 24
# most classes one model may name: every model of at most 6 vertices at
# the default cap fits (C(30, 6) = 593 775 classes on the edgeless graph,
# about 6 s and 190 MB to build), while the models of the benchmark's
# `classes` workload name at most a few hundred
_CLASS_LIMIT = 600_000


class ClassModel:
    """The classes of a graph's monoid with a member of size at most
    ``cap``, each named by an integer id.

    A class is represented by its normal form, its smallest member by
    size and then count vector.  ``roots`` lists the ids of every class
    in that order, and ``roots_up_to(k)`` those whose representative has
    size at most ``k``; both build the size levels they need on first
    use.  With ``deleted`` the model is of the monoid with those vertices
    set to zero.  Classes are exact: two elements within the cap share an
    id exactly when they are equivalent.  ``class_of`` takes elements of
    size at most the cap, and ``reduced_class`` any element whose normal
    form is within the cap.  Building a level that would take the model
    past ``_CLASS_LIMIT`` classes raises ``CapExceeded``.
    """

    def __init__(self, graph: Graph, cap: int, deleted: frozenset = frozenset()):
        if cap < 1:
            raise ValueError("cap must be positive")
        self.graph = graph
        self.cap = cap
        self._reduce = complete(graph, deleted).reduce
        origin = (0,) * len(graph.vertices)
        # per id: its normal form, the normal form's size, and its row of
        # the transition table (None until first asked)
        self._reps: list[tuple[int, ...]] = [origin]
        self._sizes: list[int] = [0]
        self._next: list[Optional[tuple[int, ...]]] = [None]
        self._ids: dict[tuple[int, ...], int] = {origin: 0}
        # ids of the complete levels in representative order, and where
        # each level ends in that list
        self._order: list[int] = [0]
        self._level_ends: list[int] = [1]
        self._add_memo: dict[tuple[int, int], Optional[int]] = {}
        self._le_memo: dict[tuple[int, int], Optional[int]] = {}
        self._le_table: Optional[tuple[dict[int, int], dict[int, int]]] = None

    # -- the classes ---------------------------------------------------

    def _id(self, nf: tuple[int, ...]) -> int:
        c = self._ids.get(nf)
        if c is None:
            c = len(self._reps)
            if c >= _CLASS_LIMIT:
                raise CapExceeded(f"class model exceeds {_CLASS_LIMIT} classes")
            self._ids[nf] = c
            self._reps.append(nf)
            self._sizes.append(sum(nf))
            self._next.append(None)
        return c

    def _successors(self, c: int) -> tuple[int, ...]:
        """Row ``c`` of the transition table: the class of ``c``'s normal
        form plus each vertex, in vertex order."""
        row = self._next[c]
        if row is None:
            rep = self._reps[c]
            reduce = self._reduce
            row = tuple(
                self._id(reduce(rep[:p] + (rep[p] + 1,) + rep[p + 1 :]))
                for p in range(len(rep))
            )
            self._next[c] = row
        return row

    def _grow(self, size: int) -> None:
        """Complete every level up to ``size`` (at most the cap)."""
        sizes = self._sizes
        while len(self._level_ends) <= min(size, self.cap):
            k = len(self._level_ends)
            level = {
                d
                for c in self._level(k - 1)
                for d in self._successors(c)
                if sizes[d] == k
            }
            self._order.extend(sorted(level, key=self._reps.__getitem__))
            self._level_ends.append(len(self._order))

    def _level(self, k: int) -> list[int]:
        """Ids of the classes whose representative has size ``k``, in
        order."""
        self._grow(k)
        return self._order[self._level_ends[k - 1] if k else 0 : self._level_ends[k]]

    @property
    def roots(self) -> list[int]:
        """Ids of every class within the cap, by representative."""
        self._grow(self.cap)
        return self._order

    def roots_up_to(self, size: int) -> list[int]:
        if size < 0:
            return []
        self._grow(size)
        return self._order[: self._level_ends[min(size, self.cap)]]

    def in_universe(self, x: MonoidElement) -> bool:
        return x.graph == self.graph and x.size <= self.cap

    def class_of(self, x: MonoidElement) -> int:
        if x.graph != self.graph:
            raise ValueError("element belongs to a different graph")
        if x.size > self.cap:
            raise ValueError("element lies outside the enumerated universe")
        return self._id(self._reduce(x.counts))

    def reduced_class(self, x: MonoidElement) -> Optional[int]:
        """Class of ``x`` whatever its size, or None when its normal form
        (the least member of its class) lies beyond the cap."""
        if x.graph != self.graph:
            raise ValueError("element belongs to a different graph")
        nf = self._reduce(x.counts)
        return self._id(nf) if sum(nf) <= self.cap else None

    def class_of_vertex(self, v: str) -> int:
        return self.class_of(vertex_element(self.graph, v))

    def rep(self, root: int) -> MonoidElement:
        """Smallest member of a class, by size then count vector."""
        return MonoidElement(self.graph, self._reps[root])

    def rep_size(self, root: int) -> int:
        return self._sizes[root]

    def closure_of(self, root: int) -> frozenset:
        return support_closure(self.rep(root))

    def eq3(self, x: MonoidElement, y: MonoidElement) -> str:
        """Word problem inside the model: ``"unknown"`` only for an
        element beyond the cap or a model past its class limit."""
        try:
            same = self.class_of(x) == self.class_of(y)
        except (ValueError, CapExceeded):
            return "unknown"
        return "equal" if same else "distinct"

    # -- arithmetic on classes -----------------------------------------

    def add_classes(self, r: int, s: int) -> Optional[int]:
        """Class of the sum of two representatives, or None when the sum
        leaves the universe."""
        if self._sizes[r] + self._sizes[s] > self.cap:
            return None
        key = (r, s) if r <= s else (s, r)
        out = self._add_memo.get(key)
        if out is None:
            # walk the larger representative through the smaller one;
            # every class on the way stays below the sum's size
            big, small = key
            if self._sizes[big] < self._sizes[small]:
                big, small = small, big
            out = big
            for p, k in enumerate(self._reps[small]):
                for _ in range(k):
                    out = self._successors(out)[p]
            self._add_memo[key] = out
        return out

    def _frontiers(
        self, r: int, moves: Optional[list[int]] = None
    ) -> Iterator[list[int]]:
        """Breadth-first walk from ``r`` over the transition table:
        frontier ``d`` holds the classes first reached by adding ``d``
        vertices, for ``d`` up to the room left below the cap.  With
        ``moves``, only the vertices at those positions are added."""
        seen = {r}
        frontier = [r]
        yield frontier
        for _ in range(self.cap - self._sizes[r]):
            nxt = []
            for c in frontier:
                row = self._successors(c)
                for d in row if moves is None else map(row.__getitem__, moves):
                    if d not in seen:
                        seen.add(d)
                        nxt.append(d)
            if not nxt:
                return
            frontier = nxt
            yield frontier

    def le_witness(self, r: int, s: int) -> Optional[int]:
        """The first class ``t`` in ``roots`` order with ``r + t`` in ``s``
        and the sum within the cap, or None."""
        key = (r, s)
        if key in self._le_memo:
            return self._le_memo[key]
        # a witness lies in the order ideal of s, so its support lies in
        # the hereditary saturated closure of s's support
        inside = self.closure_of(s)
        moves = [p for p, v in enumerate(self.graph.vertex_order) if v in inside]
        out = None
        for depth, frontier in enumerate(self._frontiers(r, moves)):
            if s in frontier:
                # the smallest witness has a representative of exactly
                # this size: scan that level in order
                out = next(t for t in self._level(depth) if self.add_classes(r, t) == s)
                break
        self._le_memo[key] = out
        return out

    def le_classes(self, r: int, s: int) -> bool:
        return self.le_witness(r, s) is not None

    def le_table(self) -> tuple[dict[int, int], dict[int, int]]:
        """Whole-model divisibility.

        Returns ``(position, reachable)``: ``position`` numbers the
        classes in ``roots`` order, and bit ``position[s]`` of
        ``reachable[r]`` is set when some class added to ``r`` lands in
        ``s`` within the cap.  A row is one breadth-first walk, made the
        first time it is read.
        """
        if self._le_table is None:
            position = {r: k for k, r in enumerate(self.roots)}
            self._le_table = (position, _Rows(self, position))
        return self._le_table


class _Rows(dict):
    """``reachable`` of :meth:`ClassModel.le_table`, filled row by row."""

    def __init__(self, model: ClassModel, position: dict[int, int]):
        super().__init__()
        self._model = model
        self._position = position

    def __missing__(self, r: int) -> int:
        position = self._position
        bits = 0
        for frontier in self._model._frontiers(r):
            for c in frontier:
                bits |= 1 << position[c]
        self[r] = bits
        return bits


def class_model(g: Graph, cap: int = DEFAULT_CLASS_CAP) -> ClassModel:
    """The cached model of ``g`` at ``cap``.  Raises ``CapExceeded`` when
    the completion outgrows its caps; the model's own levels may raise it
    later, past ``_CLASS_LIMIT`` classes."""
    return _build_model(g, cap)


@lru_cache(maxsize=32)
def _build_model(g: Graph, cap: int) -> ClassModel:
    return ClassModel(g, cap)


# ----------------------------------------------------------------------
# counting


def bounded_class_count(
    g: Graph, size_limit: int, cap: int = DEFAULT_CLASS_CAP
) -> tuple[int, int]:
    """The number of classes with a member of size at most
    ``size_limit``, as ``(n, n)``: the count is exact.  Raises
    ``CapExceeded`` when the completion or the model outgrows its caps.
    """
    if size_limit > cap:
        raise ValueError("size limit exceeds the enumeration cap")
    count = len(class_model(g, cap).roots_up_to(size_limit))
    return count, count


def quotient_bounded_class_count(
    g: Graph,
    h_members,
    size_limit: int,
    cap: int = DEFAULT_CLASS_CAP,
) -> tuple[int, int]:
    """The class count of the monoid collapsed along a hereditary
    saturated set, computed inside the original graph.

    Every vertex of the set becomes zero, which collapses exactly the
    congruence the set generates.  Returns ``(n, n)``, where ``n`` counts
    the collapsed classes with a member of size at most ``size_limit``.
    Raises ``CapExceeded`` when the completion or the model outgrows its
    caps.
    """
    h = frozenset(h_members)
    for v in h:
        g.require_vertex(v)
    if not is_hereditary(g, h) or _saturate(g, h) != h:
        raise ValueError("subset is not hereditary and saturated")
    if size_limit > cap:
        raise ValueError("size limit exceeds the enumeration cap")
    count = len(ClassModel(g, cap, h).roots_up_to(size_limit))
    return count, count


# ----------------------------------------------------------------------
# order-ideal membership


def ideal_membership(x: MonoidElement, y: MonoidElement):
    """Three-valued test of ``x``'s class against the order-ideal
    generated by ``y``'s class.

    Returns ``("member", (k, z))`` with a proven witness ``x + z``
    equivalent to ``k`` copies of ``y``, ``("not-member", certificate)``
    or ``("unknown", reason)``.  By the lattice isomorphism the ideal is
    the classes supported in ``y``'s support closure, so the support
    decides, and ``not-member`` carries a ``zero`` or ``support-bound``
    certificate.  A walk over that closure gives a ``K`` with ``x`` below
    ``K*y``, and ``k`` is the least multiple up to ``K`` that :func:`leq`
    proves: its search is bounded, so a smaller one may work unproven.
    Otherwise ``reason`` names the search depth and ``K``.
    """
    from .properties import DEFAULT_DEPTH, leq

    if x.graph != y.graph:
        raise ValueError("elements belong to different graphs")
    if x.is_zero:
        return ("member", (0, zero(x.graph)))
    if y.is_zero:
        return ("not-member", Certificate("zero", None, False, True))
    g, closure = y.graph, support_closure(y)
    if not x.support <= closure:
        return ("not-member", leq_obstruction(x, y))
    # v is below weight[v] copies of y: one where a path from y reaches,
    # and for a vertex saturation adds, the sum over its edge targets
    weight = dict.fromkeys(hereditary_closure(g, y.support), 1)
    while len(weight) < len(closure):
        for v in closure - weight.keys():
            if g.targets[v] <= weight.keys():
                weight[v] = sum(weight[g.edge_target(e)] for e in g.out_edges(v))
    bound = sum(x.count(v) * weight[v] for v in x.support)
    for k in range(1, bound + 1):
        out = leq(x, y * k)
        if out.verdict == "true":
            return ("member", (k, out.witness))
    return ("unknown", f"no multiple up to K={bound} at search depth {DEFAULT_DEPTH}")
