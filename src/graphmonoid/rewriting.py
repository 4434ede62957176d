"""One-step rewriting, the word problem, divisibility and refinement.

The monoid presented by a graph identifies each non-sink vertex with the
sum of its edge targets.  Working in the free monoid, a single move
replaces one occurrence of a non-sink ``v`` by that sum; every move is
read from the graph's move table, ``Graph.moves``, and one level-by-level
expansion serves every search here.  Two elements represent the same
monoid class exactly when some chain of moves links them.  Moves never
shrink an element and distinct moves from a common element rejoin in
one further move each, so equivalent elements share a reduct, and ``x``
lies below ``y`` in the algebraic order exactly when a reduct of ``x``
lies pointwise below one of ``y``.  So ``decide_eq`` and
``properties.leq`` run one forward search from both sides, ``_search``,
with different tests for where the sides meet; on an acyclic graph it
takes the traces to the normal forms.

``decide_eq`` returns one of three verdicts.  ``Equal`` carries the
shared reduct and a replayable trace for each side; ``Distinct`` carries
a :class:`~graphmonoid.certificates.Certificate`; ``Unknown`` reports
the level at which a cap or the depth stopped the search.  A verdict is
never guessed: every positive answer is a pair of checkable traces and
every negative answer is a checkable invariant.  "Distinct" is exact on
every graph, since the certificates separate every inequivalent pair
before any search starts; ``Unknown`` means only that the search for a
shared reduct ran out.
"""

from __future__ import annotations

import itertools
import operator
import sys
from typing import Callable, Optional, Union

from .errors import CapExceeded
from .graphs import Graph, Move, is_acyclic, sink_distribution
from .elements import MonoidElement, from_counts, vertex_element
from .certificates import Certificate, distinctness_certificate
from .records import record

DEFAULT_DEPTH = 12
DEFAULT_REDUCT_CAP = 100_000


def _move(x: MonoidElement, move: Move) -> MonoidElement:
    # one entry of the graph's move table applied to x, which holds the
    # moved vertex
    counts = list(x.counts)
    for i, d in move[1]:
        counts[i] += d
    return MonoidElement(x.graph, tuple(counts))


def r_of(g: Graph, v: str) -> MonoidElement:
    """The replacement of a non-sink vertex: the sum of its edge targets."""
    g.require_vertex(v)
    if v not in g.moves:
        raise ValueError(f"vertex {v!r} is a sink and has no replacement")
    return _move(vertex_element(g, v), g.moves[v])


def apply_rewrite(x: MonoidElement, v: str) -> MonoidElement:
    """Replace one occurrence of ``v`` in ``x`` by its edge targets."""
    g = x.graph
    g.require_vertex(v)
    if v not in g.moves:
        raise ValueError(f"vertex {v!r} is a sink and cannot be rewritten")
    move = g.moves[v]
    if x.counts[move[0]] < 1:
        raise ValueError(f"element has no occurrence of {v!r}")
    return _move(x, move)


def successors(x: MonoidElement) -> list[tuple[str, MonoidElement]]:
    """All single-move results from ``x``, in canonical vertex order.

    Rewriting different occurrences of the same vertex gives the same
    multiset, so each rewritable vertex contributes one successor.
    """
    counts = x.counts
    return [
        (v, _move(x, move))
        for v, move in x.graph.moves.items()
        if counts[move[0]]
    ]


def _expand(frontier: list, parents: dict, cap: int) -> tuple[list, bool]:
    # one move deeper: every new reduct of the frontier is recorded in
    # ``parents`` with the state and vertex it came from.  Returns the
    # new frontier and whether the cap cut the expansion short.
    nxt = []
    for e in frontier:
        for v, s in successors(e):
            if s not in parents:
                if len(parents) >= cap:
                    return nxt, True
                parents[s] = (e, v)
                nxt.append(s)
    return nxt, False


def reduct_set(
    x: MonoidElement, depth: int, cap: int = DEFAULT_REDUCT_CAP
) -> frozenset:
    """Everything reachable from ``x`` in at most ``depth`` moves."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    parents: dict = {x: None}
    frontier = [x]
    for _ in range(depth):
        frontier, capped = _expand(frontier, parents, cap)
        if capped:
            raise CapExceeded(f"reduct set exceeds cap {cap}")
        if not frontier:
            break
    return frozenset(parents)


def exhaustive_reducts(
    x: MonoidElement, cap: int = DEFAULT_REDUCT_CAP
) -> Optional[frozenset]:
    """The full reachable set of ``x``, or None if it outgrows the cap."""
    # no depth bound: the frontier empties or the cap is hit first
    try:
        return reduct_set(x, sys.maxsize, cap)
    except CapExceeded:
        return None


def normal_form(x: MonoidElement) -> MonoidElement:
    """The unique sink-supported reduct.  Acyclic graphs only; on a graph
    with a cycle this raises ValueError."""
    g = x.graph
    dist = sink_distribution(g, {v: x.count(v) for v in g.vertices})
    return from_counts(g, dist)


# ----------------------------------------------------------------------
# traces


@record
class RewriteTrace:
    """A start element and the successive single moves applied to it.

    Each step records the rewritten vertex and the element produced.
    """

    start: MonoidElement
    steps: tuple[tuple[str, MonoidElement], ...] = ()

    @property
    def end(self) -> MonoidElement:
        return self.steps[-1][1] if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)


def validate_trace(trace: RewriteTrace) -> bool:
    """Replay a trace move by move and confirm every step is legal."""
    current = trace.start
    moves = current.graph.moves
    for v, after in trace.steps:
        move = moves.get(v)
        if move is None or current.counts[move[0]] < 1:
            return False
        if _move(current, move) != after:
            return False
        current = after
    return True


def _normalizing_trace(x: MonoidElement) -> RewriteTrace:
    # rewrite the least rewritable vertex until only sinks remain;
    # terminates precisely because the caller checked acyclicity
    steps = []
    current = x
    while True:
        succ = successors(current)
        if not succ:
            break
        v, current = succ[0]
        steps.append((v, current))
    return RewriteTrace(x, tuple(steps))


# ----------------------------------------------------------------------
# verdicts


@record
class Equal:
    """Both inputs rewrite to ``reduct``; the traces prove it."""

    verdict = "equal"
    reduct: MonoidElement
    lhs_trace: RewriteTrace
    rhs_trace: RewriteTrace


@record
class Distinct:
    """The inputs are inequivalent; the certificate proves it."""

    verdict = "distinct"
    certificate: Certificate


@record
class Unknown:
    """Search ended without a proof either way at the reported depth."""

    verdict = "unknown"
    depth: int


class DistinctSums(ValueError):
    """Raised by :func:`refine` when the two sums are provably
    inequivalent."""


Verdict = Union[Equal, Distinct, Unknown]


def _trace_to(
    parents: dict, root: MonoidElement, target: MonoidElement
) -> RewriteTrace:
    steps = []
    cur = target
    while parents[cur] is not None:
        prev, v = parents[cur]
        steps.append((v, cur))
        cur = prev
    steps.reverse()
    return RewriteTrace(root, tuple(steps))


class _Exhausted(Unknown):
    """Both sides ran out of reducts, with no cap hit, before they met."""


def _equal_match(new: list, other: dict, side: int) -> Optional[tuple]:
    # the least new reduct by (size, counts) that the other side holds
    hits = [s for s in new if s in other]
    meet = min(hits, key=lambda e: (e.size, e.counts), default=None)
    return None if meet is None else (meet, meet)


def _dominance_match(new: list, other: dict, side: int) -> Optional[tuple]:
    # the first pair, in product order, whose x-side reduct lies
    # pointwise below its y-side one
    below = operator.ge if side else operator.le
    for a, b in itertools.product(new, other):
        if all(map(below, a.counts, b.counts)):
            return a, b
    return None


def _search(
    x: MonoidElement,
    y: MonoidElement,
    depth: int,
    reduct_cap: int,
    match: Callable[[list, dict, int], Optional[tuple]],
) -> Union[tuple[RewriteTrace, RewriteTrace], Unknown]:
    """Traces from ``x`` and ``y`` to a meeting pair of reducts: the normal
    forms on an acyclic graph, else the roots or the first pair that
    ``match(new, other, side)`` draws from one side's new reducts and the
    other side's reducts.  Unknown when a cap or ``depth`` stops the
    search, ``_Exhausted`` when both sides run out first."""
    if is_acyclic(x.graph):
        return _normalizing_trace(x), _normalizing_trace(y)
    parents = ({x: None}, {y: None})
    frontiers = [[x], [y]]
    capped = [False, False]

    def traces(pair: tuple, side: int) -> tuple[RewriteTrace, RewriteTrace]:
        s, t = pair[::-1] if side else pair
        return _trace_to(parents[0], x, s), _trace_to(parents[1], y, t)

    pair = match([x], parents[1], 0)
    if pair is not None:
        return traces(pair, 0)
    for level in range(depth):
        for side in (0, 1):
            if capped[side]:
                continue
            frontiers[side], capped[side] = _expand(
                frontiers[side], parents[side], reduct_cap
            )
            pair = match(frontiers[side], parents[1 - side], side)
            if pair is not None:
                return traces(pair, side)
        if (capped[0] or not frontiers[0]) and (capped[1] or not frontiers[1]):
            return (Unknown if any(capped) else _Exhausted)(level + 1)
    return Unknown(depth)


def _check_bounds(depth: int, reduct_cap: int) -> None:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if reduct_cap < 1:
        raise ValueError("reduct cap must be positive")


def decide_eq(
    x: MonoidElement,
    y: MonoidElement,
    depth: int = DEFAULT_DEPTH,
    reduct_cap: int = DEFAULT_REDUCT_CAP,
) -> Verdict:
    """Decide whether two elements present the same monoid class.

    Invariant certificates are consulted before any search, and they
    separate every inequivalent pair, so Distinct is exact.  The shared
    search joins an equivalent pair at its normal forms on acyclic graphs,
    elsewhere at the least shared reduct within ``depth`` moves and
    ``reduct_cap`` states per side, or returns Unknown.  A negative
    ``depth`` or a ``reduct_cap`` below one raises ValueError.
    """
    _check_bounds(depth, reduct_cap)
    if x.graph != y.graph:
        raise ValueError("elements belong to different graphs")
    if x == y:
        return Equal(x, RewriteTrace(x), RewriteTrace(y))
    cert = distinctness_certificate(x, y)
    if cert is not None:
        return Distinct(cert)
    found = _search(x, y, depth, reduct_cap, _equal_match)
    if isinstance(found, tuple) and found[0].end == found[1].end:
        return Equal(found[0].end, *found)
    if type(found) is Unknown:
        return found
    raise RuntimeError(
        "exhausted without a cap, or normal forms differ, "
        "yet no certificate separated the pair"
    )


# ----------------------------------------------------------------------
# division and refinement


def split(
    trace: RewriteTrace, part1: MonoidElement, part2: MonoidElement
) -> tuple[MonoidElement, MonoidElement]:
    """Carry a two-part split of a trace's start along the trace.

    Each move rewrites a vertex drawn from whichever part still contains
    it (the first part when both do), so the returned pair sums to the
    trace's end and each entry is a reduct of the matching input part.
    """
    if part1 + part2 != trace.start:
        raise ValueError("parts do not sum to the trace start")
    a1, a2 = part1, part2
    for v, after in trace.steps:
        if a1.count(v):
            a1 = apply_rewrite(a1, v)
        elif a2.count(v):
            a2 = apply_rewrite(a2, v)
        else:
            raise ValueError(f"trace rewrites {v!r} but neither part has it")
        if a1 + a2 != after:
            raise ValueError("trace step does not match its recorded result")
    return a1, a2


@record
class Refinement:
    """A 2x2 table refining two splits of a common class.

    Row ``i`` sums to a reduct of the first split's part ``i``; column
    ``j`` sums to a reduct of the second split's part ``j``.
    """

    table: tuple[
        tuple[MonoidElement, MonoidElement],
        tuple[MonoidElement, MonoidElement],
    ]


def _pointwise_min(p: MonoidElement, q: MonoidElement) -> MonoidElement:
    return MonoidElement(
        p.graph, tuple(min(a, b) for a, b in zip(p.counts, q.counts))
    )


def _difference(p: MonoidElement, q: MonoidElement) -> MonoidElement:
    return MonoidElement(
        p.graph, tuple(a - b for a, b in zip(p.counts, q.counts))
    )


def refine(
    a1: MonoidElement,
    a2: MonoidElement,
    b1: MonoidElement,
    b2: MonoidElement,
    depth: int = DEFAULT_DEPTH,
    reduct_cap: int = DEFAULT_REDUCT_CAP,
) -> Union[Refinement, Unknown]:
    """Refine ``a1 + a2`` against ``b1 + b2`` when the sums are equivalent.

    Both sums are rewritten to a shared reduct, each trace carries its
    split forward, and the two splits of the common reduct are refined in
    the free monoid.  Raises DistinctSums (a ValueError) when the sums
    are provably inequivalent; passes Unknown through when the word
    problem does.
    """
    outcome = decide_eq(a1 + a2, b1 + b2, depth, reduct_cap)
    if isinstance(outcome, Distinct):
        raise DistinctSums("the sums are provably inequivalent")
    if isinstance(outcome, Unknown):
        return outcome
    m1, _ = split(outcome.lhs_trace, a1, a2)
    n1, n2 = split(outcome.rhs_trace, b1, b2)
    g11 = _pointwise_min(m1, n1)
    g12 = _difference(m1, g11)
    g21 = _difference(n1, g11)
    g22 = _difference(n2, g12)
    return Refinement(((g11, g12), (g21, g22)))
