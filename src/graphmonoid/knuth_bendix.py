"""Commutative completion of a graph's relations.

A graph's monoid is the free commutative monoid on its vertices modulo
``v = r(v)`` for each non-sink ``v``, where ``r(v)`` sums the targets of
``v``'s edges.  :func:`complete` orients each relation from its larger
side to its smaller one in the graded order (size, then count tuple) and
runs commutative Knuth-Bendix completion (Ballantyne & Lankford 1981)
until every critical pair joins.  The rules it returns are convergent:
every count vector rewrites to exactly one irreducible vector, its
normal form, and two vectors present the same class exactly when their
normal forms agree.  The order is compatible with addition, so a normal
form is also the least member of its class, by size and then tuple.

Completion keeps the rules interreduced (no left side contains another
and right sides are irreducible), skips pairs whose left sides share no
vertex (those always join), and takes the pair with the smallest least
common multiple first.  The worst case is exponential in space (Mayr &
Meyer 1982), so the number of rules and of pairs examined are capped,
and a cap raises :class:`~graphmonoid.errors.CapExceeded`.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import count
from typing import Callable, NamedTuple

from .errors import CapExceeded
from .graphs import Graph

Vector = tuple[int, ...]

RULE_CAP = 500
PAIR_CAP = 20_000


class Completion(NamedTuple):
    """The completed rules, each ``(lhs, rhs)`` with ``lhs`` the larger
    side, sorted by left side; and the function taking a count vector to
    its normal form."""

    rules: tuple[tuple[Vector, Vector], ...]
    reduce: Callable[[Vector], Vector]


def _key(x: Vector) -> tuple[int, Vector]:
    return (sum(x), x)


def _reducer(rules) -> Callable[[Vector], Vector]:
    # per rule: the (position, count) entries its left side needs, and the
    # nonzero entries of rhs - lhs
    compiled = [
        (
            tuple((i, c) for i, c in enumerate(lhs) if c),
            tuple((i, b - a) for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b),
        )
        for lhs, rhs in rules
    ]

    def reduce(x: Vector) -> Vector:
        vec = list(x)
        applied = True
        while applied:
            applied = False
            for need, delta in compiled:
                for i, c in need:
                    if vec[i] < c:
                        break
                else:
                    # apply the rule as often as the vector holds its left
                    # side; right sides are nonnegative, so every
                    # intermediate step is a legal rewrite
                    k = min(vec[i] // c for i, c in need)
                    for i, d in delta:
                        vec[i] += k * d
                    applied = True
        return tuple(vec)

    return reduce


def complete(g: Graph, deleted: frozenset = frozenset()) -> Completion:
    """Complete the relations of ``g``, plus ``e_p = 0`` for each vertex
    ``p`` in ``deleted`` (the monoid with a hereditary saturated set
    collapsed).  Raises ``CapExceeded`` when more than ``RULE_CAP`` rules
    are live at once or more than ``PAIR_CAP`` pairs are examined.
    Results are cached per graph and deleted set."""
    return _complete(g, frozenset(deleted))


@lru_cache(maxsize=64)
def _complete(g: Graph, deleted: frozenset) -> Completion:
    order = g.vertex_order
    n = len(order)
    for v in deleted:
        g.require_vertex(v)
    todo: list[tuple[Vector, Vector]] = []
    for p, v in enumerate(order):
        unit = tuple(int(q == p) for q in range(n))
        if v in deleted:
            todo.append((unit, (0,) * n))
        elif v in g.moves:
            image = list(unit)
            for i, d in g.moves[v][1]:
                image[i] += d
            todo.append((unit, tuple(image)))

    live: dict[int, tuple[Vector, Vector]] = {}
    pairs: list[tuple[int, Vector, int, int]] = []
    ids = count()
    examined = 0

    def add(a: Vector, b: Vector) -> None:
        normal = _reducer(live.values())
        a, b = normal(a), normal(b)
        if a == b:
            return
        if _key(a) < _key(b):
            a, b = b, a
        # rules whose left side contains the new one are retired, and
        # their relations go back to be oriented again
        for i, (lhs, rhs) in list(live.items()):
            if all(map(int.__ge__, lhs, a)):
                del live[i]
                todo.append((lhs, rhs))
        new = next(ids)
        live[new] = (a, b)
        if len(live) > RULE_CAP:
            raise CapExceeded(f"completion exceeds {RULE_CAP} rules")
        normal = _reducer(live.values())
        for i, (lhs, rhs) in list(live.items()):
            if i != new:
                live[i] = (lhs, normal(rhs))
                # a pair of coprime left sides always joins
                if any(map(min, lhs, a)):
                    lcm = tuple(map(max, lhs, a))
                    heapq.heappush(pairs, (sum(lcm), lcm, i, new))

    while todo or pairs:
        while todo:
            add(*todo.pop())
        if not pairs:
            break
        _, lcm, i, j = heapq.heappop(pairs)
        if i not in live or j not in live:
            continue
        examined += 1
        if examined > PAIR_CAP:
            raise CapExceeded(f"completion examines more than {PAIR_CAP} pairs")
        (li, ri), (lj, rj) = live[i], live[j]
        add(
            tuple(m - x + y for m, x, y in zip(lcm, li, ri)),
            tuple(m - x + y for m, x, y in zip(lcm, lj, rj)),
        )

    rules = tuple(sorted(live.values(), key=lambda rule: _key(rule[0])))
    return Completion(rules, _reducer(rules))
