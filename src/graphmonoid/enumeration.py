"""Bounded enumeration of monoid classes.

The model takes every count vector up to a size cap and partitions them
two ways.  A union-find structure merges vectors joined by single moves
that stay inside the cap: blocks of this partition are provably
equivalent.  Certificate invariants stratify the same vectors from
above: blocks with different invariants are provably inequivalent.  The
true class relation sits between the two, so every answer drawn from the
model is either proved or reported as unknown, and counting questions
come back as a lower and an upper bound that agree exactly when the two
partitions coincide on the region of interest.

Inside the model a count vector is one integer: its entries are the
digits in base ``cap + 1``, first vertex most significant.  No entry of
an in-cap vector exceeds the cap, so distinct vectors get distinct
codes, code order is tuple order, and adding vectors whose total stays
within the cap adds their codes.  A move is therefore one fixed integer
step, and "the vector holds vertex p" is a nonzero digit.

The universe depends on the vertex count and the cap alone, so every
model of that shape shares one code list, one code -> position index and
one table of where each size begins (``_universe``), and never writes to
them.  What a model owns is its flattened forest, where entry i is the
root of vector i, plus its representatives and memo tables.  Quotient
counts work over blocks, not vectors: collapsing a hereditary saturated
set joins ``c`` with ``c + e_p`` for each of its vertices ``p``, and the
model records once per vertex which pairs of distinct blocks those edges
join, so each set costs one small union-find over block roots.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import compress, islice
from operator import mul, ne
from typing import Optional, Sequence

from .graphs import Graph, hsat_closure, is_hereditary, _saturate
from .elements import MonoidElement, vertex_element, zero
from .certificates import (
    Certificate,
    _quotient_data,
    _quotient_image,
    leq_obstruction,
    support_closure,
)

DEFAULT_CLASS_CAP = 24
DEFAULT_K_BOUND = 3
# most vectors a model may hold when a property sweep builds it or when
# ideal_membership escalates its cap
_UNIVERSE_LIMIT = 300_000


@lru_cache(maxsize=8)
def _universe(n: int, cap: int) -> tuple[list[int], dict[int, int], list[int]]:
    """``(codes, index, starts)`` for vectors of length ``n`` up to ``cap``:
    every code in ``count_vectors`` order, code -> position, and where
    each total begins.  Shared by every model of that shape, which only
    reads them."""
    blocks = _code_blocks(n, cap)
    codes = [c for block in blocks for c in block]
    index = {c: i for i, c in enumerate(codes)}
    starts = [0]
    for block in blocks:
        starts.append(starts[-1] + len(block))
    return codes, index, starts


def _code_blocks(positions: int, cap: int) -> list[list[int]]:
    """Codes of all vectors of the given length, one list per total up to
    ``cap``, each in descending order: the order of ``count_vectors``."""
    base = cap + 1
    # vectors over the last m positions, grown one leading position at a time
    blocks = [[0]] + [[] for _ in range(cap)]
    weight = 1
    for _ in range(positions):
        blocks = [
            [
                first * weight + rest
                for first in range(total, -1, -1)
                for rest in blocks[total - first]
            ]
            for total in range(cap + 1)
        ]
        weight *= base
    return blocks


class ClassModel:
    """Union-find over in-cap moves plus invariant fingerprints.

    ``vectors`` lists the codes of every count vector of size at most
    ``cap`` (see the module docstring), by size and then descending;
    ``index`` maps a code back to its position.  Both are the universe
    shared by every model with the same vertex count and cap: read them,
    never change them.  A block is named by the position of its
    union-find root, and its representative is its smallest member by
    size, then code.  The forest is flattened once built, so a vector's
    block is one list lookup.
    """

    def __init__(self, graph: Graph, cap: int):
        if cap < 1:
            raise ValueError("cap must be positive")
        self.graph = graph
        self.cap = cap
        order = graph.vertex_order
        n = len(order)
        self.base = base = cap + 1
        self.weights = weights = [base ** (n - 1 - p) for p in range(n)]
        codes, index, starts = _universe(n, cap)
        self.vectors: list[int] = codes
        self.index = index
        # the vectors of size t sit at positions starts[t]:starts[t + 1]
        self._starts = starts
        # the index already holds every position as an int: reuse them
        parent = list(index.values())
        rank = bytearray(len(codes))

        # (digit weight of v, code step of v's move, size growth)
        moves = []
        for p, v in enumerate(order):
            if not graph.is_sink(v):
                targets = graph.ranges_from(v)
                step = sum(weights[graph.vertex_index[w]] for w in targets)
                moves.append((weights[p], step - weights[p], len(targets) - 1))
        for size in range(cap + 1):
            fitting = [(w, step) for w, step, grow in moves if size + grow <= cap]
            if not fitting:
                continue
            for i in range(starts[size], starts[size + 1]):
                c = codes[i]
                ri = i
                while parent[ri] != ri:
                    parent[ri] = parent[parent[ri]]
                    ri = parent[ri]
                for w, step in fitting:
                    if not c // w % base:
                        continue
                    rj = index[c + step]
                    while parent[rj] != rj:
                        parent[rj] = parent[parent[rj]]
                        rj = parent[rj]
                    if ri == rj:
                        continue
                    # union by rank; ri stays the root of i's block
                    if rank[ri] < rank[rj]:
                        parent[ri] = rj
                        ri = rj
                    else:
                        parent[rj] = ri
                        if rank[ri] == rank[rj]:
                            rank[ri] += 1

        # flatten by pointer jumping: afterwards parent[i] is i's root
        while True:
            jumped = list(map(parent.__getitem__, parent))
            if jumped == parent:
                break
            parent = jumped
        self._parent = parent

        # visiting sizes downwards and codes downwards, the last member
        # written for each block is its smallest
        best: dict[int, int] = {}
        for size in range(cap, -1, -1):
            lo, hi = starts[size], starts[size + 1]
            best.update(zip(parent[lo:hi], range(lo, hi)))
        self._rep_key = {
            r: (bisect_right(starts, i) - 1, codes[i]) for r, i in best.items()
        }
        self._rep_vec = {r: self.decode(c) for r, (_, c) in self._rep_key.items()}
        self.roots: list[int] = sorted(best, key=self._rep_key.__getitem__)
        self._fp: dict[int, tuple] = {}
        self._add_memo: dict[tuple[int, int], Optional[int]] = {}
        self._le_memo: dict[tuple[int, int], Optional[int]] = {}
        self._le_table: Optional[tuple[dict[int, int], dict[int, int]]] = None
        self._bumps: dict[int, set[tuple[int, int]]] = {}

    # -- codes ---------------------------------------------------------

    def encode(self, vec: Sequence[int]) -> Optional[int]:
        """Code of a count vector, or None when it is not one of the
        model's vectors (wrong length, a negative entry, or size above
        the cap)."""
        if len(vec) != len(self.weights) or sum(vec) > self.cap:
            return None
        if any(c < 0 for c in vec):
            return None
        return sum(map(mul, vec, self.weights))

    def decode(self, code: int) -> tuple[int, ...]:
        """The count vector a code stands for."""
        digits = []
        for w in self.weights:
            d, code = divmod(code, w)
            digits.append(d)
        return tuple(digits)

    # -- classes -------------------------------------------------------

    def in_universe(self, x: MonoidElement) -> bool:
        return x.graph == self.graph and self.encode(x.counts) is not None

    def class_of(self, x: MonoidElement) -> int:
        if x.graph != self.graph:
            raise ValueError("element belongs to a different graph")
        code = self.encode(x.counts)
        if code is None:
            raise ValueError("element lies outside the enumerated universe")
        return self._parent[self.index[code]]

    def class_of_vertex(self, v: str) -> int:
        return self.class_of(vertex_element(self.graph, v))

    def rep(self, root: int) -> MonoidElement:
        """Smallest member of a block, by size then count vector."""
        return MonoidElement(self.graph, self._rep_vec[root])

    def rep_size(self, root: int) -> int:
        return self._rep_key[root][0]

    def roots_up_to(self, size: int) -> list[int]:
        return [r for r in self.roots if self._rep_key[r][0] <= size]

    def closure_of(self, root: int) -> frozenset:
        return support_closure(self.rep(root))

    def fingerprint(self, root: int) -> tuple:
        """Invariant profile of a block; unequal profiles prove blocks
        belong to different classes."""
        fp = self._fp.get(root)
        if fp is None:
            rep = self.rep(root)
            parts: list = [tuple(sorted(support_closure(rep)))]
            for _, q, pres in _quotient_data(self.graph):
                parts.append(_quotient_image(q, pres, rep))
            fp = tuple(parts)
            self._fp[root] = fp
        return fp

    def distinct_classes(self, r: int, s: int) -> bool:
        return self.fingerprint(r) != self.fingerprint(s)

    def eq3(self, x: MonoidElement, y: MonoidElement) -> str:
        """Three-valued word problem inside the model."""
        try:
            rx = self.class_of(x)
            ry = self.class_of(y)
        except ValueError:
            return "unknown"
        if rx == ry:
            return "equal"
        if self.fingerprint(rx) != self.fingerprint(ry):
            return "distinct"
        return "unknown"

    # -- arithmetic on blocks ------------------------------------------

    def add_classes(self, r: int, s: int) -> Optional[int]:
        """Block of the sum of two representatives, or None when the sum
        leaves the universe."""
        key = (r, s) if r <= s else (s, r)
        if key in self._add_memo:
            return self._add_memo[key]
        size_r, code_r = self._rep_key[r]
        size_s, code_s = self._rep_key[s]
        out = None
        if size_r + size_s <= self.cap:
            out = self._parent[self.index[code_r + code_s]]
        self._add_memo[key] = out
        return out

    def le_witness(self, r: int, s: int) -> Optional[int]:
        """A block ``t`` with ``r + t`` provably landing in ``s``."""
        key = (r, s)
        if key in self._le_memo:
            return self._le_memo[key]
        room = self.cap - self._rep_key[r][0]
        out = None
        for t in self.roots:
            if self._rep_key[t][0] > room:
                break
            if self.add_classes(r, t) == s:
                out = t
                break
        self._le_memo[key] = out
        return out

    def le_classes(self, r: int, s: int) -> bool:
        return self.le_witness(r, s) is not None

    def le_table(self) -> tuple[dict[int, int], dict[int, int]]:
        """Whole-model divisibility at once.

        Returns ``(position, reachable)``: ``position`` numbers the
        blocks, and bit ``position[s]`` of ``reachable[r]`` is set when
        some block added to ``r`` provably lands in ``s``.  Costs one
        pass over all pairs of blocks; cached after the first call.
        """
        if self._le_table is None:
            position = {r: k for k, r in enumerate(self.roots)}
            reachable: dict[int, int] = {}
            for r in self.roots:
                bits = 0
                room = self.cap - self._rep_key[r][0]
                for t in self.roots:
                    if self._rep_key[t][0] > room:
                        break
                    s = self.add_classes(r, t)
                    if s is not None:
                        bits |= 1 << position[s]
                reachable[r] = bits
            self._le_table = (position, reachable)
        return self._le_table

    def _bump_pairs(self, p: int) -> set[tuple[int, int]]:
        """The distinct block pairs ``(root(c), root(c + e_p))`` over every
        vector ``c`` below the cap, where ``e_p`` is vertex ``p``: the
        edges that adding that vertex draws between blocks.  Cached per
        vertex after the first call."""
        pairs = self._bumps.get(p)
        if pairs is None:
            parent = self._parent
            below = self._starts[self.cap]
            bumped = map(self.weights[p].__add__, islice(self.vectors, below))
            lows = parent[:below]
            highs = list(map(parent.__getitem__, map(self.index.__getitem__, bumped)))
            pairs = set(compress(zip(lows, highs), map(ne, lows, highs)))
            self._bumps[p] = pairs
        return pairs


def class_model(g: Graph, cap: int = DEFAULT_CLASS_CAP) -> ClassModel:
    return _build_model(g, cap)


@lru_cache(maxsize=32)
def _build_model(g: Graph, cap: int) -> ClassModel:
    return ClassModel(g, cap)


# ----------------------------------------------------------------------
# counting


def bounded_class_count(
    g: Graph, size_limit: int, cap: int = DEFAULT_CLASS_CAP
) -> tuple[int, int]:
    """Bounds on the number of classes with a member of the given size.

    Returns ``(low, high)``: at least ``low`` such classes are pairwise
    separated by invariants, and at most ``high`` blocks could merge
    further.  Equality means the count is exact.
    """
    if size_limit > cap:
        raise ValueError("size limit exceeds the enumeration cap")
    model = class_model(g, cap)
    roots = model.roots_up_to(size_limit)
    profiles = {model.fingerprint(r) for r in roots}
    return len(profiles), len(roots)


def quotient_bounded_class_count(
    g: Graph,
    h_members,
    size_limit: int,
    cap: int = DEFAULT_CLASS_CAP,
) -> tuple[int, int]:
    """Bounds on the class count of the monoid collapsed along a
    hereditary saturated set, computed inside the original graph.

    Vectors are additionally merged with themselves plus one vertex of
    the set (collapsing exactly the congruence the set generates), and
    only invariants that survive the collapse separate blocks.  Counted
    blocks are those reachable from a vector of size at most
    ``size_limit`` supported away from the set.
    """
    h = frozenset(h_members)
    for v in h:
        g.require_vertex(v)
    if not is_hereditary(g, h) or _saturate(g, h) != h:
        raise ValueError("subset is not hereditary and saturated")
    if size_limit > cap:
        raise ValueError("size limit exceeds the enumeration cap")
    model = class_model(g, cap)
    h_positions = [p for p, v in enumerate(g.vertex_order) if v in h]
    # the model's blocks, further merged along h: c ~ c + e_p for p in h
    up = {r: r for r in model.roots}

    def find(r: int) -> int:
        while up[r] != r:
            up[r] = up[up[r]]
            r = up[r]
        return r

    for p in h_positions:
        for a, b in model._bump_pairs(p):
            a, b = find(a), find(b)
            if a != b:
                up[b] = a

    codes = model.vectors
    parent = model._parent
    base = model.base
    h_weights = [model.weights[p] for p in h_positions]
    wanted = {
        find(parent[i])
        for i in range(model._starts[max(size_limit + 1, 0)])
        if all(codes[i] // w % base == 0 for w in h_weights)
    }
    # a merged block's smallest member is the smallest of its blocks'
    # representatives, and roots are in representative order
    reps: dict[int, int] = {}
    for r in model.roots:
        m = find(r)
        if m in wanted and m not in reps:
            reps[m] = r
            if len(reps) == len(wanted):
                break

    entries = [
        (q, pres)
        for ctx, q, pres in _quotient_data(g)
        if h <= set(ctx)
    ]
    profiles = set()
    for r in reps.values():
        elem = model.rep(r)
        parts: list = [tuple(sorted(hsat_closure(g, elem.support | h)))]
        for q, pres in entries:
            parts.append(_quotient_image(q, pres, elem))
        profiles.add(tuple(parts))
    return len(profiles), len(wanted)


# ----------------------------------------------------------------------
# order-ideal membership


def ideal_membership(
    x: MonoidElement,
    y: MonoidElement,
    k_bound: int = DEFAULT_K_BOUND,
    cap: int = DEFAULT_CLASS_CAP,
):
    """Three-valued test of ``x``'s class against the order-ideal
    generated by ``y``'s class.

    Returns ``("member", (k, z))`` with a proven witness ``x + z``
    equivalent to ``k`` copies of ``y``, ``("not-member", certificate)``
    with a checkable refutation, or ``("unknown", None)``.  The witness
    multiple is searched up to ``k_bound``; the enumeration cap escalates
    by 8 twice before giving up, but only to models of at most
    ``_UNIVERSE_LIMIT`` vectors.
    """
    if x.graph != y.graph:
        raise ValueError("elements belong to different graphs")
    g = x.graph
    if x.is_zero:
        return ("member", (0, zero(g)))
    if y.is_zero:
        return ("not-member", Certificate("zero", None, False, True))
    # membership is monotone in the multiple, so one obstruction at the
    # largest multiple refutes the whole bounded question
    blocked = leq_obstruction(x, y * k_bound)
    if blocked is not None:
        return ("not-member", blocked)
    n = len(g.vertices)
    for attempt in (cap, cap + 8, cap + 16):
        if attempt > cap and math.comb(n + attempt, n) > _UNIVERSE_LIMIT:
            break
        model = class_model(g, attempt)
        try:
            rx = model.class_of(x)
        except ValueError:
            continue
        for k in range(1, k_bound + 1):
            try:
                rt = model.class_of(y * k)
            except ValueError:
                break
            witness = model.le_witness(rx, rt)
            if witness is not None:
                return ("member", (k, model.rep(witness)))
    return ("unknown", None)
