"""Integer linear algebra attached to a graph.

The graph's relations (each non-sink equals the sum of its edge targets)
form an integer matrix.  The cokernel of that matrix is the universal
group completion of the graph's monoid; it is computed exactly over the
integers via Smith normal form.  This module also provides path counting
and the resulting tower of matrix blocks for acyclic graphs.

Everything here works with plain Python integers so values of any size
stay exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .graphs import Graph, sinks
from .records import record

Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _freeze(m: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in m)


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for ra in a
    )


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free elimination)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _pivot(a: list[list[int]], k: int) -> tuple[int, int] | None:
    # smallest absolute nonzero entry in the trailing block, row-major
    best: tuple[int, int] | None = None
    best_val = 0
    for i in range(k, len(a)):
        for j in range(k, len(a[0])):
            v = abs(a[i][j])
            if v and (best is None or v < best_val):
                best, best_val = (i, j), v
    return best


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix by unimodular row and column moves.

    Returns ``(u, d, v)`` with ``u @ m @ v == d``, where ``u`` and ``v``
    are square with determinant +1 or -1 and ``d`` is diagonal with
    nonnegative entries, each dividing the next.  The pivot choice is
    deterministic (smallest absolute value, row-major), so repeated runs
    give identical transforms.
    """
    rows = len(m)
    if rows == 0:
        raise ValueError("matrix needs at least one row")
    cols = len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("matrix rows have unequal lengths")
    a = [[int(x) for x in row] for row in m]
    u = _identity(rows)
    v = _identity(cols)

    def eliminate(k: int) -> None:
        # drive row k and column k to a single nonnegative pivot at (k, k)
        while True:
            pos = _pivot(a, k)
            if pos is None:
                return
            i, j = pos
            if i != k:
                a[k], a[i] = a[i], a[k]
                u[k], u[i] = u[i], u[k]
            if j != k:
                for row in a:
                    row[k], row[j] = row[j], row[k]
                for row in v:
                    row[k], row[j] = row[j], row[k]
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
            p = a[k][k]
            for i in range(k + 1, rows):
                q = a[i][k] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
            for j in range(k + 1, cols):
                q = a[k][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[k]
                    for row in v:
                        row[j] -= q * row[k]
            if all(a[i][k] == 0 for i in range(k + 1, rows)) and all(
                a[k][j] == 0 for j in range(k + 1, cols)
            ):
                return

    limit = min(rows, cols)
    for k in range(limit):
        eliminate(k)

    # enforce the divisibility chain along the diagonal; the pivot hunt
    # may disturb any later row, so re-eliminate the whole trailing block
    fixed = False
    while not fixed:
        fixed = True
        for k in range(limit - 1):
            d0, d1 = a[k][k], a[k + 1][k + 1]
            if d0 and d1 % d0 != 0:
                for row in a:
                    row[k] += row[k + 1]
                for row in v:
                    row[k] += row[k + 1]
                for kk in range(k, limit):
                    eliminate(kk)
                fixed = False
                break

    for k in range(limit):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]

    return _freeze(u), _freeze(a), _freeze(v)


def verify_smith(m: Sequence[Sequence[int]], u: Matrix, d: Matrix, v: Matrix) -> bool:
    """Independent check of a Smith decomposition.

    Confirms the matrix identity, unimodularity of both transforms,
    diagonality, nonnegativity and the divisibility chain.
    """
    if _mat_mul(_mat_mul(u, m), v) != _freeze(d):
        return False
    if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
        return False
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i == j:
                diag.append(x)
            elif x:
                return False
    if any(x < 0 for x in diag):
        return False
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            return False
        if x and y % x != 0:
            return False
    return True


# ----------------------------------------------------------------------
# the graph's relation matrix and its cokernel


@record
class RelationMatrix:
    """One row per non-sink: the vertex minus the sum of its edge targets."""

    graph: Graph
    row_vertices: tuple[str, ...]
    matrix: Matrix


def relation_matrix(g: Graph) -> RelationMatrix:
    """The rows are the negated moves of ``g.moves``, in its order."""
    rows = []
    for _, delta in g.moves.values():
        row = [0] * len(g.vertices)
        for i, d in delta:
            row[i] = -d
        rows.append(row)
    return RelationMatrix(g, tuple(g.moves), _freeze(rows))


@record
class GroupPresentation:
    """The cokernel of a relation matrix, in coordinates.

    ``diag`` lists one value per ambient generator: the Smith diagonal
    entry governing that coordinate, with 0 for coordinates past the
    relation rows.  A value of 1 kills the coordinate, a value ``d >= 2``
    makes it a residue modulo ``d``, and 0 leaves it free.  ``transform``
    is the column transform carrying generator exponent vectors into
    these coordinates.
    """

    ambient_rank: int
    diag: tuple[int, ...]
    transform: Matrix

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.diag if d == 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d >= 2)

    def image_of_vec(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a generator-exponent vector in the cokernel.

        Free coordinates come first, then torsion residues, both in
        diagonal position order.
        """
        n = self.ambient_rank
        if len(vec) != n:
            raise ValueError("vector length does not match the presentation")
        y = [
            sum(int(vec[i]) * self.transform[i][j] for i in range(n))
            for j in range(n)
        ]
        free = [y[j] for j in range(n) if self.diag[j] == 0]
        torsion = [y[j] % self.diag[j] for j in range(n) if self.diag[j] >= 2]
        return tuple(free + torsion)


# bounded like the caches in ``certificates``
@lru_cache(maxsize=1024)
def grothendieck_group(g: Graph) -> GroupPresentation:
    """Universal group completion of the graph's monoid, as a cokernel."""
    rel = relation_matrix(g)
    n = len(g.vertices)
    r = len(rel.row_vertices)
    if r == 0:
        return GroupPresentation(n, (0,) * n, _freeze(_identity(n)))
    _, d, v = smith_normal_form(rel.matrix)
    diag = tuple(d[j][j] if j < r else 0 for j in range(n))
    return GroupPresentation(n, diag, v)


def group_image(x) -> tuple[int, ...]:
    """Image of a monoid element in the group completion's coordinates."""
    return grothendieck_group(x.graph).image_of_vec(x.counts)


def positive_cone_probe(g: Graph, target: Sequence[int], max_size: int):
    """Search for a monoid element mapping to the given group coordinates.

    Scans elements by size up to ``max_size``; returns the first match in
    canonical enumeration order, or None.  A match proves the coordinates
    lie in the monoid's image; no match within the bound proves nothing.
    """
    from .elements import elements_up_to

    want = tuple(int(t) for t in target)
    pres = grothendieck_group(g)
    for x in elements_up_to(g, max_size):
        if pres.image_of_vec(x.counts) == want:
            return x
    return None


# ----------------------------------------------------------------------
# path counting and the block tower


def path_counts(g: Graph, length: int) -> dict[str, int]:
    """Number of paths of the given length ending at each vertex.

    Length 0 counts the empty path at each vertex, so every value is 1.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    counts = {v: 1 for v in g.vertices}
    for _ in range(length):
        nxt = {v: 0 for v in g.vertices}
        for w in g.vertices:
            c = counts[w]
            if c:
                for t in g.ranges_from(w):
                    nxt[t] += c
        counts = nxt
    return counts


@record
class Block:
    """One matrix block: a vertex, a path count and the stage it froze at."""

    vertex: str
    size: int
    stage: int

    @property
    def degenerate(self) -> bool:
        return self.size == 0


@record
class FiltrationLevel:
    level: int
    blocks: tuple[Block, ...]
    transitions: tuple[tuple[str, str, int], ...]


def matricial_filtration(g: Graph, level: int) -> FiltrationLevel:
    """The block structure at one level of the path-count tower.

    Blocks are sinks frozen at earlier stages plus every vertex at the
    current stage, each sized by its path count at that stage.  The
    transitions list the edge multiplicities that carry the current
    stage's blocks into the next level.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    blocks: list[Block] = []
    frozen = sinks(g)
    for stage in range(level):
        counts = path_counts(g, stage)
        blocks += [Block(s, counts[s], stage) for s in sorted(frozen)]
    counts = path_counts(g, level)
    blocks += [Block(v, counts[v], level) for v in g.vertex_order]
    transitions = tuple(
        (v, w, g.adjacency(v, w))
        for v in g.vertex_order
        if not g.is_sink(v)
        for w in g.vertex_order
        if g.adjacency(v, w)
    )
    return FiltrationLevel(level, tuple(blocks), transitions)
