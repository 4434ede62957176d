"""Seeded inputs for the three benchmark workloads.

Everything here is plain standard-library Python and never imports
``graphmonoid``: inputs are built, and their expected properties
established, independently of the code under test, so generating them
warms none of the package's caches.

A workload run is a sequence of batches; batch ``b`` of workload ``w``
under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{b}")``, so the
same seed always yields the same queries.  Run this file to print the
digest of the first batches:

    python3 bench/inputs.py --workload wordproblem --seed 1 --batches 3

Graphs are ``{"name", "shape", "vertices", "edges"}`` dicts; elements
are count tuples over the sorted vertex names, which is the package's
canonical order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random

# ----------------------------------------------------------------------
# graph helpers (independent of the package)


def names(n: int) -> list[str]:
    return [f"v{i:02d}" for i in range(n)]


def make_graph(name: str, shape: str, vertices, edges) -> dict:
    return {
        "name": name,
        "shape": shape,
        "vertices": list(vertices),
        "edges": [list(e) for e in edges],
    }


def order(g: dict) -> list[str]:
    return sorted(g["vertices"])


def out_targets(g: dict) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {v: [] for v in g["vertices"]}
    for s, t in g["edges"]:
        table[s].append(t)
    return table


def moves(g: dict) -> dict[int, tuple[int, ...]]:
    """For each non-sink position, the count change one rewrite makes."""
    vs = order(g)
    index = {v: i for i, v in enumerate(vs)}
    out = {}
    for v, targets in out_targets(g).items():
        if targets:
            d = [0] * len(vs)
            d[index[v]] -= 1
            for t in targets:
                d[index[t]] += 1
            out[index[v]] = tuple(d)
    return out


def hsat_closure(g: dict, members) -> frozenset:
    """Least hereditary saturated vertex set containing ``members``."""
    out = out_targets(g)
    seen = set(members)
    stack = list(seen)
    while stack:
        for t in out[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    changed = True
    while changed:
        changed = False
        for v, targets in out.items():
            if v not in seen and targets and all(t in seen for t in targets):
                seen.add(v)
                changed = True
    return frozenset(seen)


def hsat_sets(g: dict) -> list[frozenset]:
    """Every hereditary saturated set.  Each one is the closure of its
    members, so growing closures one vertex at a time from the empty set
    reaches them all."""
    vs = order(g)
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        grown = []
        for h in frontier:
            for v in vs:
                if v not in h:
                    c = hsat_closure(g, h | {v})
                    if c not in found:
                        found.add(c)
                        grown.append(c)
        frontier = grown
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def support(g: dict, counts) -> frozenset:
    return frozenset(v for v, c in zip(order(g), counts) if c)


def element_text(g: dict, counts) -> str:
    parts = []
    for v, c in zip(order(g), counts):
        if c == 1:
            parts.append(v)
        elif c > 1:
            parts.append(f"{c}*{v}")
    return " + ".join(parts) if parts else "0"


def graph_text(g: dict) -> str:
    lines = [f"vertex {v}" for v in g["vertices"]]
    lines += [f"edge {s} {t}" for s, t in g["edges"]]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# graph shapes


def strongly_connected(
    rng: random.Random, n: int, name: str, min_k0_order: int = 1
) -> dict:
    """A Hamiltonian cycle in random order plus a few random extra edges,
    so the graph is strongly connected and never a single cycle.  Graphs
    whose group completion is finite with fewer than ``min_k0_order``
    elements are redrawn."""
    vs = names(n)
    while True:
        perm = vs[:]
        rng.shuffle(perm)
        edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        for _ in range(rng.randint(max(1, n // 3), max(2, n // 2))):
            edges.append((rng.choice(vs), rng.choice(vs)))
        g = make_graph(name, f"sc{n}", vs, edges)
        # without sinks the group completion is the cokernel of the square
        # relation matrix, of order |det| when that is nonzero
        k0_order = abs(determinant([list(d) for d in moves(g).values()]))
        if k0_order == 0 or k0_order >= min_k0_order:
            return g


def determinant(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) integer determinant."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def layered(rng: random.Random, sizes: list[int], name: str, shape: str) -> dict:
    """Strongly connected blocks of the given sizes, each feeding the next
    by one or two edges; the last block is followed by a sink."""
    total = sum(sizes) + 1
    vs = names(total)
    edges = []
    start = 0
    blocks = []
    for size in sizes:
        block = vs[start : start + size]
        start += size
        for i, v in enumerate(block):
            edges.append((v, block[(i + 1) % size]))
        edges.append((rng.choice(block), rng.choice(block)))
        blocks.append(block)
    sink = vs[-1]
    for upper, lower in zip(blocks, blocks[1:] + [[sink]]):
        for _ in range(rng.randint(1, 2)):
            edges.append((rng.choice(upper), rng.choice(lower)))
    return make_graph(name, shape, vs, edges)


def wide(rng: random.Random, leaves: int, name: str) -> dict:
    """A top vertex over an antichain of looped leaves: every set of
    leaves is hereditary and saturated, so the lattice has
    ``2**leaves + 1`` members."""
    vs = names(leaves + 1)
    top, rest = vs[0], vs[1:]
    edges = [(top, v) for v in rest]
    edges.append((top, top))
    for v in rest:
        edges += [(v, v)] * rng.randint(1, 2)
    return make_graph(name, f"wide{leaves}", vs, edges)


ABCD = make_graph(
    "abcd",
    "abcd",
    ["a", "b", "c", "d"],
    [
        ("a", "a"),
        ("a", "a"),
        ("b", "a"),
        ("b", "c"),
        ("c", "c"),
        ("c", "c"),
        ("c", "d"),
    ],
)


# ----------------------------------------------------------------------
# elements and pairs


def random_element(rng: random.Random, n: int, size: int) -> tuple[int, ...]:
    counts = [0] * n
    for _ in range(size):
        counts[rng.randrange(n)] += 1
    return tuple(counts)


def walk(rng: random.Random, g: dict, counts, steps: int) -> tuple[int, ...]:
    """Apply ``steps`` random forward rewrites (fewer if only sinks remain)."""
    table = moves(g)
    cur = list(counts)
    for _ in range(steps):
        live = [p for p in table if cur[p]]
        if not live:
            break
        d = table[rng.choice(live)]
        cur = [a + b for a, b in zip(cur, d)]
    return tuple(cur)


def walk_pair(rng: random.Random, g: dict) -> tuple[tuple, tuple]:
    """Two seeded rewrite walks from a common start: equal by construction."""
    n = len(g["vertices"])
    while True:
        z = random_element(rng, n, rng.randint(1, 3))
        x = walk(rng, g, z, rng.randint(0, 5))
        y = walk(rng, g, z, rng.randint(1, 5))
        if x != y:
            return x, y


def random_pair(rng: random.Random, g: dict, basis) -> tuple[tuple, tuple]:
    """A random pair whose images in the group completion differ, so an
    invariant certificate separates it without a search."""
    n = len(g["vertices"])
    while True:
        x = random_element(rng, n, rng.randint(1, 4))
        y = random_element(rng, n, rng.randint(1, 4))
        if not same_group_image(basis, x, y):
            return x, y


def relation_basis(g: dict) -> list[tuple[int, list[int]]]:
    """An integer echelon basis of the relation rows ``r(v) - v``, as
    (pivot column, row) pairs; each row is zero in earlier pivot columns."""
    rows = [list(d) for d in moves(g).values()]
    basis = []
    for col in range(len(order(g))):
        while True:
            live = sorted((r for r in rows if r[col]), key=lambda r: abs(r[col]))
            if len(live) <= 1:
                break
            for r in live[1:]:
                q = r[col] // live[0][col]
                r[:] = [a - q * b for a, b in zip(r, live[0])]
        live = [r for r in rows if r[col]]
        if live:
            rows.remove(live[0])
            basis.append((col, live[0]))
    return basis


def same_group_image(basis, x, y) -> bool:
    """Whether ``x - y`` lies in the relation lattice, i.e. the two
    elements have the same image in the group completion."""
    v = [a - b for a, b in zip(x, y)]
    for col, row in basis:
        if v[col] % row[col]:
            return False
        q = v[col] // row[col]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def same_k0_pair(rng: random.Random, g: dict, basis, tries: int = 5000):
    """A random pair with the same group image and support closure, by
    rejection; None when none turns up in ``tries`` draws.  The search
    is what must link such pairs, so they force deep searches."""
    n = len(g["vertices"])
    for _ in range(tries):
        x = random_element(rng, n, rng.randint(1, 4))
        y = random_element(rng, n, rng.randint(1, 4))
        if (
            x != y
            and same_group_image(basis, x, y)
            and hsat_closure(g, support(g, x)) == hsat_closure(g, support(g, y))
        ):
            return x, y
    return None


# ----------------------------------------------------------------------
# workloads


def wordproblem_batch(rng: random.Random, batch: int) -> list[dict]:
    """Why: an interactive session of word-problem queries.  Many
    ``decide_eq`` calls share each graph, so warm per-query certificate
    checks and the two-sided search in ``rewriting`` carry the cost,
    while lattice and K0 work is paid once per graph.  ``walk`` pairs are
    equal by construction and need a shallow search, ``random`` pairs
    differ in the group completion so a certificate separates them, and
    ``samek0`` pairs agree on every invariant and force deep searches.
    Equal pairs come only from ``walk`` and ``samek0``, in fixed numbers
    per graph, so the share of search work does not depend on which
    graphs a seed draws."""
    # group completions of at least four elements leave room for random
    # pairs that differ in it
    graphs = []
    for r in range(2):
        graphs += [
            strongly_connected(rng, n, f"b{batch}-{r}-sc{n}", min_k0_order=4)
            for n in (6, 8, 10, 12)
        ]
        graphs += [
            layered(rng, [rng.randint(2, 3), rng.randint(2, 3)], f"b{batch}-{r}-m{k}", "multi")
            for k in range(2)
        ]
    sessions = []
    for g in graphs:
        basis = relation_basis(g)
        # same-K0 pairs stay off the 12-vertex graphs: there an unresolved
        # search costs up to a second, and a few of them would swamp
        # every other query in a run
        deep = 16 if len(g["vertices"]) <= 10 else 0
        queries = []
        for kind, count in (("walk", 30), ("random", 30), ("samek0", deep)):
            for _ in range(count):
                if kind == "walk":
                    pair = walk_pair(rng, g)
                elif kind == "random":
                    pair = random_pair(rng, g, basis)
                else:
                    pair = same_k0_pair(rng, g, basis)
                    if pair is None:
                        continue
                queries.append({"kind": kind, "x": pair[0], "y": pair[1]})
        rng.shuffle(queries)
        sessions.append({"graph": g, "queries": queries})
    return sessions


def structure_batch(rng: random.Random, batch: int) -> list[dict]:
    """Why: cold one-shot structural questions through the CLI, each on
    a fresh graph.  ``lattice`` and ``ktheory`` carry the cost (the
    powerset scan on long chains, the Hasse loop on wide antichains, and
    Smith forms of every quotient for ``eq``), plus parsing and
    rendering in ``cli``; the word-problem search does almost nothing.

    Every batch holds the same shapes and commands, so runs differ only
    in the details of each graph: 12- and 14-vertex chains (4096 and
    16384 subsets scanned) and 5-leaf antichains (33 sets, Hasse loop).
    ``k0`` is the cheap question and is asked six times per shape, so
    the median is a ``k0`` answer (parse, Smith form, render); the
    14-vertex chains are a tenth of the queries, so the 95th percentile
    falls inside them; antichains get four ``lattice`` questions, so the
    Hasse loop weighs about as much as the scan."""
    items = []
    for r in range(2):
        for shape, size in (("long", 5), ("long", 6), ("wide", 5)):
            lattices = ("lattice",) * (4 if shape == "wide" else 1)
            for command in lattices + ("series", "eq") + ("k0",) * 6:
                name = f"b{batch}-{r}-q{len(items)}"
                if shape == "long":
                    g = layered(rng, [2] * size + [1], name, f"long{2 * size + 2}")
                else:
                    g = wide(rng, size, name)
                item = {"graph": g, "command": command}
                if command == "eq":
                    asked = sum(1 for i in items if i["command"] == "eq")
                    item["lhs"], item["rhs"] = closure_matched_pair(
                        rng, g, equal=asked % 2 == 0
                    )
                items.append(item)
    return items


def closure_matched_pair(rng: random.Random, g: dict, equal: bool):
    """A pair with equal support closure, which is what sends ``eq`` down
    the cold path that builds the lattice and K0 of every quotient.
    Equal pairs are a short walk apart, so the search after it is shallow;
    the others differ in the group completion, so a certificate settles
    them without a search."""
    n = len(g["vertices"])
    basis = relation_basis(g)
    for _ in range(1000):
        x = random_element(rng, n, rng.randint(1, 3))
        if equal:
            y = walk(rng, g, x, rng.randint(1, 3))
            if x != y:
                return element_text(g, x), element_text(g, y)
            continue
        y = random_element(rng, n, rng.randint(1, 3))
        if not same_group_image(basis, x, y) and hsat_closure(
            g, support(g, x)
        ) == hsat_closure(g, support(g, y)):
            return element_text(g, x), element_text(g, y)
    raise ValueError(f"no closure-matched pair on {g['name']}")


SWEEPS = ("check_separativity", "check_unperforation", "check_refinement")


def classes_batch(rng: random.Random, batch: int) -> list[dict]:
    """Why: the bounded class model and the property sweeps, absent from
    the other workloads.  ``enumeration`` builds one model of every count
    vector up to size 24 per graph and ``properties`` sweeps it; the
    word problem is used differently, for many shallow confirmations and
    ``leq`` candidate scans.  This is also the memory workload: every
    batch builds 5-vertex models of C(29, 5) vectors.

    Every batch holds a strongly connected and a layered graph on 5 and
    on 4 vertices; the first also holds ``abcd`` and a 6-vertex graph.
    On 6 vertices only the sweeps, ``is_prime`` and the round trip are
    asked: the sweeps refuse the model as too large and answer
    ``unknown``, while a class count there builds C(30, 6) vectors in
    7-9 s, a third of a run in one query.  ``leq`` pairs stay on 4
    vertices: an unresolved ``leq`` tries every candidate of size 4
    with a full search each, about two seconds on 5 vertices."""
    graphs = []
    if batch == 0:
        graphs.append(ABCD)
        graphs.append(strongly_connected(rng, 6, f"b{batch}-sc6"))
    graphs.append(strongly_connected(rng, 5, f"b{batch}-sc5"))
    graphs.append(layered(rng, [2, 2], f"b{batch}-m5", "multi5"))
    graphs.append(strongly_connected(rng, 4, f"b{batch}-sc4"))
    graphs.append(layered(rng, [2, 1], f"b{batch}-m4", "multi4"))
    sessions = []
    for g in graphs:
        n = len(g["vertices"])
        queries = []
        if n <= 5:
            queries.append({"op": "bounded_class_count", "size": 4})
            for h in hsat_sets(g):
                if 0 < len(h) < n:
                    queries.append({"op": "quotient_bounded_class_count", "h": sorted(h)})
        queries += [{"op": op} for op in SWEEPS]
        queries.append({"op": "phi_psi_roundtrip"})
        for _ in range(2):
            queries.append({"op": "is_prime", "p": random_element(rng, n, rng.randint(1, 2))})
        if n <= 5:
            for _ in range(6):
                x = random_element(rng, n, rng.randint(1, 3))
                y = random_element(rng, n, rng.randint(1, 2))
                queries.append({"op": "ideal_membership", "x": x, "y": y})
        if n <= 4:
            for _ in range(12):
                x = random_element(rng, n, rng.randint(1, 3))
                y = random_element(rng, n, rng.randint(1, 3))
                queries.append({"op": "leq", "x": x, "y": y})
        sessions.append({"graph": g, "queries": queries})
    return sessions


WORKLOADS = {
    "wordproblem": wordproblem_batch,
    "structure": structure_batch,
    "classes": classes_batch,
}


def batch(workload: str, seed: int, index: int) -> list:
    """Batch ``index`` of a workload under ``seed``; deterministic."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return WORKLOADS[workload](rng, index)


def digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batches", type=int, default=3)
    args = ap.parse_args()
    for b in range(args.batches):
        print(f"{args.workload} seed {args.seed} batch {b}: {digest(batch(args.workload, args.seed, b))}")


if __name__ == "__main__":
    main()
