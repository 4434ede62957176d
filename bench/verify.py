"""Re-verification of every benchmark answer, outside the timed region.

Each check returns ``(verdict, ok)``.  ``ok`` is False for a wrong or
unverifiable answer, which the benchmark counts as a failed query.  The
rules:

* ``Equal``: both traces replay (``validate_trace``), start at the
  inputs and end at the reduct;
* ``Distinct`` and ``LeqFalse``: ``check_certificate`` recomputes the
  certificate;
* ``LeqTrue``: the evidence replays as an ``Equal`` for
  ``x + witness`` against ``y``;
* CLI answers: the exit code matches the JSON verdict, ``eq`` traces
  replay and certificates recompute, and ``lattice``, ``series`` and
  ``k0`` output agree with independent computations from
  :mod:`inputs`;
* oracles: a pair known to be equal (a walk pair, or a same-K0 pair on
  a strongly connected graph that is not a cycle) must not come back
  ``distinct``, and a pair that differs in the group completion must.
"""

from __future__ import annotations

import json
from fractions import Fraction

import graphmonoid as gm

import inputs

_EXIT = {"equal": 0, "distinct": 1, "unknown": 2}


def equal_replays(ans, x, y) -> bool:
    return (
        ans.lhs_trace.start == x
        and ans.rhs_trace.start == y
        and ans.lhs_trace.end == ans.reduct
        and ans.rhs_trace.end == ans.reduct
        and gm.validate_trace(ans.lhs_trace)
        and gm.validate_trace(ans.rhs_trace)
    )


def eq_verdict(ans, x, y, allowed=("equal", "distinct", "unknown")):
    """Check a ``decide_eq`` answer; ``allowed`` names the verdicts that
    are not wrong for this pair."""
    if isinstance(ans, gm.Equal):
        verdict, ok = "equal", equal_replays(ans, x, y)
    elif isinstance(ans, gm.Distinct):
        verdict, ok = "distinct", gm.check_certificate(ans.certificate, x, y)
    else:
        verdict, ok = "unknown", isinstance(ans, gm.Unknown)
    return verdict, ok and verdict in allowed


def _tuples(value):
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def _trace(g, obj):
    steps = tuple(
        (s["vertex"], gm.parse_element(g, s["result"])) for s in obj["steps"]
    )
    return gm.RewriteTrace(gm.parse_element(g, obj["start"]), steps)


def cli_answer(ans, item):
    code, out, _ = ans
    if code == 4:
        return "cap", False
    spec = item["graph"]
    g = gm.Graph(tuple(spec["vertices"]), tuple(map(tuple, spec["edges"])))
    payload = json.loads(out)
    command = item["command"]
    if command == "eq":
        verdict = payload["verdict"]
        if code != _EXIT.get(verdict):
            return verdict, False
        x = gm.parse_element(g, item["lhs"])
        y = gm.parse_element(g, item["rhs"])
        if verdict == "equal":
            reduct = gm.parse_element(g, payload["reduct"])
            lhs, rhs = _trace(g, payload["lhs_trace"]), _trace(g, payload["rhs_trace"])
            ok = (
                lhs.start == x
                and rhs.start == y
                and lhs.end == reduct
                and rhs.end == reduct
                and gm.validate_trace(lhs)
                and gm.validate_trace(rhs)
            )
            return verdict, ok
        if verdict == "distinct":
            c = payload["certificate"]
            cert = gm.Certificate(
                c["invariant"],
                None if c["context"] is None else tuple(c["context"]),
                _tuples(c["lhs"]),
                _tuples(c["rhs"]),
            )
            return verdict, gm.check_certificate(cert, x, y)
        return verdict, True
    if code != 0:
        return command, False
    if command == "lattice":
        return command, _lattice_ok(spec, payload)
    if command == "series":
        return command, _series_ok(spec, payload)
    if command == "k0":
        return command, _k0_ok(spec, payload)
    return command, False


def _lattice_ok(spec, payload) -> bool:
    truth = set(inputs.hsat_sets(spec))
    sets = [frozenset(s) for s in payload["sets"]]
    if set(sets) != truth or len(sets) != len(truth):
        return False
    for i, j in payload["hasse"]:
        lo, hi = sets[i], sets[j]
        if not lo < hi or any(lo < s < hi for s in truth):
            return False
    return True


def _series_ok(spec, payload) -> bool:
    truth = set(inputs.hsat_sets(spec))
    chain = [frozenset(s) for s in payload["sets"]]
    if not chain or chain[0] or chain[-1] != frozenset(spec["vertices"]):
        return False
    if len(payload["steps"]) != len(chain) - 1:
        return False
    for lo, hi in zip(chain, chain[1:]):
        if lo not in truth or hi not in truth or not lo < hi:
            return False
        if any(lo < s < hi for s in truth):
            return False
    return True


def _k0_ok(spec, payload) -> bool:
    # the vertex images must respect every relation v = r(v), and the
    # free rank must be the corank of the relation matrix
    free, torsion = payload["free_rank"], payload["torsion"]
    images = payload["images"]
    moduli = [0] * free + list(torsion)
    for v, targets in inputs.out_targets(spec).items():
        if not targets:
            continue
        total = [sum(images[t][k] for t in targets) for k in range(len(moduli))]
        for k, m in enumerate(moduli):
            a, b = images[v][k], total[k]
            if (a - b) % m if m else a != b:
                return False
    rows = [list(d) for d in inputs.moves(spec).values()]
    return free == len(spec["vertices"]) - _rank(rows)


def _rank(rows) -> int:
    m = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ----------------------------------------------------------------------
# the class model and property sweeps


def leq_verdict(ans, x, y):
    if isinstance(ans, gm.LeqTrue):
        ev = ans.evidence
        return "true", isinstance(ev, gm.Equal) and equal_replays(ev, x + ans.witness, y)
    if isinstance(ans, gm.LeqFalse):
        return "false", gm.check_certificate(ans.certificate, x, y)
    return "unknown", isinstance(ans, gm.LeqUnknown)


def _leq_is(x, y, expected: str) -> bool:
    verdict, ok = leq_verdict(gm.leq(x, y), x, y)
    return ok and verdict == expected


# ``ideal_membership`` searches witness multiples up to this bound and
# refutes with an obstruction at the largest one
_K_BOUND = 3


def class_answer(ans, q, g):
    op = q["op"]
    if op in ("bounded_class_count", "quotient_bounded_class_count"):
        low, high = ans
        if g.vertices == ("a", "b", "c", "d") and op == "bounded_class_count":
            # the worked example: exactly 23 classes of size at most 4
            return "exact", (low, high) == (23, 23)
        return ("exact" if low == high else "unknown"), 1 <= low <= high
    if op == "phi_psi_roundtrip":
        return "holds", ans is True
    if op in ("check_separativity", "check_unperforation", "check_refinement", "is_prime"):
        if ans.verdict == "holds-within-bounds":
            return "holds", True
        if ans.verdict == "unknown":
            return "unknown", True
        return "counterexample", _counterexample_ok(op, ans, q, g)
    if op == "leq":
        x, y = gm.MonoidElement(g, tuple(q["x"])), gm.MonoidElement(g, tuple(q["y"]))
        return leq_verdict(ans, x, y)
    if op == "ideal_membership":
        x, y = gm.MonoidElement(g, tuple(q["x"])), gm.MonoidElement(g, tuple(q["y"]))
        label, detail = ans
        if label == "member":
            k, z = detail
            out = gm.decide_eq(x + z, y * k, 40)
            return label, isinstance(out, gm.Equal) and equal_replays(out, x + z, y * k)
        if label == "not-member":
            target = y if detail.invariant == "zero" else y * _K_BOUND
            return label, gm.check_certificate(detail, x, target)
        return "unknown", label == "unknown"
    return op, False


def _counterexample_ok(op, report, q, g) -> bool:
    # graph monoids are separative refinement monoids, so those sweeps
    # must never report a counterexample; for the others the refuted
    # side must re-verify and the premise must not be refuted
    ce = report.counterexample
    if op == "check_unperforation":
        a, b, n = ce
        return _leq_is(a, b, "false") and not _leq_is(a * n, b * n, "false")
    if op == "is_prime":
        a1, a2 = ce
        p = gm.MonoidElement(g, tuple(q["p"]))
        return (
            _leq_is(p, a1, "false")
            and _leq_is(p, a2, "false")
            and not _leq_is(p, a1 + a2, "false")
        )
    return False
