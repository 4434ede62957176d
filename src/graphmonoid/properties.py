"""Three-valued order and property checkers with explicit bounds.

The algebraic order puts ``x`` below ``y`` when something can be added
to ``x`` to reach ``y``'s class, which holds exactly when a reduct of
``x`` lies pointwise below one of ``y``.  ``leq`` answers with a witness
and its equality proof, a refuting certificate, or an honest unknown,
and bounds only the search depth, never the witness.  The bulk checkers
sweep the bounded class model for violations of separativity,
unperforation, primality and refinement; a counterexample is only ever
reported after it has been re-verified against the word problem, and a
sweep that cannot resolve every instance says "unknown" rather than
claiming the property.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .errors import CapExceeded
from .graphs import Graph, is_acyclic
from .elements import MonoidElement
from .certificates import (
    Certificate,
    check_certificate,
    distinctness_certificate,
    leq_obstruction,
)
from .rewriting import (
    DEFAULT_DEPTH,
    DEFAULT_REDUCT_CAP,
    Distinct,
    DistinctSums,
    Equal,
    RewriteTrace,
    Unknown,
    _check_bounds,
    _difference,
    _dominance_match,
    _search,
    decide_eq,
    refine,
)
from .enumeration import DEFAULT_CLASS_CAP, ClassModel, class_model
from .records import record

DEFAULT_SIZE_BOUND = 4
DEFAULT_N_BOUND = 3
_SWEEP_ROOT_LIMIT = 1200
_CONFIRM_DEPTH = 40


# ----------------------------------------------------------------------
# the algebraic order


@record
class LeqTrue:
    """``x + witness`` is equivalent to ``y``; the evidence proves it."""

    verdict = "true"
    witness: MonoidElement
    evidence: Equal


@record
class LeqFalse:
    """No addition can work; the certificate refutes every candidate."""

    verdict = "false"
    certificate: Certificate


@record
class LeqUnknown:
    verdict = "unknown"
    depth: int


LeqVerdict = Union[LeqTrue, LeqFalse, LeqUnknown]


def leq(
    x: MonoidElement,
    y: MonoidElement,
    depth: int = DEFAULT_DEPTH,
    reduct_cap: int = DEFAULT_REDUCT_CAP,
) -> LeqVerdict:
    """Decide ``x`` below ``y`` in the algebraic order, three-valued.

    Obstruction certificates are consulted first.  Then ``x`` is below
    ``y`` exactly when a reduct ``x'`` of ``x`` lies pointwise below one,
    ``g``, of ``y``; the witness is ``g - x'``, and ``decide_eq``'s search
    finds the pair with a dominance match (the normal forms on acyclic
    graphs).  A negative ``depth`` or a ``reduct_cap`` below one raises
    ValueError.
    """
    _check_bounds(depth, reduct_cap)
    obstruction = leq_obstruction(x, y)
    if obstruction is not None:
        return LeqFalse(obstruction)
    found = _search(x, y, depth, reduct_cap, _dominance_match)
    if isinstance(found, Unknown):
        return LeqUnknown(found.depth)
    lhs, rhs = found
    z = _difference(rhs.end, lhs.end)
    shifted = RewriteTrace(x + z, tuple((v, s + z) for v, s in lhs.steps))
    return LeqTrue(z, Equal(rhs.end, shifted, rhs))


# ----------------------------------------------------------------------
# property reports


@record
class PropertyReport:
    """Outcome of a bounded sweep for one property.

    ``verdict`` is ``"holds-within-bounds"``, ``"counterexample"`` or
    ``"unknown"``.  A counterexample carries the offending elements and
    has survived independent re-verification.
    """

    property: str
    verdict: str
    bounds: dict
    counterexample: Optional[tuple] = None
    details: str = ""


class _Sweep:
    """Shared machinery: model access, proof status of relations, and
    independent confirmation of candidate counterexamples."""

    def __init__(self, g: Graph, cap: int):
        self.graph = g
        self.model: ClassModel = class_model(g, cap)
        self.position, self.reachable = self.model.le_table()
        self._obstructions: dict[tuple, bool] = {}

    def le_status(self, r: int, s: int) -> str:
        if self.reachable[r] >> self.position[s] & 1:
            return "proven"
        key = (r, s)
        refuted = self._obstructions.get(key)
        if refuted is None:
            refuted = (
                leq_obstruction(self.model.rep(r), self.model.rep(s))
                is not None
            )
            self._obstructions[key] = refuted
        return "refuted" if refuted else "unknown"

    def multiples(self, reps: list[int], n: int) -> dict[int, Optional[int]]:
        """Class of ``n`` copies of each representative, or None when its
        normal form lies beyond the cap."""
        return {r: self.model.reduced_class(self.model.rep(r) * n) for r in reps}

    def confirm_equal(self, x: MonoidElement, y: MonoidElement) -> bool:
        return isinstance(decide_eq(x, y, _CONFIRM_DEPTH), Equal)

    def confirm_distinct(self, x: MonoidElement, y: MonoidElement) -> bool:
        return distinctness_certificate(x, y) is not None

    def confirm_le(self, r: int, s: int) -> bool:
        witness = self.model.le_witness(r, s)
        if witness is None:
            return False
        return self.confirm_equal(
            self.model.rep(r) + self.model.rep(witness), self.model.rep(s)
        )

    def confirm_not_le(self, x: MonoidElement, y: MonoidElement) -> bool:
        cert = leq_obstruction(x, y)
        return cert is not None and check_certificate(cert, x, y)


def _too_large(g: Graph, name: str, bounds: dict, cap: int):
    # count the classes level by level, so an oversized model is refused
    # before its remaining levels are built
    try:
        model = class_model(g, cap)
        for size in range(cap + 1):
            if len(model.roots_up_to(size)) > _SWEEP_ROOT_LIMIT:
                return PropertyReport(
                    name,
                    "unknown",
                    bounds,
                    None,
                    f"class model too large to sweep: more than "
                    f"{_SWEEP_ROOT_LIMIT} classes of size at most {size}",
                )
    except CapExceeded as exc:
        return PropertyReport(
            name, "unknown", bounds, None, f"class model too large to sweep: {exc}"
        )
    return None


def _unresolved(name: str, bounds: dict, beyond_cap: bool = False) -> PropertyReport:
    details = "some instances left unresolved"
    if beyond_cap:
        details += f"; some multiples exceed the class cap {bounds['cap']}"
    return PropertyReport(name, "unknown", bounds, None, details)


def check_separativity(
    g: Graph,
    size_bound: int = DEFAULT_SIZE_BOUND,
    n_bound: int = DEFAULT_N_BOUND,
    cap: int = DEFAULT_CLASS_CAP,
) -> PropertyReport:
    """Sweep for failures of bounded separativity.

    Instance: ``a + c`` equivalent to ``b + c`` with ``c`` below both
    ``n_bound * a`` and ``n_bound * b`` must force ``a`` equivalent to
    ``b``.  Elements range over class representatives up to
    ``size_bound``; the multiplier condition is monotone in the
    multiplier, so only the largest one is checked.
    """
    bounds = {"size_bound": size_bound, "scale": n_bound, "cap": cap}
    name = "separativity"
    if is_acyclic(g):
        return PropertyReport(
            name,
            "holds-within-bounds",
            bounds,
            None,
            "acyclic: classes embed in the free monoid on sinks, "
            "which is cancellative",
        )
    big = _too_large(g, name, bounds, cap)
    if big is not None:
        return big
    sweep = _Sweep(g, cap)
    model = sweep.model
    reps = model.roots_up_to(size_bound)
    saw_unknown = beyond_cap = False
    scaled = sweep.multiples(reps, n_bound)
    for ia, ra in enumerate(reps):
        na = scaled[ra]
        for rb in reps[ia + 1 :]:
            nb = scaled[rb]
            if na is None or nb is None:
                saw_unknown = beyond_cap = True
                continue
            # the model's classes are exact, so ra and rb are distinct
            # classes and each instance tests a + c against b + c
            for rc in reps:
                sum_a = model.add_classes(ra, rc)
                sum_b = model.add_classes(rb, rc)
                if sum_a is None or sum_b is None:
                    saw_unknown = True
                    continue
                if sum_a != sum_b:
                    continue
                le_a = sweep.le_status(rc, na)
                if le_a == "refuted":
                    continue
                le_b = sweep.le_status(rc, nb)
                if le_b == "refuted":
                    continue
                if le_a == "proven" and le_b == "proven":
                    a, b, c = model.rep(ra), model.rep(rb), model.rep(rc)
                    if (
                        sweep.confirm_equal(a + c, b + c)
                        and sweep.confirm_distinct(a, b)
                        and sweep.confirm_le(rc, na)
                        and sweep.confirm_le(rc, nb)
                    ):
                        return PropertyReport(
                            name,
                            "counterexample",
                            bounds,
                            (a, b, c),
                            "premises re-verified by the word problem",
                        )
                saw_unknown = True
    if saw_unknown:
        return _unresolved(name, bounds, beyond_cap)
    return PropertyReport(name, "holds-within-bounds", bounds)


def check_unperforation(
    g: Graph,
    size_bound: int = DEFAULT_SIZE_BOUND,
    n_bound: int = DEFAULT_N_BOUND,
    cap: int = DEFAULT_CLASS_CAP,
) -> PropertyReport:
    """Sweep for failures of bounded unperforation.

    Instance: ``n * a`` below ``n * b`` must force ``a`` below ``b``,
    for every multiplier from 2 to ``n_bound`` and representatives up to
    ``size_bound``.
    """
    bounds = {"size_bound": size_bound, "scale": n_bound, "cap": cap}
    name = "unperforation"
    if is_acyclic(g):
        return PropertyReport(
            name,
            "holds-within-bounds",
            bounds,
            None,
            "acyclic: the order embeds in a free monoid on sinks, "
            "where multiples compare pointwise",
        )
    big = _too_large(g, name, bounds, cap)
    if big is not None:
        return big
    sweep = _Sweep(g, cap)
    model = sweep.model
    reps = model.roots_up_to(size_bound)
    saw_unknown = beyond_cap = False
    for n in range(2, n_bound + 1):
        scaled = sweep.multiples(reps, n)
        for ra in reps:
            na = scaled[ra]
            for rb in reps:
                if ra == rb:
                    continue
                nb = scaled[rb]
                if na is None or nb is None:
                    saw_unknown = beyond_cap = True
                    continue
                premise = sweep.le_status(na, nb)
                if premise == "refuted":
                    continue
                conclusion = sweep.le_status(ra, rb)
                if premise == "proven" and conclusion == "refuted":
                    a, b = model.rep(ra), model.rep(rb)
                    if sweep.confirm_le(na, nb) and sweep.confirm_not_le(a, b):
                        return PropertyReport(
                            name,
                            "counterexample",
                            bounds,
                            (a, b, n),
                            "premise re-verified by the word problem",
                        )
                    saw_unknown = True
                elif premise == "proven" and conclusion == "unknown":
                    saw_unknown = True
                elif premise == "unknown" and conclusion != "proven":
                    saw_unknown = True
    if saw_unknown:
        return _unresolved(name, bounds, beyond_cap)
    return PropertyReport(name, "holds-within-bounds", bounds)


def is_prime(
    p: MonoidElement,
    size_bound: int = DEFAULT_SIZE_BOUND,
    cap: int = DEFAULT_CLASS_CAP,
) -> PropertyReport:
    """Sweep for failures of primality of one class.

    Instance: ``p`` below a sum ``a1 + a2`` (combined size at most
    ``size_bound``) must force ``p`` below one of the parts.  The zero
    class divides everything and is excluded by convention.
    """
    if p.is_zero:
        raise ValueError("the zero class is not considered prime")
    g = p.graph
    bounds = {"size_bound": size_bound, "cap": cap}
    name = "prime"
    big = _too_large(g, name, bounds, cap)
    if big is not None:
        return big
    sweep = _Sweep(g, cap)
    model = sweep.model
    rp = model.reduced_class(p)
    if rp is None:
        return PropertyReport(
            name, "unknown", bounds, None, f"the element exceeds the class cap {cap}"
        )
    reps = model.roots_up_to(size_bound)
    saw_unknown = False
    for i, r1 in enumerate(reps):
        for r2 in reps[i:]:
            if model.rep_size(r1) + model.rep_size(r2) > size_bound:
                continue
            total = model.add_classes(r1, r2)
            if total is None:
                saw_unknown = True
                continue
            premise = sweep.le_status(rp, total)
            if premise == "refuted":
                continue
            part1 = sweep.le_status(rp, r1)
            if part1 == "proven":
                continue
            part2 = sweep.le_status(rp, r2)
            if part2 == "proven":
                continue
            if (
                premise == "proven"
                and part1 == "refuted"
                and part2 == "refuted"
            ):
                a1, a2 = model.rep(r1), model.rep(r2)
                if (
                    sweep.confirm_le(rp, total)
                    and sweep.confirm_not_le(p, a1)
                    and sweep.confirm_not_le(p, a2)
                ):
                    return PropertyReport(
                        name,
                        "counterexample",
                        bounds,
                        (a1, a2),
                        "premise re-verified by the word problem",
                    )
                saw_unknown = True
            else:
                saw_unknown = True
    if saw_unknown:
        return _unresolved(name, bounds)
    return PropertyReport(name, "holds-within-bounds", bounds)


def primes_up_to(
    g: Graph,
    size_bound: int = DEFAULT_SIZE_BOUND,
    cap: int = DEFAULT_CLASS_CAP,
) -> list[MonoidElement]:
    """Class representatives up to ``size_bound`` whose primality sweep
    comes back clean.  Unresolved candidates are omitted, so the list is
    a subset of the primes, not a promise of completeness.  Raises
    ``CapExceeded`` when the class model outgrows its caps."""
    model = class_model(g, cap)
    out = []
    for r in model.roots_up_to(size_bound):
        rep = model.rep(r)
        if rep.is_zero:
            continue
        report = is_prime(rep, size_bound, cap)
        if report.verdict == "holds-within-bounds":
            out.append(rep)
    return out


def check_refinement(
    g: Graph,
    size_bound: int = 3,
    cap: int = DEFAULT_CLASS_CAP,
    quad_cap: int = 200,
) -> PropertyReport:
    """Sweep two-part splits of matching sums through the refiner.

    Pairs of representatives with provably equal sums are refined; the
    resulting table's rows and columns are re-verified against the word
    problem.  ``quad_cap`` bounds the number of quadruples tried.
    """
    bounds = {"size_bound": size_bound, "cap": cap, "quad_cap": quad_cap}
    name = "refinement"
    big = _too_large(g, name, bounds, cap)
    if big is not None:
        return big
    model = class_model(g, cap)
    reps = model.roots_up_to(size_bound)
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, r1 in enumerate(reps):
        for r2 in reps[i:]:
            total = model.add_classes(r1, r2)
            if total is not None:
                groups.setdefault(total, []).append((r1, r2))
    quads = (
        (left, right)
        for pairs in groups.values()
        for i, left in enumerate(pairs)
        for right in pairs[i:]
    )
    saw_unknown = False
    for left, right in itertools.islice(quads, quad_cap):
        a1, a2 = model.rep(left[0]), model.rep(left[1])
        b1, b2 = model.rep(right[0]), model.rep(right[1])
        # refine searches the sums itself: provably distinct sums raise
        try:
            out = refine(a1, a2, b1, b2, _CONFIRM_DEPTH)
        except DistinctSums:
            saw_unknown = True
            continue
        if isinstance(out, Unknown):
            saw_unknown = True
            continue
        t = out.table
        checks = [
            (t[0][0] + t[0][1], a1),
            (t[1][0] + t[1][1], a2),
            (t[0][0] + t[1][0], b1),
            (t[0][1] + t[1][1], b2),
        ]
        for got, want in checks:
            verdict = decide_eq(got, want, _CONFIRM_DEPTH)
            if isinstance(verdict, Distinct):
                return PropertyReport(
                    name,
                    "counterexample",
                    bounds,
                    (a1, a2, b1, b2),
                    "a refinement row or column failed to match",
                )
            if not isinstance(verdict, Equal):
                saw_unknown = True
    if saw_unknown:
        return _unresolved(name, bounds)
    return PropertyReport(name, "holds-within-bounds", bounds)
