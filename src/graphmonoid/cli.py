"""Command line front end.

Exit codes are part of the contract.  For ``eq``: 0 equal, 1 distinct,
2 unknown.  For ``check``: 0 every property holds within bounds, 1 some
property has a re-verified counterexample, 2 something stayed unknown.
For ``series --validate``: 0 valid, 1 invalid.  Everywhere: 3 for usage,
parse or validation problems and 4 when a configured cap is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceeded, ElementFormatError, GraphFormatError
from .graphs import Graph, Path, format_graph_text, graph_to_json, parse_graph_text
from .elements import MonoidElement, parse_element
from .rewriting import (
    DEFAULT_DEPTH,
    DEFAULT_REDUCT_CAP,
    Distinct,
    Equal,
    RewriteTrace,
    Unknown,
    decide_eq,
)
from .certificates import Certificate
from .lattice import (
    DEFAULT_LATTICE_CAP,
    SimpleClass,
    composition_series,
    lattice_report,
    order_ideal_membership,
    validate_series,
)
from .ktheory import grothendieck_group, matricial_filtration
from .properties import (
    DEFAULT_N_BOUND,
    check_refinement,
    check_separativity,
    check_unperforation,
)

_PROPERTY_CHECKS = {
    "separativity": check_separativity,
    "unperforation": check_unperforation,
    "refinement": check_refinement,
}


class _Parser(argparse.ArgumentParser):
    # usage problems must exit with code 3, not argparse's default 2
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="graphmonoid",
        description="Inspect the commutative monoid presented by a "
        "directed graph: word problem, ideal lattice, group completion, "
        "and bounded property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("graph", help="path to a graph file, or - for stdin")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )
        return p

    eq = add("eq", "decide whether two elements present the same class")
    eq.add_argument("lhs", help="left element, e.g. 'a + 2*b' or '0'")
    eq.add_argument("rhs", help="right element")
    eq.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    eq.add_argument("--reduct-cap", type=int, default=DEFAULT_REDUCT_CAP)

    lat = add("lattice", "enumerate the hereditary saturated sets")
    lat.add_argument("--lattice-cap", type=int, default=DEFAULT_LATTICE_CAP)
    lat.add_argument(
        "--ideal",
        metavar="ELEM",
        help="also report which sets' ideals contain this element's class",
    )

    ser = add("series", "build or validate a composition series")
    ser.add_argument("--lattice-cap", type=int, default=DEFAULT_LATTICE_CAP)
    ser.add_argument(
        "--validate",
        metavar="CHAIN",
        help="instead of building, validate this chain; sets are "
        "semicolon separated lists of comma separated vertices",
    )

    add("k0", "group completion: free rank, torsion and vertex images")

    fil = add("filtration", "path-count block structure at one level")
    fil.add_argument("--level", type=int, required=True)

    chk = add("check", "sweep bounded algebraic properties")
    chk.add_argument(
        "--props",
        default="separativity,unperforation",
        help="comma separated subset of: " + ", ".join(_PROPERTY_CHECKS),
    )
    chk.add_argument("--size-bound", type=int)
    chk.add_argument("--n-bound", type=int, default=DEFAULT_N_BOUND)

    add("show", "parse a graph and print it back")
    return parser


# ----------------------------------------------------------------------
# rendering helpers


def _load_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return parse_graph_text(text)


def _jsonify(value):
    if isinstance(value, MonoidElement):
        return str(value)
    if isinstance(value, Path):
        return {"edges": list(value.edge_indices), "vertices": list(value.visited)}
    if isinstance(value, Certificate):
        return {
            "invariant": value.invariant,
            "context": None if value.context is None else list(value.context),
            "lhs": _jsonify(value.lhs),
            "rhs": _jsonify(value.rhs),
        }
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def _emit_json(payload) -> None:
    print(json.dumps(_jsonify(payload), indent=2, sort_keys=True))


def _set_text(members) -> str:
    return "{" + ", ".join(sorted(members)) + "}"


def _trace_text(trace: RewriteTrace) -> str:
    parts = [str(trace.start)]
    for v, after in trace.steps:
        parts.append(f"=[{v}]=> {after}")
    return " ".join(parts)


def _trace_json(trace: RewriteTrace):
    return {
        "start": str(trace.start),
        "steps": [{"vertex": v, "result": str(e)} for v, e in trace.steps],
    }


def _value_text(value) -> str:
    return json.dumps(_jsonify(value))


def _witness_json(cls: SimpleClass):
    return {"kind": cls.kind, "witness": _jsonify(cls.witness)}


def _witness_text(cls: SimpleClass) -> str:
    if cls.kind == "SinkType":
        return f"{cls.kind} (sink {cls.witness})"
    if cls.kind == "CycleNoExitType":
        loop = cls.witness
        route = " -> ".join(loop.visited + (loop.visited[0],))
        return f"{cls.kind} (loop {route})"
    return cls.kind


# ----------------------------------------------------------------------
# commands


def _run_eq(args) -> int:
    g = _load_graph(args.graph)
    x = parse_element(g, args.lhs)
    y = parse_element(g, args.rhs)
    verdict = decide_eq(x, y, args.depth, args.reduct_cap)
    if isinstance(verdict, Equal):
        if args.fmt == "json":
            _emit_json(
                {
                    "verdict": "equal",
                    "reduct": str(verdict.reduct),
                    "lhs_trace": _trace_json(verdict.lhs_trace),
                    "rhs_trace": _trace_json(verdict.rhs_trace),
                }
            )
        else:
            print("verdict: equal")
            print(f"reduct: {verdict.reduct}")
            print(f"lhs trace: {_trace_text(verdict.lhs_trace)}")
            print(f"rhs trace: {_trace_text(verdict.rhs_trace)}")
        return 0
    if isinstance(verdict, Distinct):
        cert = verdict.certificate
        if args.fmt == "json":
            _emit_json({"verdict": "distinct", "certificate": cert})
        else:
            print("verdict: distinct")
            print(f"invariant: {cert.invariant}")
            if cert.context is not None:
                print(f"context: {_set_text(cert.context)}")
            print(f"lhs: {_value_text(cert.lhs)}")
            print(f"rhs: {_value_text(cert.rhs)}")
        return 1
    if args.fmt == "json":
        _emit_json({"verdict": "unknown", "depth": verdict.depth})
    else:
        print("verdict: unknown")
        print(f"depth: {verdict.depth}")
    return 2


def _run_lattice(args) -> int:
    g = _load_graph(args.graph)
    report = lattice_report(g, args.lattice_cap)
    member = None
    if args.ideal is not None:
        elem = parse_element(g, args.ideal)
        member = [order_ideal_membership(h, elem) for h in report.sets]
    if args.fmt == "json":
        payload = {
            "sets": [sorted(h.members) for h in report.sets],
            "hasse": [list(p) for p in report.hasse],
            "join": [list(row) for row in report.join_table],
            "meet": [list(row) for row in report.meet_table],
        }
        if member is not None:
            payload["ideal"] = member
        _emit_json(payload)
    else:
        print(f"sets: {len(report.sets)}")
        for i, h in enumerate(report.sets):
            print(f"{i}: {_set_text(h.members)}")
        for i, j in report.hasse:
            print(
                f"cover: {_set_text(report.sets[i].members)} < "
                f"{_set_text(report.sets[j].members)}"
            )
        if member is not None:
            inside = [str(i) for i, ok in enumerate(member) if ok]
            print(f"ideal sets: {', '.join(inside) if inside else 'none'}")
    return 0


def _parse_chain(text: str) -> list[frozenset]:
    chain = []
    for part in text.split(";"):
        names = [n.strip() for n in part.split(",") if n.strip()]
        chain.append(frozenset(names))
    return chain


def _run_series(args) -> int:
    g = _load_graph(args.graph)
    if args.validate is not None:
        ok = validate_series(g, _parse_chain(args.validate))
        if args.fmt == "json":
            _emit_json({"valid": ok})
        else:
            print("valid" if ok else "invalid")
        return 0 if ok else 1
    series = composition_series(g, args.lattice_cap)
    if args.fmt == "json":
        _emit_json(
            {
                "sets": [sorted(h.members) for h in series.sets],
                "steps": [
                    {
                        "lower": sorted(s.lower.members),
                        "upper": sorted(s.upper.members),
                        "classification": _witness_json(s.classification),
                    }
                    for s in series.steps
                ],
            }
        )
    else:
        chain = " < ".join(_set_text(h.members) for h in series.sets)
        print(f"series: {chain}")
        for i, step in enumerate(series.steps, start=1):
            print(f"step {i}: {_witness_text(step.classification)}")
    return 0


def _run_k0(args) -> int:
    g = _load_graph(args.graph)
    pres = grothendieck_group(g)
    images = {
        v: pres.image_of_vec(
            tuple(1 if w == v else 0 for w in g.vertex_order)
        )
        for v in g.vertex_order
    }
    if args.fmt == "json":
        _emit_json(
            {
                "free_rank": pres.free_rank,
                "torsion": list(pres.invariant_factors),
                "images": {v: list(img) for v, img in images.items()},
            }
        )
    else:
        print(f"free rank: {pres.free_rank}")
        factors = ", ".join(str(d) for d in pres.invariant_factors)
        print(f"torsion: {factors if factors else 'none'}")
        for v in g.vertex_order:
            print(f"image {v}: {_value_text(images[v])}")
    return 0


def _run_filtration(args) -> int:
    g = _load_graph(args.graph)
    level = matricial_filtration(g, args.level)
    if args.fmt == "json":
        _emit_json(
            {
                "level": level.level,
                "blocks": [
                    {"vertex": b.vertex, "size": b.size, "stage": b.stage}
                    for b in level.blocks
                ],
                "transitions": [
                    {"from": src, "to": dst, "multiplicity": mult}
                    for src, dst, mult in level.transitions
                ],
            }
        )
    else:
        print(f"level: {level.level}")
        for b in level.blocks:
            extra = " degenerate" if b.degenerate else ""
            print(f"block: vertex {b.vertex} stage {b.stage} size {b.size}{extra}")
        for src, dst, mult in level.transitions:
            print(f"transition: {src} -> {dst} x{mult}")
    return 0


def _run_check(args) -> int:
    g = _load_graph(args.graph)
    names = [p.strip() for p in args.props.split(",") if p.strip()]
    if not names:
        raise ValueError("no properties requested")
    for name in names:
        if name not in _PROPERTY_CHECKS:
            raise ValueError(f"unknown property {name!r}")
    reports = []
    for name in names:
        # refinement has its own default size bound and no scale
        bounds = {} if name == "refinement" else {"n_bound": args.n_bound}
        if args.size_bound is not None:
            bounds["size_bound"] = args.size_bound
        reports.append(_PROPERTY_CHECKS[name](g, **bounds))
    if args.fmt == "json":
        _emit_json(
            {
                "reports": [
                    {
                        "property": r.property,
                        "verdict": r.verdict,
                        "bounds": r.bounds,
                        "counterexample": _jsonify(r.counterexample),
                        "details": r.details,
                    }
                    for r in reports
                ]
            }
        )
    else:
        for r in reports:
            print(f"{r.property}: {r.verdict}")
            if r.counterexample is not None:
                shown = ", ".join(str(p) for p in r.counterexample)
                print(f"  counterexample: {shown}")
            if r.details:
                print(f"  note: {r.details}")
    if any(r.verdict == "counterexample" for r in reports):
        return 1
    if any(r.verdict == "unknown" for r in reports):
        return 2
    return 0


def _run_show(args) -> int:
    g = _load_graph(args.graph)
    if args.fmt == "json":
        _emit_json(graph_to_json(g))
    else:
        sys.stdout.write(format_graph_text(g))
    return 0


_DISPATCH = {
    "eq": _run_eq,
    "lattice": _run_lattice,
    "series": _run_series,
    "k0": _run_k0,
    "filtration": _run_filtration,
    "check": _run_check,
    "show": _run_show,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GraphFormatError, ElementFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
