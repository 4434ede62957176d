"""Run one batch of one workload in a fresh interpreter.

    python3 bench/worker.py --workload wordproblem --seed 1 --batch 0 [--trace FILE]

Set-up (importing ``graphmonoid``, generating the batch's inputs and
writing its graph files) is timed on its own.  Then every query is
issued in a closed loop, one after another, and timed around the public
call alone.  The process's peak resident set size is read right after
the loop, before anything else runs.  Answers are verified afterwards,
outside the timed region.  With ``--trace`` the calls run under
:mod:`tracer` and the spans go to FILE.

The last line of standard output is one JSON object with the batch's
set-up time, peak RSS, the reference-loop samples taken between
queries, and one record per query: kind, latency, verdict, and whether
the query failed (raised, hit a cap, or failed verification).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import graphmonoid as gm  # noqa: E402
import graphmonoid.cli  # noqa: E402,F401

import inputs  # noqa: E402
import verify  # noqa: E402


# take one reference sample per this much query time; see ``reference_s``
REFERENCE_EVERY_S = 0.2


def reference_s() -> float:
    """Time a fixed integer loop that allocates nothing and never touches
    the package, so neither the garbage collector nor the program's heap
    can slow it: it measures only how fast the host runs Python now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i % 7
    return time.perf_counter() - t0


def _element(g, counts):
    return gm.MonoidElement(g, tuple(counts))


def _graph(spec):
    return gm.Graph(tuple(spec["vertices"]), tuple(map(tuple, spec["edges"])))


# ----------------------------------------------------------------------
# query plans: each is a list of (kind, call, check) where ``call`` runs
# the public API and ``check(answer)`` returns (verdict, ok)


def plan_wordproblem(batch, workdir):
    plan = []
    for session in batch:
        spec = session["graph"]
        g = _graph(spec)
        sc = spec["shape"].startswith("sc")
        for q in session["queries"]:
            x, y = _element(g, q["x"]), _element(g, q["y"])
            # walk pairs are equal by construction; same-K0 pairs on a
            # strongly connected graph that is not a cycle are equal by
            # the structure theory (M \ {0} is isomorphic to K0); random
            # pairs differ in K0
            if q["kind"] == "random":
                allowed = {"distinct"}
            elif q["kind"] == "walk" or sc:
                allowed = {"equal", "unknown"}
            else:
                allowed = {"equal", "distinct", "unknown"}
            plan.append(
                (
                    f"{q['kind']}-{spec['shape']}",
                    lambda x=x, y=y: gm.decide_eq(x, y),
                    lambda ans, x=x, y=y, a=allowed: verify.eq_verdict(ans, x, y, a),
                )
            )
    return plan


def plan_structure(batch, workdir):
    plan = []
    for k, item in enumerate(batch):
        path = os.path.join(workdir, f"q{k}.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.graph_text(item["graph"]))
        argv = [item["command"], path]
        if item["command"] == "eq":
            argv += [item["lhs"], item["rhs"]]
        argv += ["--format", "json"]
        plan.append(
            (
                f"{item['command']}-{item['graph']['shape']}",
                lambda argv=argv: _run_cli(argv),
                lambda ans, item=item: verify.cli_answer(ans, item),
            )
        )
    return plan


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def plan_classes(batch, workdir):
    plan = []
    for session in batch:
        spec = session["graph"]
        g = _graph(spec)
        for q in session["queries"]:
            op = q["op"]
            if op == "bounded_class_count":
                call = lambda g=g, s=q["size"]: gm.bounded_class_count(g, s)
            elif op == "quotient_bounded_class_count":
                call = lambda g=g, h=q["h"]: gm.quotient_bounded_class_count(g, h, 4)
            elif op in ("check_separativity", "check_unperforation", "check_refinement"):
                call = lambda g=g, op=op: getattr(gm, op)(g)
            elif op == "phi_psi_roundtrip":
                call = lambda g=g: gm.phi_psi_roundtrip(g)
            elif op == "is_prime":
                if not any(q["p"]):
                    continue
                call = lambda p=_element(g, q["p"]): gm.is_prime(p)
            elif op == "leq":
                x, y = _element(g, q["x"]), _element(g, q["y"])
                call = lambda x=x, y=y: gm.leq(x, y)
            elif op == "ideal_membership":
                x, y = _element(g, q["x"]), _element(g, q["y"])
                call = lambda x=x, y=y: gm.ideal_membership(x, y)
            else:
                raise ValueError(f"unknown op {op!r}")
            plan.append((op, call, lambda ans, q=q, g=g: verify.class_answer(ans, q, g)))
    return plan


def judge(check, ans, err):
    """The verdict of one answer and why it failed, or None if it passed:
    a query fails when it raised, or when its answer does not verify."""
    if err is not None:
        return "error", err
    try:
        verdict, ok = check(ans)
    except Exception as exc:
        return "error", f"verify: {type(exc).__name__}: {exc}"
    return verdict, None if ok else f"verification failed ({verdict})"


PLANS = {
    "wordproblem": plan_wordproblem,
    "structure": plan_structure,
    "classes": plan_classes,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(PLANS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, required=True)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument(
        "--setup-only", action="store_true", help="stop after set-up and report its time"
    )
    args = ap.parse_args()

    workdir = os.path.join(
        ROOT, ".bench_out", f"{args.workload}-{args.seed}-{args.batch}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    try:
        batch = inputs.batch(args.workload, args.seed, args.batch)
        plan = PLANS[args.workload](batch, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            refs = [reference_s() for _ in range(5)]
            print(json.dumps({"setup_s": setup_s, "reference_s": refs}))
            return 0

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.install()
        query = tracer.query if tracer else contextlib.nullcontext

        answers = []
        refs = [reference_s() for _ in range(3)]
        last_ref = time.perf_counter()
        for kind, call, _ in plan:
            t0 = time.perf_counter()
            try:
                with query():
                    ans = call()
                err = None
            except Exception as exc:  # a raising query is a failed query
                ans, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            answers.append((t1 - t0, ans, err))
            if t1 - last_ref >= REFERENCE_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs += [reference_s() for _ in range(3)]

        records = []
        for (kind, _, check), (latency, ans, err) in zip(plan, answers):
            verdict, err = judge(check, ans, err)
            records.append({"kind": kind, "latency_s": latency, "verdict": verdict, "error": err})
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "batch": args.batch,
            "digest": inputs.digest(batch),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "reference_s": refs,
            "queries": records,
        }
        if tracer is not None:
            result["trace"] = tracer.stats()
            tracer.write(args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
