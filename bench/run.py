"""The graphmonoid benchmark.

    python3 bench/run.py --workload wordproblem --seed 1 --seconds 25 --trace 0

Runs one workload (``wordproblem``, ``structure`` or ``classes``; see
``bench/inputs.py`` for why each exists) as a single closed-loop client:
each query is issued only after the previous answer returns, with no
threads.  Work is split into seeded batches, and every batch runs in a
fresh interpreter (``bench/worker.py``), because the package caches
results keyed by graph value and a reused interpreter would measure warm
caches.  Batches continue until the queries' own time reaches
``--seconds`` and at least ``MIN_QUERIES`` queries have run.

Times are put on a common host speed with a reference loop timed
between queries (see ``summarize``); the measured values are printed
too.  Every answer is re-verified outside the timed region
(``bench/verify.py``).
The report goes to standard output, and its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
batches run under the span tracer (``bench/tracer.py``) and the metrics
are per layer, followed by an untraced replay of the same batches that
gives the tracing overhead.  The command exits 0 only when every answer
verified.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

# per run: at least this many queries, so the tail percentile below has
# at least ten samples beyond it
MIN_QUERIES = 200
TAIL_PERCENTILE = 95
# set-up is timed in every batch, and in extra set-up-only interpreters
# when a run has fewer batches than this
SETUP_SAMPLES = 11
# median of ``worker.reference_s`` while this benchmark ran on the host
# its bounds were set on (2 shared Xeon vCPUs at 2.1 GHz, CPython 3.11);
# see ``summarize``
REFERENCE_NOMINAL_S = 0.0050
# stop starting batches after this much wall time (a traced run also
# replays its batches untraced), so a run ends within three minutes
WALL_LIMIT_S = 100.0
TRACED_WALL_LIMIT_S = 60.0
BATCH_TIMEOUT_S = 60.0

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (name, unit): per-function calls and self time, hook counters and
# ratios, each module's total self time, and the tracing overhead
_FUNCTION_METRICS = {
    "rewriting.decide_eq": ("calls", "self_s"),
    "rewriting.successors": ("calls", "self_s"),
    "rewriting.refine": ("calls", "self_s"),
    "graphs.is_acyclic": ("calls", "self_s"),
    "graphs.hsat_closure": ("calls", "self_s"),
    "graphs.parse_graph_text": ("calls", "self_s"),
    "certificates.distinctness_certificate": ("calls", "self_s"),
    "certificates.support_closure": ("calls", "self_s"),
    "certificates.leq_obstruction": ("calls", "self_s"),
    "lattice.enumerate_hsat": ("calls", "self_s"),
    "lattice.lattice_report": ("self_s",),
    "lattice.composition_series": ("self_s",),
    "lattice.quotient_graph": ("calls",),
    "ktheory.grothendieck_group": ("calls", "self_s"),
    "ktheory.smith_normal_form": ("calls", "self_s"),
    "enumeration.class_model": ("calls", "self_s"),
    "enumeration.bounded_class_count": ("self_s",),
    "enumeration.quotient_bounded_class_count": ("self_s",),
    "enumeration.ideal_membership": ("self_s",),
    "elements.elements_up_to": ("calls", "self_s"),
    "properties.check_separativity": ("self_s",),
    "properties.check_unperforation": ("self_s",),
    "properties.check_refinement": ("self_s",),
    "properties.is_prime": ("self_s",),
    "properties.leq": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
_COUNTERS = (
    "rewriting.decide_eq.unknown",
    "lattice.enumerate_hsat.subsets_scanned",
    "lattice.enumerate_hsat.sets_found",
    "enumeration.class_model.vectors",
)
_RATIOS = (
    "rewriting.decide_eq.searched_ratio",
    "certificates.distinctness_certificate.hit_ratio",
    "certificates.leq_obstruction.hit_ratio",
    "ktheory.grothendieck_group.hit_ratio",
)
def _per_layer() -> dict[str, str]:
    out = {}
    for fn, stats in _FUNCTION_METRICS.items():
        for stat in stats:
            out[f"{fn}.{stat}"] = "count" if stat == "calls" else "s"
    out.update({name: "count" for name in _COUNTERS})
    out.update({name: "ratio" for name in _RATIOS})
    out.update({f"module.{m}.self_s": "s" for m in MODULES})
    out["trace.overhead_s"] = "s"
    return out


PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# running batches


def run_batch(workload: str, seed: int, index: int, trace_file: str | None, *extra) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--batch",
        str(index),
        *extra,
    ]
    if trace_file:
        cmd += ["--trace", trace_file]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=BATCH_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"batch {index} of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_batches(workload, seed, seconds, trace_dir=None, count=None) -> list[dict]:
    """Run batches until the queries' own time reaches ``seconds`` (and
    the query floor is met), or exactly ``count`` batches."""
    batches, busy, queries = [], 0.0, 0
    started = time.monotonic()
    wall_limit = TRACED_WALL_LIMIT_S if trace_dir else WALL_LIMIT_S
    while True:
        if count is not None:
            if len(batches) == count:
                break
        elif busy >= seconds and (queries >= MIN_QUERIES or trace_dir):
            break
        elif time.monotonic() - started > wall_limit:
            break
        i = len(batches)
        trace_file = os.path.join(trace_dir, f"batch{i:03d}.spans.gz") if trace_dir else None
        b = run_batch(workload, seed, i, trace_file)
        batches.append(b)
        busy += sum(q["latency_s"] for q in b["queries"])
        queries += len(b["queries"])
    return batches


# ----------------------------------------------------------------------
# metrics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def setup_samples(workload: str, seed: int, batches) -> list[dict]:
    """Set-up-only interpreters that top the run's set-up samples up to
    ``SETUP_SAMPLES``."""
    return [
        run_batch(workload, seed, i % len(batches), None, "--setup-only")
        for i in range(SETUP_SAMPLES - len(batches))
    ]


def summarize(batches, extra_setups=()) -> dict:
    """End-to-end metrics of a run, put on a common host speed.

    On shared hardware the speed of every kind of Python work drifts
    together, by up to a third over tens of seconds.  Workers therefore
    time a fixed reference loop between queries, and every time is
    multiplied by ``speed = REFERENCE_NOMINAL_S / R``, R being the median
    reference sample of the run: the numbers read as if the host ran at
    its nominal speed.  The measured numbers are returned as ``raw``.
    """
    queries = [q for b in batches for q in b["queries"]]
    lat = [q["latency_s"] for q in queries]
    busy = sum(lat)
    setups = [b["setup_s"] for b in batches] + [s["setup_s"] for s in extra_setups]
    refs = [r for b in [*batches, *extra_setups] for r in b["reference_s"]]
    speed = REFERENCE_NOMINAL_S / statistics.median(refs)
    raw = {
        "queries_per_s": len(lat) / busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": percentile(lat, TAIL_PERCENTILE) * 1e3,
        "peak_rss_mb": max(b["peak_rss_mb"] for b in batches),
        "setup_s": statistics.median(setups),
    }
    scale = {"queries_per_s": 1 / speed, "peak_rss_mb": 1.0}
    return {
        "queries": queries,
        "busy_s": busy * speed,
        "speed": speed,
        "raw": raw,
        "metrics": {k: v * scale.get(k, speed) for k, v in raw.items()},
    }


def layer_metrics(batches, traced_s: float, untraced_s: float) -> dict:
    funcs: dict[str, dict] = {}
    counters: dict[str, float] = {}
    caches: dict[str, dict] = {}
    for b in batches:
        t = b["trace"]
        for name, st in t["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += st["calls"]
            acc["self_s"] += st["self_s"]
        for name, v in t["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, st in t["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += st["hits"]
            acc["misses"] += st["misses"]

    def stat(fn, key):
        return funcs.get(fn, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for fn, stats in _FUNCTION_METRICS.items():
        for s in stats:
            out[f"{fn}.{s}"] = stat(fn, s)
    for name in _COUNTERS:
        out[name] = counters.get(name, 0)
    out["rewriting.decide_eq.searched_ratio"] = ratio(
        counters.get("rewriting.decide_eq.searched", 0), stat("rewriting.decide_eq", "calls")
    )
    for fn in ("certificates.distinctness_certificate", "certificates.leq_obstruction"):
        out[f"{fn}.hit_ratio"] = ratio(counters.get(fn + ".hits", 0), stat(fn, "calls"))
    gg = caches.get("ktheory.grothendieck_group", {"hits": 0, "misses": 0})
    out["ktheory.grothendieck_group.hit_ratio"] = ratio(gg["hits"], gg["hits"] + gg["misses"])
    for m in MODULES:
        out[f"module.{m}.self_s"] = sum(
            st["self_s"] for name, st in funcs.items() if name.split(".")[0] == m
        )
    out["trace.overhead_s"] = traced_s - untraced_s
    return out, funcs


# ----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description="graphmonoid benchmark")
    ap.add_argument("--workload", choices=("wordproblem", "structure", "classes"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "graphmonoid", "__init__.py")):
        print("error: graphmonoid sources not found under src/", file=sys.stderr)
        return 2

    if args.trace:
        trace_dir = os.path.join(OUT, f"trace-{args.workload}-{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        batches = run_batches(args.workload, args.seed, args.seconds, trace_dir=trace_dir)
        replay = run_batches(args.workload, args.seed, args.seconds, count=len(batches))
        traced, untraced = summarize(batches), summarize(replay)
        metrics, funcs = layer_metrics(batches, traced["busy_s"], untraced["busy_s"])
        units = PER_LAYER
        summary = traced
        print(f"spans written to {os.path.relpath(trace_dir, ROOT)}/")
        print(
            f"traced query time {traced['busy_s']:.3f} s, untraced replay "
            f"{untraced['busy_s']:.3f} s, overhead {metrics['trace.overhead_s']:.3f} s"
        )
        total_self = sum(st["self_s"] for st in funcs.values()) or 1.0
        print("share of traced self time by module:")
        for m in MODULES:
            print(f"  {m:<13} {metrics[f'module.{m}.self_s'] / total_self:7.1%}")
        print("top functions by self time:")
        for name, st in sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
            print(f"  {name:<45} {st['self_s']:9.3f} s {st['calls']:>9} calls")
    else:
        batches = run_batches(args.workload, args.seed, args.seconds)
        summary = summarize(batches, setup_samples(args.workload, args.seed, batches))
        metrics = summary["metrics"]
        units = END_TO_END
        print(
            f"host speed {summary['speed']:.4f} of nominal; measured: "
            + ", ".join(f"{k} {v}" for k, v in summary["raw"].items())
        )

    queries = summary["queries"]
    attempted = len(queries)
    failures = [q for q in queries if q["error"]]
    unknown = sum(1 for q in queries if q["verdict"] == "unknown")
    kinds: dict[str, dict[str, int]] = {}
    for q in queries:
        row = kinds.setdefault(q["kind"], {})
        row[q["verdict"]] = row.get(q["verdict"], 0) + 1
    lat = sorted(q["latency_s"] for q in queries)
    print(
        f"workload {args.workload} seed {args.seed}: {len(batches)} batches, "
        f"{attempted} queries, query time {summary['busy_s']:.3f} s at nominal speed"
    )
    print("input digests: " + " ".join(b["digest"] for b in batches))
    for kind, row in sorted(kinds.items()):
        print(f"  {kind:<30} " + ", ".join(f"{v} {n}" for v, n in sorted(row.items())))
    print(
        f"latency p{TAIL_PERCENTILE} over {attempted} samples "
        f"({attempted - int(-(-attempted * TAIL_PERCENTILE // 100))} beyond it), "
        f"max {lat[-1] * 1e3:.3f} ms"
    )
    print(f"unknown_ratio {unknown / attempted:.6f} ({unknown}/{attempted})")
    print(f"error_ratio {len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    for q in failures[:10]:
        print(f"  failed {q['kind']}: {q['error']}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
