"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import graphmonoid as gm  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generators_are_deterministic(workload):
    first = [inputs.batch(workload, 7, b) for b in range(2)]
    again = [inputs.batch(workload, 7, b) for b in range(2)]
    assert first == again
    assert inputs.digest(first) == inputs.digest(again)
    assert inputs.digest(first[0]) != inputs.digest(first[1])
    assert inputs.digest(inputs.batch(workload, 8, 0)) != inputs.digest(first[0])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_same_k0_pairs_share_the_group_image():
    rng = inputs.random.Random(3)
    spec = inputs.strongly_connected(rng, 6, "g", min_k0_order=4)
    g = worker._graph(spec)
    basis = inputs.relation_basis(spec)
    for _ in range(5):
        x, y = inputs.same_k0_pair(rng, spec, basis)
        assert gm.group_image(gm.MonoidElement(g, x)) == gm.group_image(
            gm.MonoidElement(g, y)
        )


def _abcd():
    return worker._graph(inputs.ABCD)


def _tampered_step(trace):
    v, after = trace.steps[0]
    bumped = gm.MonoidElement(after.graph, (after.counts[0] + 1,) + after.counts[1:])
    return gm.RewriteTrace(trace.start, ((v, bumped),) + trace.steps[1:])


def test_tampered_trace_step_is_a_failure():
    g = _abcd()
    x, y = gm.parse_element(g, "b"), gm.parse_element(g, "a + c")
    ans = gm.decide_eq(x, y)
    check = lambda a: verify.eq_verdict(a, x, y)  # noqa: E731
    assert worker.judge(check, ans, None) == ("equal", None)
    bad = gm.Equal(ans.reduct, _tampered_step(ans.lhs_trace), ans.rhs_trace)
    verdict, err = worker.judge(check, bad, None)
    assert verdict == "equal" and err is not None


def test_tampered_certificate_is_a_failure():
    g = _abcd()
    x, y = gm.parse_element(g, "d"), gm.parse_element(g, "c")
    ans = gm.decide_eq(x, y)
    check = lambda a: verify.eq_verdict(a, x, y)  # noqa: E731
    assert worker.judge(check, ans, None) == ("distinct", None)
    cert = ans.certificate
    bad = gm.Distinct(gm.Certificate(cert.invariant, cert.context, cert.rhs, cert.lhs))
    verdict, err = worker.judge(check, bad, None)
    assert verdict == "distinct" and err is not None


def test_oracle_rejects_distinct_for_a_known_equal_pair():
    g = _abcd()
    x, y = gm.parse_element(g, "d"), gm.parse_element(g, "c")
    ans = gm.decide_eq(x, y)
    assert verify.eq_verdict(ans, x, y, {"equal", "unknown"}) == ("distinct", False)


def test_tampered_cli_trace_is_a_failure():
    item = {"graph": inputs.ABCD, "command": "eq", "lhs": "b", "rhs": "a + c"}
    path = os.path.join(ROOT, ".bench_out", "test-abcd.graph")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.graph_text(inputs.ABCD))
    try:
        code, out, err = worker._run_cli(["eq", path, "b", "a + c", "--format", "json"])
    finally:
        os.remove(path)
    assert verify.cli_answer((code, out, err), item) == ("equal", True)
    payload = json.loads(out)
    payload["lhs_trace"]["steps"][0]["result"] = "2*a"
    assert verify.cli_answer((code, json.dumps(payload), err), item)[1] is False
    # an exit code that disagrees with the verdict fails as well
    assert verify.cli_answer((2, out, err), item)[1] is False


def test_raising_query_is_a_failure():
    assert worker.judge(None, None, "CapExceeded: cap") == ("error", "CapExceeded: cap")


def test_traced_batch_reports_layers_and_spans(tmp_path):
    spans = tmp_path / "spans.gz"
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload",
            "structure",
            "--seed",
            "1",
            "--batch",
            "0",
            "--trace",
            str(spans),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(q["error"] is None for q in result["queries"])
    funcs = result["trace"]["functions"]
    assert funcs["cli.main"]["calls"] == len(result["queries"])
    assert funcs["lattice.enumerate_hsat"]["calls"] > 0
    with gzip.open(spans, "rt", encoding="utf-8") as fh:
        names = json.loads(fh.readline())["functions"]
        rows = [json.loads(line) for line in fh]
    top = [r for r in rows if r[3] == -1]
    assert len(top) == len(result["queries"])
    assert all(names[r[0]] == "cli.main" for r in top)
    for fid, start, end, parent in rows:
        assert start <= end
        if parent >= 0:
            assert rows[parent][1] <= start and end <= rows[parent][2]
    metrics, _ = run.layer_metrics([result], 1.0, 1.0)
    assert set(metrics) == set(run.PER_LAYER)
