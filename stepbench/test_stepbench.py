"""Self-tests of the step benchmark.

    python3 -m pytest stepbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAST = "cache-wide-b256"


def _namespaces():
    return [harness.trainer, harness.encoders, harness.autodiff,
            harness.autodiff.Tape, harness.memtrace.MemCounter, harness.deep,
            harness.loss, harness.kernels]


def test_traced_then_untraced_run_gives_identical_losses():
    session = harness.Session(FAST, 0)
    before = [dict(vars(ns)) for ns in _namespaces()]
    ops_before = dict(harness.autodiff.OPS)
    tracer = Tracer()
    harness.install_spans(tracer)
    try:
        traced = harness.run_loop(session, 0.0, tracer=tracer)
    finally:
        tracer.restore()
    untraced = harness.run_loop(session, 0.0)

    assert traced.episodes == untraced.episodes == 1
    assert [r.loss for r in traced.records] == \
        [r.loss for r in untraced.records]
    names = {s.name for s in tracer.spans}
    assert {"trainer.step2", "kernels.matmul", "autodiff.vjp.mul",
            "memtrace.register", "loss.forward"} <= names
    for ns, snapshot in zip(_namespaces(), before):
        assert all(vars(ns)[k] is v for k, v in snapshot.items())
    assert all(harness.autodiff.OPS[k] is v for k, v in ops_before.items())


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    tracer.wrap(lambda: inner() + inner(), "outer")()
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert outer.self_time == pytest.approx(outer.incl - inner.incl)


@pytest.mark.parametrize("workload", [FAST, "deep-b128"])
def test_perturbed_gradient_fails_gate(workload):
    session = harness.Session(workload, 0)
    assert all(ok for _, ok, _ in harness.run_gates(session))

    def perturb(grads):
        grads = [g.copy() for g in grads]
        scale = max(abs(g).max() for g in grads)
        grads[0].flat[0] += 1e-6 * scale
        return grads

    name, ok, _ = harness.run_gates(session, perturb)[0]
    assert name == "cached gradients equal direct"
    assert not ok


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "stepbench/run.py", "--workload", FAST, "--seed",
         "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for name in spec:
        assert f"{FAST} {name} = " in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "stepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
