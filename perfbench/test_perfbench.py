"""Tests of the benchmark's own code.

Every workload runs at a tiny size, untraced and traced, and must print
exactly the metrics BENCHMARK.json names. Each correctness check must
fail on a corrupted output. Timings are not gated.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bench
import spans
from agglab import layers as L
from agglab import tensor as T
from agglab import train as TR

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = dict(n_train=6, n_eval=4, check_graphs=2, grad_graphs=3, grad_coords=2)
SEED = 3


@pytest.fixture(scope="module", autouse=True)
def quick():
    """One set-up per run and a layer sweep of one or two repeats."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "SETUP_SECONDS", 0.0)
        mp.setattr(bench, "SWEEP_SHAPES", (("small", 10, 0.3, 2), ("dense", 80, 0.5, 1)))
        yield


def tiny(name):
    """The workload at a tiny size, running each suite once."""
    w = bench.WORKLOADS[name]
    return replace(w, min_rounds=-(-len(bench.SUITES) // w.suites_per_round), **TINY)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_run_is_correct_and_prints_the_named_metrics(name, trace, tmp_path):
    result, failures = bench.run(tiny(name), SEED, 0, trace, tmp_path / "trace.json")
    assert failures == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for k, v in result["metrics"].items():
        assert math.isfinite(v["value"]), k
        if not trace:
            assert v["value"] > 0, k
    json.dumps(result)
    if trace:
        spans_written = json.loads((tmp_path / "trace.json").read_text())["spans"]
        assert any(row[0] == "train.train" for row in spans_written)


def test_ops_per_step_repeats_exactly(tmp_path):
    counts = []
    for _ in range(2):
        result, _ = bench.run(tiny("verify-all"), SEED, 0, 1, tmp_path / "trace.json")
        counts.append(result["metrics"]["tensor.ops_per_step"]["value"])
    assert counts[0] == counts[1] > 0


@pytest.fixture(scope="module")
def record():
    rec = bench.measure(tiny("triangles-small"), SEED, seconds=0)
    assert bench.check(rec) == []
    return rec


def failures_after(rec, corrupt):
    rec = copy.deepcopy(rec)
    corrupt(rec)
    return bench.check(rec)


def test_check_catches_a_parameter_perturbed_after_training(record):
    def corrupt(rec):
        rec.cells[1].params["head.b"][0, 0] += 0.05
    failures = failures_after(record, corrupt)
    assert any("train.evaluate MAE" in f for f in failures), failures


def test_check_catches_a_wrong_target(record):
    def corrupt(rec):
        rec.inputs.eval_graphs[0].target += 1.0
    assert any("trace(A^3)/6" in f for f in failures_after(record, corrupt))


def test_check_catches_a_scaled_dense_target():
    rec = bench.measure(replace(tiny("dense-large"), cells=("GCN",)), SEED, seconds=0)
    assert bench.check(rec) == []
    rec.inputs.train.graphs[0].target *= 1.0 + 1e-12
    assert any("trace(A^3)/6" in f for f in bench.check(rec))


@pytest.mark.parametrize("corrupt, expected", [
    (lambda r: r.update(verdict=False), "verdict False"),
    (lambda r: r["detail"].update(active_subset_mismatches=1), "active subsets match"),
    (lambda r: r.update(witness=[[1.0], [2.0]]), "returned a witness"),
])
def test_check_catches_a_wrong_suite_result(record, corrupt, expected):
    def corrupt_eq5(rec):
        corrupt(next(run.result for run in rec.suites if run.suite == "eq5"))
    assert any(expected in f for f in failures_after(record, corrupt_eq5))


def test_check_catches_a_miscounted_suite(record):
    def corrupt(rec):
        next(run.result for run in rec.suites if run.suite == "prop1")["detail"][
            "iii_agreements"] -= 1
    assert any("100 injectivity cases agree" in f for f in failures_after(record, corrupt))


def test_check_catches_a_wrong_forward(record, monkeypatch):
    original = L.layer_forward
    monkeypatch.setattr(L, "layer_forward",
                        lambda *a, **k: T.scale(original(*a, **k), 1.0 + 1e-7))
    assert any("Model.forward" in f for f in bench.check(record))


def test_check_catches_a_wrong_gradient(record, monkeypatch):
    original = TR.graph_loss
    monkeypatch.setattr(TR, "graph_loss", lambda *a: T.scale(original(*a), 1.1))
    assert any("central difference" in f for f in bench.check(record))


def test_training_that_moves_nothing_fails(record):
    def corrupt(rec):
        rec.cells[0].params = {k: v.copy() for k, v in rec.inputs.initial[0].items()}
    assert any("unchanged" in f for f in failures_after(record, corrupt))


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [["a", -1, 0.0, 10.0, "x"], ["b", 0, 1.0, 4.0, "x"],
                    ["c", 1, 2.0, 3.0, "x"], ["b", 0, 5.0, 6.0, "x"]]
    summary = tracer.summary()
    assert summary[("a", "x")] == [10.0, 6.0, 1]
    assert summary[("b", "x")] == [4.0, 3.0, 2]
    assert summary[("c", "x")] == [1.0, 1.0, 1]


def test_installed_wrappers_count_and_are_removed():
    before = (L.layer_forward, T.Tape.record, TR.evaluate)
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        assert L.layer_forward is not before[0]
        tape = T.Tape()
        w = tape.param(np.ones((2, 2)))
        T.sum_all(T.matmul(w, w))
    assert (L.layer_forward, T.Tape.record, TR.evaluate) == before
    assert tracer.calls("tensor.Tape.record") == 2


def test_run_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "verify-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
