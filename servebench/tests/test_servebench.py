"""The benchmark's own tests: small runs of every workload, and the checks.

Run from the checkout root with ``python -m pytest servebench/tests -q``.
The small runs serve a quickly trained 5-fold stand-in model on small
pools (``--scale small``), so the whole module takes a couple of minutes.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import CHECKOUT
from servebench import artifacts, ledger, run, workloads
from servebench.reference import Reference

with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _small_run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(CHECKOUT, "servebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1.5",
         "--trace", str(trace), "--scale", "small"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(lines[-2]), json.loads(lines[-1])


def _assert_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for entry in declared:
        value = metrics[entry["name"]]
        assert value["unit"] == entry["unit"], entry["name"]
        assert isinstance(value["value"], float), entry["name"]


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "servebench/run.py"]
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(ledger.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_small_untraced_run_emits_every_end_to_end_metric():
    report, result = _small_run("hot_single", trace=0)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    _assert_metrics(result["metrics"], BENCHMARK["end_to_end"])
    assert report["context"]["label_match"] == 1.0
    assert report["context"]["error_rate"] == 0.0
    environment = report["environment"]
    for key in ("cores", "python", "numpy", "scipy", "blas_env", "source_digest", "seed"):
        assert key in environment


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_traced_run_emits_every_per_layer_metric(workload):
    report, result = _small_run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    _assert_metrics(result["metrics"], BENCHMARK["per_layer"])
    assert set(report["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(report["ledger_context"]["tracing_overhead"]) == set(report["end_to_end"])
    assert result["metrics"]["journal.dropped"]["value"] == 0.0
    assert report["inputs"]["graphs_sent"] >= 1


@pytest.fixture(scope="module")
def sabotaged(tmp_path_factory):
    """A hot_single run whose reference is wrong for one graph and whose
    order starts with a body the server must refuse."""
    registry = artifacts.ensure_registry(CHECKOUT, artifacts.SMALL_TRAINING)
    reference = Reference(registry, artifacts.ENSEMBLE)
    workload = workloads.WORKLOADS["hot_single"]
    prepared = workloads.prepare(workload, seed=5, seconds=1.0, reference=reference, scale=0.1)
    victim = prepared.order[3]
    prepared.labels[victim] = (prepared.labels[victim] + 1) % 6
    prepared.bodies.append(b'{"graph": {"nodes": "not a graph"}}')
    prepared.members.append([0])
    prepared.order = [len(prepared.bodies) - 1] + prepared.order
    result = workloads.run(
        prepared, 1.0, CHECKOUT, registry, artifacts.ENSEMBLE,
        str(tmp_path_factory.mktemp("sabotaged")), traced_window=False,
    )
    return workloads.check(prepared, result.windows[0].samples)


def test_a_wrong_label_fails_the_run(sabotaged):
    assert not sabotaged.correct
    assert sabotaged.mismatches
    assert sabotaged.label_match < 1.0


def test_a_failed_request_fails_the_run(sabotaged):
    assert not sabotaged.correct
    assert sabotaged.failed == 1
    assert sabotaged.error_rate > 0.0


def test_tail_reports_the_highest_supported_percentile():
    assert workloads.tail([1.0] * 1000)[0] == 99
    assert workloads.tail([1.0] * 100)[0] == 90
    assert workloads.tail(list(range(200)))[0] == 95
