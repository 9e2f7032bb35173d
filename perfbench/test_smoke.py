"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one training step and a few ranking queries, untraced
and traced.  The test checks that every metric named in BENCHMARK.json is
emitted with its unit and that no operation failed.
"""

import dataclasses
import json
import os

import pytest

import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY_GRAPH = (60, 4, 300, 20, 2, 4, 20)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _tiny_workloads():
    run._import_program()
    import workloads

    tiny = {}
    for name, w in workloads.WORKLOADS.items():
        graph = {} if w.dataset is None else {"dataset": TINY_GRAPH, "k_neg": 8, "batch_groups": 4}
        tiny[name] = dataclasses.replace(
            w, pass_groups=graph.get("batch_groups", w.batch_groups), query_stride=30,
            min_rank_calls=1, setup_reps=2, **graph,
        )
    return tiny


@pytest.fixture(autouse=True)
def _restore_thread_env(monkeypatch):
    for name in run.PINNED_THREADS:
        monkeypatch.setenv(name, os.environ.get(name, ""))


def test_declared_workloads_exist():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    assert declared == set(_tiny_workloads())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["memorize", "wide_graph"])
def test_every_metric_is_emitted_without_failures(workload, trace, capsys):
    result = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        workloads=_tiny_workloads(),
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    details = json.loads(next(l for l in lines if l.startswith("details: "))[len("details: "):])
    assert details["error_rate"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
