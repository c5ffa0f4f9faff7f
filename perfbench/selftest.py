"""Tests of the benchmark itself, on a shrunken geometry so they stay short.

    python3 -m pytest -q perfbench/selftest.py

Each run goes through ``run.main`` in a fresh interpreter, as the benchmark
runs in production, with every workload cut to 2 tasks x 2 classes and a
1-epoch schedule, and with the quality limits opened (a 1-epoch model is not
held to the full workloads' accuracy).
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]

SHRINK = """
import sys
sys.path.insert(0, {here!r})
import run
run.load_package()
from dataclasses import replace
import workloads as W
for name, wl in list(W.WORKLOADS.items()):
    W.WORKLOADS[name] = replace(
        wl, num_tasks=2, classes_per_task=2, train_per_class=8, test_per_class=10,
        hp={{**wl.hp, "E1": 1, "E2": 1, "n_replay": 16}}, setup_reps=2)
W.load_reference = lambda: {{
    "tolerance": {{}},
    "workloads": {{n: {{"limits": {{k: [0.0, 1.0] for k in W.QUALITY}}, "seeds": {{}}}}
                  for n in W.WORKLOADS}}}}
sys.exit(run.main({argv!r}))
"""

# counters that must repeat exactly between two traced runs of the same code
REPEATING = ("autodiff.nodes", "gmm.em_iters", "optim.adam_step.calls",
             "prompts.select.calls", "rng.child.calls")


def _shrunk_run(workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
            "--trace", str(trace)]
    proc = subprocess.run([sys.executable, "-c", SHRINK.format(here=HERE, argv=argv)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_named_metric(workload):
    table, result = _shrunk_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    names = {line.split()[0] for line in table if not line.startswith("#")}
    assert set(want) | run.TABLE_ONLY | {"faa", "forgetting", "task1_precision"} <= names
    assert any(line.startswith("# env ") for line in table)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    _, first = _shrunk_run(workload, trace=1)
    _, second = _shrunk_run(workload, trace=1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name in REPEATING:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_matches_the_code():
    import tracer
    run.load_package()
    import workloads
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        tracer.metric_specs()
    assert BENCH["paths"] == ["perfbench"]


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = [i / 1000 for i in range(1, 101)]   # 1..100 ms
    value, pct = run.tail_ms(lat)
    assert value == pytest.approx(90.0) and pct == 90.0
    assert sum(x * 1e3 > value for x in lat) == 10


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", WORKLOAD_NAMES[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
