"""The benchmark's workloads: inputs from a seed, set-up, the timed operation
and the check of its outputs.

Every workload runs the acceptance encoder ``EncoderConfig(tau=0.1)`` with the
``synthetic`` preset, in a closed loop with one caller in one process. The
workload seed sets ``scenario_seed`` and the training seeds; the package only
receives the generated config and inputs.

Training workloads time ``cli.run_experiment`` with checkpoints on, the path
``promptcl run --checkpoint`` takes. The serving workload trains a short
schedule in set-up, reloads the checkpoint and times ``trainer.predict_batch``.
"""
from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from promptcl import cli
from promptcl import metrics as mt
from promptcl import scenario as sc
from promptcl import trainer as tr
from promptcl.encoders import EncoderConfig, build_stack

from tracer import Patcher

ENCODER = EncoderConfig(tau=0.1)
QUALITY = ("faa", "forgetting", "task1_precision")
EVAL_BATCH_PER_CLASS = 10   # 4 classes x 10 = the 40 queries evaluate sends per task
MISMATCH_BOUND = 1 / 40     # share of a batch that may disagree with the reference
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    num_tasks: int
    classes_per_task: int
    kind: str
    separation: float
    noise: float
    hp: dict = field(default_factory=dict)   # overrides of the synthetic preset
    train_per_class: int = 20
    test_per_class: int = 10
    run_seeds: int = 1          # training seeds in one experiment
    serve: bool = False         # time predict_batch on a reloaded checkpoint
    setup_reps: int = 21        # set-ups per untraced run; setup_s is their median
    trace_ops: int = 1          # timed operations in a traced run

    def seeds(self, seed: int) -> tuple:
        return tuple(2 * seed + 1 + i for i in range(self.run_seeds))

    def config(self, seed: int, out: str) -> cli.ExperimentConfig:
        spec = sc.ScenarioSpec(
            num_tasks=self.num_tasks, classes_per_task=self.classes_per_task,
            train_per_class=self.train_per_class, test_per_class=self.test_per_class,
            kind=self.kind, separation=self.separation, noise=self.noise, seed=seed,
            patches=ENCODER.patches, patch_dim=ENCODER.patch_dim)
        hp = replace(tr.preset("synthetic"), **self.hp)
        return cli.ExperimentConfig(scenario=spec, encoder=ENCODER, hp=hp,
                                    seeds=self.seeds(seed), out=out)


# why each workload exists: BENCHMARK.json ("why") and perfbench/NOTES.md
WORKLOADS = {w.name: w for w in (
    Workload(
        name="stream-5x4",
        num_tasks=5, classes_per_task=4, kind="separable-clusters",
        separation=3.0, noise=0.5, run_seeds=2),
    Workload(
        name="replay-10x2",
        num_tasks=10, classes_per_task=2, kind="bimodal-clusters",
        separation=1.5, noise=1.0, hp={"n_replay": 256, "M": 5, "E1": 5}),
    Workload(
        name="predict-5x4",
        num_tasks=5, classes_per_task=4, kind="separable-clusters",
        separation=3.0, noise=0.5, hp={"E1": 1, "E2": 1}, test_per_class=100,
        serve=True, setup_reps=3, trace_ops=5),
)}


@dataclass
class OpResult:
    """One timed operation: its wall time and what its outputs showed."""
    seconds: float | None = None           # None when the operation raised
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)   # predict_batch seconds
    queries: int = 0
    quality: list = field(default_factory=list)     # one dict per training seed
    problems: list = field(default_factory=list)


class PredictProbe:
    """Times trainer.predict_batch where evaluate looks it up."""

    def __init__(self):
        self.latencies = []
        self.queries = 0
        self._patcher = Patcher()

    def __enter__(self):
        def make(fn):
            def timed(state, x):
                t0 = time.perf_counter()
                out = fn(state, x)
                self.latencies.append(time.perf_counter() - t0)
                self.queries += len(out[0])
                return out
            return timed
        self._patcher.patch("promptcl.trainer", "predict_batch", make)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def quality_problems(ref: dict, wl: Workload, seed: int, i: int, q: dict) -> list:
    """Quality of training seed ``i`` against the workload's limits and, where
    one was recorded for this workload seed, against the reference."""
    entry = ref["workloads"][wl.name]
    recorded = entry["seeds"].get(str(seed))
    problems = []
    for key in QUALITY:
        lo, hi = entry["limits"][key]
        if not lo <= q[key] <= hi:
            problems.append(f"{key} {q[key]:.4f} outside [{lo}, {hi}]")
        if recorded is not None:
            want = recorded[i][key]
            if abs(q[key] - want) > ref["tolerance"][key]:
                problems.append(f"{key} {q[key]:.4f} differs from the reference "
                                f"{want:.4f} by more than {ref['tolerance'][key]}")
    return problems


# ---------------------------------------------------------------------------
# training workloads


@dataclass
class TrainContext:
    config: cli.ExperimentConfig
    base: sc.TaskStream


def train_setup(wl: Workload, seed: int, out: str) -> TrainContext:
    """Scenario generation and one frozen stack per training seed."""
    config = wl.config(seed, out)
    base = sc.generate_scenario(config.scenario)
    for s in config.seeds:
        build_stack(config.encoder, s)
    return TrainContext(config=config, base=base)


def train_op(ctx: TrainContext, judge) -> OpResult:
    seeds = ctx.config.seeds
    res = OpResult(attempted=len(seeds))
    shutil.rmtree(ctx.config.out, ignore_errors=True)
    try:
        with PredictProbe() as probe:
            t0 = time.perf_counter()
            report = cli.run_experiment(ctx.config, write=True, checkpoint_last=True)
            res.seconds = time.perf_counter() - t0
    except Exception as exc:  # a failed training run is counted, not fatal
        res.failed = len(seeds)
        res.problems.append(f"run_experiment raised {type(exc).__name__}: {exc}")
        return res
    res.latencies, res.queries = probe.latencies, probe.queries
    for i, s in enumerate(seeds):
        matrix = report.per_seed[s]
        q = {"faa": mt.faa(matrix), "forgetting": mt.final_forgetting(matrix),
             "task1_precision": report.precision_curves[s][-1]}
        res.quality.append(q)
        try:
            problems = _check_outputs(ctx, s, matrix) + judge(i, q)
        except Exception as exc:  # unreadable outputs are a failed seed
            problems = [f"seed {s}: checking outputs raised {type(exc).__name__}: {exc}"]
        if problems:
            res.failed += 1
            res.problems += problems
    return res


def _check_outputs(ctx: TrainContext, s: int, matrix) -> list:
    """The written summary and the checkpoint must reproduce the run."""
    problems = []
    out = ctx.config.out
    with open(os.path.join(out, "summary.json")) as f:
        if json.load(f)["faa_per_seed"].get(str(s)) != mt.faa(matrix):
            problems.append(f"seed {s}: summary.json FAA differs from the run")
    if not os.path.exists(os.path.join(out, f"accuracy_seed{s}.csv")):
        problems.append(f"seed {s}: accuracy CSV missing")
    stream = sc.permute_classes(ctx.base, s)
    state = tr.load_checkpoint(os.path.join(out, f"ckpt_seed{s}"))
    accs = [tr.evaluate(state, task) for task in stream.tasks]
    if not np.array_equal(accs, matrix.a[matrix.num_tasks - 1]):
        problems.append(f"seed {s}: reloaded checkpoint does not reproduce "
                        f"the final accuracy row")
    return problems


# ---------------------------------------------------------------------------
# serving workload


@dataclass
class ServeContext:
    config: cli.ExperimentConfig
    report: cli.RunReport
    state: tr.TrainerState
    batches: list = field(default_factory=list)     # (task index, queries, labels)
    reference: list = field(default_factory=list)   # predictions per batch


def serve_setup(wl: Workload, seed: int, out: str) -> ServeContext:
    """Train the short schedule, save the checkpoint and load it back."""
    config = wl.config(seed, out)
    shutil.rmtree(out, ignore_errors=True)
    report = cli.run_experiment(config, write=True, checkpoint_last=True)
    (s,) = config.seeds
    state = tr.load_checkpoint(os.path.join(out, f"ckpt_seed{s}"))
    return ServeContext(config=config, report=report, state=state)


def serve_prepare(ctx: ServeContext, judge):
    """Cut the test sets into evaluate-sized batches and run the reference pass.

    Returns the quality of the reloaded model and the problems found: its
    per-task accuracy must match the final row the training run recorded.
    """
    (s,) = ctx.config.seeds
    stream = sc.permute_classes(sc.generate_scenario(ctx.config.scenario), s)
    for j, task in enumerate(stream.tasks):
        rows = [np.flatnonzero(task.test_y == c) for c in task.class_ids]
        for k in range(0, len(rows[0]), EVAL_BATCH_PER_CLASS):
            idx = np.concatenate([r[k:k + EVAL_BATCH_PER_CLASS] for r in rows])
            ctx.batches.append((j, task.test_x[idx], task.test_y[idx]))
    hits = np.zeros(len(stream.tasks))
    sizes = np.zeros(len(stream.tasks))
    t1_hits = 0
    for j, x, y in ctx.batches:
        preds, _, chosen = tr.predict_batch(ctx.state, x)
        preds = np.asarray(preds)
        ctx.reference.append(preds)
        hits[j] += np.sum(preds == y)
        sizes[j] += len(y)
        if j == 0:
            t1_hits += sum(ctx.state.books.task_of[c] == 0 for c in chosen)
    acc = hits / sizes
    matrix = ctx.report.per_seed[s]
    quality = {"faa": float(acc.mean()),
               "forgetting": mt.final_forgetting(matrix),
               "task1_precision": t1_hits / sizes[0]}
    problems = judge(0, quality)
    if not np.array_equal(acc, matrix.a[matrix.num_tasks - 1]):
        problems.append("reloaded checkpoint does not reproduce the final "
                        "accuracy row of its training run")
    return [quality], problems


def serve_op(ctx: ServeContext) -> OpResult:
    """One pass over every query batch, each checked against the reference."""
    res = OpResult(attempted=len(ctx.batches))
    raised = False
    t_pass = time.perf_counter()
    for (_, x, _), ref in zip(ctx.batches, ctx.reference):
        t0 = time.perf_counter()
        try:
            preds, _, _ = tr.predict_batch(ctx.state, x)
        except Exception as exc:  # a failed batch is counted, not fatal
            res.failed += 1
            res.problems.append(f"predict_batch raised {type(exc).__name__}: {exc}")
            raised = True
            continue
        res.latencies.append(time.perf_counter() - t0)
        res.queries += len(x)
        if np.mean(np.asarray(preds) != ref) > MISMATCH_BOUND:
            res.failed += 1
            res.problems.append("predictions disagree with the reference pass")
    if not raised:
        res.seconds = time.perf_counter() - t_pass
    return res


def setup(wl: Workload, seed: int, out: str):
    return (serve_setup if wl.serve else train_setup)(wl, seed, out)


def prepare(wl: Workload, ctx, judge):
    """Untimed work after set-up: (quality dicts, problems)."""
    return serve_prepare(ctx, judge) if wl.serve else ([], [])


def op(wl: Workload, ctx, judge) -> OpResult:
    """One timed operation; ``judge(i, quality)`` lists quality problems."""
    return serve_op(ctx) if wl.serve else train_op(ctx, judge)
