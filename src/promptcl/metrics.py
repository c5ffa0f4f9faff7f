"""Continual-learning metrics and report emission.

The accuracy matrix a[t][j] holds test accuracy on task j measured after
training task t (lower-triangular). Final average accuracy is the mean of
the last row; final forgetting is the mean, over non-final tasks, of the
best earlier accuracy minus the final one, with each drop clamped at 0 so a
task that improved counts as forgetting nothing. The standard definition
(Chaudhry et al., 2018) does not clamp.
"""

import csv
import json
import os

import numpy as np

from . import PromptclError


class MetricError(PromptclError):
    pass


class AccuracyMatrix:
    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise MetricError("num_tasks must be >= 1")
        self.num_tasks = num_tasks
        self.a = np.full((num_tasks, num_tasks), np.nan)

    def record(self, after_task: int, on_task: int, acc: float) -> None:
        if on_task > after_task:
            raise MetricError(f"a[{after_task}][{on_task}] is upper-triangular")
        if not 0.0 <= acc <= 1.0:
            raise MetricError(f"accuracy {acc} outside [0, 1]")
        self.a[after_task, on_task] = float(acc)

    def row(self, t: int) -> np.ndarray:
        return self.a[t, :t + 1]


def faa(matrix: AccuracyMatrix) -> float:
    """Mean accuracy over all tasks measured after the final task."""
    last = matrix.row(matrix.num_tasks - 1)
    if np.isnan(last).any():
        raise MetricError("final accuracy row is incomplete")
    return float(last.mean())


def final_forgetting(matrix: AccuracyMatrix) -> float:
    """Mean over tasks j < T of max_{t<T} a[t][j] - a[T][j]."""
    T = matrix.num_tasks
    if T == 1:
        raise MetricError("forgetting is undefined for a single task")
    tri = matrix.a[np.tril_indices(T)]
    if np.isnan(tri).any():
        raise MetricError("accuracy matrix is incomplete")
    # drops are clamped at 0 so improving tasks don't report negative forgetting
    drops = [max(0.0, matrix.a[j:T - 1, j].max() - matrix.a[T - 1, j])
             for j in range(T - 1)]
    return float(np.mean(drops))


def retrieval_confusion(owner_of, selections) -> np.ndarray:
    """Bucket selected classes by owning task.

    ``owner_of``: class id -> task index. ``selections``: list over query
    tasks i of the class ids chosen for task i's test queries. Returns
    C[i][j] = fraction of task-i queries whose chosen class belongs to task j.
    """
    t = len(selections)
    C = np.zeros((t, t))
    for i, chosen in enumerate(selections):
        if len(chosen) == 0:
            raise MetricError(f"no selections recorded for task {i}")
        for cid in chosen:
            C[i, owner_of[cid]] += 1.0
        C[i] /= len(chosen)
    return C


def write_csv(path, header, rows):
    """One CSV file: floats as ``%.6f``, None as an empty cell."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in row])


def write_confusion(path, C) -> None:
    """Row i: the share of task-i queries keyed to each task's classes."""
    header = ["query_task"] + [f"task_{j}" for j in range(C.shape[1])]
    write_csv(path, header, [[i] + [float(v) for v in C[i]] for i in range(C.shape[0])])


def matrix_rows(matrix: AccuracyMatrix):
    rows = []
    for t in range(matrix.num_tasks):
        row = [t]
        for j in range(matrix.num_tasks):
            row.append(float(matrix.a[t, j]) if j <= t else "")
        rows.append(row)
    return rows


def summarize(per_seed) -> dict:
    """Per-seed FAA and, where a matrix spans more than one task, final
    forgetting, each with its mean and std across seeds.

    ``per_seed``: dict seed -> AccuracyMatrix.
    """
    seeds = sorted(per_seed)
    faas = [faa(per_seed[s]) for s in seeds]
    summary = {"seeds": seeds,
               "faa_per_seed": {str(s): v for s, v in zip(seeds, faas)},
               "faa_mean": float(np.mean(faas)),
               "faa_std": float(np.std(faas))}
    multi = [s for s in seeds if per_seed[s].num_tasks > 1]
    if multi:
        ffs = [final_forgetting(per_seed[s]) for s in multi]
        summary["ff_per_seed"] = {str(s): v for s, v in zip(multi, ffs)}
        summary["ff_mean"] = float(np.mean(ffs))
        summary["ff_std"] = float(np.std(ffs))
    return summary


def report(out_dir, per_seed, confusions=None, extras=None):
    """Write per-seed accuracy matrices, confusion CSVs, and a JSON summary
    (``summarize`` plus ``extras``).

    ``per_seed``: dict seed -> AccuracyMatrix. ``confusions``: optional dict
    seed -> confusion matrix. Returns written paths.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise MetricError(f"cannot create output dir {out_dir}: {exc}") from exc
    paths = []
    for seed in sorted(per_seed):
        matrix = per_seed[seed]
        header = ["after_task"] + [f"task_{j}" for j in range(matrix.num_tasks)]
        path = os.path.join(out_dir, f"accuracy_seed{seed}.csv")
        write_csv(path, header, matrix_rows(matrix))
        paths.append(path)
    if confusions:
        for seed in sorted(confusions):
            path = os.path.join(out_dir, f"confusion_seed{seed}.csv")
            write_confusion(path, confusions[seed])
            paths.append(path)
    summary = summarize(per_seed)
    if extras:
        summary.update(extras)
    spath = os.path.join(out_dir, "summary.json")
    try:
        with open(spath, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise MetricError(f"cannot write {spath}: {exc}") from exc
    paths.append(spath)
    return paths
