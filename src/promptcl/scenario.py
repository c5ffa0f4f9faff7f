"""Synthetic task streams and precomputed-feature ingestion.

Tasks carry disjoint class id sets; inputs are raw token grids
(patches x patch_dim) so every sample runs through the full vision path.
"""

from dataclasses import dataclass, field

import numpy as np

from . import PromptclError, featureio
from .rng import Rng

KINDS = ("separable-clusters", "bimodal-clusters", "feature-file")


class ScenarioError(PromptclError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    num_tasks: int = 5
    classes_per_task: int = 4
    train_per_class: int = 20
    test_per_class: int = 10
    kind: str = "separable-clusters"
    separation: float = 3.0
    noise: float = 0.5
    seed: int = 0
    patches: int = 16
    patch_dim: int = 16
    feature_path: str | None = None

    def __post_init__(self):
        if self.num_tasks < 1 or self.classes_per_task < 1:
            raise ScenarioError("num_tasks and classes_per_task must be >= 1")
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown generator kind {self.kind!r}")
        if self.kind == "feature-file" and not self.feature_path:
            raise ScenarioError("feature-file kind needs feature_path")
        if self.kind != "feature-file":  # a feature file splits by their ratio
            for name in ("train_per_class", "test_per_class"):
                if getattr(self, name) < 1:
                    raise ScenarioError(f"{name} must be >= 1 for kind {self.kind!r}")


@dataclass
class Task:
    task_id: int
    class_ids: list
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass
class TaskStream:
    tasks: list = field(default_factory=list)
    class_names: dict = field(default_factory=dict)
    feature_space: bool = False  # rows are flat features needing a lift

    def num_classes(self):
        return sum(len(t.class_ids) for t in self.tasks)


def _class_centers(rng, count, dim, separation):
    # random directions scaled to a common radius, pushed apart from origin
    dirs = rng.normal((count, dim), dtype=np.float64)
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    return (dirs * separation).astype(np.float32)


def _sample_class(rng, center, n, noise, bimodal, separation):
    # ``noise`` is the expected perturbation norm, so it is directly
    # comparable to the separation scale regardless of dimensionality
    dim = center.shape[0]
    noise = noise / np.sqrt(dim)
    if not bimodal:
        return center + rng.normal((n, dim), std=noise)
    offset_dir = rng.normal((dim,), dtype=np.float64)
    offset_dir /= max(np.linalg.norm(offset_dir), 1e-12)
    offset = (offset_dir * 0.5 * separation).astype(np.float32)
    modes = rng.integers(0, 2, size=n).astype(np.float32)[:, None]
    sub = center + (2.0 * modes - 1.0) * offset
    return (sub + rng.normal((n, dim), std=noise)).astype(np.float32)


def _class_names(cids) -> dict:
    return {cid: f"class_{cid:03d}" for cid in cids}


def _synthetic_stream(spec: ScenarioSpec) -> TaskStream:
    rng = Rng(spec.seed)
    dim = spec.patches * spec.patch_dim
    per_task = spec.classes_per_task
    total = spec.num_tasks * per_task
    centers = _class_centers(rng.child("centers"), total, dim, spec.separation)
    bimodal = spec.kind == "bimodal-clusters"
    by_class = {}
    for cid in range(total):
        pts = _sample_class(rng.child(("class", cid)), centers[cid],
                            spec.train_per_class + spec.test_per_class, spec.noise,
                            bimodal, spec.separation)
        pts = pts.reshape(-1, spec.patches, spec.patch_dim)
        by_class[cid] = (pts[:spec.train_per_class], pts[spec.train_per_class:])
    groups = [list(range(t * per_task, (t + 1) * per_task)) for t in range(spec.num_tasks)]
    return _assemble(by_class, groups, _class_names(by_class), feature_space=False)


def _feature_stream(spec: ScenarioSpec) -> TaskStream:
    feats, labels = featureio.load_feature_file(spec.feature_path)
    labels = np.asarray(labels, dtype=np.int64)
    present = sorted(set(int(c) for c in labels))
    need = spec.num_tasks * spec.classes_per_task
    if len(present) < need:
        raise ScenarioError(
            f"feature file holds {len(present)} classes, scenario needs {need}")
    rng = Rng(spec.seed)
    by_class = {}
    for cid in present[:need]:
        rows = feats[labels == cid]
        if len(rows) < 2:
            raise ScenarioError(f"class {cid} has fewer than 2 samples")
        order = rng.child(("split", cid)).permutation(len(rows))
        n_test = max(1, int(round(len(rows) * spec.test_per_class /
                                  max(spec.train_per_class + spec.test_per_class, 1))))
        n_test = min(n_test, len(rows) - 1)
        by_class[cid] = (rows[order[n_test:]], rows[order[:n_test]])
    per_task = spec.classes_per_task
    groups = [present[t * per_task:(t + 1) * per_task] for t in range(spec.num_tasks)]
    return _assemble(by_class, groups, _class_names(by_class), feature_space=True)


def generate_scenario(spec: ScenarioSpec) -> TaskStream:
    """Build a deterministic task stream from a spec."""
    if spec.kind == "feature-file":
        return _feature_stream(spec)
    return _synthetic_stream(spec)


def regroup(stream: TaskStream, groups) -> TaskStream:
    """Rebuild ``stream`` with task t holding the classes ``groups[t]``.

    Each class keeps its own train and test samples; only the grouping of
    classes into tasks (and hence the order they appear in) changes.
    """
    by_class = {}
    for task in stream.tasks:
        for cid in task.class_ids:
            by_class[cid] = (task.train_x[task.train_y == cid],
                             task.test_x[task.test_y == cid])
    missing = sorted(c for cids in groups for c in cids if c not in by_class)
    if missing:
        raise ScenarioError(f"stream lacks test samples for classes {missing}")
    return _assemble(by_class, groups, stream.class_names, stream.feature_space)


def _assemble(by_class: dict, groups, class_names: dict, feature_space: bool) -> TaskStream:
    """A stream whose task t holds the classes ``groups[t]``, in that order,
    each with its ``by_class[c] = (train_x, test_x)`` samples."""
    out = TaskStream(class_names=dict(class_names), feature_space=feature_space)
    for t, cids in enumerate(groups):
        tr_x = np.concatenate([by_class[c][0] for c in cids])
        te_x = np.concatenate([by_class[c][1] for c in cids])
        tr_y = np.concatenate([np.full(len(by_class[c][0]), c, np.int64) for c in cids])
        te_y = np.concatenate([np.full(len(by_class[c][1]), c, np.int64) for c in cids])
        out.tasks.append(Task(task_id=t, class_ids=list(cids),
                              train_x=tr_x, train_y=tr_y,
                              test_x=te_x, test_y=te_y))
    return out


def permute_classes(stream: TaskStream, seed: int) -> TaskStream:
    """Reassign classes to tasks under a seeded permutation of class ids."""
    all_cids = sorted(stream.class_names)
    perm = [all_cids[i] for i in Rng(seed).child("class-order").permutation(len(all_cids))]
    per_task = len(stream.tasks[0].class_ids)
    return regroup(stream, [perm[t * per_task:(t + 1) * per_task]
                            for t in range(len(stream.tasks))])
