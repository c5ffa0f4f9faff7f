from dataclasses import replace

import numpy as np
import pytest

from promptcl import encoders as enc
from promptcl import featureio, gmm
from promptcl import scenario as sc


def test_same_spec_twice_identical():
    spec = sc.ScenarioSpec(num_tasks=3, classes_per_task=2, seed=7)
    a = sc.generate_scenario(spec)
    b = sc.generate_scenario(spec)
    for ta, tb in zip(a.tasks, b.tasks):
        np.testing.assert_array_equal(ta.train_x, tb.train_x)
        np.testing.assert_array_equal(ta.test_y, tb.test_y)


def test_disjoint_class_ids_and_shapes():
    spec = sc.ScenarioSpec(num_tasks=4, classes_per_task=3, train_per_class=5,
                           test_per_class=2, patches=4, patch_dim=8)
    stream = sc.generate_scenario(spec)
    seen = set()
    for task in stream.tasks:
        assert not (set(task.class_ids) & seen)
        seen.update(task.class_ids)
        assert task.train_x.shape == (15, 4, 8)
        assert task.test_x.shape == (6, 4, 8)
    assert len(stream.class_names) == 12


def test_zero_separation_collapses_classes():
    spec = sc.ScenarioSpec(num_tasks=2, classes_per_task=2, separation=0.0,
                           noise=0.1, seed=3)
    stream = sc.generate_scenario(spec)
    means = []
    for task in stream.tasks:
        for cid in task.class_ids:
            means.append(task.train_x[task.train_y == cid].reshape(20, -1).mean(0))
    gaps = [np.linalg.norm(a - b) for a in means for b in means]
    assert max(gaps) < 1.0  # all class means coincide up to sampling noise


def test_bimodal_classes_have_two_modes():
    spec = sc.ScenarioSpec(num_tasks=1, classes_per_task=2, train_per_class=100,
                           kind="bimodal-clusters", separation=6.0, noise=0.3,
                           seed=11, patches=2, patch_dim=4)
    stream = sc.generate_scenario(spec)
    task = stream.tasks[0]
    for cid in task.class_ids:
        pts = task.train_x[task.train_y == cid].reshape(-1, 8).astype(np.float64)
        fit = gmm.fit_em(pts, gmm.EMConfig(m=2, seed=1))
        inter = np.linalg.norm(fit.means[0] - fit.means[1])
        intra = np.sqrt(fit.covs.max())
        assert inter > 3.0 * intra


def test_invalid_specs_rejected():
    for key in ("num_tasks", "classes_per_task", "patches", "patch_dim"):
        with pytest.raises(sc.ScenarioError, match=f"^{key} must be >= 1"):
            sc.ScenarioSpec(**{key: 0})
    with pytest.raises(sc.ScenarioError):
        sc.ScenarioSpec(kind="mystery")
    with pytest.raises(sc.ScenarioError):
        sc.ScenarioSpec(kind="feature-file")
    with pytest.raises(sc.ScenarioError, match="noise"):
        sc.ScenarioSpec(noise=-1.0)
    with pytest.raises(sc.ScenarioError, match="separation"):
        sc.ScenarioSpec(separation=-2.0)


@pytest.mark.parametrize("field, value, key", [
    ("separation", float("nan"), "separation"), ("noise", float("inf"), "noise"),
    ("noise", True, "noise"), ("seed", 1.5, "scenario_seed"), ("num_tasks", 2.5, "num_tasks"),
    ("patches", "4", "patches"), ("test_per_class", False, "test_per_class"),
    ("feature_path", 57, "feature_path")])  # an int would be read as a file descriptor
def test_spec_field_types_are_checked(field, value, key):
    with pytest.raises(sc.ScenarioError, match=f"^{key} must be an? "):
        sc.ScenarioSpec(**{field: value})


@pytest.mark.parametrize("kind", sc.KINDS)
@pytest.mark.parametrize("key", ["train_per_class", "test_per_class"])
def test_negative_sample_counts_name_the_key(kind, key):
    with pytest.raises(sc.ScenarioError, match=f"^{key} must be >= "):
        sc.ScenarioSpec(kind=kind, feature_path="feats.bin", **{key: -3})


def test_feature_file_split_needs_a_count():
    # the counts only set the split ratio, which both being 0 leaves undefined
    sc.ScenarioSpec(kind="feature-file", feature_path="feats.bin", train_per_class=0)
    with pytest.raises(sc.ScenarioError, match="cannot both be 0"):
        sc.ScenarioSpec(kind="feature-file", feature_path="feats.bin",
                        train_per_class=0, test_per_class=0)


def test_feature_file_stream(tmp_path):
    rng = np.random.default_rng(0)
    feats, labels = [], []
    for cid in range(4):
        feats.append(rng.normal(size=(12, 6)).astype(np.float32) + 5 * cid)
        labels.append(np.full(12, cid, np.uint32))
    path = tmp_path / "feats.bin"
    featureio.write_feature_file(path, np.concatenate(feats), np.concatenate(labels))
    config = enc.EncoderConfig(d=8, d_prime=8, L=1, heads=2, seq_len=5, patch_dim=3)
    spec = sc.ScenarioSpec(num_tasks=2, classes_per_task=2, kind="feature-file",
                           feature_path=str(path), train_per_class=8, test_per_class=4,
                           patches=config.patches, patch_dim=config.patch_dim)
    stream = sc.generate_scenario(spec)
    assert [t.class_ids for t in stream.tasks] == [[0, 1], [2, 3]]
    task = stream.tasks[0]
    assert len(task.train_y) + len(task.test_y) == 24
    # 6-wide rows become token grids that run the full vision path
    assert task.train_x.shape == (len(task.train_y), 4, 3)
    assert task.train_x.dtype == np.float32
    enc.vision_encode(enc.build_stack(config, 0), task.train_x)

    def grids(s):
        x = np.concatenate([x for t in sc.generate_scenario(s).tasks
                            for x in (t.train_x, t.test_x)])
        return x.reshape(len(x), -1)

    assert grids(spec).tobytes() == grids(spec).tobytes()
    # each column sorted, so a new train/test split alone would not differ
    other = np.sort(grids(replace(spec, seed=1)), axis=0)
    assert not np.array_equal(np.sort(grids(spec), axis=0), other)


def test_feature_file_too_few_classes(tmp_path):
    path = tmp_path / "feats.bin"
    featureio.write_feature_file(path, np.zeros((4, 3), np.float32),
                                 np.zeros(4, np.uint32))
    spec = sc.ScenarioSpec(num_tasks=3, classes_per_task=2, kind="feature-file",
                           feature_path=str(path))
    with pytest.raises(sc.ScenarioError):
        sc.generate_scenario(spec)


def test_permute_classes_reshuffles_but_preserves_data():
    spec = sc.ScenarioSpec(num_tasks=3, classes_per_task=2, seed=5)
    stream = sc.generate_scenario(spec)
    shuffled = sc.permute_classes(stream, seed=1996)
    orig_order = [c for t in stream.tasks for c in t.class_ids]
    new_order = [c for t in shuffled.tasks for c in t.class_ids]
    assert sorted(orig_order) == sorted(new_order)
    assert orig_order != new_order
    # per-class sample sets unchanged
    cid = new_order[0]
    orig = np.concatenate([t.train_x[t.train_y == cid] for t in stream.tasks
                           if cid in t.class_ids])
    new = np.concatenate([t.train_x[t.train_y == cid] for t in shuffled.tasks
                          if cid in t.class_ids])
    np.testing.assert_array_equal(orig, new)


def test_permutations_differ_across_default_seeds():
    spec = sc.ScenarioSpec(num_tasks=5, classes_per_task=4, train_per_class=2,
                           test_per_class=1)
    stream = sc.generate_scenario(spec)
    orders = []
    for seed in (1993, 1996, 1997):
        shuffled = sc.permute_classes(stream, seed)
        orders.append(tuple(c for t in shuffled.tasks for c in t.class_ids))
    assert len(set(orders)) == 3
