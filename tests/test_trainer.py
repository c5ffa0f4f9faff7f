import hashlib
import json

import numpy as np
import pytest

from promptcl import scenario as sc
from promptcl import trainer as tr
from promptcl.encoders import EncoderConfig

# small stack + scenario so the full multi-task loop stays fast
CFG = EncoderConfig(d=16, d_prime=32, L=2, heads=2, seq_len=5, patch_dim=8)
HP = tr.Hyperparams(E1=10, E2=3, lambda1=0.5, lambda2=0.5, lr1=0.05, lr2=0.01,
                    M=2, n_replay=16, batch_size=16)


def small_stream(num_tasks=3, classes_per_task=2, seed=5, kind="separable-clusters"):
    spec = sc.ScenarioSpec(num_tasks=num_tasks, classes_per_task=classes_per_task,
                           train_per_class=12, test_per_class=6, kind=kind,
                           separation=4.0, noise=0.5, seed=seed,
                           patches=CFG.patches, patch_dim=CFG.patch_dim)
    return sc.generate_scenario(spec)


def run_stream(stream, variant=None, hp=HP, seed=1993):
    state = tr.new_state(CFG, seed=seed, variant=variant,
                         feature_space=stream.feature_space)
    for task in stream.tasks:
        tr.train_task(state, task, hp, stream.class_names)
    return state


def books_hash(books, cids):
    h = hashlib.sha256()
    for cid in sorted(cids):
        h.update(books.p[cid].tobytes())
        h.update(books.Q[cid].tobytes())
        h.update(books.A[cid].tobytes())
    return h.hexdigest()


def test_preset_imagenet_r_values():
    hp = tr.preset("imagenet_r")
    assert (hp.E1, hp.lambda1, hp.lr1) == (50, 30.0, 0.05)
    assert (hp.E2, hp.lambda2, hp.lr2) == (10, 30.0, 0.001)
    assert (hp.M, hp.n_replay, hp.batch_size) == (5, 256, 16)
    with pytest.raises(tr.TrainerError):
        tr.preset("imagenet")


def test_hyperparams_validation():
    with pytest.raises(tr.TrainerError):
        tr.Hyperparams(0, 1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(tr.TrainerError):
        tr.Hyperparams(1, 1, -1, 1, 1, 1, 1, 1, 1)


def test_variant_validation():
    assert tr.check_variant(None) is None
    assert tr.check_variant("no_replay") == "no_replay"
    with pytest.raises(tr.TrainerError):
        tr.check_variant("turbo")


def test_single_task_separable_accuracy():
    stream = small_stream(num_tasks=1, classes_per_task=3)
    state = run_stream(stream)
    task = stream.tasks[0]
    preds, _, _ = tr.predict_batch(state, task.train_x)
    assert np.mean(np.asarray(preds) == task.train_y) >= 0.95


def test_freeze_invariance_across_tasks():
    stream = small_stream()
    state = tr.new_state(CFG, seed=1993)
    hashes = {}
    for task in stream.tasks:
        tr.train_task(state, task, HP, stream.class_names)
        for done in range(task.task_id + 1):
            cids = stream.tasks[done].class_ids
            h = books_hash(state.books, cids)
            if done in hashes:
                assert h == hashes[done], f"task {done} prompts changed"
            hashes[done] = h


def test_key_cache_coherence():
    from promptcl import prompts as pr
    stream = small_stream()
    state = run_stream(stream)
    fresh = pr.compute_keys(state.books, state.stack, state.class_embeds)
    assert sorted(fresh) == sorted(state.books.keys)
    for cid, w in state.books.keys.items():
        np.testing.assert_array_equal(w, fresh[cid])


def test_out_of_order_and_empty_task_rejected():
    stream = small_stream()
    state = tr.new_state(CFG, seed=0)
    with pytest.raises(tr.TrainerError):
        tr.train_task(state, stream.tasks[1], HP)
    empty = sc.Task(task_id=0, class_ids=[0], train_x=np.zeros((0, 4, 8)),
                    train_y=np.zeros(0, np.int64), test_x=np.zeros((0, 4, 8)),
                    test_y=np.zeros(0, np.int64))
    with pytest.raises(tr.TrainerError):
        tr.train_task(state, empty, HP)


def test_predict_untrained_errors_and_logit_width():
    state = tr.new_state(CFG, seed=0)
    with pytest.raises(tr.TrainerError):
        tr.predict_batch(state, np.zeros((1, 4, 8), np.float32))
    stream = small_stream(num_tasks=3, classes_per_task=2)
    state = run_stream(stream)
    _, logits, _ = tr.predict_batch(state, stream.tasks[0].test_x)
    assert logits.shape[1] == 6  # tasks of sizes 2,2,2
    with pytest.raises(tr.TrainerError, match="batch"):
        tr.predict_batch(state, stream.tasks[0].test_x[0])


def test_conditioned_cls_rows_equal_single_sample_forwards():
    from promptcl import prompts as pr
    from promptcl.encoders import embed_tokens, vision_encode, vit_forward

    stream = small_stream(num_tasks=2)
    state = run_stream(stream)
    x = stream.tasks[1].test_x
    z = vision_encode(state.stack, x)
    tokens = embed_tokens(state.stack, x)
    sel = tr._select_batch(state, z)
    feats = tr._conditioned_cls(state, tokens, sel).data
    for i in range(len(x)):
        res = pr.build_residual(state.books.Q[int(sel.class_id[i])], float(sel.sim[i]))
        one = vit_forward(state.stack, tokens=tokens[i], residuals=res)
        assert feats[i].tobytes() == one.data.tobytes()


def test_unimodal_forces_single_component():
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant="unimodal")
    assert state.bank1 and state.bank2
    for bank in (state.bank1, state.bank2):
        assert all(mog.m == 1 for mog in bank.values())


def test_no_replay_skips_banks():
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant="no_replay")
    assert not state.bank1 and not state.bank2


def test_first_level_only_leaves_second_level_untouched():
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant="first_level_only")
    assert not state.heads.heads
    for cid in state.books.class_ids:
        assert not state.books.Q[cid].any()
        assert (state.books.A[cid] == 1.0).all()
    preds, logits, _ = tr.predict_batch(state, stream.tasks[0].test_x)
    assert logits.shape[1] == len(state.books.class_ids)
    acc = np.mean(np.asarray(preds) == stream.tasks[0].test_y)
    assert acc >= 0.5  # key posteriors alone classify above chance


def test_no_first_level_uses_static_keys():
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant="no_first_level")
    # keys exist for every class but no first-level mixture was fitted
    assert sorted(state.books.keys) == state.books.class_ids
    assert not state.bank1
    # prompts p were never trained: still at their tiny init scale
    for cid in state.books.class_ids:
        assert np.linalg.norm(state.books.p[cid]) < 0.5


def test_prefix_tuning_variant_shapes():
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant="prefix_tuning")
    assert state.books.prefix_tokens == tr.PREFIX_TOKENS
    for cid in state.books.class_ids:
        assert state.books.Q[cid].shape == (CFG.L, 2 * tr.PREFIX_TOKENS, CFG.d_prime)
    preds, _, _ = tr.predict_batch(state, stream.tasks[0].test_x)
    assert len(preds) == len(stream.tasks[0].test_y)


def test_no_conf_mod_variant_trains():
    stream = small_stream(num_tasks=1)
    state = run_stream(stream, variant="no_conf_mod")
    t = stream.tasks[0]
    preds, _, _ = tr.predict_batch(state, t.train_x)
    assert np.mean(np.asarray(preds) == t.train_y) >= 0.9


def test_determinism_same_seed():
    stream = small_stream(num_tasks=2)
    a = run_stream(stream, seed=7)
    b = run_stream(stream, seed=7)
    _, la, _ = tr.predict_batch(a, stream.tasks[0].test_x)
    _, lb, _ = tr.predict_batch(b, stream.tasks[0].test_x)
    np.testing.assert_array_equal(la, lb)
    for cid in a.books.class_ids:
        np.testing.assert_array_equal(a.books.p[cid], b.books.p[cid])


def test_checkpoint_round_trip(tmp_path):
    from promptcl import featureio
    from promptcl import prompts as pr
    stream = small_stream(num_tasks=2)
    state = run_stream(stream)
    tr.save_checkpoint(state, tmp_path)
    back = tr.load_checkpoint(tmp_path)
    assert back.stack.config == state.stack.config
    assert back.current_task == state.current_task
    assert back.books.task_of == state.books.task_of
    x = stream.tasks[1].test_x
    pa, la, ca = tr.predict_batch(state, x)
    pb, lb, cb = tr.predict_batch(back, x)
    assert pa == pb and ca == cb
    np.testing.assert_allclose(la, lb, atol=1e-6)
    with open(tmp_path / "trainer.json") as f:
        meta = json.load(f)
    assert meta["current_task"] == 1

    # older checkpoints also stored each class's freeze flag and the task ->
    # class lists; a reader ignores both
    books_path = tmp_path / "codebooks.bin"
    arrays = featureio.read_archive(books_path, pr.CODEBOOK_MAGIC)
    old = {k: arrays[k] for k in ("meta", "class_ids")}
    old["trainable"] = np.zeros(len(arrays["class_ids"]), np.int64)
    old.update((k, v) for k, v in arrays.items() if k not in old)
    featureio.write_archive(books_path, pr.CODEBOOK_MAGIC, old)
    meta["task_classes"] = {str(t): [int(c) for c in task.class_ids]
                            for t, task in enumerate(stream.tasks)}
    with open(tmp_path / "trainer.json", "w") as f:
        json.dump(meta, f)
    older = tr.load_checkpoint(tmp_path)
    assert older.books.task_of == back.books.task_of
    po, lo, co = tr.predict_batch(older, x)
    assert po == pb and co == cb
    assert lo.tobytes() == lb.tobytes()


def test_feature_space_stream_trains(tmp_path):
    from promptcl import featureio
    rng = np.random.default_rng(3)
    feats, labels = [], []
    for cid in range(4):
        center = np.zeros(CFG.d, np.float32)
        center[cid % CFG.d] = 4.0
        feats.append(center + rng.normal(scale=0.2, size=(16, CFG.d)).astype(np.float32))
        labels.append(np.full(16, cid, np.uint32))
    path = tmp_path / "feats.bin"
    featureio.write_feature_file(path, np.concatenate(feats), np.concatenate(labels))
    spec = sc.ScenarioSpec(num_tasks=2, classes_per_task=2, kind="feature-file",
                           feature_path=str(path), train_per_class=12, test_per_class=4)
    stream = sc.generate_scenario(spec)
    state = run_stream(stream)
    assert state.current_task == 1
    acc = tr.evaluate(state, stream.tasks[1])
    assert 0.0 <= acc <= 1.0
