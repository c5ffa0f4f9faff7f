import hashlib
import json
import os
import resource
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_acceptance import TINY_CONFIG

from promptcl import autodiff as ad
from promptcl import cli
from promptcl import featureio, gmm
from promptcl import losses as ls
from promptcl import prompts as pr
from promptcl import scenario as sc
from promptcl import trainer as tr
from promptcl.encoders import EncoderConfig
from promptcl.rng import Rng

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
    state = tr.new_state(CFG, seed=seed, variant=variant)
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
    # values that cannot train: each would fail mid-training or with a TypeError
    for field, value in [("lr1", float("nan")), ("lr2", float("inf")), ("lr1", 0.0),
                         ("lambda1", -float("inf")), ("lambda2", float("inf")),
                         ("lambda1", True), ("lr2", "0.01"), ("E1", 2.5), ("E2", 0),
                         ("M", True), ("n_replay", "8"), ("batch_size", float("nan"))]:
        with pytest.raises(tr.TrainerError, match=f"'{field}' must be"):
            replace(tr.preset("synthetic"), **{field: value})
    # numpy scalars are numbers too
    hp = replace(tr.preset("synthetic"), E1=np.int64(2), lr1=np.float32(0.05))
    assert (hp.E1, hp.lr1) == (2, np.float32(0.05))


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


def test_finished_heads_move_only_through_replay(monkeypatch):
    # under no_replay a finished task's head columns keep their bits; under the
    # full method only stage-2 replay moves them
    stream = small_stream()
    real, before_replay = tr._stage2_replay, []

    def recording(state, hp, rng):
        before_replay.append((state.heads.W.copy(), state.heads.b.copy()))
        real(state, hp, rng)

    monkeypatch.setattr(tr, "_stage2_replay", recording)
    for variant in ("no_replay", None):
        state = tr.new_state(CFG, seed=1993, variant=variant)
        before_replay.clear()
        ends = []
        for task in stream.tasks:
            tr.train_task(state, task, HP, stream.class_names)
            ends.append((state.heads.W.copy(), state.heads.b.copy()))
        assert len(before_replay) == (0 if variant else len(stream.tasks))
        for k in range(1, len(ends)):
            (w0, b0), (w1, b1) = ends[k - 1], ends[k]
            for s in state.heads.spans[:k]:
                if variant == "no_replay":
                    assert w0[:, s].tobytes() == w1[:, s].tobytes()
                    assert b0[s].tobytes() == b1[s].tobytes()
                else:
                    w, b = before_replay[k]  # task k's stages 1 and 2 left them alone
                    assert w[:, s].tobytes() == w0[:, s].tobytes()
                    assert b[s].tobytes() == b0[s].tobytes()
                    assert w1[:, s].tobytes() != w0[:, s].tobytes()
    # predict_batch's logit columns follow heads.classes
    x, heads = stream.tasks[0].test_x, state.heads
    preds, logits, _ = tr.predict_batch(state, x)
    assert logits.shape[1] == len(heads.classes) == 6
    perm = [3, 0, 5, 1, 4, 2]
    heads.W, heads.b = heads.W[:, perm], heads.b[perm]
    heads.classes = [heads.classes[i] for i in perm]
    moved, moved_logits, _ = tr.predict_batch(state, x)
    assert moved == preds
    np.testing.assert_allclose(moved_logits, logits[:, perm], rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("variant", [None, "no_first_level"])
def test_key_cache_coherence(variant):
    stream = small_stream()
    state = run_stream(stream, variant=variant)
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


@pytest.mark.parametrize("variant", [None, "prefix_tuning", "first_level_only"])
def test_predict_batch_of_zero_and_one_rows(variant):
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant=variant, hp=replace(HP, E1=2, E2=1))
    x = stream.tasks[1].test_x
    preds, logits, chosen = tr.predict_batch(state, x[:0])
    assert (preds, logits.shape, chosen) == ([], (0, 4), [])
    preds, logits, chosen = tr.predict_batch(state, x[:1])
    assert logits.shape == (1, 4) and np.isfinite(logits).all()
    full = tr.predict_batch(state, x)
    assert (preds, chosen) == (full[0][:1], full[2][:1])
    # the head product is one GEMM over the batch, so a lone row may round
    # differently in its last bits
    np.testing.assert_allclose(logits, full[1][:1], rtol=0, atol=1e-6)


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


@pytest.mark.parametrize("variant", [None, "first_level_only"])
def test_predict_batch_bytes_do_not_depend_on_chunk_length(monkeypatch, variant):
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant=variant, hp=replace(HP, E1=2, E2=1))
    x = np.concatenate([t.train_x for t in stream.tasks])[:41]
    encoded = []
    real = tr.vision_encode
    monkeypatch.setattr(tr, "vision_encode",
                        lambda stack, x: encoded.append(len(x)) or real(stack, x))
    outs = []
    for chunk in (1, 7, 64, 1000):
        monkeypatch.setattr(tr, "ENCODE_CHUNK", chunk)
        preds, logits, chosen = tr.predict_batch(state, x)
        outs.append((preds, logits.tobytes(), chosen))
    assert encoded == [1] * 41 + [7] * 5 + [6] + [41, 41]
    assert len(outs[0][0]) == 41
    assert all(out == outs[0] for out in outs)


def test_train_task_bytes_do_not_depend_on_chunk_length(monkeypatch):
    # 24 training samples per task: chunks of 7 split both the query
    # encoding and the bank-2 feature pass
    stream = small_stream(num_tasks=2)
    hp = replace(HP, E1=2, E2=1)
    states = []
    for chunk in (7, 1000):
        monkeypatch.setattr(tr, "ENCODE_CHUNK", chunk)
        states.append(run_stream(stream, hp=hp))
    a, b = states
    assert books_hash(a.books, a.books.class_ids) == books_hash(b.books, b.books.class_ids)
    for bank in ("bank1", "bank2"):
        for cid, mog in getattr(a, bank).items():
            assert mog.means.tobytes() == getattr(b, bank)[cid].means.tobytes()
            assert mog.covs.tobytes() == getattr(b, bank)[cid].covs.tobytes()
    for t, (w, bias) in a.heads.heads.items():
        assert w.tobytes() == b.heads.heads[t][0].tobytes()
        assert bias.tobytes() == b.heads.heads[t][1].tobytes()


def _record_embeds(monkeypatch, calls):
    real = tr.embed_tokens
    monkeypatch.setattr(tr, "embed_tokens",
                        lambda stack, x: calls.append(len(x)) or real(stack, x))


def test_predict_batch_embeds_one_chunk_at_a_time(monkeypatch):
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, hp=replace(HP, E1=2, E2=1))
    monkeypatch.setattr(tr, "ENCODE_CHUNK", 4)
    x = np.concatenate([t.train_x for t in stream.tasks])[:3 * 4 + 5]
    calls = []
    _record_embeds(monkeypatch, calls)
    tr.predict_batch(state, x)
    # a fresh set computes every row once, never more than a chunk per call
    assert calls == [4, 4, 4, 4, 1]


def test_stage2_embeds_one_batch_at_a_time(monkeypatch):
    # 24 training samples per task in batches of 8; the bank-2 feature pass
    # runs in chunks of 5
    stream = small_stream(num_tasks=1)
    monkeypatch.setattr(tr, "ENCODE_CHUNK", 5)
    calls, stage2 = [], []
    _record_embeds(monkeypatch, calls)
    real = tr._stage2
    monkeypatch.setattr(tr, "_stage2", lambda *a: real(*a) or stage2.extend(calls))
    run_stream(stream, hp=replace(HP, E1=2, E2=1, batch_size=8))
    assert stage2 == [8, 8, 8] * 2
    assert calls[len(stage2):] == [5, 5, 5, 5, 4]


def test_predict_batch_memory_grows_by_chunk_not_by_set():
    # acceptance geometry; what a fresh set keeps (z, features, selected
    # classes, similarities) grows with it, the work beside it only by the
    # chunks' concatenated outputs
    cfg = EncoderConfig(tau=0.1)
    state = tr.new_state(cfg, seed=0)
    cids = [0, 1, 2, 3]
    pr.extend_codebooks(state.books, cids, Rng(1), 0)
    keys = Rng(2).normal((len(cids), cfg.d))
    state.books.keys = {c: k / np.linalg.norm(k) for c, k in zip(cids, keys)}
    state.heads.add_task(0, cids)
    state.current_task = 0
    extra = {}
    for n in (2 * tr.ENCODE_CHUNK, 16 * tr.ENCODE_CHUNK):
        qs = tr.QuerySet(Rng(n).normal((n, cfg.patches, cfg.patch_dim)))
        tracemalloc.start()
        try:
            tr.predict_batch(state, qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra[n] = peak - sum(a.nbytes for a in (qs.z, qs.feats, qs.cls, qs.sims))
    per_row = (extra[16 * tr.ENCODE_CHUNK] - extra[2 * tr.ENCODE_CHUNK]) / (14 * tr.ENCODE_CHUNK)
    assert per_row < 1024, f"{per_row:.0f} bytes per query beyond the kept state"


@pytest.mark.skipif(not ad.HEAP_KEPT_MAPPED, reason="needs glibc's mallopt")
def test_large_predict_batch_page_fault_budget():
    # acceptance geometry, 400 queries (one 5x4 test set of 100 per class):
    # freed kernel temporaries stay mapped, so a repeat call faults few pages
    cfg = EncoderConfig(tau=0.1)
    state = tr.new_state(cfg, seed=0)
    cids = [0, 1, 2, 3]
    pr.extend_codebooks(state.books, cids, Rng(1), 0)
    keys = Rng(2).normal((len(cids), cfg.d))
    state.books.keys = {c: k / np.linalg.norm(k) for c, k in zip(cids, keys)}
    state.heads.add_task(0, cids)
    state.current_task = 0
    x = Rng(3).normal((400, cfg.patches, cfg.patch_dim))
    tr.predict_batch(state, x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tr.predict_batch(state, x)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def _same_prediction(a, b):
    return a[0] == b[0] and a[1].tobytes() == b[1].tobytes() and a[2] == b[2]


@pytest.mark.parametrize("variant", (None,) + tr.VARIANTS)
def test_query_set_predicts_the_bytes_of_a_fresh_batch(monkeypatch, variant):
    # each test set kept as one QuerySet across tasks, as run_experiment does;
    # new tasks' keys pull some bimodal queries to another class
    stream = small_stream(kind="bimodal-clusters")
    state = tr.new_state(CFG, seed=1993, variant=variant)
    sets = [tr.QuerySet(t.test_x) for t in stream.tasks]
    recomputed = []
    real = tr._conditioned_cls
    monkeypatch.setattr(tr, "_conditioned_cls", lambda state, tokens, sel, *a:
                        recomputed.append(len(tokens)) or real(state, tokens, sel, *a))
    reevals = []
    for task in stream.tasks:
        tr.train_task(state, task, replace(HP, E1=4, E2=1), stream.class_names)
        for j, qs in enumerate(sets[:task.task_id + 1]):
            recomputed.clear()
            kept = tr.predict_batch(state, qs)
            if j < task.task_id:
                reevals.append(sum(recomputed))
            assert _same_prediction(kept, tr.predict_batch(state, qs.x))
    n = len(stream.tasks[0].test_y)
    if variant == "first_level_only":
        assert reevals == [0, 0, 0]
    else:
        assert any(r > 0 for r in reevals) and any(r < n for r in reevals), reevals


def _predicted_set():
    """A state trained on one task, a QuerySet of its test set and the set's
    first prediction."""
    stream = small_stream(num_tasks=1)
    state = run_stream(stream, hp=replace(HP, E1=2, E2=1))
    qs = tr.QuerySet(stream.tasks[0].test_x)
    return state, qs, tr.predict_batch(state, qs)


def test_query_set_recomputes_rows_of_unfinished_tasks():
    state, qs, _ = _predicted_set()
    # a class of the next task, still in training, keyed to query 0
    pr.extend_codebooks(state.books, [99], Rng(4), state.current_task + 1)
    state.books.keys[99] = qs.z[0]
    first = tr.predict_batch(state, qs)
    assert first[2][0] == 99
    state.books.Q[99] = state.books.Q[99] + 0.5
    again = tr.predict_batch(state, qs)
    assert _same_prediction(again, tr.predict_batch(state, qs.x))
    moved = np.asarray(first[2]) == 99
    assert again[1][moved].tobytes() != first[1][moved].tobytes()
    assert again[1][~moved].tobytes() == first[1][~moved].tobytes()


def test_query_set_recomputes_rows_whose_similarity_moved():
    # keys are recomputed after every task; a key that moves while its class
    # stays selected changes the residual's confidence weight
    state, qs, first = _predicted_set()
    c = first[2][0]
    state.books.keys[c] = state.books.keys[c] * np.float32(0.75)
    again = tr.predict_batch(state, qs)
    assert again[2] == first[2]
    assert _same_prediction(again, tr.predict_batch(state, qs.x))
    moved = np.asarray(first[2]) == c
    assert again[1][moved].tobytes() != first[1][moved].tobytes()


def test_query_set_recomputes_rows_that_select_another_class():
    # a finished class with the key and query weights of a selected one ties
    # its similarity bit for bit; the lower id wins and brings its own prompt
    state, qs, first = _predicted_set()
    c = first[2][0]
    books = state.books
    pr.extend_codebooks(books, [-1], Rng(4), state.current_task)
    books.keys[-1], books.A[-1], books.Q[-1] = books.keys[c], books.A[c], books.Q[c] + 0.5
    again = tr.predict_batch(state, qs)
    moved = np.asarray(first[2]) == c
    assert (np.asarray(again[2])[moved] == -1).all()
    assert _same_prediction(again, tr.predict_batch(state, qs.x))
    assert again[1][moved].tobytes() != first[1][moved].tobytes()


def _tiny_stream(tmp_path, num_tasks):
    """The acceptance TINY_CONFIG experiment with ``num_tasks`` tasks: its
    config and the first seed's permuted stream."""
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG.replace("num_tasks = 2", f"num_tasks = {num_tasks}"))
    config = cli.build_experiment(cli.parse_config(path))
    return config, sc.permute_classes(sc.generate_scenario(config.scenario), config.seeds[0])


def _recording(monkeypatch):
    """Record each QuerySet selection and the number of classes each
    ``prompts.similarities`` call scores."""
    sels, scored = [], []
    real_select, real_sims = tr.QuerySet.select, pr.similarities
    monkeypatch.setattr(tr.QuerySet, "select",
                        lambda self, state: sels.append(real_select(self, state)) or sels[-1])
    monkeypatch.setattr(pr, "similarities", lambda z, keys, A, cids:
                        scored.append(len(cids)) or real_sims(z, keys, A, cids))
    return sels, scored


@pytest.mark.parametrize("variant", [None, "first_level_only", "no_first_level",
                                     "prefix_tuning"])
def test_query_set_scores_only_new_classes(tmp_path, monkeypatch, variant):
    # each test set kept as one QuerySet across tasks, as run_experiment does
    config, stream = _tiny_stream(tmp_path, 3)
    state = tr.new_state(config.encoder, seed=config.seeds[0], variant=variant)
    sets = [tr.QuerySet(t.test_x) for t in stream.tasks]
    sels, scored = _recording(monkeypatch)
    for task in stream.tasks:
        tr.train_task(state, task, config.hp, stream.class_names)
        books = state.books
        for qs in sets[:task.task_id + 1]:
            sels.clear()
            scored.clear()
            kept = tr.predict_batch(state, qs)
            # a set seen after an earlier task scores only this task's classes
            first = qs is sets[task.task_id]
            assert scored == [len(books.keys) if first else len(task.class_ids)]
            (sel,) = sels
            want = pr.select(books.keys, qs.z, books.A)
            assert sel.class_id.tobytes() == want.class_id.tobytes()
            assert sel.sim.tobytes() == want.sim.tobytes()
            assert sel.sims.tobytes() == want.sims.tobytes()
            assert _same_prediction(kept, tr.predict_batch(state, qs.x))
    if variant == "first_level_only":
        # logits are the similarities over the temperature
        assert kept[1].tobytes() == (want.sims / config.encoder.tau).tobytes()


def test_query_set_never_keeps_a_class_of_an_unfinished_task(monkeypatch):
    state, qs, _ = _predicted_set()
    books = state.books
    # a class of the next task, still in training, keyed to query 0
    pr.extend_codebooks(books, [99], Rng(4), state.current_task + 1)
    books.keys[99] = qs.z[0] / np.linalg.norm(qs.z[0])
    sels, scored = _recording(monkeypatch)
    assert tr.predict_batch(state, qs)[2][0] == 99
    tr.predict_batch(state, qs)
    assert scored == [1, 1]  # scored again though nothing changed
    # training edits its query weights in place, between two predictions
    books.A[99][::2] *= np.float32(3.0)
    again = tr.predict_batch(state, qs)
    assert scored == [1, 1, 1]
    want = pr.select(books.keys, qs.z, books.A)
    assert sels[-1].sims.tobytes() == want.sims.tobytes()
    assert sels[-1].sim.tobytes() == want.sim.tobytes()
    assert not np.array_equal(sels[-1].sims, sels[0].sims)
    assert _same_prediction(again, tr.predict_batch(state, qs.x))


@pytest.mark.parametrize("variant", [None, "prefix_tuning", "no_conf_mod"])
def test_bank2_fits_the_features_a_query_set_predicts_with(monkeypatch, variant):
    # training's bank-2 features come from the one forward-only path
    stream = small_stream(num_tasks=2)
    state = tr.new_state(CFG, seed=1993, variant=variant)
    fitted = []
    real = tr._fit_bank
    monkeypatch.setattr(tr, "_fit_bank", lambda bank, feats, *a: (
        a[-1] == "mog2" and fitted.append(feats.copy())) or real(bank, feats, *a))
    for task in stream.tasks:
        tr.train_task(state, task, replace(HP, E1=2, E2=1), stream.class_names)
        qs = tr.QuerySet(task.train_x)
        qs.bind(state)
        assert fitted[-1].tobytes() == qs.features(state, qs.select(state)).tobytes()
    assert len(fitted) == len(stream.tasks)


def test_query_set_recomputes_rows_of_a_class_whose_column_was_computed(monkeypatch):
    # doubled query weights re-normalize to the same similarity bits, but the
    # column is computed again, so the rows selecting the class are too
    state, qs, first = _predicted_set()
    c = first[2][0]
    sims = qs.sims.copy()
    sels, scored = _recording(monkeypatch)
    recomputed = []
    real = tr._conditioned_cls
    monkeypatch.setattr(tr, "_conditioned_cls", lambda state, tokens, sel, *a:
                        recomputed.append(len(tokens)) or real(state, tokens, sel, *a))
    state.books.A[c] *= np.float32(2.0)
    again = tr.predict_batch(state, qs)
    assert scored == [1]
    assert sels[-1].sims.tobytes() == sims.tobytes()
    assert sum(recomputed) == first[2].count(c) > 0
    assert _same_prediction(again, tr.predict_batch(state, qs.x))


def test_query_set_is_bound_to_one_stack():
    from promptcl.encoders import build_stack
    state, qs, _ = _predicted_set()
    tr.predict_batch(state, qs)
    twin = replace(state, stack=build_stack(CFG, state.stack.seed))
    with pytest.raises(tr.TrainerError, match="another state"):
        tr.predict_batch(twin, qs)


@pytest.mark.parametrize("variant", (None,) + tr.VARIANTS)
def test_training_and_prediction_build_float32_tensors(monkeypatch, variant):
    built = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda out, *rest: built.append(
        (rest[-1], out.dtype)) or make(out, *rest))
    stream = small_stream(num_tasks=2)
    state = run_stream(stream, variant=variant, hp=replace(HP, E1=1, E2=1))
    tr.predict_batch(state, stream.tasks[0].test_x)
    assert built
    assert {dtype for _, dtype in built} == {np.dtype(np.float32)}, \
        sorted({op for op, dtype in built if dtype != np.float32})


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


def _ids(arrays, prefix):
    """The ids ``i`` of an archive's entries named ``prefix{i}``."""
    return np.array(sorted(int(k[len(prefix):]) for k in arrays if k.startswith(prefix)),
                    np.int64)


def _add_older_entries(ckpt, books, edit_books=None, current_task=7):
    """Rewrite a checkpoint as the older format wrote it: the geometry first
    in codebooks.bin (``meta``) and heads.bin (``d_prime``), then heads.bin's
    task list (``tasks``), each bank's class list (``class_ids``) and
    trainer.json's ``current_task``, here ``current_task``, and
    ``feature_space``, false; ``edit_books`` may change the codebook entries too."""
    meta = np.array([books.d, books.L, books.d_prime, books.prefix_tokens], np.int64)
    bank_ids = lambda a: {"class_ids": _ids(a, "mu")}  # noqa: E731
    older = {"codebooks.bin": (pr.CODEBOOK_MAGIC, lambda a: {"meta": meta}),
             "heads.bin": (ls.HEADS_MAGIC,
                           lambda a: {"d_prime": np.array([books.d_prime], np.int64),
                                      "tasks": _ids(a, "classes")}),
             "bank1.bin": (gmm.MOG_MAGIC, bank_ids), "bank2.bin": (gmm.MOG_MAGIC, bank_ids)}
    for name, (magic, first) in older.items():
        if not (ckpt / name).exists():
            continue
        arrays = featureio.read_archive(ckpt / name, magic)
        if edit_books and name == "codebooks.bin":
            edit_books(arrays)
        featureio.write_archive(ckpt / name, magic, {**first(arrays), **arrays})
    trainer_json = json.loads((ckpt / "trainer.json").read_text())
    trainer_json["current_task"] = current_task
    trainer_json["feature_space"] = False
    (ckpt / "trainer.json").write_text(json.dumps(trainer_json, indent=2, sort_keys=True))


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """variant -> (stream, directory) of a 2-task checkpoint, trained once."""
    cache = {}

    def get(variant):
        if variant not in cache:
            stream = small_stream(num_tasks=2)
            path = tmp_path_factory.mktemp(f"ckpt-{variant}")
            tr.save_checkpoint(run_stream(stream, variant=variant), path)
            cache[variant] = stream, path
        return cache[variant]
    return get


@pytest.mark.parametrize("variant", (None,) + tr.VARIANTS)
def test_older_format_checkpoint_predicts_the_same(tmp_path, trained_checkpoint,
                                                    variant):
    stream, path = trained_checkpoint(variant)
    x = np.concatenate([task.test_x for task in stream.tasks])
    fresh = tr.load_checkpoint(path)
    want = tr.predict_batch(fresh, x)
    shutil.copytree(path, tmp_path, dirs_exist_ok=True)

    def untrained_prompts(arrays):
        # the older no_first_level kept each class's random initial prompt
        # and stored the hand-crafted keys, which no prompt reproduces
        for c in fresh.books.class_ids:
            arrays[f"p{c}"] = Rng(c).normal((CFG.d,), std=pr.PROMPT_INIT_STD)

    _add_older_entries(tmp_path, fresh.books,
                       untrained_prompts if variant == "no_first_level" else None)
    older = tr.load_checkpoint(tmp_path)
    assert older.current_task == 1  # not the stale current_task
    got = tr.predict_batch(older, x)
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("variant", [None, "prefix_tuning"])
def test_float64_codebook_predicts_the_bytes_of_float32(tmp_path, trained_checkpoint,
                                                        variant):
    stream, path = trained_checkpoint(variant)
    x = np.concatenate([task.test_x for task in stream.tasks])
    want = tr.predict_batch(tr.load_checkpoint(path), x)
    shutil.copytree(path, tmp_path, dirs_exist_ok=True)
    arrays = featureio.read_archive(tmp_path / "codebooks.bin", pr.CODEBOOK_MAGIC)
    featureio.write_archive(tmp_path / "codebooks.bin", pr.CODEBOOK_MAGIC,
                            {k: v.astype(np.float64) if v.dtype == np.float32 else v
                             for k, v in arrays.items()})
    state = tr.load_checkpoint(tmp_path)
    assert all(q.dtype == np.float32 for q in state.books.Q.values())
    got = tr.predict_batch(state, x)
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1].tobytes() == want[1].tobytes()


def test_edited_current_task_changes_nothing(tmp_path, trained_checkpoint):
    # the last task is codebooks.bin's; a current_task in trainer.json, as
    # older checkpoints wrote it, is not read
    stream, path = trained_checkpoint(None)
    x = np.concatenate([task.test_x for task in stream.tasks])
    want = tr.predict_batch(tr.load_checkpoint(path), x)
    shutil.copytree(path, tmp_path, dirs_exist_ok=True)
    meta = json.loads((tmp_path / "trainer.json").read_text())
    for stale in (7, 0, -1, 0.5):
        meta["current_task"] = stale
        (tmp_path / "trainer.json").write_text(json.dumps(meta))
        state = tr.load_checkpoint(tmp_path)
        assert state.current_task == 1
        got = tr.predict_batch(state, x)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("variant", [None, "prefix_tuning", "no_first_level",
                                     "first_level_only"])
def test_load_checkpoint_reads_every_saved_entry(monkeypatch, trained_checkpoint, variant):
    # an entry written but never read states a fact twice, or states one
    # nothing checks
    _, path = trained_checkpoint(variant)
    read = set()
    for module in (pr, ls, gmm):
        def recording(arrays, file, name, *args, _entry=module.archive_entry):
            read.add((os.path.basename(file), name))
            return _entry(arrays, file, name, *args)
        monkeypatch.setattr(module, "archive_entry", recording)
    tr.load_checkpoint(path)
    magics = {"codebooks.bin": pr.CODEBOOK_MAGIC, "heads.bin": ls.HEADS_MAGIC,
              "bank1.bin": gmm.MOG_MAGIC, "bank2.bin": gmm.MOG_MAGIC}
    written = {(name, entry) for name, magic in magics.items() if (path / name).exists()
               for entry in featureio.read_archive(path / name, magic)}
    assert written and written - read == set()


@pytest.mark.parametrize("variant", [None, "first_level_only"])
def test_trainer_json_holds_only_the_keys_it_is_read_by(trained_checkpoint, variant):
    # a key written but not checked on reading states a fact nothing reads
    _, path = trained_checkpoint(variant)
    assert set(json.loads((path / "trainer.json").read_text())) == set(tr._META_TYPES)


def test_checkpoint_round_trip(tmp_path):
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
        assert "current_task" not in json.load(f)  # codebooks.bin's last task

    # older checkpoints also stored the geometry in both archives, each
    # class's freeze flag, the task -> class lists, the head and bank lists
    # and the last task; a reader ignores them
    _add_older_entries(tmp_path, back.books, current_task=1)
    books_path = tmp_path / "codebooks.bin"
    arrays = featureio.read_archive(books_path, pr.CODEBOOK_MAGIC)
    old = {k: arrays[k] for k in ("meta", "class_ids")}
    old["trainable"] = np.zeros(len(arrays["class_ids"]), np.int64)
    old.update((k, v) for k, v in arrays.items() if k not in old)
    featureio.write_archive(books_path, pr.CODEBOOK_MAGIC, old)
    with open(tmp_path / "trainer.json") as f:
        meta = json.load(f)
    meta["task_classes"] = {str(t): [int(c) for c in task.class_ids]
                            for t, task in enumerate(stream.tasks)}
    with open(tmp_path / "trainer.json", "w") as f:
        json.dump(meta, f)
    older = tr.load_checkpoint(tmp_path)
    assert older.books.task_of == back.books.task_of
    assert older.current_task == back.current_task
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
                           feature_path=str(path), train_per_class=12, test_per_class=4,
                           patches=CFG.patches, patch_dim=CFG.patch_dim)
    stream = sc.generate_scenario(spec)
    state = run_stream(stream)
    assert state.current_task == 1
    acc = tr.evaluate(state, stream.tasks[1])
    assert 0.0 <= acc <= 1.0
