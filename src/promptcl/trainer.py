"""Two-stage continual training over a frozen transformer stack.

Per task: (1) fit first-level prompts against class-prototype keys, fit
per-class feature mixtures, rehearse the keys on synthetic features;
(2) fit second-level residual prompts, query weights, and a fresh linear
head, fit mixtures on the conditioned CLS features, rehearse every head.
Task identity is never used at prediction time.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import PromptclError
from . import autodiff as ad
from . import gmm
from . import losses as ls
from . import optim
from . import prompts as pr
from .encoders import (EncoderConfig, FrozenStack, build_stack, class_name_embed,
                       embed_tokens, lift_features, vision_encode, vit_forward)
from .rng import Rng
from .scenario import Task, TaskStream

VARIANTS = ("first_level_only", "no_first_level", "prefix_tuning",
            "no_replay", "unimodal", "no_conf_mod")

PREFIX_TOKENS = 5


class TrainerError(PromptclError):
    pass


@dataclass(frozen=True)
class Hyperparams:
    E1: int
    E2: int
    lambda1: float
    lambda2: float
    lr1: float
    lr2: float
    M: int
    n_replay: int
    batch_size: int

    def __post_init__(self):
        for name in ("E1", "E2", "M", "n_replay", "batch_size"):
            if getattr(self, name) < 1:
                raise TrainerError(f"{name} must be positive")
        for name in ("lambda1", "lambda2", "lr1", "lr2"):
            if getattr(self, name) <= 0:
                raise TrainerError(f"{name} must be positive")


# per-dataset settings from the published supplementary tables, plus a
# desk-scale "synthetic" preset for the bundled scenarios
PRESETS = {
    "imagenet_r":   Hyperparams(50, 10, 30.0, 30.0, 0.05, 0.001, 5, 256, 16),
    "cifar100":     Hyperparams(20, 10, 10.0, 30.0, 0.05, 0.010, 5, 256, 128),
    "cars196":      Hyperparams(50, 10, 30.0, 30.0, 0.05, 0.001, 5, 256, 128),
    "cub200":       Hyperparams(50, 50, 30.0, 10.0, 0.001, 0.001, 5, 256, 128),
    "eurosat":      Hyperparams(5, 5, 30.0, 5.0, 0.05, 0.100, 5, 256, 128),
    "resisc":       Hyperparams(30, 30, 10.0, 5.0, 0.05, 0.100, 5, 256, 128),
    "cropdiseases": Hyperparams(5, 5, 30.0, 2.0, 0.01, 0.010, 5, 256, 128),
    "isic":         Hyperparams(30, 30, 5.0, 10.0, 0.01, 0.010, 5, 256, 128),
    "chestx":       Hyperparams(30, 30, 30.0, 5.0, 0.05, 0.050, 5, 256, 128),
    "synthetic":    Hyperparams(20, 25, 0.5, 0.5, 0.05, 0.002, 2, 64, 16),
}


def preset(name: str) -> Hyperparams:
    if name not in PRESETS:
        raise TrainerError(f"unknown preset '{name}' (have: {', '.join(sorted(PRESETS))})")
    return PRESETS[name]


def check_variant(variant) -> str | None:
    """Accept a single variant name or None."""
    if variant is not None and variant not in VARIANTS:
        raise TrainerError(f"unknown variant '{variant}'")
    return variant


@dataclass
class TrainerState:
    stack: FrozenStack
    books: pr.Codebooks
    heads: ls.ClassifierHeads
    bank1: dict = field(default_factory=dict)   # class -> MoG over E_vis features
    bank2: dict = field(default_factory=dict)   # class -> MoG over CLS features
    class_names: dict = field(default_factory=dict)
    class_embeds: dict = field(default_factory=dict)
    current_task: int = -1
    seed: int = 0
    variant: str | None = None
    feature_space: bool = False
    rng: Rng | None = None


def new_state(config: EncoderConfig, seed: int, variant=None,
              feature_space: bool = False) -> TrainerState:
    variant = check_variant(variant)
    stack = build_stack(config, seed)
    prefix = PREFIX_TOKENS if variant == "prefix_tuning" else 0
    books = pr.Codebooks(d=config.d, L=config.L, d_prime=config.d_prime,
                         prefix_tokens=prefix)
    return TrainerState(stack=stack, books=books,
                        heads=ls.ClassifierHeads(d_prime=config.d_prime),
                        seed=seed, variant=variant, feature_space=feature_space,
                        rng=Rng(seed).child("trainer"))


def _raw_inputs(state: TrainerState, x) -> np.ndarray:
    """Map stream samples to token grids (features are lifted first)."""
    if state.feature_space:
        return lift_features(state.stack, x)
    return np.asarray(x, np.float32)


def _register_names(state: TrainerState, task: Task, names: dict | None):
    for cid in task.class_ids:
        name = (names or {}).get(cid, f"class_{cid:03d}")
        state.class_names[cid] = name
        state.class_embeds[cid] = class_name_embed(name, state.stack.config)


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _handcrafted_context(d: int) -> np.ndarray:
    # fixed surrogate for a hand-written textual context, shared by all classes
    return Rng(0).child("handcrafted-context").normal((d,), std=pr.PROMPT_INIT_STD)


def _fit_bank(bank, feats, labels, class_ids, m, seed_rng, tag):
    for cid in class_ids:
        pts = feats[labels == cid].astype(np.float64)
        cfg = gmm.EMConfig(m=min(m, len(pts)),
                           seed=int(seed_rng.child((tag, cid)).integers(0, 2**31)))
        bank[cid] = gmm.fit_em(pts, cfg)


def _stacked_leaf(arrays: dict, cids) -> ad.Tensor:
    """One trainable (C, ...) leaf holding the rows of classes ``cids``."""
    return ad.Tensor(np.stack([arrays[c] for c in cids]), requires_grad=True)


def _row_grads(name: str, cids, leaf: ad.Tensor, used=None) -> dict:
    """Per-class gradient rows of a stacked leaf; classes not ``used`` get no
    entry, so Adam leaves them untouched as if they were outside the graph."""
    if leaf.grad is None:
        return {}
    return {f"{name}{c}": leaf.grad[i] for i, c in enumerate(cids)
            if used is None or used[i]}


def _class_rows(ids, arrays: dict, live_ids=(), live=None):
    """The rows of classes ``ids`` as one table plus each class's row in it:
    ``live_ids`` come from the leaf ``live``, the rest from ``arrays`` as
    one constant."""
    frozen = [c for c in ids if c not in live_ids]
    row = {c: i for i, c in enumerate(frozen + list(live_ids))}
    if live is None or frozen:
        table = ad.constant(np.stack([arrays[c] for c in frozen]))
        if live is not None:
            table = ad.concat([table, live], axis=0)
    else:
        table = live
    return table, row


def _stage1(state: TrainerState, task: Task, hp: Hyperparams, z_train, rng):
    """Fit first-level prompts of the current classes (keys vs. E_vis query)."""
    books, stack, cfg = state.books, state.stack, state.stack.config
    cids = list(task.class_ids)
    pos = {cid: i for i, cid in enumerate(cids)}
    labels_all = np.array([pos[int(y)] for y in task.train_y])
    past = [books.p[c] for c in books.class_ids if c not in pos]
    adam = optim.AdamState(lr=hp.lr1)
    for _ in range(hp.E1):
        for idx in _batches(len(z_train), hp.batch_size, rng.child(("s1", adam.step_count))):
            p_t = _stacked_leaf(books.p, cids)
            key_rows = pr.key_tensor(books, stack, state.class_embeds, cids, p_t)
            loss = ls.ce_stage1(key_rows, z_train[idx], labels_all[idx], cfg.tau)
            if past:
                loss = ad.add(loss, ad.scale(ls.ortho_first(p_t, past), hp.lambda1))
            loss.backward()
            optim.adam_step(adam, {f"p{c}": books.p[c] for c in cids},
                            _row_grads("p", cids, p_t))


def _stage1_replay(state: TrainerState, task: Task, hp: Hyperparams, rng):
    books, stack, cfg = state.books, state.stack, state.stack.config
    cids = list(task.class_ids)
    all_cids = books.class_ids
    adam = optim.AdamState(lr=hp.lr1)
    for ep in range(hp.E2):
        p_t = _stacked_leaf(books.p, cids)
        live = pr.key_tensor(books, stack, state.class_embeds, cids, p_t)
        table, row = _class_rows(all_cids, books.keys, cids, live)
        key_rows = ad.take(table, [row[c] for c in all_cids])
        loss = ls.gr_loss_first(key_rows, state.bank1, all_cids, hp.n_replay,
                                cfg.tau, rng.child(("gr1", ep)))
        loss.backward()
        optim.adam_step(adam, {f"p{c}": books.p[c] for c in cids},
                        _row_grads("p", cids, p_t))


def _conditioned_cls(state: TrainerState, tokens, sel: pr.Selection, live=None,
                     z_batch=None):
    """CLS features with each query's selected-class conditioning, batched.

    ``live`` = (class ids, Q leaf, A leaf) of the current task's stacked
    prompts makes the result differentiable w.r.t. them; with ``z_batch``
    the confidences are rebuilt in the graph so gradient reaches A.
    """
    books = state.books
    ids = books.class_ids
    live_ids, q_live, a_live = live or ((), None, None)
    q_table, row = _class_rows(ids, books.Q, live_ids, q_live)
    rows = [row[c] for c in sel.class_id]
    cond = ad.take(q_table, rows)
    if books.prefix_tokens:
        return vit_forward(state.stack, tokens=tokens, prefix=cond)
    if state.variant != "no_conf_mod":
        if a_live is not None and z_batch is not None:
            a_table, _ = _class_rows(ids, books.A, live_ids, a_live)
            keys = np.stack([books.keys[c] for c in sel.class_id])
            sim = pr.weighted_similarity(z_batch, ad.take(a_table, rows), keys)
        else:
            sim = sel.sim
        cond = pr.build_residual(cond, sim)
    return vit_forward(state.stack, tokens=tokens, residuals=cond)


def _select_batch(state: TrainerState, z) -> pr.Selection:
    return pr.select(state.books.keys, z, state.books.A)


def _stage2(state: TrainerState, task: Task, hp: Hyperparams, tokens, z_train, rng):
    books = state.books
    cids = list(task.class_ids)
    pos = {cid: i for i, cid in enumerate(cids)}
    labels_all = np.array([pos[int(y)] for y in task.train_y])
    state.heads.add_task(task.task_id, cids)
    head_w, head_b = state.heads.heads[task.task_id]
    past_qs = [books.Q[c] for c in books.class_ids if c not in pos]
    adam = optim.AdamState(lr=hp.lr2)
    params = {f"Q{c}": books.Q[c] for c in cids}
    params.update({f"A{c}": books.A[c] for c in cids})
    params["head_w"] = head_w
    params["head_b"] = head_b
    for _ in range(hp.E1):
        for idx in _batches(len(tokens), hp.batch_size, rng.child(("s2", adam.step_count))):
            q_t = _stacked_leaf(books.Q, cids)
            a_t = _stacked_leaf(books.A, cids)
            w_t = ad.Tensor(head_w, requires_grad=True)
            b_t = ad.Tensor(head_b, requires_grad=True)
            z_b = z_train[idx]
            sel = _select_batch(state, z_b)
            feats = _conditioned_cls(state, tokens[idx], sel, (cids, q_t, a_t), z_b)
            loss = ls.ce_stage2(w_t, b_t, feats, labels_all[idx])
            if past_qs:
                loss = ad.add(loss, ad.scale(ls.ortho_second(q_t, past_qs), hp.lambda2))
            loss.backward()
            hit = np.isin(cids, sel.class_id)  # current classes some query selected
            grads = _row_grads("Q", cids, q_t, hit | bool(past_qs))
            grads.update(_row_grads("A", cids, a_t, hit))
            grads["head_w"] = w_t.grad
            grads["head_b"] = b_t.grad
            optim.adam_step(adam, params, grads)


def _stage2_replay(state: TrainerState, hp: Hyperparams, rng):
    adam = optim.AdamState(lr=hp.lr2)
    tasks = state.heads.task_ids()
    class_counts = [len(state.heads.classes[t]) for t in tasks]
    all_cids = state.heads.all_classes()
    for ep in range(hp.E2):
        tensors = []
        params, grads = {}, {}
        for t in tasks:
            w, b = state.heads.heads[t]
            wt = ad.Tensor(w, requires_grad=True)
            bt = ad.Tensor(b, requires_grad=True)
            tensors.append((wt, bt))
            params[f"w{t}"], params[f"b{t}"] = w, b
        loss = ls.gr_loss_second(tensors, class_counts, state.bank2, all_cids,
                                 hp.n_replay, rng.child(("gr2", ep)))
        loss.backward()
        for t, (wt, bt) in zip(tasks, tensors):
            grads[f"w{t}"], grads[f"b{t}"] = wt.grad, bt.grad
        optim.adam_step(adam, params, grads)


def train_task(state: TrainerState, task: Task, hp: Hyperparams,
               class_names: dict | None = None) -> TrainerState:
    """Run both training stages on one task. Only this task's rows ever
    become graph leaves, so earlier classes' prompts stay bitwise frozen."""
    if task.task_id != state.current_task + 1:
        raise TrainerError(
            f"task {task.task_id} out of order (expected {state.current_task + 1})")
    if len(task.train_y) == 0:
        raise TrainerError(f"task {task.task_id} has no training samples")
    hp = replace(hp, M=1) if state.variant == "unimodal" else hp
    rng = state.rng.child(("task", task.task_id))
    _register_names(state, task, class_names)
    pr.extend_codebooks(state.books, task.class_ids, rng.child("init"), task.task_id)

    raw = _raw_inputs(state, task.train_x)
    z_train = vision_encode(state.stack, raw)
    tokens = embed_tokens(state.stack, raw)

    if state.variant == "no_first_level":
        # static hand-crafted key surrogate: fixed context token per class name
        cids = list(task.class_ids)
        ctx = np.tile(_handcrafted_context(state.stack.config.d), (len(cids), 1))
        keys = pr.key_tensor(state.books, state.stack, state.class_embeds, cids,
                             ad.constant(ctx)).data
        for i, cid in enumerate(cids):
            state.books.keys[cid] = keys[i].copy()
    else:
        _stage1(state, task, hp, z_train, rng.child("stage1"))
        if state.variant != "no_replay":
            _fit_bank(state.bank1, z_train, task.train_y, task.class_ids,
                      hp.M, rng, "mog1")
            _stage1_replay(state, task, hp, rng.child("replay1"))
        # cache keys of the (now final) current prompts
        state.books.keys = pr.compute_keys(state.books, state.stack, state.class_embeds)

    if state.variant != "first_level_only":
        _stage2(state, task, hp, tokens, z_train, rng.child("stage2"))
        if state.variant != "no_replay":
            sel = _select_batch(state, z_train)
            cls_feats = _conditioned_cls(state, tokens, sel).data
            _fit_bank(state.bank2, cls_feats, task.train_y, task.class_ids,
                      hp.M, rng, "mog2")
            _stage2_replay(state, hp, rng.child("replay2"))

    state.current_task = task.task_id
    return state


# ---------------------------------------------------------------------------
# inference


def predict_batch(state: TrainerState, x):
    """Task-agnostic prediction for a batch of queries: (class ids, logits
    over all seen classes, selected key class per query)."""
    if state.current_task < 0:
        raise TrainerError("predict before any task was trained")
    raw = _raw_inputs(state, x)
    if raw.ndim != 3:
        raise TrainerError(f"predict_batch takes a batch of inputs, got shape {np.shape(x)}")
    sel = _select_batch(state, vision_encode(state.stack, raw))
    chosen = sel.class_id.tolist()
    if state.variant == "first_level_only":
        # classify straight from the key posteriors
        ids = sorted(state.books.keys)
        logits = sel.sims / state.stack.config.tau
        preds = [ids[int(i)] for i in np.argmax(logits, axis=1)]
        return preds, logits, chosen
    tokens = embed_tokens(state.stack, raw)
    feats = _conditioned_cls(state, tokens, sel).data
    cols = []
    for t in state.heads.task_ids():
        w, b = state.heads.heads[t]
        cols.append(feats @ w + b)
    logits = np.concatenate(cols, axis=1)
    all_cids = state.heads.all_classes()
    preds = [all_cids[int(i)] for i in np.argmax(logits, axis=1)]
    return preds, logits, chosen


def evaluate(state: TrainerState, task: Task) -> float:
    preds, _, _ = predict_batch(state, task.test_x)
    return float(np.mean(np.asarray(preds) == task.test_y))


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(state: TrainerState, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    pr.save_codebooks(os.path.join(out_dir, "codebooks.bin"), state.books)
    ls.save_heads(os.path.join(out_dir, "heads.bin"), state.heads)
    if state.bank1:
        gmm.save_bank(os.path.join(out_dir, "bank1.bin"), state.bank1)
    if state.bank2:
        gmm.save_bank(os.path.join(out_dir, "bank2.bin"), state.bank2)
    meta = {
        "seed": state.seed,
        "variant": state.variant,
        "current_task": state.current_task,
        "feature_space": state.feature_space,
        "class_names": {str(k): v for k, v in state.class_names.items()},
        "encoder": asdict(state.stack.config),
    }
    with open(os.path.join(out_dir, "trainer.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(out_dir) -> TrainerState:
    with open(os.path.join(out_dir, "trainer.json")) as f:
        meta = json.load(f)
    config = EncoderConfig(**meta["encoder"])
    state = new_state(config, meta["seed"], meta["variant"],
                      feature_space=meta["feature_space"])
    state.books = pr.load_codebooks(os.path.join(out_dir, "codebooks.bin"))
    state.heads = ls.load_heads(os.path.join(out_dir, "heads.bin"))
    for name, attr in (("bank1.bin", "bank1"), ("bank2.bin", "bank2")):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            setattr(state, attr, gmm.load_bank(path))
    state.current_task = meta["current_task"]
    state.class_names = {int(k): v for k, v in meta["class_names"].items()}
    for cid, name in state.class_names.items():
        state.class_embeds[cid] = class_name_embed(name, config)
    return state
