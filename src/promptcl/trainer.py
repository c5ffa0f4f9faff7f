"""Two-stage continual training over a frozen transformer stack.

Per task: (1) fit first-level prompts against class-prototype keys, fit
per-class feature mixtures, rehearse the keys on synthetic features;
(2) fit second-level residual prompts, query weights, and the task's fresh
columns of the linear head, fit mixtures on the conditioned CLS features,
rehearse the head over every seen class.
Task identity is never used at prediction time.
"""
from __future__ import annotations

import json
import os
import typing
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
from .featureio import FormatError
from .rng import Rng
from .scenario import Task, TaskStream

VARIANTS = ("first_level_only", "no_first_level", "prefix_tuning",
            "no_replay", "unimodal", "no_conf_mod")

PREFIX_TOKENS = 5

# samples per forward-only encoder pass: at the acceptance geometry a 64-query
# chunk keeps the block kernel's MLP activations near 1 MiB, where a whole
# evaluation set of hundreds of queries pushed several MB through every op
ENCODE_CHUNK = 64


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


def _empty_books(config: EncoderConfig, variant) -> pr.Codebooks:
    return pr.Codebooks(d=config.d, L=config.L, d_prime=config.d_prime,
                        prefix_tokens=PREFIX_TOKENS if variant == "prefix_tuning" else 0)


def new_state(config: EncoderConfig, seed: int, variant=None,
              feature_space: bool = False) -> TrainerState:
    variant = check_variant(variant)
    return TrainerState(stack=build_stack(config, seed),
                        books=_empty_books(config, variant),
                        heads=ls.ClassifierHeads(d_prime=config.d_prime),
                        seed=seed, variant=variant, feature_space=feature_space)


def _register_names(state: TrainerState, class_ids, names: dict | None):
    for cid in class_ids:
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


def _encode_rows(fn, n: int) -> np.ndarray:
    """``fn(rows)`` over consecutive slices of at most ``ENCODE_CHUNK`` of
    ``n`` samples, rows concatenated. Only for forward-only encoder passes,
    whose rows do not depend on the batch they are computed in."""
    return np.concatenate([fn(slice(i, i + ENCODE_CHUNK))
                           for i in range(0, max(n, 1), ENCODE_CHUNK)])


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
    heads = state.heads
    adam = optim.AdamState(lr=hp.lr2)
    for ep in range(hp.E2):
        w = ad.Tensor(heads.W, requires_grad=True)
        b = ad.Tensor(heads.b, requires_grad=True)
        loss = ls.gr_loss_second(w, b, state.bank2, heads.classes, hp.n_replay,
                                 rng.child(("gr2", ep)))
        loss.backward()
        optim.adam_step(adam, {"W": heads.W, "b": heads.b}, {"W": w.grad, "b": b.grad})


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
    rng = Rng(state.seed).child("trainer").child(("task", task.task_id))
    _register_names(state, task.class_ids, class_names)
    pr.extend_codebooks(state.books, task.class_ids, rng.child("init"), task.task_id)

    qs = QuerySet(task.train_x)
    qs.bind(state)
    z_train = qs.z
    tokens = embed_tokens(state.stack, qs.raw)

    if state.variant == "no_first_level":
        # first-level prompts fixed at a hand-crafted context, never trained
        ctx = _handcrafted_context(state.stack.config.d)
        for cid in task.class_ids:
            state.books.p[cid] = ctx.copy()
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
            _fit_bank(state.bank2, qs.features(state, qs.select(state)), task.train_y,
                      task.class_ids, hp.M, rng, "mog2")
            _stage2_replay(state, hp, rng.child("replay2"))

    state.current_task = task.task_id
    return state


# ---------------------------------------------------------------------------
# inference


class QuerySet:
    """A fixed batch of queries and the frozen-encoder work done on it, kept
    between predictions so a test set evaluated after every task is
    vision-encoded once. ``train_task`` encodes its inputs through a fresh
    one, so there is one forward-only path.

    The set binds to the stack of the first state that uses it. Its query
    vectors ``z`` never change after that. One rule decides what is reused:
    a class's similarity column is kept while its task is finished and its
    key and query weights keep the bits the column was computed from;
    ``select`` computes every other column. A row's conditioned CLS features
    are kept while the row selects the same class and that class's column
    was not computed in the last ``select``. This pays off because no later
    training touches a finished task's prompts and query weights, and
    ``compute_keys`` re-derives the same key bits.
    """

    def __init__(self, x):
        self.x = x
        self.stack = None   # bound on first use
        self.raw = None     # token grids
        self.z = None       # (n, d) query vectors
        self.feats = None   # (n, d') conditioned CLS features
        self.cls = None     # per row: the class the features were conditioned on
        self.sims = None    # (n, C) similarities of the last selection
        self.kept = {}      # finished class -> (its column in sims, key and A bytes)
        self.fresh = []     # classes whose column the last selection computed

    def bind(self, state: TrainerState) -> None:
        """Encode the queries with ``state``'s stack on first use."""
        if self.stack is state.stack:
            return
        if self.stack is not None:
            raise TrainerError("query set was encoded by another state's stack")
        # stream samples as token grids; feature rows are lifted first
        raw = (lift_features(state.stack, self.x) if state.feature_space
               else np.asarray(self.x, np.float32))
        if raw.ndim != 3:
            raise TrainerError(f"expected a batch of inputs, got shape {np.shape(self.x)}")
        self.z = _encode_rows(lambda s: vision_encode(state.stack, raw[s]), len(raw))
        self.raw, self.stack = raw, state.stack
        # the first selection computes every column, so every row is computed then
        self.feats = np.empty((len(raw), state.stack.config.d_prime), np.float32)
        self.cls = np.full(len(raw), -1)

    def select(self, state: TrainerState) -> pr.Selection:
        """``prompts.select`` over the queries, computing the similarity
        columns of only the classes without a kept one: a class new to the
        set, one whose task is unfinished, or one whose key or query weights
        changed bits since its column was computed."""
        books = state.books
        ids = sorted(books.keys)
        if not ids:
            raise pr.CodebookError("select: empty key set")
        # src: each class's column in the kept sims, or in the new ones after them
        width = 0 if self.sims is None else self.sims.shape[1]
        kept, src, new = {}, [], []
        for i, c in enumerate(ids):
            bits = books.keys[c].tobytes() + books.A[c].tobytes()
            col, was = self.kept.get(c, (None, None))
            if was != bits:
                col = width + len(new)
                new.append(c)
            src.append(col)
            if books.task_of[c] <= state.current_task:
                kept[c] = (i, bits)
        sims = pr.similarities(self.z, books.keys, books.A, new) if new else None
        if len(new) < len(ids):
            sims = (self.sims if sims is None else np.concatenate((self.sims, sims), axis=1))[:, src]
        self.sims, self.kept, self.fresh = sims, kept, new
        return pr.pick(np.asarray(ids), sims)

    def features(self, state: TrainerState, sel: pr.Selection) -> np.ndarray:
        """The CLS features conditioned on ``sel``, this set's last selection,
        recomputing in chunks only the rows that select another class than
        before or a class whose column that selection computed."""
        stale = sel.class_id != self.cls
        if self.fresh:  # a broadcast compare: np.isin costs several times more here
            stale |= (sel.class_id[:, None] == self.fresh).any(axis=1)
        stale = np.flatnonzero(stale)
        if len(stale):
            tokens, sub = embed_tokens(state.stack, self.raw[stale]), sel[stale]
            self.feats[stale] = _encode_rows(
                lambda s: _conditioned_cls(state, tokens[s], sub[s]).data, len(stale))
        self.cls = sel.class_id
        return self.feats


def predict_batch(state: TrainerState, x):
    """Task-agnostic prediction for a batch of queries: (class ids, logits
    over all seen classes, selected key class per query).

    ``x`` is an array of queries or a ``QuerySet``, which keeps the encoder
    work between calls; an array is predicted as a fresh set.
    """
    if state.current_task < 0:
        raise TrainerError("predict before any task was trained")
    qs = x if isinstance(x, QuerySet) else QuerySet(x)
    qs.bind(state)
    # the encoders run in chunks; selection and the heads see the whole batch
    sel = qs.select(state)
    if state.variant == "first_level_only":
        # classify straight from the key posteriors
        logits = sel.sims / state.stack.config.tau
        order = sorted(state.books.keys)
    else:
        feats = qs.features(state, sel)
        logits = feats @ state.heads.W + state.heads.b
        order = state.heads.classes
    return np.take(order, np.argmax(logits, axis=1)).tolist(), logits, sel.class_id.tolist()


def evaluate(state: TrainerState, task: Task) -> float:
    preds, _, _ = predict_batch(state, task.test_x)
    return float(np.mean(np.asarray(preds) == task.test_y))


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(state: TrainerState, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    pr.save_codebooks(os.path.join(out_dir, "codebooks.bin"), state.books)
    ls.save_heads(os.path.join(out_dir, "heads.bin"), state.heads)
    for name, bank in (("bank1.bin", state.bank1), ("bank2.bin", state.bank2)):
        path = os.path.join(out_dir, name)
        if bank:
            gmm.save_bank(path, bank)
        elif os.path.exists(path):
            os.remove(path)  # an older run's bank: load_checkpoint would read it
    meta = {
        "seed": state.seed,
        "variant": state.variant,
        "feature_space": state.feature_space,
        "class_names": {str(k): v for k, v in state.class_names.items()},
        "encoder": asdict(state.stack.config),
    }
    with open(os.path.join(out_dir, "trainer.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


# trainer.json: the types each key may hold
_META_TYPES = {"seed": (int,), "variant": (str, type(None)), "feature_space": (bool,),
               "class_names": (dict,), "encoder": (dict,)}


def _read_meta(path) -> dict:
    """``trainer.json`` with every key ``load_checkpoint`` uses checked;
    invalid JSON or a missing or ill-typed key raises FormatError naming the
    file and the key. Returns the class names keyed by int class id and the
    encoder entry as an EncoderConfig."""
    try:
        with open(path, "rb") as f:
            meta = json.load(f)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if type(meta) is not dict:
        raise FormatError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    for key, types in _META_TYPES.items():
        if key not in meta:
            raise FormatError(f"{path}: missing key '{key}'")
        if type(meta[key]) not in types:
            raise FormatError(f"{path}: key '{key}' holds {type(meta[key]).__name__} "
                              f"{meta[key]!r}")
    if meta["seed"] < 0:
        raise FormatError(f"{path}: key 'seed' must be >= 0, got {meta['seed']}")
    if meta["variant"] is not None and meta["variant"] not in VARIANTS:
        raise FormatError(f"{path}: key 'variant' names no variant: {meta['variant']!r}")
    try:
        names = {int(k): v for k, v in meta["class_names"].items()}
    except ValueError:
        names = None
    if names is None or not all(type(v) is str and v for v in names.values()):
        raise FormatError(f"{path}: key 'class_names' must map class ids to nonempty names")
    meta["class_names"] = names
    enc = meta["encoder"]
    hints = typing.get_type_hints(EncoderConfig)
    if set(enc) != set(hints):
        odd = sorted(set(enc) ^ set(hints))
        raise FormatError(f"{path}: key 'encoder' lacks or has unknown fields {odd}")
    for name, value in enc.items():
        allowed = (int, float) if hints[name] is float else (hints[name],)
        if type(value) not in allowed:
            raise FormatError(f"{path}: key 'encoder' field '{name}' holds "
                              f"{type(value).__name__} {value!r}")
    try:
        meta["encoder"] = EncoderConfig(**enc)
    except PromptclError as exc:
        raise FormatError(f"{path}: key 'encoder': {exc}") from None
    return meta


def load_checkpoint(out_dir) -> TrainerState:
    """The state saved in ``out_dir``. Before the stack is built, every archive is
    checked against trainer.json's geometry and variant and codebooks.bin's classes."""
    meta = _read_meta(os.path.join(out_dir, "trainer.json"))
    config, path = meta["encoder"], lambda name: os.path.join(out_dir, name)
    books = pr.load_codebooks(path("codebooks.bin"), _empty_books(config, meta["variant"]))
    if sorted(meta["class_names"]) != books.class_ids:
        raise FormatError(f"{path('trainer.json')}: key 'class_names' must name exactly "
                          f"the classes {books.class_ids}")
    parts = {"books": books,  # first_level_only trains no heads
             "heads": ls.load_heads(path("heads.bin"), ls.ClassifierHeads(config.d_prime),
                                    [] if meta["variant"] == "first_level_only" else books.groups())}
    # bank 1 models the E_vis query features, bank 2 the conditioned CLS features
    for attr, dim in (("bank1", config.d), ("bank2", config.d_prime)):
        if os.path.exists(path(f"{attr}.bin")):
            parts[attr] = gmm.load_bank(path(f"{attr}.bin"), dim, books.class_ids)
    state = TrainerState(stack=build_stack(config, meta["seed"]), seed=meta["seed"],
                         current_task=len(books.groups()) - 1, variant=meta["variant"],
                         feature_space=meta["feature_space"], **parts)
    _register_names(state, meta["class_names"], meta["class_names"])
    return state
