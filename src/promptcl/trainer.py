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
import numbers
import os
import re
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
                       embed_tokens, vision_encode, vit_forward)
from .featureio import FormatError, unique_keys
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise TrainerError(f"'{name}' must be an int >= 1, got {value!r}")
        for name in ("lambda1", "lambda2", "lr1", "lr2"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0 < value < np.inf):
                raise TrainerError(f"'{name}' must be positive and finite, got {value!r}")


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
    variant: str | None = None


def _empty_books(config: EncoderConfig, variant) -> pr.Codebooks:
    return pr.Codebooks(d=config.d, L=config.L, d_prime=config.d_prime,
                        prefix_tokens=PREFIX_TOKENS if variant == "prefix_tuning" else 0)


def new_state(config: EncoderConfig, seed: int, variant=None) -> TrainerState:
    variant = check_variant(variant)
    return TrainerState(stack=build_stack(config, seed),
                        books=_empty_books(config, variant),
                        heads=ls.ClassifierHeads(d_prime=config.d_prime), variant=variant)


def _register_names(state: TrainerState, class_ids, names: dict | None):
    for cid in class_ids:
        name = (names or {}).get(cid, f"class_{cid:03d}")
        state.class_names[cid] = name
        state.class_embeds[cid] = class_name_embed(name, state.stack.config)


def _batches(n, batch_size, epochs, rng, tag):
    """``epochs`` shuffled passes; each is ordered by ``rng``'s child keyed (tag, first step)."""
    per_epoch = -(-n // batch_size)
    for ep in range(epochs):
        order = rng.child((tag, ep * per_epoch)).permutation(n)
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


def _stacked(arrays: dict, cids) -> np.ndarray:
    """The rows of classes ``cids`` as one (C, ...) array for a stage to train;
    each class's entry in ``arrays`` becomes a view of its row."""
    rows = np.stack([arrays[c] for c in cids])
    for i, c in enumerate(cids):
        arrays[c] = rows[i]
    return rows


def _leaves(arrays: dict) -> dict:
    """A trainable leaf over each named array, sharing its memory."""
    return {name: ad.Tensor(a, requires_grad=True) for name, a in arrays.items()}


def _descend(arrays: dict, lr: float, steps, loss_of) -> None:
    """Adam descent on ``arrays`` in place, one update per item of ``steps``.

    Each step makes a trainable leaf over every array, and ``loss_of(params,
    step)`` returns the loss and the row masks ``optim.adam_step`` takes (or
    None). The loss is differentiated and Adam moves the arrays.
    """
    adam = optim.AdamState(lr=lr)
    for step in steps:
        params = _leaves(arrays)
        loss, rows = loss_of(params, step)
        loss.backward()
        optim.adam_step(adam, arrays, {name: t.grad for name, t in params.items()}, rows)


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


def stage1_loss(state: TrainerState, cids, params: dict, z, labels,
                lambda1: float) -> ad.Tensor:
    """One batch's first-stage loss: cross-entropy of the queries ``z``
    against the keys of classes ``cids``, plus ``lambda1`` times the
    orthogonality of their prompts to the past ones. ``params`` maps ``p``
    (the prompts of ``cids``) to a tensor; ``labels`` are positions in ``cids``."""
    books = state.books
    key_rows = pr.key_tensor(books, state.stack, state.class_embeds, cids, params["p"])
    loss = ls.ce_stage1(key_rows, z, labels, state.stack.config.tau)
    past = [books.p[c] for c in books.class_ids if c not in cids]
    if past:
        loss = ad.add(loss, ad.scale(ls.ortho_first(params["p"], past), lambda1))
    return loss


def key_replay_loss(state: TrainerState, cids, params: dict, n_replay: int,
                    rng: Rng) -> ad.Tensor:
    """First-stage replay loss: ``n_replay`` rows drawn from each seen
    class's bank-1 mixture with ``rng``, scored against every seen key. The
    keys of classes ``cids`` come from the prompts ``params["p"]``, the rest
    are constants."""
    books = state.books
    live = pr.key_tensor(books, state.stack, state.class_embeds, cids, params["p"])
    table, row = _class_rows(books.class_ids, books.keys, cids, live)
    key_rows = ad.take(table, [row[c] for c in books.class_ids])
    return ls.gr_loss_first(key_rows, state.bank1, books.class_ids, n_replay,
                            state.stack.config.tau, rng)


def _stage1(state: TrainerState, task: Task, hp: Hyperparams, z_train, rng):
    """Fit first-level prompts of the current classes (keys vs. E_vis query)."""
    cids = list(task.class_ids)
    labels = np.array([cids.index(int(y)) for y in task.train_y])
    _descend({"p": _stacked(state.books.p, cids)}, hp.lr1,
             _batches(len(z_train), hp.batch_size, hp.E1, rng, "s1"),
             lambda p, i: (stage1_loss(state, cids, p, z_train[i], labels[i], hp.lambda1), None))


def _stage1_replay(state: TrainerState, task: Task, hp: Hyperparams, rng):
    cids = list(task.class_ids)
    _descend({"p": _stacked(state.books.p, cids)}, hp.lr1, range(hp.E2),
             lambda p, ep: (key_replay_loss(state, cids, p, hp.n_replay,
                                            rng.child(("gr1", ep))), None))


def _conditioned_cls(state: TrainerState, tokens, sel: pr.Selection, cids=(),
                     params=None, z=None):
    """CLS features with each query's selected-class conditioning, batched.

    ``params`` (as ``stage2_loss`` takes them) supplies the Q and A rows of
    classes ``cids`` as tensors; the confidences are then rebuilt from the
    queries ``z`` in the graph, so gradient reaches both.
    """
    books = state.books
    q_table, row = _class_rows(books.class_ids, books.Q, cids, (params or {}).get("Q"))
    rows = [row[c] for c in sel.class_id]
    cond = ad.take(q_table, rows)
    if books.prefix_tokens:
        return vit_forward(state.stack, tokens=tokens, prefix=cond)
    if state.variant != "no_conf_mod":
        sim = sel.sim
        if params is not None:
            a_table, _ = _class_rows(books.class_ids, books.A, cids, params["A"])
            keys = np.stack([books.keys[c] for c in sel.class_id])
            sim = pr.weighted_similarity(z, ad.take(a_table, rows), keys)
        cond = pr.build_residual(cond, sim)
    return vit_forward(state.stack, tokens=tokens, residuals=cond)


def _select_batch(state: TrainerState, z) -> pr.Selection:
    return pr.select(state.books.keys, z, state.books.A)


def stage2_loss(state: TrainerState, cids, params: dict, tokens, z, sel: pr.Selection,
                labels, lambda2: float) -> ad.Tensor:
    """One batch's second-stage loss: cross-entropy of the conditioned CLS
    features under the task's head, plus ``lambda2`` times the orthogonality
    of the current second-level prompts to the past ones. ``params`` maps
    ``Q`` and ``A`` (the rows of classes ``cids``) and ``W`` and ``b`` (the
    task's head columns) to tensors; ``labels`` are positions in ``cids``."""
    feats = _conditioned_cls(state, tokens, sel, cids, params, z)
    loss = ls.ce_stage2(params["W"], params["b"], feats, labels)
    past_qs = [state.books.Q[c] for c in state.books.class_ids if c not in cids]
    if past_qs:
        loss = ad.add(loss, ad.scale(ls.ortho_second(params["Q"], past_qs), lambda2))
    return loss


def _stage2(state: TrainerState, task: Task, hp: Hyperparams, raw, z_train, rng):
    """Fit the current classes' second-level prompts, query weights and head
    columns; each batch's token grids are embedded from ``raw`` as it runs."""
    books = state.books
    cids = list(task.class_ids)
    labels = np.array([cids.index(int(y)) for y in task.train_y])
    state.heads.add_task(task.task_id, cids)
    arrays = {"Q": _stacked(books.Q, cids), "A": _stacked(books.A, cids)}
    arrays["W"], arrays["b"] = state.heads.heads[task.task_id]
    past = len(books.class_ids) > len(cids)

    def loss_of(params, idx):
        z_b = z_train[idx]
        sel = _select_batch(state, z_b)
        # only classes some query selected move their A (and, with no past prompts, their Q)
        hit = np.isin(cids, sel.class_id)
        tokens = embed_tokens(state.stack, raw[idx])
        return (stage2_loss(state, cids, params, tokens, z_b, sel, labels[idx], hp.lambda2),
                {"Q": hit | past, "A": hit})

    _descend(arrays, hp.lr2, _batches(len(raw), hp.batch_size, hp.E1, rng, "s2"), loss_of)


def _stage2_replay(state: TrainerState, hp: Hyperparams, rng):
    _descend({"W": state.heads.W, "b": state.heads.b}, hp.lr2, range(hp.E2),
             lambda p, ep: (ls.gr_loss_second(p["W"], p["b"], state.bank2, state.heads.classes,
                                              hp.n_replay, rng.child(("gr2", ep))), None))


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
    rng = Rng(state.stack.seed).child("trainer").child(("task", task.task_id))
    _register_names(state, task.class_ids, class_names)
    pr.extend_codebooks(state.books, task.class_ids, rng.child("init"), task.task_id)

    qs = QuerySet(task.train_x)
    qs.bind(state)
    z_train = qs.z

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
        _stage2(state, task, hp, qs.raw, z_train, rng.child("stage2"))
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
        raw = np.asarray(self.x, np.float32)
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
        recomputing only the rows that select another class than before or a
        class whose column that selection computed, one chunk of token grids
        at a time."""
        stale = sel.class_id != self.cls
        if self.fresh:  # a broadcast compare: np.isin costs several times more here
            stale |= (sel.class_id[:, None] == self.fresh).any(axis=1)
        stale = np.flatnonzero(stale)
        if len(stale):
            def chunk(s):
                rows = stale[s]
                tokens = embed_tokens(state.stack, self.raw[rows])
                return _conditioned_cls(state, tokens, sel[rows]).data

            self.feats[stale] = _encode_rows(chunk, len(stale))
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
        "seed": state.stack.seed,
        "variant": state.variant,
        "class_names": {str(k): v for k, v in state.class_names.items()},
        "encoder": asdict(state.stack.config),
    }
    with open(os.path.join(out_dir, "trainer.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


# trainer.json: the types each key may hold
_META_TYPES = {"seed": (int,), "variant": (str, type(None)),
               "class_names": (dict,), "encoder": (dict,)}


# a class id as save_checkpoint writes it: str(int)
_CLASS_ID = re.compile(r"0|-?[1-9][0-9]*")


def _read_meta(path) -> dict:
    """``trainer.json`` with every key ``load_checkpoint`` uses checked;
    invalid JSON, a key given twice in one object, or a missing or ill-typed
    key raises FormatError naming the file and the key. Returns the class
    names keyed by int class id and the encoder entry as an EncoderConfig."""
    try:
        with open(path, "rb") as f:
            meta = json.load(f, object_pairs_hook=unique_keys(path))
    except FormatError:
        raise
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
    # older checkpoints wrote this flag; a feature-file run's inputs were then
    # lifted by a stack matrix that no longer exists, so only false is read
    if meta.get("feature_space", False) is not False:
        raise FormatError(f"{path}: key 'feature_space' holds {meta['feature_space']!r}; "
                          f"only an older checkpoint of a synthetic stream is read")
    if meta["seed"] < 0:
        raise FormatError(f"{path}: key 'seed' must be >= 0, got {meta['seed']}")
    if meta["variant"] is not None and meta["variant"] not in VARIANTS:
        raise FormatError(f"{path}: key 'variant' names no variant: {meta['variant']!r}")
    for k, v in meta["class_names"].items():
        if not _CLASS_ID.fullmatch(k) or type(v) is not str or not v:
            raise FormatError(f"{path}: key 'class_names' maps '{k}' to {v!r}; it must map "
                              f"class ids in canonical decimal to nonempty names")
    meta["class_names"] = {int(k): v for k, v in meta["class_names"].items()}
    enc = meta["encoder"]
    hints = typing.get_type_hints(EncoderConfig)
    if set(enc) != set(hints):
        odd = sorted(set(enc) ^ set(hints))
        raise FormatError(f"{path}: key 'encoder' lacks or has unknown fields {odd}")
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
    state = TrainerState(stack=build_stack(config, meta["seed"]),
                         current_task=len(books.groups()) - 1, variant=meta["variant"], **parts)
    _register_names(state, meta["class_names"], meta["class_names"])
    return state
