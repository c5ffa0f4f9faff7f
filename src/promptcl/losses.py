"""Training objectives: both cross-entropies, the two orthogonality penalties,
and the two generative-replay losses.

Every function builds (part of) an autodiff graph and returns a scalar Tensor;
which parameters receive gradients is controlled entirely by which inputs are
grad-enabled tensors versus constants.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import PromptclError
from . import autodiff as ad
from . import gmm
from .featureio import FormatError, archive_entry, read_archive, write_archive
from .rng import Rng

HEADS_MAGIC = b"STARHEAD"


class LossError(PromptclError):
    pass


@dataclass
class ClassifierHeads:
    """One linear head over every seen class: ``W`` (d', C) and ``b`` (C,),
    whose columns follow ``classes``, the stream's order task after task."""

    d_prime: int
    classes: list = field(init=False, default_factory=list)
    spans: list = field(init=False, default_factory=list)  # task t -> slice of its columns
    W: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)

    def __post_init__(self):
        self.W = np.zeros((self.d_prime, 0), np.float32)
        self.b = np.zeros(0, np.float32)

    def add_task(self, task_id: int, class_ids) -> None:
        if task_id != len(self.spans):
            raise LossError(f"head for task {task_id} out of order "
                            f"(expected task {len(self.spans)})")
        n, c = len(class_ids), len(self.classes)
        # zero init: a fresh head yields uniform posteriors (loss = ln N)
        self.W = np.concatenate([self.W, np.zeros((self.d_prime, n), np.float32)], axis=1)
        self.b = np.concatenate([self.b, np.zeros(n, np.float32)])
        self.classes += list(class_ids)
        self.spans.append(slice(c, c + n))

    @property
    def heads(self) -> dict:
        """Task -> (W, b) views of its columns; writing them writes the head."""
        return {t: (self.W[:, s], self.b[s]) for t, s in enumerate(self.spans)}


def _nll(log_probs: ad.Tensor, label_idx) -> ad.Tensor:
    b, c = log_probs.shape
    idx = np.asarray(label_idx)
    if idx.shape != (b,):
        raise LossError(f"label indices of shape {idx.shape} for a batch of {b} rows")
    bad = (idx < 0) | (idx >= c)
    if bad.any():
        raise LossError(f"label index {idx[bad][0]} outside denominator set of size {c}")
    onehot = np.zeros((b, c), np.float32)
    onehot[np.arange(b), idx] = 1.0
    picked = ad.rsum(ad.mul(log_probs, ad.constant(onehot)))
    return ad.scale(picked, -1.0 / b)


def ce_stage1(key_rows: ad.Tensor, z_batch, label_idx, tau: float) -> ad.Tensor:
    """Mean NLL of softmax(⟨z_i, w_c⟩ / tau) over the rows of ``key_rows``.

    ``label_idx`` are positions into the key rows (the denominator set).
    """
    z = z_batch if isinstance(z_batch, ad.Tensor) else ad.constant(z_batch)
    logits = ad.scale(ad.matmul(z, ad.swapaxes(key_rows, -1, -2)), 1.0 / tau)
    return _nll(ad.log_softmax(logits), label_idx)


def head_logits(w: ad.Tensor, b: ad.Tensor, feats: ad.Tensor) -> ad.Tensor:
    return ad.add(ad.matmul(feats, w), b)


def ce_stage2(head_w, head_b, cls_features, label_idx) -> ad.Tensor:
    """Cross-entropy under the current task's head only."""
    feats = cls_features if isinstance(cls_features, ad.Tensor) else ad.constant(cls_features)
    return _nll(ad.log_softmax(head_logits(head_w, head_b, feats)), label_idx)


def ortho_first(current_prompts, past_prompts) -> ad.Tensor:
    """Sum over current x past pairs of |⟨p̂_{c'}, p̂_c⟩| (normalized prompts).

    ``current_prompts``: a (C, d) Tensor; ``past_prompts``: a list of (d,)
    arrays.
    """
    if len(past_prompts) == 0:
        return ad.constant(0.0)
    pn = ad.l2_normalize(ad.constant(np.stack(past_prompts))).data
    sims = ad.matmul(ad.l2_normalize(current_prompts), ad.constant(pn.T))  # (C, P)
    return ad.rsum(ad.absolute(sims))


def ortho_second(current_qs, past_qs) -> ad.Tensor:
    """Per-layer average of the pairwise penalty over second-level prompts.

    ``current_qs``: a (C, L, ...) Tensor; ``past_qs``: a list of matching
    (L, ...) arrays.
    """
    if len(past_qs) == 0:
        return ad.constant(0.0)
    C, L = current_qs.shape[:2]
    past = np.stack(past_qs)
    pn = ad.l2_normalize(ad.constant(past.reshape(len(past), L, -1))).data  # (P, L, k)
    qn = ad.swapaxes(ad.l2_normalize(ad.reshape(current_qs, (C, L, -1))), 0, 1)  # (L, C, k)
    sims = ad.matmul(qn, ad.constant(pn.transpose(1, 2, 0)))                 # (L, C, P)
    return ad.scale(ad.rsum(ad.absolute(sims)), 1.0 / L)


def sample_replay_features(bank: dict, class_ids, n: int, rng: Rng):
    """n synthetic features per class from its fitted mixture; returns
    (features array, label positions into ``class_ids``)."""
    feats, labels = [], []
    for i, cid in enumerate(class_ids):
        if cid not in bank:
            raise LossError(f"no fitted mixture for seen class {cid}")
        feats.append(gmm.sample(bank[cid], n, rng.child(f"replay{cid}")))
        labels.extend([i] * n)
    return np.concatenate(feats, axis=0), labels


def gr_loss_first(key_rows: ad.Tensor, bank: dict, class_ids, n: int, tau: float,
                  rng: Rng) -> ad.Tensor:
    """First-stage replay loss: denominator spans all seen classes."""
    feats, labels = sample_replay_features(bank, class_ids, n, rng)
    return ce_stage1(key_rows, feats, labels, tau)


def gr_loss_second(w: ad.Tensor, b: ad.Tensor, bank: dict, class_ids, n: int,
                   rng: Rng) -> ad.Tensor:
    """Second-stage replay loss under the head over every seen class, whose
    columns line up with ``class_ids``."""
    if w.shape[-1] != len(class_ids):
        raise LossError(f"head width {w.shape[-1]} does not cover the "
                        f"{len(class_ids)} seen classes")
    feats, labels = sample_replay_features(bank, class_ids, n, rng)
    return _nll(ad.log_softmax(head_logits(w, b, ad.constant(feats))), labels)


def save_heads(path, heads: ClassifierHeads) -> None:
    """Write each task's head and column order ``classes{t}``, the stream's."""
    arrays = {}
    for t, (w, b) in heads.heads.items():
        arrays[f"w{t}"] = w
        arrays[f"b{t}"] = b
        arrays[f"classes{t}"] = np.array(heads.classes[heads.spans[t]], np.int64)
    write_archive(path, HEADS_MAGIC, arrays)


def load_heads(path, heads: ClassifierHeads, groups) -> ClassifierHeads:
    """Append to the empty ``heads`` the head of each task t in the codebook's
    ``groups`` (each ``classes{t}`` a permutation of ``groups[t]``, each
    ``w{t}`` ``heads.d_prime`` rows tall). Other entries (older archives' ``d_prime`` and
    ``tasks``) are ignored; a missing or mismatched one raises FormatError."""
    arrays = read_archive(path, HEADS_MAGIC)
    for t, cids in enumerate(groups):
        classes = archive_entry(arrays, path, f"classes{t}", "i", (None,)).tolist()
        if sorted(classes) != cids:
            raise FormatError(f"{path}: entry 'classes{t}' holds {classes}, expected "
                              f"the classes {cids} of task {t}")
        heads.add_task(t, classes)
        w, b = heads.heads[t]
        w[:] = archive_entry(arrays, path, f"w{t}", "f", (heads.d_prime, len(classes)), np.float32)
        b[:] = archive_entry(arrays, path, f"b{t}", "f", (len(classes),), np.float32)
    return heads
