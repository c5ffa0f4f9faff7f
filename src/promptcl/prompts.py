"""Two-level prompt codebooks: one record per class (first-level prompt,
prototype key, second-level prompt, query weights and owning task), with
confidence-weighted selection and residual construction.

Parameters live as numpy arrays; training code wraps only the current task's
rows in graph tensors per step, so earlier classes are bitwise untouchable by
design.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import PromptclError
from . import autodiff as ad
from .encoders import FrozenStack, text_encode
from .featureio import read_archive, write_archive
from .rng import Rng

CODEBOOK_MAGIC = b"STARCDBK"

PROMPT_INIT_STD = 0.02


class CodebookError(PromptclError):
    pass


@dataclass
class Codebooks:
    d: int
    L: int
    d_prime: int
    prefix_tokens: int = 0   # 0 = residual conditioning; >0 = tokens per key/value
    p: dict = field(default_factory=dict)               # class -> (d,)
    keys: dict = field(default_factory=dict)            # class -> unit (d,) key
    Q: dict = field(default_factory=dict)               # class -> (L, d') or (L, 2n, d')
    A: dict = field(default_factory=dict)               # class -> (d,)
    task_of: dict = field(default_factory=dict)         # class -> owning task

    @property
    def class_ids(self) -> list:
        return sorted(self.task_of)

    def q_shape(self):
        if self.prefix_tokens:
            return (self.L, 2 * self.prefix_tokens, self.d_prime)
        return (self.L, self.d_prime)


def extend_codebooks(books: Codebooks, new_classes, rng: Rng, task_id: int) -> None:
    """Add prompts for a new task's classes; their keys come later."""
    dup = set(new_classes) & set(books.task_of)
    if dup:
        raise CodebookError(f"classes already present: {sorted(dup)}")
    if len(set(new_classes)) != len(new_classes):
        raise CodebookError("duplicate class id within the new task")
    for cid in new_classes:
        books.p[cid] = rng.child(f"p{cid}").normal((books.d,), std=PROMPT_INIT_STD)
        books.Q[cid] = np.zeros(books.q_shape(), np.float32)
        books.A[cid] = np.ones(books.d, np.float32)
        books.task_of[cid] = task_id


def compute_keys(books: Codebooks, stack: FrozenStack, class_embeds: dict) -> dict:
    """Every class's unit key, recomputed from its prompt: class -> (d,)."""
    for cid in books.class_ids:
        if cid not in class_embeds:
            raise CodebookError(f"no class-name embedding for class {cid}")
    if not books.task_of:
        return {}
    rows = key_tensor(books, stack, class_embeds, books.class_ids).data
    return {cid: rows[i].copy() for i, cid in enumerate(books.class_ids)}


def key_tensor(books: Codebooks, stack: FrozenStack, class_embeds: dict, cids,
               p_tensor: ad.Tensor | None = None) -> ad.Tensor:
    """Differentiable (C, d) keys of classes ``cids``, encoded as one batch;
    pass a (C, d) ``p_tensor`` to share a leaf."""
    p = p_tensor if p_tensor is not None else ad.constant(np.stack([books.p[c] for c in cids]))
    return text_encode(stack, p, [class_embeds[c] for c in cids])


@dataclass
class Selection:
    class_id: np.ndarray   # (b,) ids for a (b, d) query batch
    sim: np.ndarray        # (b,)
    sims: np.ndarray       # over the key class ids, ascending order; (b, C)


def select(keys: dict, z, A: dict) -> Selection:
    """Pick, per query row, the class whose prototype key best matches it.

    ``keys`` and ``A`` map class -> (d,). The query is reweighted per class
    (z * A_c) and re-normalized so the similarity stays a bounded cosine; a
    zero-norm query maps to similarity 0. Exact ties go to the lowest class
    index. Works over any leading axes of ``z``: a (d,) query gives 0-d results.
    """
    ids = sorted(keys)
    if not ids:
        raise CodebookError("select: empty key set")
    z = np.asarray(z, dtype=np.float32)
    K = np.stack([keys[c] for c in ids])
    q = z[..., None, :] * np.stack([A[c] for c in ids])  # (..., C, d)
    # vecdot reduces each row like the 1-D BLAS dot, so rows match
    # single-query calls bit for bit
    n = np.sqrt(np.vecdot(q, q))[..., None]
    ok = n >= 1e-8
    q = np.where(ok, q / np.where(ok, n, 1.0), 0.0)
    sims = np.vecdot(q, K).astype(np.float32)
    best = np.argmax(sims, axis=-1)  # argmax returns the first (lowest-id) maximum
    return Selection(class_id=np.asarray(ids)[best],
                     sim=np.take_along_axis(sims, best[..., None], axis=-1)[..., 0],
                     sims=sims)


def weighted_similarity(z, A, w) -> ad.Tensor:
    """Differentiable ⟨normalize(z ⊙ A), w⟩ over the last axis, row-wise over
    any leading axis; rebuilds the selected classes' similarities inside a
    training graph (gradient reaches A)."""
    z = z if isinstance(z, ad.Tensor) else ad.constant(z)
    w = w if isinstance(w, ad.Tensor) else ad.constant(w)
    return ad.rsum(ad.mul(ad.l2_normalize(ad.mul(z, A)), w), axis=-1)


def build_residual(Q, sim) -> ad.Tensor:
    """Per-layer residual sim * Q[l]; row-wise for a (b, ...) batch of Q with
    a (b,) vector of sims."""
    Q = Q if isinstance(Q, ad.Tensor) else ad.constant(Q)
    sim = sim if isinstance(sim, ad.Tensor) else ad.constant(sim)
    return ad.mul(Q, ad.reshape(sim, sim.shape + (1,) * (Q.ndim - sim.ndim)))


# ---------------------------------------------------------------------------
# checkpointing


def save_codebooks(path, books: Codebooks) -> None:
    cids = books.class_ids
    arrays = {
        "meta": np.array([books.d, books.L, books.d_prime, books.prefix_tokens],
                         dtype=np.int64),
        "class_ids": np.array(cids, dtype=np.int64),
        "task_of": np.array([books.task_of[c] for c in cids], dtype=np.int64),
    }
    for cid in cids:
        arrays[f"p{cid}"] = books.p[cid]
        arrays[f"Q{cid}"] = books.Q[cid]
        arrays[f"A{cid}"] = books.A[cid]
        if cid in books.keys:
            arrays[f"w{cid}"] = books.keys[cid]
    write_archive(path, CODEBOOK_MAGIC, arrays)


def load_codebooks(path) -> Codebooks:
    """Read codebooks written by ``save_codebooks``; other entries are ignored."""
    arrays = read_archive(path, CODEBOOK_MAGIC)
    d, L, d_prime, prefix_tokens = (int(v) for v in arrays["meta"])
    books = Codebooks(d=d, L=L, d_prime=d_prime, prefix_tokens=prefix_tokens)
    for cid, task in zip(arrays["class_ids"], arrays["task_of"], strict=True):
        cid = int(cid)
        books.p[cid] = arrays[f"p{cid}"]
        books.Q[cid] = arrays[f"Q{cid}"]
        books.A[cid] = arrays[f"A{cid}"]
        books.task_of[cid] = int(task)
        if f"w{cid}" in arrays:
            books.keys[cid] = arrays[f"w{cid}"]
    return books
