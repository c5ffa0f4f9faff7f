"""Two-level prompt codebooks: prototype keys, confidence-weighted selection,
and residual construction, with the per-task freeze discipline.

Parameters live as numpy arrays; training code wraps the trainable ones in
graph tensors per step, so frozen entries are bitwise untouchable by design.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoders import ClassNameEmbedding, FrozenStack, text_encode
from .featureio import read_archive, write_archive
from .rng import Rng

CODEBOOK_MAGIC = b"STARCDBK"

PROMPT_INIT_STD = 0.02


class CodebookError(ValueError):
    pass


@dataclass
class Codebooks:
    d: int
    L: int
    d_prime: int
    prefix_tokens: int = 0   # 0 = residual conditioning; >0 = tokens per key/value
    class_ids: list = field(default_factory=list)       # ascending
    p: dict = field(default_factory=dict)               # class -> (d,)
    Q: dict = field(default_factory=dict)               # class -> (L, d') or (L, 2n, d')
    A: dict = field(default_factory=dict)               # class -> (d,)
    trainable: dict = field(default_factory=dict)       # class -> bool
    task_of: dict = field(default_factory=dict)         # class -> owning task

    def q_shape(self):
        if self.prefix_tokens:
            return (self.L, 2 * self.prefix_tokens, self.d_prime)
        return (self.L, self.d_prime)


def extend_codebooks(books: Codebooks, new_classes, rng: Rng, task_id: int) -> None:
    """Add prompts for a new task's classes and freeze all earlier entries."""
    dup = set(new_classes) & set(books.class_ids)
    if dup:
        raise CodebookError(f"classes already present: {sorted(dup)}")
    if len(set(new_classes)) != len(new_classes):
        raise CodebookError("duplicate class id within the new task")
    for cid in books.class_ids:
        books.trainable[cid] = False
    for cid in new_classes:
        books.p[cid] = rng.child(f"p{cid}").normal((books.d,), std=PROMPT_INIT_STD)
        books.Q[cid] = np.zeros(books.q_shape(), np.float32)
        books.A[cid] = np.ones(books.d, np.float32)
        books.trainable[cid] = True
        books.task_of[cid] = task_id
    books.class_ids = sorted(set(books.class_ids) | set(new_classes))


@dataclass
class PrototypeKeys:
    keys: dict = field(default_factory=dict)  # class -> unit (d,) vector

    def class_ids(self):
        return sorted(self.keys)


def compute_keys(books: Codebooks, stack: FrozenStack, class_embeds: dict) -> PrototypeKeys:
    """Recompute every class key from its (frozen or trainable) prompt."""
    keys = {}
    for cid in books.class_ids:
        if cid not in class_embeds:
            raise CodebookError(f"no class-name embedding for class {cid}")
        keys[cid] = text_encode(stack, books.p[cid], class_embeds[cid]).data.copy()
    return PrototypeKeys(keys=keys)


def key_tensor(books: Codebooks, stack: FrozenStack, class_embeds: dict, cid: int,
               p_tensor: ad.Tensor | None = None) -> ad.Tensor:
    """Differentiable key for one class; pass ``p_tensor`` to share a leaf."""
    p = p_tensor if p_tensor is not None else ad.constant(books.p[cid])
    return text_encode(stack, p, class_embeds[cid])


@dataclass
class Selection:
    class_id: int
    sim: float
    sims: np.ndarray      # over the key class ids, ascending order


def select(keys: PrototypeKeys, z, A: dict | None = None) -> Selection:
    """Pick the class whose prototype key best matches the visual query.

    The query is reweighted per class (z * A_c) and re-normalized so the
    similarity stays a bounded cosine. Exact ties go to the lowest class index.
    """
    ids = keys.class_ids()
    if not ids:
        raise CodebookError("select: empty key set")
    z = np.asarray(z, dtype=np.float32)
    sims = np.empty(len(ids), np.float32)
    for i, cid in enumerate(ids):
        q = z * (A[cid] if A is not None else 1.0)
        n = np.linalg.norm(q)
        q = q / n if n >= 1e-8 else q * 0.0
        sims[i] = q @ keys.keys[cid]
    best = int(np.argmax(sims))  # argmax returns the first (lowest-id) maximum
    return Selection(class_id=ids[best], sim=float(sims[best]), sims=sims)


def weighted_similarity(z, A, w) -> ad.Tensor:
    """Differentiable ⟨normalize(z ⊙ A), w⟩ used to rebuild the selected
    class's similarity inside a training graph (gradient reaches A)."""
    z = z if isinstance(z, ad.Tensor) else ad.constant(z)
    w = w if isinstance(w, ad.Tensor) else ad.constant(w)
    return ad.dot(ad.l2_normalize(ad.mul(z, A)), w)


def build_residual(Q, sim) -> ad.Tensor:
    """Per-layer residual: sim * Q[l]."""
    Q = Q if isinstance(Q, ad.Tensor) else ad.constant(Q)
    if isinstance(sim, ad.Tensor):
        return ad.mul(Q, sim)
    return ad.scale(Q, float(sim))


# ---------------------------------------------------------------------------
# checkpointing


def save_codebooks(path, books: Codebooks, keys: PrototypeKeys | None = None) -> None:
    arrays = {
        "meta": np.array([books.d, books.L, books.d_prime, books.prefix_tokens],
                         dtype=np.int64),
        "class_ids": np.array(books.class_ids, dtype=np.int64),
        "trainable": np.array([int(books.trainable[c]) for c in books.class_ids],
                              dtype=np.int64),
        "task_of": np.array([books.task_of[c] for c in books.class_ids], dtype=np.int64),
    }
    for cid in books.class_ids:
        arrays[f"p{cid}"] = books.p[cid]
        arrays[f"Q{cid}"] = books.Q[cid]
        arrays[f"A{cid}"] = books.A[cid]
        if keys is not None and cid in keys.keys:
            arrays[f"w{cid}"] = keys.keys[cid]
    write_archive(path, CODEBOOK_MAGIC, arrays)


def load_codebooks(path):
    arrays = read_archive(path, CODEBOOK_MAGIC)
    d, L, d_prime, prefix_tokens = (int(v) for v in arrays["meta"])
    books = Codebooks(d=d, L=L, d_prime=d_prime, prefix_tokens=prefix_tokens)
    keys = PrototypeKeys()
    books.class_ids = [int(c) for c in arrays["class_ids"]]
    for i, cid in enumerate(books.class_ids):
        books.p[cid] = arrays[f"p{cid}"]
        books.Q[cid] = arrays[f"Q{cid}"]
        books.A[cid] = arrays[f"A{cid}"]
        books.trainable[cid] = bool(arrays["trainable"][i])
        books.task_of[cid] = int(arrays["task_of"][i])
        if f"w{cid}" in arrays:
            keys.keys[cid] = arrays[f"w{cid}"]
    return books, keys
