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
from .featureio import FormatError, archive_entry, read_archive, write_archive
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

    def groups(self) -> list:
        """Each task's classes in ascending order, indexed by task."""
        tasks = range(max(self.task_of.values(), default=-1) + 1)
        return [[c for c in self.class_ids if self.task_of[c] == t] for t in tasks]

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

    def __getitem__(self, rows) -> Selection:
        """The selections of query rows ``rows`` (an index, a slice or an
        index array)."""
        return Selection(self.class_id[rows], self.sim[rows], self.sims[rows])


def select(keys: dict, z, A: dict) -> Selection:
    """Pick, per query row, the class whose prototype key best matches it.

    ``keys`` and ``A`` map class -> (d,); ``similarities`` scores every
    class and ``pick`` chooses. Works over any leading axes of ``z``: a (d,)
    query gives 0-d results.
    """
    ids = sorted(keys)
    if not ids:
        raise CodebookError("select: empty key set")
    return pick(np.asarray(ids), similarities(z, keys, A, ids))


def similarities(z, keys: dict, A: dict, cids) -> np.ndarray:
    """(..., len(cids)) float32 similarities of queries ``z`` (..., d) to the
    keys of classes ``cids``. The query is reweighted per class (z * A_c)
    and re-normalized, so the similarity stays a bounded cosine; a zero-norm
    query maps to similarity 0.

    Every entry is reduced on its own, so a class's column does not depend
    on which other classes are scored with it, nor a row on the batch.
    """
    z = np.asarray(z, dtype=np.float32)
    q = z[..., None, :] * np.array([A[c] for c in cids])  # (..., C, d)
    # vecdot reduces each row like the 1-D BLAS dot, so rows match
    # single-query calls bit for bit
    n = np.sqrt(np.vecdot(q, q))
    ok = n >= 1e-8
    q /= np.where(ok, n, 1.0)[..., None]
    q[~ok] = 0.0
    return np.vecdot(q, np.array([keys[c] for c in cids])).astype(np.float32, copy=False)


def pick(ids: np.ndarray, sims: np.ndarray) -> Selection:
    """The best of the classes ``ids`` (ascending) per row of ``sims``
    (..., C). Exact ties go to the lowest class index."""
    best = np.argmax(sims, axis=-1)  # argmax returns the first (lowest-id) maximum
    rows = sims.reshape(-1, sims.shape[-1])
    sim = rows[np.arange(len(rows)), best.reshape(-1)].reshape(best.shape)
    return Selection(class_id=ids[best], sim=sim, sims=sims)


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
    """Write the per-class records, each with its key (a class without one
    raises CodebookError); the geometry (``d``, ``L``, ``d'``, prefix tokens)
    is not repeated here, it lives in the checkpoint's trainer.json."""
    cids = books.class_ids
    arrays = {
        "class_ids": np.array(cids, dtype=np.int64),
        "task_of": np.array([books.task_of[c] for c in cids], dtype=np.int64),
    }
    for cid in cids:
        if cid not in books.keys:
            raise CodebookError(f"class {cid} has no key to save")
        arrays[f"p{cid}"] = books.p[cid]
        arrays[f"Q{cid}"] = books.Q[cid]
        arrays[f"A{cid}"] = books.A[cid]
        arrays[f"w{cid}"] = books.keys[cid]
    write_archive(path, CODEBOOK_MAGIC, arrays)


def load_codebooks(path, books: Codebooks) -> Codebooks:
    """Fill the empty ``books`` from an archive written by ``save_codebooks``,
    checking every entry against ``books``' geometry; its class ids must be
    distinct and its owning tasks must number 0..T-1. Other entries (older
    archives' ``meta`` and ``trainable``) are ignored; a missing or misshapen
    one raises FormatError naming it."""
    arrays = read_archive(path, CODEBOOK_MAGIC)
    # rows are float32 however an edited archive stored them: they feed float32 graphs
    arrays = {k: v.astype(np.float32) if v.dtype == np.float64 else v for k, v in arrays.items()}
    cids = archive_entry(arrays, path, "class_ids", "i", (None,)).tolist()
    if len(set(cids)) != len(cids):
        raise FormatError(f"{path}: entry 'class_ids' repeats a class id")
    tasks = archive_entry(arrays, path, "task_of", "i", (len(cids),)).tolist()
    if sorted(set(tasks)) != list(range(len(set(tasks)))):
        raise FormatError(f"{path}: entry 'task_of' must number the tasks 0..T-1")
    for cid, task in zip(cids, tasks):
        books.p[cid] = archive_entry(arrays, path, f"p{cid}", "f", (books.d,))
        books.Q[cid] = archive_entry(arrays, path, f"Q{cid}", "f", books.q_shape())
        books.A[cid] = archive_entry(arrays, path, f"A{cid}", "f", (books.d,))
        books.keys[cid] = archive_entry(arrays, path, f"w{cid}", "f", (books.d,))
        books.task_of[cid] = task
    return books
