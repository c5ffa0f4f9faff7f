"""Deterministic frozen stand-ins for the text encoder, vision encoder, and
the main transformer, including the per-layer residual injection hook.

All weights are pure functions of (config, seed) and are never updated by any
optimizer; gradients only ever flow into prompt tokens, residuals, or prefix
tokens passed in from outside. A block holds only its six weight matrices
(``wq wk wv wo w1 w2``), no biases. Blocks run in float32 unless a float64
prompt, residual or prefix (the gradient oracle's) enters them.
"""
from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import PromptclError
from . import autodiff as ad
from .rng import Rng, stable_name_seed

CLIP_DEPTH = 2  # blocks in the mini text/vision encoders


class ConfigError(PromptclError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 32            # CLIP-space embedding dim
    d_prime: int = 64      # main-transformer hidden dim
    L: int = 4             # main-transformer blocks
    heads: int = 4
    seq_len: int = 17      # tokens per input, CLS included
    tau: float = 0.01      # softmax temperature for prototype logits
    patch_dim: int = 16    # raw dimension of one input patch row

    def __post_init__(self):
        for name in ("d", "d_prime", "L", "heads", "seq_len", "patch_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"'{name}' must be an int, got {value!r}")
        if min(self.d, self.d_prime, self.L, self.heads, self.seq_len, self.patch_dim) < 1:
            raise ConfigError("all structural dims must be >= 1")
        if self.d_prime % self.heads:
            raise ConfigError(f"d_prime={self.d_prime} not divisible by heads={self.heads}")
        real = isinstance(self.tau, numbers.Real) and not isinstance(self.tau, bool)
        if not (real and 0 < self.tau < np.inf):
            raise ConfigError(f"'tau' must be positive and finite, got {self.tau!r}")
        if self.seq_len < 2:
            raise ConfigError("seq_len must include CLS plus at least one patch")

    @property
    def patches(self) -> int:
        return self.seq_len - 1

    @property
    def clip_heads(self) -> int:
        for h in (self.heads, 4, 2, 1):
            if self.d % h == 0:
                return h


def class_name_embed(name: str, config: EncoderConfig) -> np.ndarray:
    """Unit d-vector per class name; a seeded-hash tokenizer surrogate, stable across platforms."""
    if not name:
        raise ConfigError("class name must be nonempty")
    v = Rng(stable_name_seed("clname:" + name)).normal((config.d,))
    v /= np.linalg.norm(v)
    return v.astype(np.float32)


def _init_block(rng: Rng, dim: int) -> dict:
    s = 1.0 / np.sqrt(dim)
    hidden = 4 * dim
    return {
        "wq": rng.normal((dim, dim), std=s),
        "wk": rng.normal((dim, dim), std=s),
        "wv": rng.normal((dim, dim), std=s),
        "wo": rng.normal((dim, dim), std=s),
        "w1": rng.normal((dim, hidden), std=s),
        "w2": rng.normal((hidden, dim), std=1.0 / np.sqrt(hidden)),
    }


def _orthogonal(rng: Rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal((dim, dim), dtype=np.float64))
    q *= np.sign(np.diag(r))
    return q.astype(np.float32)


@dataclass
class FrozenStack:
    config: EncoderConfig
    seed: int
    text_blocks: list = field(repr=False, default_factory=list)
    text_pos: np.ndarray = None
    text_out: np.ndarray = None
    vis_blocks: list = field(repr=False, default_factory=list)
    vis_patch: np.ndarray = None
    vis_pos: np.ndarray = None
    vis_cls: np.ndarray = None
    vis_out: np.ndarray = None
    main_blocks: list = field(repr=False, default_factory=list)
    main_patch: np.ndarray = None
    main_pos: np.ndarray = None
    main_cls: np.ndarray = None

    def all_arrays(self):
        for group in (self.text_blocks, self.vis_blocks, self.main_blocks):
            for blk in group:
                for k in sorted(blk):
                    yield blk[k]
        for arr in (self.text_pos, self.text_out, self.vis_patch, self.vis_pos,
                    self.vis_cls, self.vis_out, self.main_patch, self.main_pos,
                    self.main_cls):
            yield arr


def stack_hash(stack: FrozenStack) -> str:
    h = hashlib.sha256()
    for arr in stack.all_arrays():
        h.update(arr.tobytes())
    return h.hexdigest()


def build_stack(config: EncoderConfig, seed: int) -> FrozenStack:
    root = Rng(seed)
    d, dp = config.d, config.d_prime
    tr = root.child("text")
    vr = root.child("vision")
    mr = root.child("main")
    return FrozenStack(
        config=config,
        seed=seed,
        text_blocks=[_init_block(tr.child(f"block{i}"), d) for i in range(CLIP_DEPTH)],
        text_pos=tr.child("pos").normal((2, d), std=0.02),
        text_out=_orthogonal(tr.child("out"), d),
        vis_blocks=[_init_block(vr.child(f"block{i}"), d) for i in range(CLIP_DEPTH)],
        vis_patch=vr.child("patch").normal((config.patch_dim, d), std=1.0 / np.sqrt(config.patch_dim)),
        vis_pos=vr.child("pos").normal((config.patches + 1, d), std=0.02),
        vis_cls=vr.child("cls").normal((d,), std=0.02),
        vis_out=_orthogonal(vr.child("out"), d),
        main_blocks=[_init_block(mr.child(f"block{i}"), dp) for i in range(config.L)],
        main_patch=mr.child("patch").normal((config.patch_dim, dp), std=1.0 / np.sqrt(config.patch_dim)),
        main_pos=mr.child("pos").normal((config.seq_len, dp), std=0.02),
        main_cls=mr.child("cls").normal((dp,), std=0.02),
    )


def text_encode(stack: FrozenStack, prompt_token, class_embed):
    """Encode each 2-token sequence [prompt; class-name] to a unit key vector.

    A ``(C, d)`` prompt batch with a sequence of C class-name embeddings
    gives ``(C, d)`` keys, row c bit-identical to encoding prompt c alone.
    Differentiable w.r.t. ``prompt_token`` when it is a Tensor requiring grad.
    """
    d = stack.config.d
    p = prompt_token if isinstance(prompt_token, ad.Tensor) else ad.constant(prompt_token)
    names = np.stack(class_embed)
    if names.shape[-1:] != (d,):
        raise ad.ShapeError(f"text_encode: class embedding shape {names.shape}")
    if p.shape != names.shape:
        raise ad.ShapeError(
            f"text_encode: prompt token shape {p.shape}, expected {names.shape}")
    tokens = ad.add(ad.stack([p, ad.constant(names)], axis=-2),
                    ad.constant(stack.text_pos))
    h = tokens
    for blk in stack.text_blocks:
        h = ad.frozen_block(h, blk, stack.config.clip_heads)
    pooled = ad.mean(h, axis=-2)
    out = ad.matmul(pooled, ad.constant(stack.text_out))
    return ad.l2_normalize(out)


def _check_grid(x, patches, patch_dim, who):
    """``x`` as float32 token grids ``(..., patches, patch_dim)``."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-2:] != (patches, patch_dim):
        raise ad.ShapeError(f"{who}: token grid {x.shape[-2:]}, expected {(patches, patch_dim)}")
    return x


def vision_encode(stack: FrozenStack, x) -> np.ndarray:
    """Map raw token grids ``(..., patches, patch_dim)`` to l2-normalized
    ``(..., d)`` vectors. Never differentiable."""
    cfg = stack.config
    x = _check_grid(x, cfg.patches, cfg.patch_dim, "vision_encode")
    emb = np.matmul(x, stack.vis_patch)
    cls = np.broadcast_to(stack.vis_cls, x.shape[:-2] + (1, cfg.d))
    tokens = np.concatenate([cls, emb], axis=-2) + stack.vis_pos
    h = ad.constant(tokens)
    for i, blk in enumerate(stack.vis_blocks):
        h = ad.frozen_block(h, blk, cfg.clip_heads, cls_only=i == len(stack.vis_blocks) - 1)
    cls_out = h.data[..., 0, :] @ stack.vis_out
    return ad.l2_normalize(ad.constant(cls_out)).data


def embed_tokens(stack: FrozenStack, x) -> np.ndarray:
    """Patch-embed raw inputs for the main transformer: (..., seq_len, d')."""
    cfg = stack.config
    x = _check_grid(x, cfg.patches, cfg.patch_dim, "embed_tokens")
    emb = np.matmul(x, stack.main_patch)
    cls = np.broadcast_to(stack.main_cls, x.shape[:-2] + (1, cfg.d_prime))
    return np.concatenate([cls, emb], axis=-2) + stack.main_pos


def vit_forward(stack: FrozenStack, x=None, residuals=None, tokens=None,
                prefix=None):
    """Run the main transformer and return the CLS output of the last block.

    ``residuals``: Tensor (L, d') for one sample or (b, L, d') for a batch;
    row l is added (broadcast across token positions) to the post-attention
    activation of block l. ``prefix``: Tensor (b, L, 2*n_tok, d') of per-layer
    key/value prompt tokens, used instead of residuals. Differentiable only
    w.r.t. ``residuals`` / ``prefix``. The last block computes only the CLS
    row; its keys and values still cover every token.
    """
    cfg = stack.config
    if tokens is None:
        tokens = embed_tokens(stack, x)
    tokens = np.asarray(tokens, dtype=np.float32)
    squeeze = tokens.ndim == 2
    if squeeze:
        tokens = tokens[None]
    if tokens.shape[-2:] != (cfg.seq_len, cfg.d_prime):
        raise ad.ShapeError(f"vit_forward: tokens shape {tokens.shape}")
    b = tokens.shape[0]

    if residuals is not None and prefix is not None:
        raise PromptclError("vit_forward: residuals and prefix are mutually exclusive")
    if residuals is not None:
        if not isinstance(residuals, ad.Tensor):
            residuals = ad.constant(residuals)
        if residuals.ndim == 2:
            residuals = ad.reshape(residuals, (1,) + residuals.shape)
        if residuals.shape[-2:] != (cfg.L, cfg.d_prime):
            raise ad.ShapeError(
                f"vit_forward: residual shape {residuals.shape}, expected (.., {cfg.L}, {cfg.d_prime})")
    if prefix is not None:
        if not isinstance(prefix, ad.Tensor):
            prefix = ad.constant(prefix)

    h = ad.constant(tokens)
    for l, blk in enumerate(stack.main_blocks):
        res_l = pre_l = None
        if residuals is not None:
            res_l = ad.slice_axis(residuals, 1, l, l + 1)  # (b, 1, d') broadcasts over tokens
        if prefix is not None:
            layer = ad.slice_axis(prefix, 1, l, l + 1)  # (b, 1, 2*n_tok, d')
            pre_l = ad.reshape(layer, (layer.shape[0],) + layer.shape[2:])
        h = ad.frozen_block(h, blk, cfg.heads, residual=res_l, prefix_kv=pre_l,
                            cls_only=l == cfg.L - 1)
    return ad.reshape(h, (cfg.d_prime,) if squeeze else (b, cfg.d_prime))
