import numpy as np
import pytest
from scipy.special import erf

from promptcl import autodiff as ad
from promptcl import encoders as enc
from promptcl.optim import grad_check
from promptcl.rng import Rng


def small_config(**kw):
    defaults = dict(d=8, d_prime=16, L=2, heads=2, seq_len=5, tau=0.05, patch_dim=6)
    defaults.update(kw)
    return enc.EncoderConfig(**defaults)


def test_build_stack_deterministic():
    cfg = small_config()
    a = enc.build_stack(cfg, 11)
    b = enc.build_stack(cfg, 11)
    assert enc.stack_hash(a) == enc.stack_hash(b)
    c = enc.build_stack(cfg, 12)
    assert enc.stack_hash(a) != enc.stack_hash(c)


def test_blocks_hold_only_their_weight_matrices():
    stack = enc.build_stack(small_config(), 11)
    blocks = stack.text_blocks + stack.vis_blocks + stack.main_blocks
    assert len(blocks) == 2 * enc.CLIP_DEPTH + stack.config.L
    for blk in blocks:
        assert set(blk) == {"wq", "wk", "wv", "wo", "w1", "w2"}
        assert all(w.ndim == 2 and w.dtype == np.float32 for w in blk.values())


def test_encoder_output_separation():
    cfg = small_config()
    stack = enc.build_stack(cfg, 3)
    rng = Rng(5)
    zs = []
    for i in range(10):
        x = rng.normal((cfg.patches, cfg.patch_dim))
        zs.append(enc.vision_encode(stack, x))
    zs = np.stack(zs)
    sims = zs @ zs.T
    off_diag = sims[~np.eye(10, dtype=bool)]
    assert np.max(off_diag) < 0.99


def test_text_encode_contracts():
    cfg = small_config()
    stack = enc.build_stack(cfg, 7)
    emb_dog = enc.class_name_embed("dog", cfg)
    emb_cat = enc.class_name_embed("cat", cfg)
    p = Rng(1).normal((1, cfg.d), std=0.02)
    w_dog = enc.text_encode(stack, p, [emb_dog])
    w_cat = enc.text_encode(stack, p, [emb_cat])
    assert w_dog.shape == (1, cfg.d)
    assert abs(np.linalg.norm(w_dog.data) - 1.0) < 1e-6
    assert not np.allclose(w_dog.data, w_cat.data)


def test_text_encode_grad_matches_finite_differences():
    cfg = small_config()
    stack = enc.build_stack(cfg, 7)
    emb = enc.class_name_embed("dog", cfg)
    target = Rng(2).normal((1, cfg.d), dtype=np.float64)

    def fn(t):
        w = enc.text_encode(stack, t["p"], [emb])
        return ad.rsum(ad.mul(w, ad.constant(target)))

    # h=1e-4: the 0.02-scale prompt goes through a small-std layer_norm, so
    # the default step is dominated by truncation error.
    report = grad_check(fn, {"p": Rng(3).normal((1, cfg.d), std=0.02, dtype=np.float64)},
                        tol=1e-4, h=1e-4)
    assert report.passed, report.max_rel_err


def test_class_name_embed_properties():
    cfg = small_config()
    a = enc.class_name_embed("dog", cfg)
    b = enc.class_name_embed("dog", cfg)
    c = enc.class_name_embed("cat", cfg)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.float32 and a.shape == (cfg.d,)
    assert float(a @ c) < 0.99
    assert abs(np.linalg.norm(a) - 1.0) < 1e-6
    with pytest.raises(ValueError):
        enc.class_name_embed("", cfg)


def test_vision_encode_contracts():
    cfg = small_config()
    stack = enc.build_stack(cfg, 9)
    x = Rng(4).normal((cfg.patches, cfg.patch_dim))
    z1 = enc.vision_encode(stack, x)
    z2 = enc.vision_encode(stack, x)
    np.testing.assert_array_equal(z1, z2)
    assert abs(np.linalg.norm(z1) - 1.0) < 1e-6
    with pytest.raises(ad.ShapeError):
        enc.vision_encode(stack, Rng(4).normal((cfg.patches + 1, cfg.patch_dim)))


def test_vit_zero_residual_is_identity():
    cfg = small_config()
    stack = enc.build_stack(cfg, 13)
    x = Rng(6).normal((cfg.patches, cfg.patch_dim))
    plain = enc.vit_forward(stack, x)
    zeros = np.zeros((cfg.L, cfg.d_prime), np.float32)
    with_res = enc.vit_forward(stack, x, residuals=zeros)
    assert plain.data.tobytes() == with_res.data.tobytes()


def test_vit_residual_grad_matches_finite_differences():
    cfg = small_config()
    stack = enc.build_stack(cfg, 13)
    x = Rng(8).normal((cfg.patches, cfg.patch_dim), dtype=np.float64)
    probe = Rng(9).normal((cfg.d_prime,), dtype=np.float64)

    def fn(t):
        out = enc.vit_forward(stack, x, residuals=t["r"])
        return ad.rsum(ad.mul(out, ad.constant(probe)))

    r0 = Rng(10).normal((cfg.L, cfg.d_prime), std=0.1, dtype=np.float64)
    report = grad_check(fn, {"r": r0}, tol=1e-4)
    assert report.passed, report.max_rel_err


def _reference_forward(stack, tokens, residuals=None, prefix=None):
    """Independent plain-numpy forward pass (the oracle). ``prefix`` (L, 2n, d')
    holds each layer's n key rows, then its n value rows."""
    cfg = stack.config

    def ln(x):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5)

    h = tokens.astype(np.float64)
    for l, blk in enumerate(stack.main_blocks):
        x = ln(h)
        q, k, v = x @ blk["wq"], x @ blk["wk"], x @ blk["wv"]
        if prefix is not None:
            n = prefix.shape[1] // 2
            k = np.concatenate([prefix[l, :n], k])
            v = np.concatenate([prefix[l, n:], v])
        dh = cfg.d_prime // cfg.heads
        parts = []
        for i in range(cfg.heads):
            sl = slice(i * dh, (i + 1) * dh)
            s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            s = np.exp(s - s.max(-1, keepdims=True))
            s /= s.sum(-1, keepdims=True)
            parts.append(s @ v[:, sl])
        msa = np.concatenate(parts, -1) @ blk["wo"]
        e = h + msa
        if residuals is not None:
            e = e + residuals[l]
        y = ln(e)
        a = y @ blk["w1"]
        a = a * 0.5 * (1 + erf(a / np.sqrt(2)))
        h = e + a @ blk["w2"]
    return h[0]


@pytest.mark.parametrize("with_residual", [False, True])
def test_vit_matches_reference_forward(with_residual):
    cfg = enc.EncoderConfig(d=8, d_prime=8, L=1, heads=1, seq_len=4, tau=0.05, patch_dim=6)
    stack = enc.build_stack(cfg, 21)
    x = Rng(11).normal((cfg.patches, cfg.patch_dim))
    res = Rng(12).normal((cfg.L, cfg.d_prime), std=0.3) if with_residual else None
    tokens = enc.embed_tokens(stack, x)
    expected = _reference_forward(stack, tokens, res)
    got = enc.vit_forward(stack, x, residuals=res)
    np.testing.assert_allclose(got.data, expected, atol=1e-5)


@pytest.mark.parametrize("with_residual", [False, True])
def test_vit_multihead_matches_reference_forward(with_residual):
    cfg = enc.EncoderConfig(d=8, d_prime=8, L=2, heads=4, seq_len=4, tau=0.05, patch_dim=6)
    stack = enc.build_stack(cfg, 21)
    x = Rng(11).normal((cfg.patches, cfg.patch_dim))
    res = Rng(12).normal((cfg.L, cfg.d_prime), std=0.3) if with_residual else None
    tokens = enc.embed_tokens(stack, x)
    expected = _reference_forward(stack, tokens, res)
    got = enc.vit_forward(stack, x, residuals=res)
    np.testing.assert_allclose(got.data, expected, atol=1e-5)


@pytest.mark.parametrize("heads", [1, 4])
def test_vit_prefix_matches_reference_forward(heads):
    cfg = enc.EncoderConfig(d=8, d_prime=8, L=2, heads=heads, seq_len=4, tau=0.05, patch_dim=6)
    stack = enc.build_stack(cfg, 21)
    x = Rng(11).normal((cfg.patches, cfg.patch_dim))
    prefix = Rng(12).normal((cfg.L, 6, cfg.d_prime), std=0.5)
    tokens = enc.embed_tokens(stack, x)
    expected = _reference_forward(stack, tokens, prefix=prefix)
    got = enc.vit_forward(stack, x, prefix=prefix[None])
    np.testing.assert_allclose(got.data, expected, atol=1e-5)


def test_text_encode_batch_rows_equal_single_calls():
    cfg = small_config()
    stack = enc.build_stack(cfg, 7)
    embeds = [enc.class_name_embed(f"class-{i}", cfg) for i in range(5)]
    prompts = Rng(4).normal((5, cfg.d), std=0.02)
    keys = enc.text_encode(stack, prompts, embeds)
    assert keys.shape == (5, cfg.d)
    for i in range(5):
        single = enc.text_encode(stack, prompts[i:i + 1], embeds[i:i + 1])
        assert keys.data[i].tobytes() == single.data[0].tobytes()
    with pytest.raises(ad.ShapeError):
        enc.text_encode(stack, prompts, embeds[:4])


def test_frozen_weights_untouched_by_forward_passes():
    cfg = small_config()
    stack = enc.build_stack(cfg, 17)
    before = enc.stack_hash(stack)
    x = Rng(13).normal((3, cfg.patches, cfg.patch_dim))
    enc.vision_encode(stack, x)
    out = enc.vit_forward(stack, x, residuals=ad.Tensor(
        np.zeros((3, cfg.L, cfg.d_prime), np.float32), requires_grad=True))
    ad.mean(out).backward()
    assert enc.stack_hash(stack) == before


@pytest.mark.parametrize("field, value", [("d", 8.0), ("d", "8"), ("heads", True),
                                          ("tau", True), ("tau", "0.1"), ("tau", None)])
def test_config_field_types_are_checked(field, value):
    with pytest.raises(enc.ConfigError, match=f"'{field}' must be"):
        small_config(**{field: value})
