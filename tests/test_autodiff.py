import numpy as np
import pytest

from promptcl import autodiff as ad
from promptcl.rng import Rng


def test_l2_normalize_hand_case():
    out = ad.l2_normalize(ad.Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-6)


def test_l2_normalize_zero_row_maps_to_zero():
    out = ad.l2_normalize(ad.Tensor([[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(out.data[0], [0.0, 0.0])
    np.testing.assert_allclose(out.data[1], [1.0, 0.0])


def test_l2_rows_unit_norm():
    rng = Rng(2)
    x = ad.Tensor(rng.normal((20, 7)) + 0.5)
    y = ad.l2_normalize(x)
    np.testing.assert_allclose(np.linalg.norm(y.data, axis=-1), np.ones(20), atol=1e-6)


def test_backward_quadratic():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    loss = ad.rsum(ad.mul(w, w))
    loss.backward()
    np.testing.assert_allclose(w.grad, [2.0, 4.0], atol=1e-6)


def test_backward_cross_entropy_uniform_is_softmax_minus_onehot():
    logits = ad.Tensor([0.0, 0.0, 0.0], requires_grad=True)
    onehot = ad.constant([1.0, 0.0, 0.0])
    loss = ad.scale(ad.rsum(ad.mul(ad.log_softmax(logits), onehot)), -1.0)
    loss.backward()
    expected = np.array([1 / 3, 1 / 3, 1 / 3]) - np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(logits.grad, expected, atol=1e-6)


def test_backward_twice_raises():
    w = ad.Tensor([1.0], requires_grad=True)
    loss = ad.rsum(ad.mul(w, w))
    loss.backward()
    with pytest.raises(ad.GraphError):
        loss.backward()


def test_backward_frees_intermediate_grads():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    mid = ad.mul(w, w)
    loss = ad.rsum(mid)
    loss.backward()
    assert mid.grad is None
    assert w.grad is not None


def test_shape_mismatch_named_error():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((4, 5)))
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4))))


def test_nonfinite_input_rejected():
    with pytest.raises(ad.NonFiniteError):
        ad.Tensor([np.nan, 1.0])


def test_nonfinite_output_names_the_op():
    # 1e30 * 1e10 overflows float32: the op that produced the inf is named
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="'scale'"):
        ad.scale(ad.Tensor([1e30, 0.0]), 1e10)


def test_tensor_precision_follows_its_data():
    # a float64 array stays float64; numbers, lists and other arrays are float32
    assert ad.Tensor(np.zeros(3, np.float64)).data.dtype == np.float64
    for data in (1.5, 2, [1.0, 2.0], np.zeros(3, np.float32), np.arange(3),
                 np.float64(0.5)):
        assert ad.Tensor(data).data.dtype == np.float32, data
        assert ad.constant(data).data.dtype == np.float32, data
    f64, f32 = ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3, np.float32))
    assert ad.add(f64, f32).data.dtype == np.float64
    assert ad.mul(f32, f64).data.dtype == np.float64
    assert ad.add(f32, 1.0).data.dtype == np.float32
    assert ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 2), np.float32))
                     ).data.dtype == np.float64


def test_erf32_accuracy_odd_and_finite():
    from scipy.special import erf

    grid = np.concatenate([np.linspace(-6, 6, 1_200_001, dtype=np.float32),
                           np.float32([0.0, -0.0, 4.0, -4.0, 1e30, -1e30])])
    got = ad.erf32(grid.copy())
    assert np.isfinite(got).all()
    assert np.abs(got - erf(grid.astype(np.float64))).max() < 5e-7
    assert np.array_equal(ad.erf32(-grid), -got)


def test_float64_gelu_matches_scipy_erf():
    from scipy.special import erf

    x = np.concatenate([np.linspace(-8, 8, 20_001), [0.0, -0.0, 1e-300, 40.0, -40.0]])
    got, slope = ad._gelu_forward(x, with_slope=True)
    assert got.dtype == slope.dtype == np.float64
    np.testing.assert_allclose(got, x * 0.5 * (1 + erf(x / np.sqrt(2))), rtol=0, atol=1e-15)


def test_float32_gelu_matches_scipy_erf():
    from scipy.special import erf

    x = np.concatenate([np.linspace(-12, 12, 1_200_001, dtype=np.float32),
                        np.float32([0.0, -0.0, 3.9 * np.sqrt(2), 1e30, -1e30])])
    with np.errstate(over="ignore"):  # the square of +-1e30 is inf in float32
        got, slope = ad._gelu_forward(x, with_slope=True)
    assert got.dtype == slope.dtype == np.float32
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1 + erf(x64 / np.sqrt(2)))
    ref = x64 * cdf
    # erf32's 5e-7 bound, halved by the 1/2 in gelu, plus the rounding of x * Phi
    bound = 5e-7 * np.abs(x64) / 2 + 4 * np.spacing(np.abs(ref).astype(np.float32))
    assert (np.abs(got - ref) <= bound).all()
    ref_slope = cdf + x64 * np.exp(-x64 * x64 / 2) / np.sqrt(2 * np.pi)
    assert np.abs(slope - ref_slope).max() < 1e-6
    plain, none = ad._gelu_forward(x[:-2], with_slope=False)
    assert none is None and plain.tobytes() == got[:-2].tobytes()


def _layer_norm_f64(x):
    xc = x - x.mean(-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(-1, keepdims=True) + ad._LN_EPS)


@pytest.mark.parametrize("mean, std", [(1e3, 1.0), (1.0, 1e-3), (0.0, 1e-3)])
def test_float32_layer_norm_is_stable_off_centre(mean, std):
    x = Rng(31).normal((256, 64), std=std) + np.float32(mean)
    x64 = x.astype(np.float64)
    ref = _layer_norm_f64(x64)
    # a float32 centre is off by up to an ulp of the row's largest entry, which
    # the division scales by 1 / std: the unit is one float32 ulp of the input
    # in output terms (for a zero-mean row, one ulp of the output scale)
    unit = np.finfo(np.float32).eps * np.abs(x64).max(-1, keepdims=True) / np.sqrt(
        x64.var(-1, keepdims=True) + ad._LN_EPS)
    y, std_out = ad._layer_norm_forward(x)
    assert y.dtype == std_out.dtype == np.float32
    assert (np.abs(y - ref) <= 4 * unit).all()
    # the one-pass form E[x^2] - mu^2 cancels away the variance off centre
    if mean:
        mu = x.mean(-1, keepdims=True, dtype=np.float32)
        var = np.maximum((x * x).mean(-1, keepdims=True, dtype=np.float32) - mu * mu, 0)
        one_pass = (x - mu) / np.sqrt(var + np.float32(ad._LN_EPS))
        assert not (np.abs(one_pass - ref) <= 4 * unit).all()


def test_float64_layer_norm_keeps_float64():
    x = Rng(32).normal((6, 8), dtype=np.float64) + 5.0
    y, std = ad._layer_norm_forward(x)
    assert y.dtype == std.dtype == np.float64
    np.testing.assert_allclose(y, _layer_norm_f64(x), rtol=0, atol=1e-14)


def test_softmax_survives_one_dominant_score():
    scores = Rng(33).normal((3, 2, 5, 9))
    scores[..., 0] += 1e4  # one prefix key far above the rest
    probs = ad._softmax_forward(scores)
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(-1), 1.0, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(probs[..., 0], 1.0)


def test_softmax_folded_max_is_np_max():
    scores = Rng(34).normal((4, 3, 6, 17))
    scores[1, 1, 1, 5] = 1e4
    for s in (scores, scores[..., :1, :], scores[..., :1], scores[:0]):
        assert ad._row_max(s).tobytes() == np.max(s, axis=-1, keepdims=True).tobytes()
    ref = np.exp(scores.astype(np.float64) - scores.max(-1, keepdims=True))
    ref /= ref.sum(-1, keepdims=True)
    np.testing.assert_allclose(ad._softmax_forward(scores), ref, rtol=0, atol=1e-6)
    # a zero maximum may come out with the other sign; exp(x - max) cannot tell
    zeros = np.float32([[-0.0] * 8 + [0.0] * 9])
    assert ad._row_max(zeros) == np.max(zeros, axis=-1)
    np.testing.assert_array_equal(ad._softmax_forward(zeros), np.full((1, 17), 1 / 17, np.float32))


def test_frozen_block_with_a_dominant_prefix_key_stays_finite():
    from promptcl.encoders import EncoderConfig, build_stack

    blk = build_stack(EncoderConfig(d=8, d_prime=8, L=1, heads=2, seq_len=4, patch_dim=4),
                      5).main_blocks[0]
    h = Rng(35).normal((2, 4, 8))
    kv = np.zeros((2, 2, 8), np.float32)
    kv[:, 0] = 1e4 * np.sign(Rng(36).normal((2, 8)))  # scores near +-1e4
    out = ad.frozen_block(ad.constant(h), blk, 2, prefix_kv=ad.constant(kv))
    assert out.data.dtype == np.float32 and np.isfinite(out.data).all()


@pytest.mark.parametrize("cls_only", [False, True])
@pytest.mark.parametrize("cond", ["residual", "prefix"])
def test_frozen_block_precision_follows_its_inputs(cls_only, cond):
    # float32 in, float32 out and float32 gradients; a float64 residual or
    # prefix (the gradient oracle's) promotes the whole block to float64
    from promptcl.encoders import EncoderConfig, build_stack

    blk = build_stack(EncoderConfig(d=8, d_prime=8, L=1, heads=2, seq_len=4, patch_dim=4),
                      5).main_blocks[0]
    rng = Rng(37)
    h0 = rng.normal((2, 4, 8))
    c0 = rng.normal((2, 1, 8) if cond == "residual" else (2, 4, 8), std=0.3)
    for dtype in (np.float32, np.float64):
        h = ad.Tensor(h0, requires_grad=True)
        c = ad.Tensor(c0.astype(dtype), requires_grad=True)
        kw = {"residual": c} if cond == "residual" else {"prefix_kv": c}
        out = ad.frozen_block(h, blk, 2, cls_only=cls_only, **kw)
        assert out.data.dtype == dtype
        grads = out._backward(np.ones_like(out.data))
        assert [g.dtype for g in grads] == [dtype, dtype]
        assert [g.shape for g in grads] == [h.shape, c.shape]


@pytest.mark.parametrize("cls_only", [False, True])
@pytest.mark.parametrize("cond", ["residual", "prefix"])
def test_frozen_block_grads_match_finite_differences(cls_only, cond):
    from promptcl.encoders import EncoderConfig, build_stack
    from promptcl.optim import grad_check

    blk = build_stack(EncoderConfig(d=8, d_prime=8, L=1, heads=2, seq_len=4, patch_dim=4),
                      5).main_blocks[0]
    rng = Rng(6)
    params = {"h": rng.normal((2, 4, 8), dtype=np.float64)}
    if cond == "residual":
        params["c"] = rng.normal((2, 1, 8), std=0.3, dtype=np.float64)
    else:
        params["c"] = rng.normal((2, 4, 8), std=0.5, dtype=np.float64)
    probe = rng.normal((2, 1 if cls_only else 4, 8), dtype=np.float64)

    def fn(t):
        kw = {"residual": t["c"]} if cond == "residual" else {"prefix_kv": t["c"]}
        out = ad.frozen_block(t["h"], blk, 2, cls_only=cls_only, **kw)
        return ad.rsum(ad.mul(out, ad.constant(probe)))

    report = grad_check(fn, params, tol=1e-6, h=1e-5)
    assert report.passed, report.per_param


def test_randomized_graphs_match_finite_differences():
    # the gradcheck oracle's generator, on seeds apart from the suite's 1000-1099
    from promptcl import cli

    for seed in range(100, 110):
        err = cli._random_graph_check(seed)
        assert err < 1e-4, f"seed {seed}: max rel err {err}"


def test_concat_stack_slice_transpose_grads():
    from promptcl.optim import grad_check

    rng = Rng(7)
    a0 = rng.normal((2, 3), dtype=np.float64)
    b0 = rng.normal((2, 3), dtype=np.float64)

    def fn(t):
        c = ad.concat([t["a"], t["b"]], axis=0)
        s = ad.stack([t["a"], t["b"]], axis=0)
        piece = ad.slice_axis(s, 2, 0, 2)
        flipped = ad.swapaxes(piece, -1, -2)
        return ad.add(ad.mean(ad.mul(c, c)), ad.mean(ad.mul(flipped, flipped)))

    report = grad_check(fn, {"a": a0, "b": b0}, tol=1e-6)
    assert report.passed


def test_determinism_bitwise_streams():
    a = Rng(1993).normal((50,))
    b = Rng(1993).normal((50,))
    assert a.tobytes() == b.tobytes()
    c = Rng(1996).normal((50,))
    assert a.tobytes() != c.tobytes()


def test_swapaxes_grad_4d():
    from promptcl.optim import grad_check

    x0 = Rng(21).normal((2, 3, 4, 5), dtype=np.float64)
    probe = Rng(22).normal((2, 4, 3, 5), dtype=np.float64)

    def fn(t):
        s = ad.swapaxes(t["x"], -3, -2)
        return ad.rsum(ad.mul(ad.mul(s, s), ad.constant(probe)))

    assert ad.swapaxes(ad.Tensor(x0), -3, -2).data.tobytes() == \
        np.ascontiguousarray(np.swapaxes(x0, 1, 2)).tobytes()
    report = grad_check(fn, {"x": x0}, tol=1e-6)
    assert report.passed, report.max_rel_err


def test_take_repeated_indices_grad():
    from promptcl.optim import grad_check

    a0 = Rng(23).normal((4, 3), dtype=np.float64)
    idx = [2, 0, 2, 2, 1]
    probe = Rng(24).normal((len(idx), 3), dtype=np.float64)

    def fn(t):
        rows = ad.take(t["a"], idx)
        return ad.rsum(ad.mul(ad.mul(rows, rows), ad.constant(probe)))

    report = grad_check(fn, {"a": a0}, tol=1e-6)
    assert report.passed, report.max_rel_err

    a = ad.Tensor(a0, requires_grad=True)
    ad.rsum(ad.take(a, idx)).backward()
    np.testing.assert_array_equal(a.grad, np.array([1, 1, 3, 0])[:, None] * np.ones((4, 3)))


def test_weighted_similarity_batched_grad_reaches_a_only():
    from promptcl import prompts as pr
    from promptcl.optim import grad_check

    rng = Rng(25)
    z = rng.normal((5, 6), dtype=np.float64)
    w = rng.normal((5, 6), dtype=np.float64)
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    a0 = rng.normal((5, 6), dtype=np.float64) + 1.0
    probe = rng.normal((5,), dtype=np.float64)

    def fn(t):
        return ad.rsum(ad.mul(pr.weighted_similarity(z, t["A"], w), ad.constant(probe)))

    report = grad_check(fn, {"A": a0}, tol=1e-5)
    assert report.passed, report.max_rel_err

    A = ad.Tensor(a0, requires_grad=True)
    sims = pr.weighted_similarity(z, A, w)
    assert sims.shape == (5,)
    for i in range(5):  # row i equals the single-row call
        assert sims.data[i] == pr.weighted_similarity(z[i], ad.Tensor(a0[i]), w[i]).item()
    ad.rsum(sims).backward()
    assert A.grad is not None and A.grad.shape == (5, 6)
