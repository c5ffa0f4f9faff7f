import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promptcl import autodiff as ad
from promptcl.optim import AdamState, GradientError, adam_step, grad_check


def test_zero_gradient_leaves_params_unchanged():
    state = AdamState(lr=0.1)
    w = np.array([1.0, -2.0], dtype=np.float32)
    adam_step(state, {"w": w}, {"w": np.zeros_like(w)})
    np.testing.assert_array_equal(w, [1.0, -2.0])
    assert state.step_count == 1


def test_single_step_descends_quadratic():
    state = AdamState(lr=0.1)
    w = np.array([1.0], dtype=np.float32)
    adam_step(state, {"w": w}, {"w": np.array([2.0], dtype=np.float32)})  # d/dw w^2 at 1
    assert w[0] < 1.0


def test_convergence_to_minimum():
    state = AdamState(lr=0.1)
    w = np.array([0.0], dtype=np.float32)
    for _ in range(200):
        g = 2.0 * (w - 3.0)
        adam_step(state, {"w": w}, {"w": g.astype(np.float32)})
    assert abs(w[0] - 3.0) < 0.05


def test_nan_gradient_names_parameter():
    state = AdamState()
    w = np.array([1.0], dtype=np.float32)
    with pytest.raises(GradientError, match="theta"):
        adam_step(state, {"theta": w}, {"theta": np.array([np.nan], dtype=np.float32)})


def test_gradient_shape_mismatch_rejected():
    state = AdamState()
    w = np.zeros(3, dtype=np.float32)
    with pytest.raises(GradientError):
        adam_step(state, {"w": w}, {"w": np.zeros(4, dtype=np.float32)})


def test_adam_deterministic_trajectory():
    def run():
        state = AdamState(lr=0.01)
        w = np.linspace(-1, 1, 5).astype(np.float32)
        for k in range(50):
            g = (w * (k % 3 + 1)).astype(np.float32)
            adam_step(state, {"w": w}, {"w": g})
        return w.tobytes()

    assert run() == run()


def test_grad_check_linear():
    def fn(t):
        return ad.rsum(ad.mul(t["w"], ad.constant([1.0, 2.0, 3.0])))

    report = grad_check(fn, {"w": np.array([0.5, -0.5, 2.0])}, tol=1e-6)
    assert report.passed
    assert report.max_rel_err < 1e-6


def test_grad_check_log_softmax_l2_normalize():
    rng = np.random.Generator(np.random.Philox(5))
    x0 = rng.standard_normal((4, 6))

    def fn(t):
        h = ad.log_softmax(ad.l2_normalize(t["x"]))
        return ad.mean(ad.mul(h, h))

    report = grad_check(fn, {"x": x0}, tol=1e-4)
    assert report.passed


def test_grad_check_does_not_depend_on_the_callers_layout():
    # a transposed float64 view is not C-contiguous: perturbing a flat copy of
    # it, which the loss never reads, would make every difference 0
    x = np.arange(6.0).reshape(2, 3).T
    before = x.copy()
    report = grad_check(lambda t: ad.rsum(ad.mul(t["x"], t["x"])), {"x": x})
    assert report.max_rel_err < 1e-8
    np.testing.assert_array_equal(x, before)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n_rows=st.integers(1, 5), shape=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       masks=st.lists(st.lists(st.booleans(), min_size=5, max_size=5), min_size=3,
                      max_size=8),
       seed=st.integers(0, 2**16), lr=st.sampled_from((0.001, 0.05, 0.3)))
def test_row_mask_matches_one_parameter_per_row(n_rows, shape, masks, seed, lr):
    # lazy Adam on a stacked array against the scheme it replaces: each row a
    # parameter of its own, with a gradient entry only when its row is masked in
    rng = np.random.Generator(np.random.Philox(seed))
    init = rng.standard_normal((n_rows, *shape)).astype(np.float32)
    masks = [np.array(m[:n_rows]) for m in masks]
    masks[0][-1] = masks[1][-1] = False  # the last row is first touched at step 3
    masks[2][-1] = True
    stacked, per_row = AdamState(lr=lr), AdamState(lr=lr)
    whole = init.copy()
    rows = {f"r{i}": init[i].copy() for i in range(n_rows)}
    for mask in masks:
        g = (rng.standard_normal(init.shape) * 10.0 ** rng.integers(-3, 3)).astype(np.float32)
        adam_step(stacked, {"P": whole}, {"P": g}, rows={"P": mask})
        adam_step(per_row, rows, {f"r{i}": g[i] for i in range(n_rows) if mask[i]})
    for i in range(n_rows):
        assert whole[i].tobytes() == rows[f"r{i}"].tobytes()
        for moments in ("m", "v"):
            ref = getattr(per_row, moments).get(f"r{i}", np.zeros_like(init[i]))
            assert getattr(stacked, moments)["P"][i].tobytes() == ref.tobytes()


def test_missing_or_none_gradient_leaves_param_and_moments_alone():
    state = AdamState(lr=0.1)
    w = np.ones(2, np.float32)
    adam_step(state, {"w": w, "u": np.ones(1, np.float32)}, {"w": None})
    np.testing.assert_array_equal(w, 1.0)
    assert state.m == {} and state.step_count == 1
