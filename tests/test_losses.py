import numpy as np
import pytest

from promptcl import autodiff as ad
from promptcl import gmm
from promptcl import losses as ls
from promptcl import optim
from promptcl.rng import Rng


def test_ce_stage1_two_equidistant_classes():
    # both keys at the same angle from z: uniform posterior, loss = ln 2
    keys = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]], np.float32))
    z = np.array([[1.0, 1.0]], np.float32) / np.sqrt(2)
    loss = ls.ce_stage1(keys, z, [0], tau=1.0)
    assert abs(loss.item() - np.log(2)) < 1e-6


def test_ce_stage1_hand_softmax_oracle():
    # z equals the true key, the other key orthogonal, tau=1:
    # loss = -ln(e / (e + 1)) ~= 0.3133
    keys = ad.constant(np.eye(2, dtype=np.float32))
    z = np.array([[1.0, 0.0]], np.float32)
    loss = ls.ce_stage1(keys, z, [0], tau=1.0)
    assert abs(loss.item() - (-np.log(np.e / (np.e + 1)))) < 1e-6


def test_ce_stage1_small_tau_limit():
    keys = ad.constant(np.eye(2, dtype=np.float32))
    z = np.array([[1.0, 0.0]], np.float32)
    loss = ls.ce_stage1(keys, z, [0], tau=1e-3)
    assert loss.item() < 1e-6


def test_ce_stage1_posteriors_sum_to_one():
    rng = Rng(1)
    keys = ad.constant(rng.normal((5, 8)))
    z = rng.normal((6, 8))
    logits = (z @ keys.data.T) / 0.05
    post = np.exp(ad.log_softmax(ad.constant(logits)).data)
    np.testing.assert_allclose(post.sum(axis=1), np.ones(6), atol=1e-6)


def test_ce_stage1_label_outside_denominator():
    keys = ad.constant(np.eye(2, dtype=np.float32))
    with pytest.raises(ls.LossError):
        ls.ce_stage1(keys, np.ones((1, 2), np.float32), [4], tau=1.0)


def test_ce_stage2_fresh_head_is_ln_n():
    heads = ls.ClassifierHeads(d_prime=6)
    heads.add_task(0, [0, 1, 2, 3, 4])
    w, b = heads.heads[0]
    feats = Rng(2).normal((7, 6))
    loss = ls.ce_stage2(ad.constant(w), ad.constant(b), feats, [0, 1, 2, 3, 4, 0, 1])
    assert abs(loss.item() - np.log(5)) < 1e-6


def test_ce_stage2_dominant_logit():
    w = np.zeros((4, 3), np.float32)
    w[0, 1] = 20.0
    b = np.zeros(3, np.float32)
    feats = np.zeros((2, 4), np.float32)
    feats[:, 0] = 1.0
    loss = ls.ce_stage2(ad.constant(w), ad.constant(b), feats, [1, 1])
    assert loss.item() < 0.01


@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1, 0], [[0, 1, 0, 1]]])
def test_ce_stage2_label_count_must_match_batch(labels):
    w, b = np.zeros((3, 2), np.float32), np.zeros(2, np.float32)
    with pytest.raises(ls.LossError, match="for a batch of 4 rows"):
        ls.ce_stage2(ad.constant(w), ad.constant(b), np.ones((4, 3), np.float32), labels)


def test_ce_stage2_duplicate_task_head_rejected():
    heads = ls.ClassifierHeads(d_prime=4)
    heads.add_task(0, [0, 1])
    with pytest.raises(ls.LossError, match="expected task 1"):
        heads.add_task(0, [2, 3])
    with pytest.raises(ls.LossError, match="expected task 1"):
        heads.add_task(2, [2, 3])


def test_heads_are_views_of_one_stacked_head():
    heads = ls.ClassifierHeads(d_prime=3)
    heads.add_task(0, [5, 1])
    heads.add_task(1, [0, 4, 2])
    assert heads.W.shape == (3, 5) and heads.b.shape == (5,)
    assert heads.classes == [5, 1, 0, 4, 2]
    w, b = heads.heads[1]
    w += 1.0
    b -= 2.0
    np.testing.assert_array_equal(heads.W, np.hstack([np.zeros((3, 2)), np.ones((3, 3))]))
    np.testing.assert_array_equal(heads.b, [0, 0, -2, -2, -2])


def test_ortho_first_cases():
    assert ls.ortho_first(ad.Tensor([[1.0, 0.0]]), []).item() == 0.0
    cur = ad.Tensor([[0.0, 1.0]], requires_grad=True)
    past = [np.array([1.0, 0.0], np.float32)]
    assert abs(ls.ortho_first(cur, past).item()) < 1e-6
    cur = ad.Tensor([[0.6, 0.8]], requires_grad=True)
    loss = ls.ortho_first(cur, past)
    assert abs(loss.item() - 0.6) < 1e-6
    loss.backward()
    assert cur.grad is not None


def test_ortho_second_cases():
    L, dp = 2, 4
    zero_q = ad.Tensor(np.zeros((1, L, dp), np.float32), requires_grad=True)
    past = [Rng(3).normal((L, dp))]
    assert abs(ls.ortho_second(zero_q, past).item()) < 1e-6
    assert ls.ortho_second(ad.Tensor(np.ones((1, L, dp))), []).item() == 0.0

    # per-layer hand values 0.6 and 0.2 -> average 0.4
    cur_q = np.zeros((2, 2), np.float32)
    cur_q[0] = [0.6, 0.8]
    cur_q[1] = [0.2, np.sqrt(1 - 0.04)]
    past_q = np.zeros((2, 2), np.float32)
    past_q[0] = [1.0, 0.0]
    past_q[1] = [1.0, 0.0]
    loss = ls.ortho_second(ad.Tensor(cur_q[None]), [past_q])
    assert abs(loss.item() - 0.4) < 1e-5


def test_ortho_batched_matches_pairwise_loop():
    # reference: the pairwise sum in float64; the batched penalties run in
    # float32 with a different summation order, hence the tolerance
    rng = Rng(4)
    cur_p, past_p = rng.normal((3, 8)), [rng.normal((8,)) for _ in range(5)]
    cur_q, past_q = rng.normal((3, 2, 6)), [rng.normal((2, 6)) for _ in range(5)]
    unit = lambda v: v / np.linalg.norm(v.astype(np.float64), axis=-1, keepdims=True)
    want_first = sum(abs(unit(c) @ unit(p)) for c in cur_p for p in past_p)
    want_second = sum(np.abs((unit(c) * unit(p)).sum(-1)).sum()
                      for c in cur_q for p in past_q) / 2
    got_first = ls.ortho_first(ad.Tensor(cur_p, requires_grad=True), past_p).item()
    got_second = ls.ortho_second(ad.Tensor(cur_q), past_q).item()
    assert abs(got_first - want_first) < 1e-5 * max(1.0, want_first)
    assert abs(got_second - want_second) < 1e-5 * max(1.0, want_second)


def point_mass_bank(means):
    bank = {}
    for cid, mu in means.items():
        mu = np.asarray(mu, np.float64)[None, :]
        bank[cid] = gmm.MoG(weights=np.array([1.0]), means=mu,
                            covs=np.full((1, mu.shape[1]), 1e-12))
    return bank


def test_gr_loss_first_single_class_is_zero():
    bank = point_mass_bank({0: [1.0, 0.0]})
    keys = ad.constant(np.array([[1.0, 0.0]], np.float32))
    loss = ls.gr_loss_first(keys, bank, [0], n=16, tau=1.0, rng=Rng(4))
    assert abs(loss.item()) < 1e-6


def test_gr_loss_first_two_orthogonal_point_masses():
    bank = point_mass_bank({0: [1.0, 0.0], 1: [0.0, 1.0]})
    keys = ad.constant(np.eye(2, dtype=np.float32))
    loss = ls.gr_loss_first(keys, bank, [0, 1], n=64, tau=1.0, rng=Rng(5))
    assert abs(loss.item() - 0.3133) < 1e-3


def test_gr_loss_first_missing_mog():
    keys = ad.constant(np.eye(2, dtype=np.float32))
    with pytest.raises(ls.LossError):
        ls.gr_loss_first(keys, {}, [0], n=4, tau=1.0, rng=Rng(6))


def test_gr_loss_second_single_task_zero_head():
    bank = point_mass_bank({0: [1, 0, 0, 0.0], 1: [0, 1, 0, 0.0], 2: [0, 0, 1, 0.0]})
    w = ad.constant(np.zeros((4, 3), np.float32))
    b = ad.constant(np.zeros(3, np.float32))
    loss = ls.gr_loss_second(w, b, bank, [0, 1, 2], n=8, rng=Rng(7))
    assert abs(loss.item() - np.log(3)) < 1e-6


def test_gr_loss_second_confident_heads():
    bank = point_mass_bank({0: [1.0, 0.0], 1: [0.0, 1.0]})
    w = np.zeros((2, 2), np.float32)
    w[0, 0] = 10.0
    w[1, 1] = 10.0
    loss = ls.gr_loss_second(ad.constant(w), ad.constant(np.zeros(2, np.float32)),
                             bank, [0, 1], n=8, rng=Rng(8))
    assert loss.item() < 1e-3


def test_gr_loss_second_trains_all_heads_and_logit_width():
    # three tasks of 2 classes each: one 6-wide head, task 0's columns still get grads
    bank = point_mass_bank({c: np.eye(4)[c % 4] for c in range(6)})
    heads = ls.ClassifierHeads(d_prime=4)
    for t in range(3):
        heads.add_task(t, [2 * t, 2 * t + 1])
    w = ad.Tensor(heads.W, requires_grad=True)
    b = ad.Tensor(heads.b, requires_grad=True)
    loss = ls.gr_loss_second(w, b, bank, heads.classes, n=4, rng=Rng(9))
    loss.backward()
    assert w.grad.shape == (4, 6) and b.grad.shape == (6,)
    for s in heads.spans:  # every task's columns, the earliest included
        assert np.abs(w.grad[:, s]).sum() > 0 and np.abs(b.grad[s]).sum() > 0


def test_gr_loss_second_rejects_heads_that_miss_a_class():
    bank = point_mass_bank({c: np.eye(4)[c] for c in range(3)})
    w, b = ad.constant(np.zeros((4, 2), np.float32)), ad.constant(np.zeros(2, np.float32))
    with pytest.raises(ls.LossError, match="head width 2 does not cover the 3 seen"):
        ls.gr_loss_second(w, b, bank, [0, 1, 2], n=4, rng=Rng(9))


def test_gr_loss_second_grads_match_finite_differences():
    # float64 head of two tasks (2 + 3 classes) on replay from spread mixtures:
    # the gradient reaches both tasks' columns and the bias
    rng = Rng(12)
    bank = {c: gmm.MoG(weights=np.array([0.4, 0.6]), means=rng.normal((2, 3), dtype=np.float64),
                       covs=np.full((2, 3), 0.3)) for c in range(5)}
    heads = ls.ClassifierHeads(d_prime=3)
    heads.add_task(0, [3, 0])
    heads.add_task(1, [4, 1, 2])
    params = {"W": rng.normal((3, 5), dtype=np.float64), "b": rng.normal((5,), dtype=np.float64)}

    def fn(t):
        return ls.gr_loss_second(t["W"], t["b"], bank, heads.classes, n=3, rng=Rng(13))

    report = optim.grad_check(fn, params, tol=1e-6, h=1e-5)
    assert report.passed, report.per_param
    # the loss of the per-task heads' concatenated logits, in float64
    feats, labels = ls.sample_replay_features(bank, heads.classes, 3, Rng(13))
    logits = np.concatenate([feats @ params["W"][:, s] + params["b"][s] for s in heads.spans], 1)
    logp = logits - np.log(np.exp(logits).sum(1, keepdims=True))
    expected = -logp[np.arange(len(labels)), labels].mean()
    assert fn({k: ad.Tensor(v) for k, v in params.items()}).item() == pytest.approx(expected, rel=1e-12)
    w = ad.Tensor(params["W"], requires_grad=True)
    fn({"W": w, "b": ad.Tensor(params["b"])}).backward()
    for s in heads.spans:
        assert np.abs(w.grad[:, s]).min() > 0


def test_losses_nonnegative_and_finite():
    rng = Rng(10)
    keys = ad.constant(rng.normal((4, 8)))
    z = rng.normal((5, 8))
    labels = [int(i) for i in rng.integers(0, 4, size=5)]
    for tau in (1.0, 0.05):
        v = ls.ce_stage1(keys, z, labels, tau).item()
        assert np.isfinite(v) and v >= 0.0


def test_heads_checkpoint_round_trip(tmp_path):
    heads = ls.ClassifierHeads(d_prime=4)
    heads.add_task(0, [0, 1])
    heads.add_task(1, [2, 3, 4])
    heads.heads[1][0][:] = Rng(11).normal((4, 3))
    path = tmp_path / "heads.bin"
    ls.save_heads(path, heads)
    back = ls.load_heads(path, ls.ClassifierHeads(d_prime=4), [[0, 1], [2, 3, 4]])
    assert list(back.heads) == [0, 1]
    assert back.classes == [0, 1, 2, 3, 4]
    assert back.W.tobytes() == heads.W.tobytes() and back.b.tobytes() == heads.b.tobytes()
