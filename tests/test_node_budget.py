"""Graph-size budgets: batched paths build a fixed number of nodes, however
many attention heads, seen tasks, past prompts or samples they cover."""
import numpy as np
import pytest

from promptcl import autodiff as ad
from promptcl import encoders as enc
from promptcl import gmm
from promptcl import losses as ls
from promptcl import prompts as pr
from promptcl import trainer as tr
from promptcl.rng import Rng


@pytest.fixture
def count_nodes(monkeypatch):
    """Returns a function that runs ``fn`` and reports how many graph nodes
    (``autodiff._make`` calls) it built."""
    made = []
    real = ad._make

    def counting(out, parents, backward, op):
        made.append(op)
        return real(out, parents, backward, op)

    monkeypatch.setattr(ad, "_make", counting)

    def count(fn):
        made.clear()
        fn()
        return len(made)

    return count


def test_attention_nodes_do_not_grow_with_heads(count_nodes):
    counts = []
    for heads in (1, 4):
        cfg = enc.EncoderConfig(d=8, d_prime=16, L=1, heads=heads, seq_len=5, patch_dim=6)
        stack = enc.build_stack(cfg, 3)
        h = ad.constant(Rng(1).normal((3, cfg.seq_len, cfg.d_prime)))
        counts.append(count_nodes(lambda: ad.frozen_block(h, stack.main_blocks[0], heads)))
    assert counts[0] == counts[1]


def test_vit_forward_builds_at_most_two_nodes_per_block(count_nodes):
    counts = set()
    for heads in (1, 4):
        cfg = enc.EncoderConfig(d=8, d_prime=16, L=3, heads=heads, seq_len=5, patch_dim=6)
        stack = enc.build_stack(cfg, 3)
        for b in (2, 16):
            rng = Rng(b)
            x = rng.normal((b, cfg.patches, cfg.patch_dim))
            res = ad.Tensor(rng.normal((b, cfg.L, cfg.d_prime)), requires_grad=True)
            counts.add(count_nodes(lambda: enc.vit_forward(stack, x, residuals=res)))
    assert len(counts) == 1
    assert counts.pop() <= 2 * cfg.L + 2


def test_ortho_nodes_do_not_grow_with_past_prompts(count_nodes):
    rng = Rng(2)
    cur_p = ad.Tensor(rng.normal((4, 8)), requires_grad=True)
    cur_q = ad.Tensor(rng.normal((4, 2, 16)), requires_grad=True)
    first, second = [], []
    for n_past in (1, 16):
        past_p = [rng.normal((8,)) for _ in range(n_past)]
        past_q = [rng.normal((2, 16)) for _ in range(n_past)]
        first.append(count_nodes(lambda: ls.ortho_first(cur_p, past_p)))
        second.append(count_nodes(lambda: ls.ortho_second(cur_q, past_q)))
    assert first[0] == first[1]
    assert second[0] == second[1]


def test_conditioned_cls_nodes_do_not_grow_with_batch(count_nodes):
    cfg = enc.EncoderConfig(d=8, d_prime=16, L=2, heads=2, seq_len=5, patch_dim=6)
    state = tr.new_state(cfg, seed=4)
    books = state.books
    pr.extend_codebooks(books, [0, 1], Rng(5), task_id=0)
    pr.extend_codebooks(books, [2, 3], Rng(6), task_id=1)
    rng = Rng(7)
    for cid in books.class_ids:
        books.Q[cid] = rng.normal(books.q_shape(), std=0.1)
        v = rng.normal((cfg.d,))
        books.keys[cid] = v / np.linalg.norm(v)
    cids = [2, 3]
    counts = []
    for b in (2, 16):
        x = rng.normal((b, cfg.patches, cfg.patch_dim))
        z = enc.vision_encode(state.stack, x)
        tokens = enc.embed_tokens(state.stack, x)
        sel = tr._select_batch(state, z)
        live = tr._leaves({"Q": tr._stacked(books.Q, cids), "A": tr._stacked(books.A, cids)})
        counts.append(count_nodes(
            lambda: tr._conditioned_cls(state, tokens, sel, cids, live, z)))
    assert counts[0] == counts[1]


def test_head_replay_nodes_do_not_grow_with_seen_tasks(count_nodes):
    # one stacked head over every seen class: a replay epoch builds the same
    # graph after 1 task as after 10
    hp = tr.Hyperparams(E1=1, E2=1, lambda1=1, lambda2=1, lr1=0.01, lr2=0.01,
                        M=1, n_replay=3, batch_size=4)
    rng = Rng(8)
    replay, loss = [], []
    for tasks in (1, 10):
        state = tr.new_state(enc.EncoderConfig(d=8, d_prime=4, L=1, heads=2), seed=4)
        for t in range(tasks):
            state.heads.add_task(t, [2 * t, 2 * t + 1])
        state.bank2 = {c: gmm.MoG(weights=np.ones(1), means=rng.normal((1, 4), dtype=np.float64),
                                  covs=np.ones((1, 4))) for c in state.heads.classes}
        replay.append(count_nodes(lambda: tr._stage2_replay(state, hp, Rng(9))))
        w, b = ad.Tensor(state.heads.W, requires_grad=True), ad.Tensor(state.heads.b)
        loss.append(count_nodes(lambda: ls.gr_loss_second(
            w, b, state.bank2, state.heads.classes, 3, Rng(9))))
    assert replay[0] == replay[1]
    assert loss[0] == loss[1]
