import numpy as np
import pytest

from promptcl import autodiff as ad
from promptcl import encoders as enc
from promptcl import prompts as pr
from promptcl.rng import Rng


def make_books(prefix_tokens=0, d=8, L=2, d_prime=16):
    return pr.Codebooks(d=d, L=L, d_prime=d_prime, prefix_tokens=prefix_tokens)


def small_stack(seed=3):
    cfg = enc.EncoderConfig(d=8, d_prime=16, L=2, heads=2, seq_len=5, tau=0.05, patch_dim=6)
    return cfg, enc.build_stack(cfg, seed)


def test_extend_freezes_and_preserves_old_entries():
    books = make_books()
    pr.extend_codebooks(books, [0, 1], Rng(1), task_id=0)
    old_p = {c: books.p[c].copy() for c in (0, 1)}
    pr.extend_codebooks(books, [2, 3], Rng(2), task_id=1)
    assert books.class_ids == [0, 1, 2, 3]
    assert books.task_of == {0: 0, 1: 0, 2: 1, 3: 1}
    assert not books.keys  # keys are computed once the prompts are trained
    for c in (0, 1):
        assert books.p[c].tobytes() == old_p[c].tobytes()
    for c in (2, 3):
        assert np.all(books.Q[c] == 0.0)
        np.testing.assert_array_equal(books.A[c], np.ones(books.d, np.float32))


def test_extend_rejects_overlap():
    books = make_books()
    pr.extend_codebooks(books, [0, 1], Rng(1), task_id=0)
    with pytest.raises(pr.CodebookError):
        pr.extend_codebooks(books, [1, 2], Rng(2), task_id=1)


def test_fresh_q_gives_zero_residual():
    books = make_books()
    pr.extend_codebooks(books, [0], Rng(1), task_id=0)
    r = pr.build_residual(books.Q[0], 0.7)
    assert np.all(r.data == 0.0)


def test_compute_keys_contracts():
    cfg, stack = small_stack()
    books = make_books()
    pr.extend_codebooks(books, [0, 1], Rng(5), task_id=0)
    embeds = {0: enc.class_name_embed("class-0", cfg), 1: enc.class_name_embed("class-1", cfg)}
    keys = pr.compute_keys(books, stack, embeds)
    again = pr.compute_keys(books, stack, embeds)
    assert sorted(keys) == [0, 1]
    for c in (0, 1):
        assert abs(np.linalg.norm(keys[c]) - 1.0) < 1e-6
        assert keys[c].tobytes() == again[c].tobytes()
    # key responds to the prompt
    books.p[0] = books.p[0] + 0.5
    moved = pr.compute_keys(books, stack, embeds)
    assert not np.allclose(moved[0], keys[0])
    with pytest.raises(pr.CodebookError):
        pr.compute_keys(books, stack, {0: embeds[0]})


def basis_keys(d=4):
    return {1: np.eye(d, dtype=np.float32)[0], 2: np.eye(d, dtype=np.float32)[1]}


def unit_weights(keys):
    return {c: np.ones_like(v) for c, v in keys.items()}


def test_select_hand_oracle():
    keys = basis_keys()
    z = np.eye(4, dtype=np.float32)[1]
    A = {1: np.ones(4, np.float32), 2: np.ones(4, np.float32)}
    sel = pr.select(keys, z, A)
    assert sel.class_id == 2
    assert abs(sel.sim - 1.0) < 1e-6


def test_select_single_class_and_empty():
    keys = {7: np.array([0, 1, 0, 0], np.float32)}
    sel = pr.select(keys, np.array([1, 0, 0, 0], np.float32), unit_weights(keys))
    assert sel.class_id == 7
    with pytest.raises(pr.CodebookError):
        pr.select({}, np.ones(4, np.float32), {})


def test_select_tie_goes_to_lowest_index():
    v = np.array([1.0, 0, 0, 0], np.float32)
    keys = {3: v.copy(), 7: v.copy()}
    sel = pr.select(keys, v, unit_weights(keys))
    assert sel.class_id == 3


def test_select_scale_invariance():
    keys = basis_keys()
    rng = Rng(6)
    z = rng.normal((4,))
    A = {1: rng.normal((4,)) + 1.0, 2: rng.normal((4,)) + 1.0}
    a = pr.select(keys, z, A)
    b = pr.select(keys, 37.5 * z, A)
    assert a.class_id == b.class_id


def test_select_orthonormal_query_equals_key():
    keys = basis_keys()
    sel = pr.select(keys, keys[1], unit_weights(keys))
    assert sel.class_id == 1
    assert abs(sel.sim - 1.0) < 1e-6


def test_select_batch_equals_row_by_row():
    rng = Rng(10)
    keys = {}
    for cid in (2, 5, 9, 11):
        v = rng.normal((6,))
        keys[cid] = v / np.linalg.norm(v)
    keys[9] = keys[5].copy()  # exact tie between classes 5 and 9
    A = {c: rng.normal((6,)) + 1.0 for c in keys}
    A[9] = A[5].copy()
    z = rng.normal((7, 6))
    z[3] = keys[5] / A[5]  # ties 5 against 9
    z[4] = 0.0             # zero row
    for weights in (A, unit_weights(keys)):
        sel = pr.select(keys, z, weights)
        assert sel.class_id.shape == sel.sim.shape == (7,)
        assert sel.sims.shape == (7, 4)
        for i in range(len(z)):
            row = pr.select(keys, z[i], weights)
            assert sel.class_id[i] == row.class_id
            assert sel.sim[i] == row.sim
            assert sel.sims[i].tobytes() == row.sims.tobytes()
        assert sel.class_id[4] == 2 and sel.sim[4] == 0.0
        assert not sel.sims[4].any()
    assert pr.select(keys, z, A).class_id[3] == 5


def test_build_residual_rows():
    q = Rng(11).normal((3, 2, 4))
    sim = np.array([0.5, -1.0, 0.0], np.float32)
    r = pr.build_residual(q, sim)
    for i in range(3):
        assert r.data[i].tobytes() == pr.build_residual(q[i], float(sim[i])).data.tobytes()


def test_build_residual_values():
    q = np.ones((2, 3), np.float32)
    assert np.all(pr.build_residual(q, 0.0).data == 0.0)
    np.testing.assert_allclose(pr.build_residual(q, 1.0).data, q)
    q[0] = [2.0, -4.0, 6.0]
    np.testing.assert_allclose(pr.build_residual(q, 0.5).data[0], [1.0, -2.0, 3.0])


def test_residual_grads_reach_q_and_sim():
    q = ad.Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    sim = ad.Tensor(np.float32(0.5), requires_grad=True)
    r = pr.build_residual(q, sim)
    ad.rsum(r).backward()
    assert q.grad is not None and sim.grad is not None


def test_weighted_similarity_grad_flows_to_a_only():
    rng = Rng(8)
    z = rng.normal((6,))
    w = rng.normal((6,))
    w /= np.linalg.norm(w)
    A = ad.Tensor(np.ones(6, np.float32), requires_grad=True)
    sim = pr.weighted_similarity(z, A, w)
    sim.backward()
    assert A.grad is not None
    assert -1.0 - 1e-6 <= sim.item() <= 1.0 + 1e-6


def test_prefix_mode_shapes_and_errors():
    books = make_books(prefix_tokens=5)
    pr.extend_codebooks(books, [0], Rng(1), task_id=0)
    assert books.Q[0].shape == (2, 10, 16)  # 5 key + 5 value tokens per layer

    single = make_books(prefix_tokens=1)
    pr.extend_codebooks(single, [0], Rng(1), task_id=0)
    assert single.Q[0].shape == (2, 2, 16)


def test_prefix_zero_value_prompts_contribute_nothing():
    # With zero key/value prompts each extra key scores 0, so the softmax
    # renormalizes by (Z + n) per query row but the prompt values add zero:
    # prefixed attention output == plain output * Z / (Z + n), per head/row.
    cfg = enc.EncoderConfig(d=8, d_prime=8, L=1, heads=1, seq_len=4, tau=0.05, patch_dim=6)
    stack = enc.build_stack(cfg, 5)
    x = Rng(9).normal((cfg.patches, cfg.patch_dim))
    tokens = enc.embed_tokens(stack, x)

    blk = stack.main_blocks[0]
    ln = lambda t: (t - t.mean(-1, keepdims=True)) / np.sqrt(t.var(-1) [..., None] + 1e-5)
    h = ln(tokens)
    q, k = h @ blk["wq"], h @ blk["wk"]
    v = h @ blk["wv"]
    scores = np.exp(q @ k.T / np.sqrt(cfg.d_prime))
    n_tok = 3
    zexp = np.exp(np.zeros((cfg.seq_len, n_tok)))
    plain_att = scores / scores.sum(-1, keepdims=True) @ v
    scale = scores.sum(-1) / (scores.sum(-1) + zexp.sum(-1))
    expected = plain_att * scale[:, None]

    prefix = np.zeros((cfg.L, 2 * n_tok, cfg.d_prime), np.float32)
    out = enc.vit_forward(stack, x, prefix=prefix[None])
    plain = enc.vit_forward(stack, x)
    # reproduce vit internals for the prefixed block-0 attention context
    got_ctx = (np.concatenate([zexp, scores], axis=1)
               / (scores.sum(-1, keepdims=True) + n_tok))
    got = got_ctx[:, n_tok:] @ v
    np.testing.assert_allclose(got, expected, atol=1e-5)
    # and the end-to-end outputs differ only via that renormalization
    assert not np.allclose(out.data, plain.data)


def test_codebook_checkpoint_round_trip(tmp_path):
    cfg, stack = small_stack()
    books = make_books()
    pr.extend_codebooks(books, [0, 1], Rng(1), task_id=0)
    pr.extend_codebooks(books, [2], Rng(2), task_id=1)
    embeds = {c: enc.class_name_embed(f"c{c}", cfg) for c in books.class_ids}
    books.keys = pr.compute_keys(books, stack, embeds)
    path = tmp_path / "books.bin"
    pr.save_codebooks(path, books)
    back = pr.load_codebooks(path, make_books())
    assert back.class_ids == books.class_ids
    assert back.task_of == books.task_of
    for c in books.class_ids:
        assert back.p[c].tobytes() == books.p[c].tobytes()
        assert back.Q[c].tobytes() == books.Q[c].tobytes()
        assert back.A[c].tobytes() == books.A[c].tobytes()
        assert back.keys[c].tobytes() == books.keys[c].tobytes()


def test_saving_a_class_without_a_key_names_it(tmp_path):
    books = make_books()
    pr.extend_codebooks(books, [0, 1], Rng(1), task_id=0)
    books.keys = {0: np.eye(books.d, dtype=np.float32)[0]}
    with pytest.raises(pr.CodebookError, match="class 1 has no key"):
        pr.save_codebooks(tmp_path / "books.bin", books)
