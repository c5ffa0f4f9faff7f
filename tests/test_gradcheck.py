"""What ``promptcl gradcheck`` checks: it differentiates the trainer's own
losses (stage 1, key replay, stage 2 with its query weights, head replay),
each check fails when its gradient path is cut, every graph node it builds
lies inside a function that finite differences compare, and every node that
training differentiates is built inside one of those losses."""
import numpy as np
import pytest
from test_oracle_coverage import _train_and_predict_every_variant

from promptcl import autodiff as ad
from promptcl import cli, optim
from promptcl import losses as ls
from promptcl import prompts as pr
from promptcl import trainer as tr
from promptcl.rng import Rng

# one printed line per training loss, in training order
LOSS_LINES = ("stage-1 loss", "key-replay loss", "stage-2 loss, full",
              "stage-2 loss, prefix_tuning", "stage-2 loss, no_conf_mod", "head-replay loss")


@pytest.fixture
def detached_query_weights(monkeypatch):
    """``prompts.weighted_similarity`` with A cut out of the graph, as if the
    confidence did not depend on the query weights."""
    real = pr.weighted_similarity
    monkeypatch.setattr(pr, "weighted_similarity",
                        lambda z, A, w: real(z, ad.constant(A.data), w))


@pytest.fixture
def detached_prompt_keys(monkeypatch):
    """``prompts.key_tensor`` with the prompts cut out of the graph, as if the
    keys did not depend on them."""
    real = pr.key_tensor
    monkeypatch.setattr(pr, "key_tensor", lambda books, stack, embeds, cids, p=None: real(
        books, stack, embeds, cids, None if p is None else ad.constant(p.data)))


@pytest.fixture
def detached_head_weights(monkeypatch):
    """``losses.gr_loss_second`` with the head's ``W`` cut out of the graph."""
    real = ls.gr_loss_second
    monkeypatch.setattr(ls, "gr_loss_second",
                        lambda w, b, *args: real(ad.constant(w.data), b, *args))


def _verdicts(capsys):
    """The printed verdict of each loss line, and the last line."""
    lines = capsys.readouterr().out.splitlines()
    return {line.split(":")[0].strip(): line.split()[-1] for line in lines
            if line.split(":")[0].strip() in LOSS_LINES}, lines[-1]


def _fails_only(failing, capsys):
    assert cli.main(["gradcheck", "--graphs", "1"]) == 1
    verdicts, last = _verdicts(capsys)
    assert verdicts == {line: "FAIL" if line in failing else "ok" for line in LOSS_LINES}
    assert last == "FAIL"


def test_detached_query_weights_fail_the_stage2_check(detached_query_weights):
    worst, losses = cli.gradcheck_suite(n_graphs=1)
    assert worst < 1e-4
    assert losses > 1e-3


def test_gradcheck_names_the_failing_variant(detached_query_weights, capsys):
    _fails_only({"stage-2 loss, full"}, capsys)


@pytest.mark.parametrize("cut, failing", [
    ("detached_prompt_keys", {"stage-1 loss", "key-replay loss"}),
    ("detached_head_weights", {"head-replay loss"}),
])
def test_gradcheck_fails_each_loss_whose_path_is_cut(cut, failing, request, capsys):
    request.getfixturevalue(cut)
    _fails_only(failing, capsys)


@pytest.mark.parametrize("line", LOSS_LINES)
def test_float32_gradients_stay_near_float64(line):
    # training runs in float32 and the oracle in float64, so a fault that
    # only float32 shows would pass the oracle: bound the gap between the
    # two gradients (all of the loss's parameters as one vector)
    fn, params = cli._oracle_losses()[line]
    grads = {}
    for dtype in (np.float32, np.float64):
        leaves = {k: ad.Tensor(v.astype(dtype), requires_grad=True) for k, v in params.items()}
        loss = fn(leaves)
        assert loss.data.dtype == dtype
        loss.backward()
        # A is not read under prefix_tuning
        grads[dtype] = np.concatenate([t.grad.ravel() for t in leaves.values() if t.grad is not None])
    g32, g64 = grads[np.float32], grads[np.float64]
    gap = np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
    assert gap < 1e-5, f"{line}: float32 gradient off by {gap:.2g}"


def test_every_node_is_built_inside_a_differentiated_function(monkeypatch):
    inside, outside, selected = [0], [], []
    real_make, real_check, real_select = ad._make, optim.grad_check, tr._select_batch

    def make(out, parents, backward, op):
        if not inside[0]:
            outside.append(op)
        return real_make(out, parents, backward, op)

    def grad_check(fn, params, **kw):
        def counted(p):
            inside[0] += 1
            try:
                return fn(p)
            finally:
                inside[0] -= 1
        return real_check(counted, params, **kw)

    def select(state, z):
        sel = real_select(state, z)
        selected.append([state.books.task_of[c] for c in sel.class_id])
        return sel

    monkeypatch.setattr(ad, "_make", make)
    monkeypatch.setattr(optim, "grad_check", grad_check)
    monkeypatch.setattr(tr, "_select_batch", select)
    worst, stage2 = cli.gradcheck_suite(n_graphs=10)
    assert outside == []
    assert worst < 1e-4 and stage2 < 1e-3
    # one batch per variant with a second level, whose queries select both
    # current classes and a past one
    assert selected == [[1, 1, 0]] * sum(v.second_level for v in tr.VARIANT_TABLE.values())


def test_stage2_loss_reads_current_rows_from_params():
    # the loss reads the current classes' rows from params only: codebook
    # rows of the current task do not change it
    state = tr.new_state(cli._ORACLE_ENCODER, seed=0)
    rng = np.random.Generator(np.random.Philox(0))
    pr.extend_codebooks(state.books, [0, 1], Rng(0), 0)
    for c in (0, 1):
        state.books.keys[c] = np.eye(4, dtype=np.float32)[c]
    z = np.eye(4, dtype=np.float32)[:2]
    sel = tr._select_batch(state, z)
    tokens = rng.standard_normal((2, 3, 4)).astype(np.float32)
    params = {"Q": rng.standard_normal((2, 1, 4)), "A": 1 + rng.random((2, 4)),
              "W": rng.standard_normal((4, 2)), "b": np.zeros(2)}

    def loss():
        return tr.stage2_loss(state, [0, 1], {k: ad.constant(v) for k, v in params.items()},
                              tokens, z, sel, [0, 1], 1.0).item()

    before = loss()
    state.books.Q[0] += 1.0
    state.books.A[1] *= 2.0
    assert loss() == before


def test_every_trained_node_is_built_inside_a_public_loss(monkeypatch):
    # the losses gradcheck differentiates are the only places training
    # builds nodes that carry gradient; forward-only work (keys, queries,
    # conditioned features) builds constants
    depth, outside, inside = [0], [], [0]
    real_make = ad._make

    def make(out, parents, backward, op):
        t = real_make(out, parents, backward, op)
        if t.requires_grad:
            if depth[0]:
                inside[0] += 1
            else:
                outside.append(op)
        return t

    def counted(fn):
        def wrapper(*args, **kw):
            depth[0] += 1
            try:
                return fn(*args, **kw)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(ad, "_make", make)
    for owner, name in ((tr, "stage1_loss"), (tr, "key_replay_loss"), (tr, "stage2_loss"),
                        (ls, "gr_loss_second")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    _train_and_predict_every_variant()
    assert outside == []
    assert inside[0] > 0
