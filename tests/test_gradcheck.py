"""What ``promptcl gradcheck`` checks: its stage-2 value differentiates the
trainer's own loss, query weights included, and every graph node it builds
lies inside a function that finite differences compare."""
import numpy as np
import pytest

from promptcl import autodiff as ad
from promptcl import cli, optim
from promptcl import prompts as pr
from promptcl import trainer as tr
from promptcl.rng import Rng


@pytest.fixture
def detached_query_weights(monkeypatch):
    """``prompts.weighted_similarity`` with A cut out of the graph, as if the
    confidence did not depend on the query weights."""
    real = pr.weighted_similarity
    monkeypatch.setattr(pr, "weighted_similarity",
                        lambda z, A, w: real(z, ad.constant(A.data), w))


def test_detached_query_weights_fail_the_stage2_check(detached_query_weights):
    worst, stage2 = cli.gradcheck_suite(n_graphs=1)
    assert worst < 1e-4
    assert stage2 > 1e-3


def test_gradcheck_names_the_failing_variant(detached_query_weights, capsys):
    assert cli.main(["gradcheck", "--graphs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split(":")[0].strip(): line.split()[-1] for line in lines
                if line.lstrip().startswith("stage-2 loss, ")}
    assert verdicts == {"stage-2 loss, full": "FAIL", "stage-2 loss, prefix_tuning": "ok",
                        "stage-2 loss, no_conf_mod": "ok"}
    assert lines[-1] == "FAIL"


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
    # one batch per variant, whose queries select both current classes and a past one
    assert selected == [[1, 1, 0]] * len(cli.STAGE2_VARIANTS)


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
