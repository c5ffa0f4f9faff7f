"""The gradient oracle composes exactly the ops the program builds: an op only
the oracle builds is a second copy of the program's math, and an op only the
program builds has a backward that nothing checks against finite differences."""
from dataclasses import replace

import pytest

from promptcl import autodiff as ad
from promptcl import cli
from promptcl import scenario as sc
from promptcl import trainer as tr
from promptcl.encoders import EncoderConfig


@pytest.fixture
def ops_built(monkeypatch):
    """Returns a function that runs ``fn`` and reports the set of op names
    its ``autodiff._make`` calls recorded."""
    names = set()
    real = ad._make

    def recording(out, parents, backward, op):
        names.add(op)
        return real(out, parents, backward, op)

    monkeypatch.setattr(ad, "_make", recording)

    def run(fn):
        names.clear()
        fn()
        return set(names)

    return run


def _train_and_predict_every_variant():
    """A 2-task tiny stream, one epoch per stage, under the full method and
    every variant; each task's test set is predicted after it trains."""
    stream = sc.generate_scenario(sc.ScenarioSpec(
        num_tasks=2, classes_per_task=2, train_per_class=6, test_per_class=3,
        patches=4, patch_dim=4))
    config = EncoderConfig(d=8, d_prime=16, L=2, heads=2, seq_len=5, patch_dim=4)
    hp = replace(tr.preset("synthetic"), E1=1, E2=1, n_replay=4, batch_size=4)
    for variant in (None,) + tr.VARIANTS:
        state = tr.new_state(config, seed=1, variant=variant)
        for task in stream.tasks:
            tr.train_task(state, task, hp, stream.class_names)
            tr.predict_batch(state, task.test_x)


def test_oracle_composes_exactly_the_ops_the_program_builds(ops_built):
    oracle = ops_built(lambda: cli.gradcheck_suite(n_graphs=100))
    program = ops_built(_train_and_predict_every_variant)
    assert oracle == program, (f"oracle only: {sorted(oracle - program)}, "
                               f"program only: {sorted(program - oracle)}")
