"""Every entry point the benchmark's tracer wraps still exists: the tracer
only prints a note for a missing one, and only in traced runs."""
import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _spans():
    """The (metric, owner, attribute) rows of the tracer's ``SPANS``, read
    from its source without importing it."""
    with open(TRACER) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


# besides SPANS, the tracer's install wraps graph-node and leaf construction
ENTRY_POINTS = [(owner, attr) for _, owner, attr in _spans()] + [
    ("promptcl.autodiff", "_make"), ("promptcl.autodiff:Tensor", "__init__")]


@pytest.mark.parametrize("owner, attr", ENTRY_POINTS,
                         ids=[f"{o}.{a}" for o, a in ENTRY_POINTS])
def test_traced_entry_point_resolves(owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    assert callable(getattr(obj, attr, None))
