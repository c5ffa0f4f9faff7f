"""No module of the package rebinds a module-level name at run time: every
setting a run depends on is passed in, so one process can hold several
independent runs and a worker process inherits nothing it did not ask for."""
import ast
import glob
import os

import promptcl

SRC = os.path.dirname(promptcl.__file__)


def test_no_module_declares_global():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno} global {', '.join(node.names)}"
                  for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert len(glob.glob(os.path.join(SRC, "*.py"))) > 10
    assert found == []
