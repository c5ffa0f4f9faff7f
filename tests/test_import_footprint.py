"""No command loads scipy: the package runs on numpy and the standard library."""
import os
import subprocess
import sys

from test_acceptance import TINY_CONFIG

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# imports every promptcl module, trains and predicts the stream, writes a
# checkpoint and reloads it, runs the float64 gradient oracle; prints the
# scipy modules then loaded
SCRIPT = """
import importlib, os, pkgutil, sys
import promptcl
from promptcl import cli
for info in pkgutil.iter_modules(promptcl.__path__):
    importlib.import_module(f"promptcl.{info.name}")
cfg, out = sys.argv[1:]
assert cli.main(["run", cfg, "--seed", "1993", "--out", out, "--checkpoint"]) == 0
assert cli.main(["diag", os.path.join(out, "ckpt_seed1993"), cfg, "--out", out]) == 0
assert cli.main(["gradcheck", "--graphs", "2"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_run_path_loads_no_scipy(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
