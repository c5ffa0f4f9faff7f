"""The golden-output register: the SHA-256 of every file that ``promptcl run
--checkpoint`` and ``promptcl diag`` write, checked against the committed
manifest ``golden_outputs.json``.

It covers the full method and every variant on the acceptance
``TINY_CONFIG`` (3 seeds), plus the full method on a small feature-file
config. The manifest also records the numpy, BLAS, CPU and Python it was
made under; a run under another one fails, naming the field, because the
bytes depend on them.

A change that moves output bytes on purpose re-records the manifest with

    PYTHONPATH=src python tests/test_golden_outputs.py --record
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

from promptcl import cli, featureio
from promptcl import trainer as tr

from test_acceptance import TINY_CONFIG

MANIFEST = os.path.join(os.path.dirname(__file__), "golden_outputs.json")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    """What the output bytes depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "cpu": _cpu_model(),
            "python": platform.python_version()}


def _cases(root) -> dict:
    """case name -> (config file, variant) for every run the register covers."""
    tiny = os.path.join(root, "tiny.cfg")
    with open(tiny, "w") as f:
        f.write(TINY_CONFIG)
    rng = np.random.Generator(np.random.Philox(31))
    labels = np.repeat(np.arange(4, dtype=np.uint32), 12)
    feats = (rng.normal(size=(48, 7)) + 3.0 * np.eye(7)[labels]).astype(np.float32)
    featureio.write_feature_file(os.path.join(root, "feats.bin"), feats, labels)
    features = os.path.join(root, "features.cfg")
    with open(features, "w") as f:
        # TINY_CONFIG's geometry over 4 classes of 7-wide rows
        f.write(TINY_CONFIG + f"kind = feature-file\nfeature_path = {root}/feats.bin\n")
    cases = {f"tiny-{v or 'full'}": (tiny, v) for v in (None,) + tr.VARIANTS}
    cases["features-full"] = (features, None)
    return cases


def write_outputs(root) -> dict:
    """Run every case under ``root``: ``run --checkpoint``, then ``diag`` on
    each seed's checkpoint. Returns path relative to ``root``'s ``out`` ->
    SHA-256 of every file written there."""
    out = os.path.join(root, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        for case, (cfg, variant) in _cases(root).items():
            run_dir = os.path.join(out, case)
            flags = [] if variant is None else ["--variant", variant]
            assert cli.main(["run", cfg, "--out", run_dir, "--checkpoint"] + flags) == 0, case
            for ckpt in sorted(n for n in os.listdir(run_dir) if n.startswith("ckpt_")):
                diag_dir = os.path.join(out, case, "diag_" + ckpt)
                assert cli.main(["diag", os.path.join(run_dir, ckpt), cfg,
                                 "--out", diag_dir]) == 0, (case, ckpt)
    hashes = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                hashes[os.path.relpath(path, out).replace(os.sep, "/")] = (
                    hashlib.sha256(f.read()).hexdigest())
    return dict(sorted(hashes.items()))


def test_outputs_match_the_register(tmp_path):
    with open(MANIFEST) as f:
        manifest = json.load(f)
    env = environment()
    moved = [f"{k}: recorded {manifest['environment'].get(k)!r}, here {v!r}"
             for k, v in env.items() if manifest["environment"].get(k) != v]
    assert not moved, "environment differs from the register's:\n" + "\n".join(moved)
    got, want = write_outputs(str(tmp_path)), manifest["files"]
    problems = ([f"differs: {p}" for p in sorted(set(got) & set(want)) if got[p] != want[p]]
                + [f"missing: {p}" for p in sorted(set(want) - set(got))]
                + [f"extra: {p}" for p in sorted(set(got) - set(want))])
    assert not problems, (f"{len(problems)} of {len(want)} registered files moved:\n"
                          + "\n".join(problems))


def record() -> None:
    with tempfile.TemporaryDirectory() as root:
        files = write_outputs(root)
    with open(MANIFEST, "w") as f:
        json.dump({"environment": environment(), "files": files}, f, indent=1)
        f.write("\n")
    print(f"recorded {len(files)} files in {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
