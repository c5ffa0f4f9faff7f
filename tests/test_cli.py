import csv
import gc
import json
import os
import re
import shutil
import struct
import weakref

import numpy as np
import pytest

from promptcl import cli, featureio, gmm
from promptcl import losses as ls
from promptcl import prompts as pr
from promptcl import scenario as sc
from promptcl import trainer as tr

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

SMALL_CFG = """
# desk-scale smoke config
num_tasks = 2
classes_per_task = 2
train_per_class = 10
test_per_class = 5
separation = 4.0
noise = 0.5
d = 16
d_prime = 32
L = 2
heads = 2
seq_len = 5
patch_dim = 8
preset = synthetic
E1 = 6
E2 = 2
seeds = 7,8
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="exp.cfg", **extra):
    # an override replaces the key's line: a key given twice is an error
    lines = [line for line in text.splitlines() if line.split(" = ")[0] not in extra]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines))
    return str(path)


def test_parse_config_key_value(tmp_path):
    path = write_cfg(tmp_path)
    cfg = cli.parse_config(path)
    assert cfg["num_tasks"] == 2
    assert cfg["separation"] == 4.0
    assert cfg["preset"] == "synthetic"
    assert cfg["seeds"] == "7,8"


def test_parse_config_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"num_tasks": 1, "seeds": [3]}))
    cfg = cli.parse_config(str(path))
    assert cfg == {"num_tasks": 1, "seeds": [3]}


def test_parse_config_errors(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(bad))


def test_build_experiment_rejects_unknown_keys():
    with pytest.raises(cli.ConfigError):
        cli.build_experiment({"num_tasks": 1, "warp_speed": 9})
    with pytest.raises(cli.ConfigError):
        cli.build_experiment({"seeds": []})


def test_build_experiment_defaults_and_overrides():
    config = cli.build_experiment({"E1": 3, "seeds": "1993, 1996 ,1997"})
    assert config.hp.E1 == 3
    assert config.seeds == (1993, 1996, 1997)
    assert config.scenario.patches == config.encoder.patches


@pytest.mark.parametrize("name, text", [
    ("exp.cfg", "E1 = 2.5"),
    ("exp.cfg", 'E1 = "x"'),
    ("exp.cfg", "E1 = true"),
    ("exp.cfg", "seeds = a,b"),
    ("exp.cfg", "seeds = true"),
    ("exp.cfg", "seeds = 1,1"),
    ("exp.json", '{"variant": {"no_replay": true}}'),
    ("exp.cfg", "tau = Infinity"),
    ("exp.cfg", "tau = NaN"),
    ("exp.json", '{"tau": -Infinity}'),
    ("exp.cfg", "seeds = -1"),
    ("exp.cfg", "lr1 = NaN"),
    ("exp.cfg", "noise = NaN"),
    ("exp.cfg", "separation = Infinity"),
    ("exp.cfg", "lambda2 = Infinity"),
    ("exp.json", '{"lr2": -Infinity}'),
    pytest.param("exp.cfg", "lambda1 = 1" + "0" * 400, id="exp.cfg-lambda1 = 10**400"),
])
def test_build_experiment_type_checks_name_the_key(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    key = re.search(r"\w+", text).group()
    with pytest.raises(cli.ConfigError, match=f"'{key}'"):
        cli.build_experiment(cli.parse_config(str(path)))


@pytest.mark.parametrize("key, value", [("lr1", "NaN"), ("noise", "NaN"),
                                        ("separation", "Infinity"),
                                        ("lambda2", "Infinity")])
def test_run_non_finite_float_names_the_key(tmp_path, capsys, key, value):
    path = write_cfg(tmp_path, **{key: value})
    assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err


def test_flat_config_key_given_twice_names_key_and_lines(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("E1 = 1\n# a comment\nE2 = 2\nE1 = 3\n")
    with pytest.raises(cli.ConfigError, match=r"'E1' is given twice, on lines 1 and 4"):
        cli.parse_config(str(path))


def test_json_config_key_given_twice_names_key(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{"E1": 1, "E2": 2, "E1": 2}')
    with pytest.raises(cli.ConfigError, match="'E1' is given twice"):
        cli.parse_config(str(path))


def test_float_keys_accept_ints():
    config = cli.build_experiment({"tau": 1, "separation": 2, "lr1": 1})
    assert type(config.encoder.tau) is float and config.encoder.tau == 1.0
    assert type(config.scenario.separation) is float
    assert type(config.hp.lr1) is float


@pytest.mark.parametrize("text", ["d_prime = 65", "tau = 0", '{"num_tasks": 1,',
                                  "test_per_class = 0", "noise = -1.0",
                                  "separation = -2.0", "scenario_seed = -3"])
def test_run_bad_config_prints_error(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_negative_scenario_seed_names_the_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario_seed = -3")
    assert cli.main(["run", str(path)]) == 1
    assert "scenario_seed" in capsys.readouterr().err


def test_run_negative_seed_flag_prints_error(tmp_path, capsys):
    assert cli.main(["run", write_cfg(tmp_path), "--seed", "-2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'seeds'" in err


def test_every_key_in_readme_and_help(capsys):
    with open(README) as f:
        readme = f.read()
    key_list = readme[readme.index(" Keys:"):readme.index("Example:")]
    assert cli.main(["run", "--help"]) == 0
    help_text = capsys.readouterr().out
    for name in cli.KEYS:
        assert f"`{name}`" in key_list, name
        assert re.search(rf"^ +{name} ", help_text, re.M), name
    for name in tr.PRESETS:
        assert f"`{name}`" in key_list, name


def test_unknown_subcommand_nonzero():
    assert cli.main(["bogus"]) != 0
    assert cli.main([]) != 0


def test_run_missing_config_names_path(capsys):
    rc = cli.main(["run", "/no/such/config.cfg"])
    assert rc == 1
    assert "/no/such/config.cfg" in capsys.readouterr().err


def test_gradcheck_subcommand_passes(capsys):
    assert cli.main(["gradcheck", "--graphs", "5"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("graphs", ["0", "-5"])
def test_gradcheck_without_graphs_prints_error(capsys, graphs):
    # range(graphs) is empty: a PASS would have checked nothing
    assert cli.main(["gradcheck", "--graphs", graphs]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "--graphs" in err and "PASS" not in out


@pytest.mark.parametrize("name", ["exp.cfg", "exp.json"])
def test_config_with_utf8_bom_parses(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + (b"E1 = 1" if name == "exp.cfg" else b'{"E1": 1}'))
    assert cli.parse_config(str(path)) == {"E1": 1}


@pytest.mark.parametrize("name, text", [("exp.cfg", b"E1 = 1\n\xff\n"),
                                        ("exp.json", b'{"E1": "\xff"}')],
                         ids=["flat", "json"])
def test_config_not_utf8_names_the_file(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_bytes(text)
    with pytest.raises(cli.ConfigError, match=f"{name}: not UTF-8"):
        cli.parse_config(str(path))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8") and "Traceback" not in err


def test_run_writes_reports_and_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", cfg, "--out", out2]) == 0
    for name in ("accuracy_seed7.csv", "accuracy_seed8.csv",
                 "confusion_seed7.csv", "summary.json"):
        with open(os.path.join(out1, name), "rb") as a, \
                open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read(), name
    with open(os.path.join(out1, "summary.json")) as f:
        summary = json.load(f)
    assert set(summary["seeds"]) == {7, 8}
    assert 0.0 <= summary["faa_mean"] <= 1.0
    assert "task1_precision" in summary


def test_run_seed_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "single")
    assert cli.main(["run", cfg, "--out", out, "--seed", "3"]) == 0
    files = os.listdir(out)
    assert "accuracy_seed3.csv" in files
    assert not any(f.startswith("accuracy_seed7") for f in files)


def test_run_variant_flag(tmp_path):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "flo")
    assert cli.main(["run", cfg, "--out", out, "--seed", "3",
                     "--variant", "first_level_only"]) == 0
    with open(os.path.join(out, "summary.json")) as f:
        assert json.load(f)["variant"] == "first_level_only"


def _check_diag_reproduces_the_run(tmp_path, cfg):
    out = str(tmp_path / "run")
    assert cli.main(["run", cfg, "--out", out, "--seed", "3",
                     "--checkpoint"]) == 0
    diag_out = str(tmp_path / "diag")
    ckpt = os.path.join(out, "ckpt_seed3")
    assert cli.main(["diag", ckpt, cfg, "--out", diag_out]) == 0
    with open(os.path.join(diag_out, "confusion.csv"), newline="") as f:
        rows = list(csv.reader(f))[1:]
    C = np.array([[float(v) for v in row[1:]] for row in rows])
    np.testing.assert_allclose(C.sum(axis=1), np.ones(len(rows)), atol=1e-9)
    # the checkpoint's task grouping reproduces the run's own confusion
    with open(os.path.join(diag_out, "confusion.csv"), "rb") as a, \
            open(os.path.join(out, "confusion_seed3.csv"), "rb") as b:
        assert a.read() == b.read()


def test_diag_subcommand(tmp_path):
    _check_diag_reproduces_the_run(tmp_path, write_cfg(tmp_path))


def test_diag_subcommand_on_a_feature_file(tmp_path):
    # rows need not be d wide: the scenario renders them as token grids
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(4, dtype=np.uint32), 15)
    feats = (rng.normal(size=(60, 7)) + 3.0 * np.eye(7)[labels]).astype(np.float32)
    featureio.write_feature_file(tmp_path / "feats.bin", feats, labels)
    cfg = write_cfg(tmp_path, kind="feature-file", feature_path=tmp_path / "feats.bin", d=8)
    _check_diag_reproduces_the_run(tmp_path, cfg)


def test_ablate_writes_one_row_per_variant(tmp_path):
    cfg = write_cfg(tmp_path, num_tasks=1, E1=4, E2=1, train_per_class=6,
                    test_per_class=3)
    out = str(tmp_path / "abl")
    assert cli.main(["ablate", cfg, "--out", out, "--seed", "3"]) == 0
    with open(os.path.join(out, "ablation.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][:3] == ["variant", "faa_mean", "faa_std"]
    names = [r[0] for r in rows[1:]]
    assert names[0] == "full" and set(names[1:]) == set(
        ["first_level_only", "no_first_level", "prefix_tuning",
         "no_replay", "unimodal", "no_conf_mod"])
    for row in rows[1:]:
        assert 0.0 <= float(row[1]) <= 1.0


def test_run_truncated_feature_file_prints_error(tmp_path, capsys):
    from promptcl import featureio
    feats = tmp_path / "feats.bin"
    featureio.write_feature_file(feats, np.ones((8, 16), np.float32),
                                 np.repeat(np.arange(4, dtype=np.uint32), 2))
    feats.write_bytes(feats.read_bytes()[:-5])
    cfg = write_cfg(tmp_path, kind="feature-file", feature_path=feats)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "feats.bin" in err


def test_run_older_layout_feature_file_prints_bad_magic(tmp_path, capsys):
    # an older feature file: "STARFEAT", version, count and dim u32, then f32
    # rows and u32 labels; its version 1 must not be read as an archive's
    feats, labels = np.ones((8, 16), np.float32), np.repeat(np.arange(4, dtype="<u4"), 2)
    path = tmp_path / "feats.bin"
    path.write_bytes(b"STARFEAT" + struct.pack("<III", 1, 8, 16)
                     + feats.tobytes() + labels.tobytes())
    with pytest.raises(featureio.FormatError, match=r"feats\.bin: bad magic b'STARFEAT'"):
        featureio.load_feature_file(path)
    cfg = write_cfg(tmp_path, kind="feature-file", feature_path=path)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "feats.bin: bad magic b'STARFEAT'" in err


def test_diag_bad_inputs_print_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, E1=1, E2=1)
    out = str(tmp_path / "run")
    assert cli.main(["run", cfg, "--out", out, "--seed", "3", "--checkpoint"]) == 0
    ckpt = tmp_path / "run" / "ckpt_seed3"
    capsys.readouterr()
    # a stream without the checkpoint's later classes
    one_task = write_cfg(tmp_path, name="one.cfg", num_tasks=1)
    assert cli.main(["diag", str(ckpt), one_task, "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: stream lacks test samples for classes")
    # a stream file that is not UTF-8
    not_utf8 = tmp_path / "bytes.cfg"
    not_utf8.write_bytes(b"num_tasks = 2\n\xff\n")
    assert cli.main(["diag", str(ckpt), str(not_utf8), "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {not_utf8}: not UTF-8")
    # a well-formed heads archive without one of its entries
    heads = ckpt / "heads.bin"
    arrays = featureio.read_archive(heads, ls.HEADS_MAGIC)
    del arrays["w0"]
    featureio.write_archive(heads, ls.HEADS_MAGIC, arrays)
    assert cli.main(["diag", str(ckpt), cfg, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "heads.bin" in err and "'w0'" in err
    books = ckpt / "codebooks.bin"
    books.write_bytes(books.read_bytes()[:-3])
    assert cli.main(["diag", str(ckpt), cfg, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "codebooks.bin" in err
    # an older checkpoint of a feature file, whose inputs no longer render the same
    meta_path = ckpt / "trainer.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "feature_space": True}))
    assert cli.main(["diag", str(ckpt), cfg, "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {meta_path}: key 'feature_space' holds True")
    # trainer.json without its encoder entry, then not JSON at all
    del meta["encoder"]
    meta_path.write_text(json.dumps(meta))
    assert cli.main(["diag", str(ckpt), cfg, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trainer.json" in err and "'encoder'" in err
    meta_path.write_text("{")
    assert cli.main(["diag", str(ckpt), cfg, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trainer.json: invalid JSON" in err


def test_checkpoint_without_banks_drops_an_older_runs_banks(tmp_path):
    # no_replay fits no banks; the first run's must not load as its own
    cfg = write_cfg(tmp_path, E1=1, E2=1)
    out = str(tmp_path / "run")
    assert cli.main(["run", cfg, "--out", out, "--seed", "3", "--checkpoint"]) == 0
    ckpt = tmp_path / "run" / "ckpt_seed3"
    assert (ckpt / "bank1.bin").exists() and (ckpt / "bank2.bin").exists()
    assert cli.main(["run", cfg, "--out", out, "--seed", "3", "--checkpoint",
                     "--variant", "no_replay"]) == 0
    assert not (ckpt / "bank1.bin").exists() and not (ckpt / "bank2.bin").exists()
    state = tr.load_checkpoint(ckpt)
    assert state.variant == "no_replay" and state.bank1 == {} and state.bank2 == {}


def test_diag_on_a_narrower_checkpoint_over_an_older_one(tmp_path, capsys):
    # the older run's 16-wide banks would fail the d = 8 checkpoint's checks
    out = str(tmp_path / "run")
    assert cli.main(["run", write_cfg(tmp_path, E1=1, E2=1), "--out", out, "--seed", "3",
                     "--checkpoint"]) == 0
    narrow = write_cfg(tmp_path, name="narrow.cfg", E1=1, E2=1, d=8)
    assert cli.main(["run", narrow, "--out", out, "--seed", "3", "--checkpoint",
                     "--variant", "no_replay"]) == 0
    capsys.readouterr()
    rc = cli.main(["diag", str(tmp_path / "run" / "ckpt_seed3"), narrow,
                   "--out", str(tmp_path / "d")])
    assert rc == 0, capsys.readouterr().err


def test_diag_takes_the_geometry_from_the_checkpoint(tmp_path, capsys):
    # the stream file gives the scenario; its encoder keys (here: none, so
    # the defaults) do not size the stream's inputs
    cfg = write_cfg(tmp_path, E1=1, E2=1)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", "3", "--checkpoint"]) == 0
    encoder_keys = {k for k, key in cli.KEYS.items() if key.section == "encoder"}
    scenario_only = write_cfg(tmp_path, "\n".join(
        line for line in SMALL_CFG.splitlines() if line.split(" = ")[0] not in encoder_keys),
        name="scenario.cfg", E1=1, E2=1)
    capsys.readouterr()
    assert cli.main(["diag", str(out / "ckpt_seed3"), scenario_only,
                     "--out", str(tmp_path / "d")]) == 0, capsys.readouterr().err
    assert ((tmp_path / "d" / "confusion.csv").read_bytes()
            == (out / "confusion_seed3.csv").read_bytes())


def test_diag_non_finite_codebook_entry_names_file_and_entry(tmp_path, capsys):
    cfg = write_cfg(tmp_path, E1=1, E2=1)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", "3", "--checkpoint"]) == 0
    books = out / "ckpt_seed3" / "codebooks.bin"
    arrays = featureio.read_archive(books, pr.CODEBOOK_MAGIC)
    arrays["Q0"][0, 0] = np.nan
    featureio.write_archive(books, pr.CODEBOOK_MAGIC, arrays)
    capsys.readouterr()
    assert cli.main(["diag", str(out / "ckpt_seed3"), cfg, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "codebooks.bin" in err and "'Q0'" in err


def test_run_non_finite_feature_file_names_the_file(tmp_path, capsys):
    feats = np.ones((8, 16), np.float32)
    feats[5, 3] = np.nan
    path = tmp_path / "feats.bin"
    featureio.write_feature_file(path, feats, np.repeat(np.arange(4, dtype=np.uint32), 2))
    cfg = write_cfg(tmp_path, kind="feature-file", feature_path=path)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "feats.bin" in err and "NaN" in err


def test_diag_membership_edits_print_error(tmp_path, capsys):
    # codebooks.bin owns which classes exist and which task owns each; the
    # heads, the banks and trainer.json's names are read against it
    cfg = write_cfg(tmp_path, E1=1, E2=1)
    out = tmp_path / "run"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", "3", "--checkpoint"]) == 0
    ckpt, pristine = out / "ckpt_seed3", tmp_path / "pristine"
    shutil.copytree(ckpt, pristine)
    capsys.readouterr()

    def diag():
        rc = cli.main(["diag", str(ckpt), cfg, "--out", str(tmp_path / "d")])
        return rc, capsys.readouterr().err

    # a stale current_task, as older checkpoints wrote it, changes nothing
    meta = json.loads((ckpt / "trainer.json").read_text())
    (ckpt / "trainer.json").write_text(json.dumps({**meta, "current_task": 7}))
    assert diag() == (0, "")
    assert ((tmp_path / "d" / "confusion.csv").read_bytes()
            == (out / "confusion_seed3.csv").read_bytes())
    # a head whose classes are not its task's
    arrays = featureio.read_archive(ckpt / "heads.bin", ls.HEADS_MAGIC)
    arrays["classes1"] = np.array([90, 91], np.int64)
    featureio.write_archive(ckpt / "heads.bin", ls.HEADS_MAGIC, arrays)
    rc, err = diag()
    assert rc == 1 and err.startswith("error: ") and "heads.bin" in err and "'classes1'" in err
    shutil.copy(pristine / "heads.bin", ckpt / "heads.bin")
    # a codebook class trainer.json does not name
    del meta["class_names"][min(meta["class_names"])]
    (ckpt / "trainer.json").write_text(json.dumps(meta))
    rc, err = diag()
    assert rc == 1 and err.startswith("error: ") and "trainer.json" in err
    assert "'class_names'" in err
    shutil.copy(pristine / "trainer.json", ckpt / "trainer.json")
    # a bank without one of the codebook's classes
    arrays = featureio.read_archive(ckpt / "bank1.bin", gmm.MOG_MAGIC)
    cid = min(int(k[2:]) for k in arrays if k.startswith("mu"))
    for part in ("w", "mu", "cov"):
        del arrays[f"{part}{cid}"]
    featureio.write_archive(ckpt / "bank1.bin", gmm.MOG_MAGIC, arrays)
    rc, err = diag()
    assert rc == 1 and err.startswith("error: ") and "bank1.bin" in err
    assert f"'w{cid}'" in err


def test_run_keeps_no_stream_of_an_earlier_seed(monkeypatch):
    # while a seed trains, neither an unpermuted stream nor any stream (or
    # task) built for an earlier seed is still reachable
    built = []   # (seed or None for unpermuted, weakref)

    def track(fn, seed_of):
        def wrapped(*args):
            stream = fn(*args)
            built.extend((seed_of(args), weakref.ref(o)) for o in [stream] + stream.tasks)
            return stream
        return wrapped

    monkeypatch.setattr(sc, "generate_scenario", track(sc.generate_scenario, lambda a: None))
    monkeypatch.setattr(sc, "permute_classes", track(sc.permute_classes, lambda a: a[1]))
    checked = []
    real = tr.train_task

    def train_task(state, *args):
        gc.collect()
        seed = state.stack.seed
        assert not [s for s, ref in built if s != seed and ref() is not None]
        checked.append(seed)
        return real(state, *args)

    monkeypatch.setattr(tr, "train_task", train_task)
    config = cli.build_experiment({
        "num_tasks": 2, "classes_per_task": 2, "train_per_class": 4,
        "test_per_class": 2, "d": 16, "d_prime": 32, "L": 2, "heads": 2,
        "seq_len": 5, "patch_dim": 8, "E1": 1, "E2": 1, "n_replay": 4,
        "seeds": [3, 4]})
    cli.run_experiment(config, write=False)
    assert checked == [3, 3, 4, 4]
    assert {s for s, _ in built} == {None, 3, 4}


def test_run_encodes_each_test_set_once_per_seed(monkeypatch):
    # T trainings plus one pass per test set: every later evaluation reuses
    # the set's query vectors, and accuracy, first-task precision and the
    # retrieval confusion all come from the same predictions
    encoded = []
    real = tr.vision_encode
    monkeypatch.setattr(tr, "vision_encode",
                        lambda stack, x: encoded.append(len(x)) or real(stack, x))
    config = cli.build_experiment({
        "num_tasks": 2, "classes_per_task": 2, "train_per_class": 4,
        "test_per_class": 2, "d": 16, "d_prime": 32, "L": 2, "heads": 2,
        "seq_len": 5, "patch_dim": 8, "E1": 1, "E2": 1, "n_replay": 4,
        "seeds": [3]})
    report = cli.run_experiment(config, write=False)
    assert encoded == [8, 4, 8, 4]
    assert len(report.precision_curves[3]) == 2
    assert report.confusions[3].shape == (2, 2)
