import csv
import json
import os
import re

import numpy as np
import pytest

from promptcl import cli
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
    lines = [text] + [f"{k} = {v}" for k, v in extra.items()]
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
])
def test_build_experiment_type_checks_name_the_key(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    key = re.search(r"\w+", text).group()
    with pytest.raises(cli.ConfigError, match=f"'{key}'"):
        cli.build_experiment(cli.parse_config(str(path)))


def test_float_keys_accept_ints():
    config = cli.build_experiment({"tau": 1, "separation": 2, "lr1": 1})
    assert type(config.encoder.tau) is float and config.encoder.tau == 1.0
    assert type(config.scenario.separation) is float
    assert type(config.hp.lr1) is float


@pytest.mark.parametrize("text", ["d_prime = 65", "tau = 0", '{"num_tasks": 1,',
                                  "test_per_class = 0"])
def test_run_bad_config_prints_error(tmp_path, capsys, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_diag_subcommand(tmp_path):
    cfg = write_cfg(tmp_path)
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
    books = ckpt / "codebooks.bin"
    books.write_bytes(books.read_bytes()[:-3])
    assert cli.main(["diag", str(ckpt), cfg, "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "codebooks.bin" in err


def test_run_encodes_each_test_set_once_per_evaluation(monkeypatch):
    # T trainings plus T(T+1)/2 evaluations: accuracy, first-task precision
    # and the retrieval confusion all come from the same prediction pass
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
    assert encoded == [8, 4, 8, 4, 4]
    assert len(report.precision_curves[3]) == 2
    assert report.confusions[3].shape == (2, 2)
