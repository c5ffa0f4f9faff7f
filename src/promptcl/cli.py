"""Experiment entry point: config-driven runs, diagnostics, gradient checks,
and the ablation sweep.

Config files are flat ``key = value`` lines (``#`` comments allowed); a file
whose first non-blank character is ``{`` is parsed as JSON instead. ``KEYS``
is the one table of config keys: it drives unknown-key rejection, type checks
and the key list that ``promptcl run --help`` prints.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import PromptclError
from . import autodiff as ad
from . import gmm
from . import losses as ls
from . import metrics as mt
from . import optim
from . import scenario as sc
from . import trainer as tr
from .encoders import ConfigError, EncoderConfig, build_stack, embed_tokens
from .featureio import unique_keys
from .rng import Rng

DEFAULT_SEEDS = (1993, 1996, 1997)
DEFAULT_PRESET = "synthetic"


def _parse_value(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_config(path) -> dict:
    """The key -> value mapping of a config file; a key given twice is a
    ConfigError naming it (and, in a flat file, both lines)."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8-sig") as f:  # a leading BOM is dropped
            raw = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    if raw.lstrip().startswith("{"):
        try:
            return json.loads(raw, object_pairs_hook=unique_keys(path, ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    out, lines = {}, {}
    for ln, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ConfigError(f"{path}: key '{key}' is given twice, "
                              f"on lines {lines[key]} and {ln}")
        out[key], lines[key] = _parse_value(val), ln
    return out


@dataclass
class ExperimentConfig:
    scenario: sc.ScenarioSpec
    encoder: EncoderConfig
    hp: tr.Hyperparams
    seeds: tuple = DEFAULT_SEEDS
    variant: str | None = None
    out: str = "out"


# ---------------------------------------------------------------------------
# the config key table


@dataclass(frozen=True)
class ConfigKey:
    name: str
    section: str     # scenario, encoder, training or run
    type: object     # int, float, str, str | None, or tuple for the seed list
    default: object
    field: str       # the field it sets in its section's dataclass


def _keys_of(section, cls, defaults=None, rename=None, skip=()):
    """One row per field of ``cls``; defaults come from ``defaults`` when the
    dataclass declares none."""
    hints = typing.get_type_hints(cls)
    return [ConfigKey((rename or {}).get(f.name, f.name), section, hints[f.name],
                      f.default if defaults is None else getattr(defaults, f.name),
                      f.name)
            for f in fields(cls) if f.name not in skip]


_ROWS = (
    # patches and patch_dim follow the encoder unless the kind is feature-file
    _keys_of("scenario", sc.ScenarioSpec, rename={"seed": "scenario_seed"},
             skip=("patches", "patch_dim"))
    + _keys_of("encoder", EncoderConfig)
    + [ConfigKey("preset", "training", str, DEFAULT_PRESET, "preset")]
    + _keys_of("training", tr.Hyperparams, defaults=tr.preset(DEFAULT_PRESET))
    + _keys_of("run", ExperimentConfig, skip=("scenario", "encoder", "hp")))
KEYS = {k.name: k for k in _ROWS}
SECTIONS = ("scenario", "encoder", "training", "run")

_TYPE_NAMES = {int: "int", float: "float", str: "str", str | None: "str or null",
               tuple: "int list"}


def _seeds(key: ConfigKey, value) -> tuple:
    """An int, a list of ints, or a comma-separated string of ints."""
    items = [s for s in value.split(",") if s.strip()] if isinstance(value, str) else value
    items = items if isinstance(items, (list, tuple)) else [items]
    try:
        seeds = tuple(int(s) if isinstance(s, str) else s for s in items)
    except ValueError:
        seeds = None
    if not seeds or any(type(s) is not int or s < 0 for s in seeds):
        raise ConfigError(f"config key '{key.name}' must be a non-negative int or a "
                          f"nonempty comma-separated list of them, got {value!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"config key '{key.name}' repeats a seed: {value!r}")
    return seeds


def _checked(key: ConfigKey, value):
    """``value`` as ``key``'s type; a ConfigError naming the key otherwise.

    Int keys reject bools, floats and strings; float keys accept ints and
    reject NaN and +-Infinity.
    """
    if key.type is tuple:
        return _seeds(key, value)
    allowed = typing.get_args(key.type) or (key.type,)
    if float in allowed and type(value) in (int, float):
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf or an int past the float range
            raise ConfigError(f"config key '{key.name}' must be finite, got {value!r}")
        return float(value)
    if type(value) not in allowed:
        raise ConfigError(f"config key '{key.name}' must be of type "
                          f"{_TYPE_NAMES[key.type]}, got {type(value).__name__} {value!r}")
    return value


def _keys_help() -> str:
    """The key list printed by ``promptcl run --help``."""
    lines = ["config keys: type, default (training keys default to the chosen",
             f"preset's values; shown: {DEFAULT_PRESET})"]
    for section in SECTIONS:
        lines.append(f"  {section}")
        for k in _ROWS:
            if k.section == section:
                default = (",".join(map(str, k.default)) if k.type is tuple
                           else json.dumps(k.default))
                lines.append(f"    {k.name:<17} {_TYPE_NAMES[k.type]:<12} {default}")
    return "\n".join(lines)


def build_experiment(cfg: dict) -> ExperimentConfig:
    unknown = set(cfg) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given = {s: {} for s in SECTIONS}
    for name, value in cfg.items():
        key = KEYS[name]
        given[key.section][key.field] = _checked(key, value)
    encoder = EncoderConfig(**given["encoder"])
    scen_kwargs = given["scenario"]
    # raw inputs are sized for the encoder so samples run the full vision path
    scen_kwargs["patches"] = encoder.patches
    scen_kwargs["patch_dim"] = encoder.patch_dim
    scenario = sc.ScenarioSpec(**scen_kwargs)
    hp_kwargs = given["training"]
    hp = replace(tr.preset(hp_kwargs.pop("preset", DEFAULT_PRESET)), **hp_kwargs)
    run = given["run"]
    run["variant"] = tr.check_variant(run.get("variant"))
    return ExperimentConfig(scenario=scenario, encoder=encoder, hp=hp, **run)


@dataclass
class RunReport:
    per_seed: dict = field(default_factory=dict)      # seed -> AccuracyMatrix
    confusions: dict = field(default_factory=dict)    # seed -> confusion array
    precision_curves: dict = field(default_factory=dict)  # seed -> [per-task]
    summary: dict = field(default_factory=dict)       # metrics.summarize(per_seed)
    paths: list = field(default_factory=list)


def _predict_tasks(state, tasks, queries):
    """Accuracy and the selected key class per query on each task's test
    set, from one ``predict_batch`` call per task on ``queries``, each test
    set as an array or a ``trainer.QuerySet``."""
    accs, chosen = [], []
    for task, x in zip(tasks, queries):
        preds, _, sel = tr.predict_batch(state, x)
        accs.append(float(np.mean(np.asarray(preds) == task.test_y)))
        chosen.append(sel)
    return accs, chosen


def _run_seed(config: ExperimentConfig, seed: int, checkpoint_last: bool):
    """Train seed ``seed`` on its permuted stream: (accuracy matrix,
    retrieval confusion, first-task precision curve). The stream is generated
    here, so neither it nor the unpermuted one outlives the seed."""
    stream = sc.generate_scenario(config.scenario)
    if len(stream.tasks) > 1:
        stream = sc.permute_classes(stream, seed)
    state = tr.new_state(config.encoder, seed=seed, variant=config.variant)
    matrix = mt.AccuracyMatrix(len(stream.tasks))
    curve = []
    # each test set is encoded once and re-predicted after every later task
    queries = [tr.QuerySet(task.test_x) for task in stream.tasks]
    for task in stream.tasks:
        tr.train_task(state, task, config.hp, stream.class_names)
        seen = task.task_id + 1
        accs, chosen = _predict_tasks(state, stream.tasks[:seen], queries[:seen])
        for j, acc in enumerate(accs):
            matrix.record(task.task_id, j, acc)
        # first-task precision: share of task-0 queries keyed to a task-0 class
        curve.append(float(np.mean([state.books.task_of[c] == 0 for c in chosen[0]])))
    if checkpoint_last:
        tr.save_checkpoint(state, os.path.join(config.out, f"ckpt_seed{seed}"))
    return matrix, mt.retrieval_confusion(state.books.task_of, chosen), curve


def run_experiment(config: ExperimentConfig, write=True,
                   checkpoint_last=False) -> RunReport:
    """Train every seed's permuted stream and aggregate metrics."""
    report = RunReport()
    for seed in config.seeds:
        (report.per_seed[seed], report.confusions[seed],
         report.precision_curves[seed]) = _run_seed(config, seed, checkpoint_last)
    report.summary = mt.summarize(report.per_seed)
    if write:
        extras = {"variant": config.variant or tr.FULL,
                  "task1_precision": {str(s): report.precision_curves[s]
                                      for s in sorted(report.precision_curves)}}
        report.paths = mt.report(config.out, report.per_seed,
                                 confusions=report.confusions, extras=extras)
    return report


# ---------------------------------------------------------------------------
# gradient verification suite


# the frozen block the random graphs run through: 4 wide, so a graph stays
# small enough to difference every input entry
_ORACLE_ENCODER = EncoderConfig(d=4, d_prime=4, L=1, heads=2, seq_len=3, patch_dim=2)


def _random_graph_check(seed: int) -> float:
    """One randomized composition of the ops the program builds; returns the
    max relative error of its reverse-mode gradients.

    Every graph gathers token rows with repeats (``take``), runs them through
    a frozen block conditioned by a residual or by prefix key/values (sliced,
    and for a prefix re-concatenated, from one leaf), concatenates the block
    output with its input, applies a random chain of row ops and reads out
    through a matmul head.
    """
    rng = Rng(seed)
    blk = build_stack(_ORACLE_ENCODER, 5).main_blocks[0]
    dim = _ORACLE_ENCODER.d_prime
    b = int(rng.integers(1, 3))  # samples
    n = int(rng.integers(2, 4))  # tokens per sample
    m = int(rng.integers(1, 3))  # prefix tokens
    heads = int(rng.integers(1, 3))
    prefix = bool(rng.integers(0, 2))
    cls_only = bool(rng.integers(0, 2))
    idx = rng.integers(0, n, size=b * n)
    idx[-1] = idx[0]  # at least one repeated row
    chain = [int(k) for k in rng.permutation(6)[:int(rng.integers(1, 4))]]  # no op twice
    params = {
        "x": rng.normal((n, dim), dtype=np.float64),
        "c": rng.normal((b, 2 * m if prefix else 2, dim), std=0.5, dtype=np.float64),
        "w": rng.normal((dim, 2), dtype=np.float64),
    }
    row_ops = (ad.log_softmax, ad.l2_normalize, ad.absolute,
               lambda t: ad.scale(t, 1.7),
               lambda t: ad.mul(t, t),
               lambda t: ad.add(t, ad.mean(t, axis=-1, keepdims=True)))

    def fn(p):
        rows = ad.reshape(ad.take(p["x"], idx), (b, n, dim))
        c = p["c"]
        if prefix:  # keys and values swapped: the slices' order differs from the leaf's
            kv = ad.concat([ad.slice_axis(c, 1, m, 2 * m), ad.slice_axis(c, 1, 0, m)], axis=1)
            h = ad.frozen_block(rows, blk, heads, prefix_kv=kv, cls_only=cls_only)
        else:
            res = ad.mul(ad.slice_axis(c, 1, 0, 1), ad.slice_axis(c, 1, 1, 2))
            h = ad.frozen_block(rows, blk, heads, residual=res, cls_only=cls_only)
        h = ad.concat([h, rows], axis=1)
        for k in chain:
            h = row_ops[k](h)
        logits = ad.matmul(ad.reshape(ad.swapaxes(h, 0, 1), (-1, dim)), p["w"])
        return ad.mean(ad.stack([ad.rsum(logits), ad.mean(ad.absolute(logits))]))

    rep = optim.grad_check(fn, params, tol=1e-4, h=1e-5)
    return rep.max_rel_err


def _oracle_state(variant=None):
    """A two-task state of random arrays on a 2-block copy of the oracle's
    stack, 3 queries near classes 2, 3 and 0, and their tokens. Task 0 owns
    classes 0 and 1, task 1 (the current task) classes 2 and 3; every class
    has a prompt, a key, query weights, a second-level prompt, a name, a
    2-component mixture in each bank and a column of the head."""
    cfg, rng = replace(_ORACLE_ENCODER, L=2), Rng(12)
    state = tr.new_state(cfg, seed=11, variant=variant)
    books, heads = state.books, state.heads
    keys = rng.normal((4, cfg.d))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    z = keys[[2, 3, 0]] + rng.normal((3, cfg.d), std=0.2)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    for c in range(4):
        books.task_of[c], books.keys[c] = c // 2, keys[c]
        books.A[c] = 1.0 + rng.normal((cfg.d,), std=0.3)
        books.Q[c] = rng.normal(books.q_shape(), std=0.5)
        books.p[c] = rng.normal((cfg.d,), std=0.5)
        state.bank1[c], state.bank2[c] = (
            gmm.MoG(weights=np.array([0.4, 0.6]), means=rng.normal((2, dim), dtype=np.float64),
                    covs=rng.uniform((2, dim), 0.2, 1.0, dtype=np.float64))
            for dim in (cfg.d, cfg.d_prime))
    tr._register_names(state, range(4), None)
    heads.add_task(0, [0, 1])
    heads.add_task(1, [2, 3])
    heads.W[:], heads.b[:] = rng.normal(heads.W.shape), rng.normal(heads.b.shape, std=0.1)
    return state, z, embed_tokens(state.stack, rng.normal((3, cfg.patches, cfg.patch_dim)))


def _stage2_oracle(variant, cids, labels):
    """``trainer.stage2_loss`` under ``variant`` on ``_oracle_state``, and
    its params: the current classes' rows and head columns."""
    state, z, tokens = _oracle_state(variant)
    sel = tr._select_batch(state, z)
    W, b = state.heads.heads[1]
    params = {"Q": np.stack([state.books.Q[c] for c in cids]),
              "A": np.stack([state.books.A[c] for c in cids]), "W": W, "b": b}
    return lambda p: tr.stage2_loss(state, cids, p, tokens, z, sel, labels, 0.5), params


def _oracle_losses() -> dict:
    """line label -> (loss over a name -> tensor dict, its float32 params)
    for each training loss on ``_oracle_state``: stage 1, key replay, stage 2
    under each variant with a second level and head replay. Stage 2's batch
    selects both current classes and a past one, whose rows enter as
    constants; each replay loss draws 3 rows per class from a fixed ``Rng``,
    so every call sees the same rows."""
    cids, labels = [2, 3], [0, 1, 1]
    state, z, _ = _oracle_state()
    heads, p = state.heads, {"p": np.stack([state.books.p[c] for c in cids])}
    out = {"stage-1 loss": (lambda prm: tr.stage1_loss(state, cids, prm, z, labels, 0.5), p),
           "key-replay loss": (lambda prm: tr.key_replay_loss(state, cids, prm, 3, Rng(14)), p)}
    for variant in (v for v, switches in tr.VARIANT_TABLE.items() if switches.second_level):
        out[f"stage-2 loss, {variant or tr.FULL}"] = _stage2_oracle(variant, cids, labels)
    out["head-replay loss"] = (
        lambda prm: ls.gr_loss_second(prm["W"], prm["b"], state.bank2, heads.classes, 3, Rng(15)),
        {"W": heads.W, "b": heads.b})
    return out


def gradcheck_suite(n_graphs: int = 100, verbose: bool = False):
    """Reverse-mode vs central differences; returns (worst graph err, worst
    loss err), the latter over every training loss of ``_oracle_losses``,
    each differentiated in float64."""
    worst = 0.0
    for i in range(n_graphs):
        err = _random_graph_check(1000 + i)
        worst = max(worst, err)
        if verbose and (i + 1) % 25 == 0:
            print(f"  {i + 1}/{n_graphs} graphs, max rel err {worst:.3g}")
    errs = {label: optim.grad_check(fn, params, tol=1e-3, h=1e-5).max_rel_err
            for label, (fn, params) in _oracle_losses().items()}
    if verbose:
        for label, err in errs.items():
            print(f"  {label}: max rel err {err:.3g} (tol 1e-3) {'ok' if err < 1e-3 else 'FAIL'}")
    return worst, max(errs.values())


# ---------------------------------------------------------------------------
# subcommands


def _load_experiment(args) -> ExperimentConfig:
    """The config file with the subcommand's override flags applied; flags a
    subcommand does not define are skipped."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    for flag in ("out", "variant", "preset"):
        value = getattr(args, flag, None)
        if value == "":
            raise ConfigError(f"--{flag} must not be empty")
        if value is not None:
            cfg[flag] = value
    return build_experiment(cfg)


def _cmd_run(args) -> int:
    config = _load_experiment(args)
    report = run_experiment(config, checkpoint_last=args.checkpoint)
    s = report.summary
    ff = f"  FF {s['ff_mean']:.4f} ± {s['ff_std']:.4f}" if "ff_mean" in s else ""
    print(f"[{config.variant or tr.FULL}] FAA {s['faa_mean']:.4f} ± {s['faa_std']:.4f}{ff}")
    for path in report.paths:
        print("wrote", path)
    return 0


def _cmd_ablate(args) -> int:
    base = _load_experiment(args)
    rows = []
    for variant in tr.VARIANT_TABLE:
        name = variant or tr.FULL
        config = replace(base, variant=variant, out=os.path.join(base.out, name))
        s = run_experiment(config).summary
        rows.append((name, s["faa_mean"], s["faa_std"], s.get("ff_mean"), s.get("ff_std")))
        print(f"[{name}] FAA {s['faa_mean']:.4f} ± {s['faa_std']:.4f}")
    os.makedirs(base.out, exist_ok=True)
    path = os.path.join(base.out, "ablation.csv")
    mt.write_csv(path, ["variant", "faa_mean", "faa_std", "ff_mean", "ff_std"], rows)
    print("wrote", path)
    return 0


def _cmd_diag(args) -> int:
    state = tr.load_checkpoint(args.checkpoint)
    # the stream is sized for the checkpoint's encoder, whatever the file says
    config = build_experiment({**parse_config(args.stream), **asdict(state.stack.config)})
    # the checkpoint's class-to-task grouping, so query task i is trained task i
    stream = sc.regroup(sc.generate_scenario(config.scenario), state.books.groups())
    _, chosen = _predict_tasks(state, stream.tasks, [t.test_x for t in stream.tasks])
    C = mt.retrieval_confusion(state.books.task_of, chosen)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "confusion.csv")
    mt.write_confusion(path, C)
    print("wrote", path)
    print("diagonal mass:", " ".join(f"{C[i, i]:.3f}" for i in range(C.shape[0])))
    return 0


def _cmd_gradcheck(args) -> int:
    if args.graphs < 1:
        raise ConfigError(f"--graphs must be >= 1, got {args.graphs}")
    worst, losses = gradcheck_suite(n_graphs=args.graphs, verbose=True)
    ok = worst < 1e-4 and losses < 1e-3
    print(f"composite graphs: max rel err {worst:.3g} (tol 1e-4)")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="promptcl",
        description="Continual prompt-learning experiments on frozen mini-transformers.")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a full multi-seed experiment",
                           epilog=_keys_help(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--variant", default=None,
                       help=f"{tr.FULL} (the default) or an ablation: {', '.join(tr.VARIANTS)}")
    p_run.add_argument("--preset", default=None)
    p_run.add_argument("--checkpoint", action="store_true",
                       help="save a checkpoint per seed after the last task")

    p_diag = sub.add_parser("diag", help="retrieval confusion for a checkpoint")
    p_diag.add_argument("checkpoint")
    p_diag.add_argument("stream", help="scenario config file")
    p_diag.add_argument("--out", default=None)

    p_grad = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p_grad.add_argument("--graphs", type=int, default=100)

    p_abl = sub.add_parser("ablate", help="run the full method plus every variant")
    p_abl.add_argument("config")
    p_abl.add_argument("--seed", type=int, default=None)
    p_abl.add_argument("--out", default=None)
    p_abl.add_argument("--preset", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    handlers = {"run": _cmd_run, "diag": _cmd_diag,
                "gradcheck": _cmd_gradcheck, "ablate": _cmd_ablate}
    try:
        return handlers[args.command](args)
    except (PromptclError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
