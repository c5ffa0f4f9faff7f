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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import PromptclError
from . import autodiff as ad
from . import losses as ls
from . import metrics as mt
from . import optim
from . import scenario as sc
from . import trainer as tr
from .encoders import ConfigError, EncoderConfig, build_stack, vit_forward
from .rng import Rng

DEFAULT_SEEDS = (1993, 1996, 1997)
DEFAULT_PRESET = "synthetic"


def _parse_value(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        raw = f.read()
    stripped = raw.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    out = {}
    for ln, line in enumerate(raw.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = _parse_value(val)
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
    if not seeds or any(type(s) is not int for s in seeds):
        raise ConfigError(f"config key '{key.name}' must be an int or a nonempty "
                          f"comma-separated int list, got {value!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"config key '{key.name}' repeats a seed: {value!r}")
    return seeds


def _checked(key: ConfigKey, value):
    """``value`` as ``key``'s type; a ConfigError naming the key otherwise.

    Int keys reject bools, floats and strings; float keys accept ints.
    """
    if key.type is tuple:
        return _seeds(key, value)
    allowed = typing.get_args(key.type) or (key.type,)
    if float in allowed and type(value) is int:
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
    if scen_kwargs.get("kind") != "feature-file":
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
    variant: str | None
    per_seed: dict = field(default_factory=dict)      # seed -> AccuracyMatrix
    confusions: dict = field(default_factory=dict)    # seed -> confusion array
    precision_curves: dict = field(default_factory=dict)  # seed -> [per-task]
    summary: dict = field(default_factory=dict)       # metrics.summarize(per_seed)
    paths: list = field(default_factory=list)


def _predict_tasks(state, tasks):
    """Accuracy and the selected key class per query on each task's test
    set, from one ``predict_batch`` call per task."""
    accs, chosen = [], []
    for task in tasks:
        preds, _, sel = tr.predict_batch(state, task.test_x)
        accs.append(float(np.mean(np.asarray(preds) == task.test_y)))
        chosen.append(sel)
    return accs, chosen


def run_experiment(config: ExperimentConfig, write=True,
                   checkpoint_last=False) -> RunReport:
    """Train every seed's permuted stream and aggregate metrics."""
    base = sc.generate_scenario(config.scenario)
    report = RunReport(variant=config.variant)
    for seed in config.seeds:
        stream = sc.permute_classes(base, seed) if len(base.tasks) > 1 else base
        state = tr.new_state(config.encoder, seed=seed, variant=config.variant,
                             feature_space=stream.feature_space)
        matrix = mt.AccuracyMatrix(len(stream.tasks))
        curve = []
        for task in stream.tasks:
            tr.train_task(state, task, config.hp, stream.class_names)
            accs, chosen = _predict_tasks(state, stream.tasks[:task.task_id + 1])
            for j, acc in enumerate(accs):
                matrix.record(task.task_id, j, acc)
            # first-task precision: share of task-0 queries keyed to a task-0 class
            curve.append(float(np.mean([state.books.task_of[c] == 0 for c in chosen[0]])))
        report.per_seed[seed] = matrix
        report.confusions[seed] = mt.retrieval_confusion(state.books.task_of, chosen)
        report.precision_curves[seed] = curve
        if checkpoint_last:
            tr.save_checkpoint(state, os.path.join(config.out, f"ckpt_seed{seed}"))
    report.summary = mt.summarize(report.per_seed)
    if write:
        extras = {"variant": config.variant or "full",
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


def _stage2_loss_check(prefix_tokens: int = 0) -> float:
    """FD-check the full second-stage loss through a 2-block mini ViT,
    conditioned by residuals or, with ``prefix_tokens``, by prefix key/values
    (as ``prefix_tuning`` trains them)."""
    cfg = EncoderConfig(d=8, d_prime=16, L=2, heads=2, seq_len=4, patch_dim=4)
    stack = build_stack(cfg, 11)
    rng = Rng(12)
    x = rng.normal((3, cfg.patches, cfg.patch_dim), dtype=np.float64)
    labels = [0, 1, 0]
    q_shape = (cfg.L, 2 * prefix_tokens, cfg.d_prime) if prefix_tokens else (cfg.L, cfg.d_prime)
    params = {
        "Q": rng.normal(q_shape, std=0.1, dtype=np.float64),
        "w": rng.normal((cfg.d_prime, 2), std=0.1, dtype=np.float64),
        "b": np.zeros(2, np.float64),
    }
    past_q = rng.normal(q_shape, dtype=np.float64)

    def fn(p):
        q = ad.stack([p["Q"]], axis=0)
        if prefix_tokens:
            feats = vit_forward(stack, x, prefix=ad.take(q, [0, 0, 0]))
        else:
            res = ad.scale(p["Q"], 0.7)  # fixed confidence weight
            feats = ad.stack([vit_forward(stack, x[i], residuals=res) for i in range(3)], axis=0)
        loss = ls.ce_stage2(p["w"], p["b"], feats, labels)
        penalty = ls.ortho_second(q, [past_q])
        return ad.add(loss, ad.scale(penalty, 0.5))

    rep = optim.grad_check(fn, params, tol=1e-3, h=1e-5)
    return rep.max_rel_err


def gradcheck_suite(n_graphs: int = 100, verbose: bool = False):
    """Reverse-mode vs central differences; returns (worst graph err, stage-2
    err), the latter the worse of the residual and prefix stage-2 losses."""
    worst = 0.0
    for i in range(n_graphs):
        err = _random_graph_check(1000 + i)
        worst = max(worst, err)
        if verbose and (i + 1) % 25 == 0:
            print(f"  {i + 1}/{n_graphs} graphs, max rel err {worst:.3g}")
    stage2 = max(_stage2_loss_check(), _stage2_loss_check(prefix_tokens=2))
    return worst, stage2


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
        if value:
            cfg[flag] = value
    return build_experiment(cfg)


def _cmd_run(args) -> int:
    config = _load_experiment(args)
    report = run_experiment(config, checkpoint_last=args.checkpoint)
    s = report.summary
    ff = f"  FF {s['ff_mean']:.4f} ± {s['ff_std']:.4f}" if "ff_mean" in s else ""
    print(f"[{report.variant or 'full'}] FAA {s['faa_mean']:.4f} ± {s['faa_std']:.4f}{ff}")
    for path in report.paths:
        print("wrote", path)
    return 0


def _cmd_ablate(args) -> int:
    base = _load_experiment(args)
    rows = []
    for variant in (None,) + tr.VARIANTS:
        name = variant or "full"
        config = replace(base, variant=variant,
                         out=os.path.join(base.out, name))
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
    config = build_experiment(parse_config(args.stream))
    # the checkpoint's class-to-task grouping, so query task i is trained task i
    task_of = state.books.task_of
    groups = [[c for c in state.books.class_ids if task_of[c] == t]
              for t in range(state.current_task + 1)]
    stream = sc.regroup(sc.generate_scenario(config.scenario), groups)
    _, chosen = _predict_tasks(state, stream.tasks)
    C = mt.retrieval_confusion(task_of, chosen)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "confusion.csv")
    mt.write_confusion(path, C)
    print("wrote", path)
    print("diagonal mass:", " ".join(f"{C[i, i]:.3f}" for i in range(C.shape[0])))
    return 0


def _cmd_gradcheck(args) -> int:
    worst, stage2 = gradcheck_suite(n_graphs=args.graphs, verbose=True)
    ok = worst < 1e-4 and stage2 < 1e-3
    print(f"composite graphs: max rel err {worst:.3g} (tol 1e-4)")
    print(f"stage-2 loss (residual and prefix graphs): max rel err {stage2:.3g} (tol 1e-3)")
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
    p_run.add_argument("--variant", default=None)
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
