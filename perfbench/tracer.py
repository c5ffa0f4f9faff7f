"""Wrap the package's public entry points from outside and aggregate spans.

``from module import name`` copies the binding into the importing module, so
wrapping only the defining module misses every caller that imported the name
(``trainer.vit_forward``, ``prompts.text_encode``, ...). ``patch`` therefore
rebinds the function in every ``promptcl`` module that holds it, and
``restore`` puts the originals back.

Spans nest through a stack: each one adds its duration to its parent's child
time, so a span's self time is its duration minus the time its children
covered. The package builds ~10^6 graph nodes per training seed, so spans are
aggregated as they close (calls, self seconds) instead of being kept in a list.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module[:class], attribute)
SPANS = (
    ("encoders.vit_forward", "promptcl.encoders", "vit_forward"),
    ("encoders.text_encode", "promptcl.encoders", "text_encode"),
    ("encoders.vision_encode", "promptcl.encoders", "vision_encode"),
    ("encoders.embed_tokens", "promptcl.encoders", "embed_tokens"),
    ("trainer.stage1", "promptcl.trainer", "_stage1"),
    ("trainer.stage1_replay", "promptcl.trainer", "_stage1_replay"),
    ("trainer.stage2", "promptcl.trainer", "_stage2"),
    ("trainer.stage2_replay", "promptcl.trainer", "_stage2_replay"),
    ("trainer.fit_bank", "promptcl.trainer", "_fit_bank"),
    ("trainer.evaluate", "promptcl.trainer", "evaluate"),
    ("trainer.select_batch", "promptcl.trainer", "_select_batch"),
    ("trainer.conditioned_cls", "promptcl.trainer", "_conditioned_cls"),
    ("losses.ortho_first", "promptcl.losses", "ortho_first"),
    ("losses.ortho_second", "promptcl.losses", "ortho_second"),
    ("losses.gr_loss_first", "promptcl.losses", "gr_loss_first"),
    ("losses.gr_loss_second", "promptcl.losses", "gr_loss_second"),
    ("losses.ce_stage1", "promptcl.losses", "ce_stage1"),
    ("losses.ce_stage2", "promptcl.losses", "ce_stage2"),
    ("gmm.sample", "promptcl.gmm", "sample"),
    ("gmm.fit_em", "promptcl.gmm", "fit_em"),
    ("prompts.select", "promptcl.prompts", "select"),
    ("prompts.compute_keys", "promptcl.prompts", "compute_keys"),
    ("optim.adam_step", "promptcl.optim", "adam_step"),
    ("rng.child", "promptcl.rng:Rng", "child"),
    ("featureio.read", "promptcl.featureio", "read_archive"),
    ("featureio.write", "promptcl.featureio", "write_archive"),
    ("scenario.generate", "promptcl.scenario", "generate_scenario"),
    ("metrics.report", "promptcl.metrics", "report"),
    ("autodiff.backward", "promptcl.autodiff:Tensor", "backward"),
    ("autodiff.finite_check", "promptcl.autodiff", "_ensure_finite"),
)

# every op name autodiff._make records; fixed so each run reports the same keys
OPS = ("add", "sub", "mul", "scale", "matmul", "gelu", "layer_norm", "softmax",
       "log_softmax", "l2_normalize", "sum", "log", "exp", "abs", "concat",
       "stack", "transpose", "reshape", "slice")

# counters beyond calls and self time: (name, unit, better)
COUNTS = (
    ("autodiff.nodes", "count", "lower"),
    ("autodiff.leaves", "count", "lower"),
    ("autodiff.grad_nodes", "count", "lower"),
    ("autodiff.grad_node_share", "ratio", "higher"),
    ("gmm.sample.rows", "count", "lower"),
    ("gmm.em_iters", "count", "lower"),
    ("gmm.em_capped", "count", "lower"),
    ("featureio.read.bytes", "bytes", "lower"),
    ("featureio.write.bytes", "bytes", "lower"),
)

# reported by the runner of a traced run, not by the tracer
RUN_METRICS = (
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs():
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    specs = []
    for prefix, _, _ in SPANS:
        specs += [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.s", "s", "lower")]
    specs += [(f"autodiff.op.{op}.calls", "count", "lower") for op in OPS]
    return specs + list(COUNTS) + list(RUN_METRICS)


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Patcher:
    """Rebind callables wherever the package looks them up; undo on restore."""

    def __init__(self):
        self._saved = []

    def patch(self, owner_path, attr, make_wrapper):
        """Wrap ``attr``; returns False, patching nothing, if it does not exist."""
        owner = _resolve(owner_path)
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [m for name, m in sorted(sys.modules.items())
                       if name.startswith("promptcl") and m is not owner
                       and getattr(m, attr, None) is original]
        for o in owners:
            self._saved.append((o, attr, original))
            setattr(o, attr, wrapper)
        return True

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Aggregated spans and counters over the package's entry points."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._patcher = Patcher()
        self.missing = set()   # entry points the package no longer has

    def _span(self, name, after=None):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    child = stack.pop()
                    self_s[name] += dur - child
                    if stack:
                        stack[-1] += dur
                    calls[name] += 1
                if after is not None:
                    after(args, kwargs, out)
                return out
            return wrapper
        return make

    def install(self):
        counts = self.counts
        extra = {
            "gmm.sample": self._after_sample,
            "gmm.fit_em": self._after_fit,
            "featureio.read": self._after_io("featureio.read.bytes"),
            "featureio.write": self._after_io("featureio.write.bytes"),
        }
        for name, owner, attr in SPANS:
            if not self._patcher.patch(owner, attr, self._span(name, extra.get(name))):
                self.missing.add(f"{owner}.{attr}")

        def make_node(fn):
            @functools.wraps(fn)
            def wrapper(out, parents, backward, op):
                t = fn(out, parents, backward, op)
                counts["op." + op] += 1
                counts["grad_nodes"] += t.requires_grad
                return t
            return wrapper

        def make_leaf(fn):
            @functools.wraps(fn)
            def wrapper(self_, data, requires_grad=False):
                fn(self_, data, requires_grad)
                counts["leaves"] += 1
                counts["grad_nodes"] += self_.requires_grad
            return wrapper

        for owner, attr, make in (("promptcl.autodiff", "_make", make_node),
                                  ("promptcl.autodiff:Tensor", "__init__", make_leaf)):
            if not self._patcher.patch(owner, attr, make):
                self.missing.add(f"{owner}.{attr}")

    def restore(self):
        self._patcher.restore()

    def _after_sample(self, args, kwargs, out):
        self.counts["gmm.sample.rows"] += len(out)

    def _after_fit(self, args, kwargs, mog):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
        iters = len(mog.ll_history)
        self.counts["gmm.em_iters"] += iters
        self.counts["gmm.em_capped"] += iters >= cfg.max_iters

    def _after_io(self, key):
        def after(args, kwargs, out):
            self.counts[key] += os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])
        return after

    def metrics(self):
        """Per-layer values keyed by metric name (trace.* excluded)."""
        out = {}
        for prefix, _, _ in SPANS:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.s"] = self.self_s[prefix]
        for op in OPS:
            out[f"autodiff.op.{op}.calls"] = self.counts["op." + op]
        nodes = self.counts["leaves"] + sum(
            v for k, v in self.counts.items() if k.startswith("op."))
        out["autodiff.nodes"] = nodes
        out["autodiff.leaves"] = self.counts["leaves"]
        out["autodiff.grad_nodes"] = self.counts["grad_nodes"]
        out["autodiff.grad_node_share"] = self.counts["grad_nodes"] / max(nodes, 1)
        for key in ("gmm.sample.rows", "gmm.em_iters", "gmm.em_capped",
                    "featureio.read.bytes", "featureio.write.bytes"):
            out[key] = self.counts[key]
        return out

    def unknown_ops(self):
        """Op names recorded that OPS does not list (a new primitive)."""
        return sorted(k[3:] for k in self.counts if k.startswith("op.")
                      and k[3:] not in OPS)
