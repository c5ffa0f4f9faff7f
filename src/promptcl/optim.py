"""Adam optimizer over named numpy parameters, plus finite-difference checks."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import PromptclError
from . import autodiff as ad


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class GradientError(PromptclError):
    """Raised when a gradient is unusable (NaN/Inf or shape mismatch)."""


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators with bias correction."""

    lr: float = 0.001
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict, rows: dict | None = None) -> None:
    """One Adam update, in place on the arrays in ``params``.

    ``params`` maps name -> numpy array, ``grads`` name -> matching gradient;
    a parameter whose gradient is missing or None is left untouched. ``rows``
    maps a name to a boolean mask over its first axis: rows outside it keep
    their values and moments (lazy Adam), as a parameter of its own would.
    """
    state.step_count += 1
    bc1, bc2 = 1.0 - BETA1 ** state.step_count, 1.0 - BETA2 ** state.step_count
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.shape:
            raise GradientError(f"gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        r = (rows or {}).get(name, ...)  # ... indexes every row
        g = g[r]
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient for parameter '{name}'")
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m[r] = m[r] * BETA1 + (1.0 - BETA1) * g
        v[r] = v[r] * BETA2 + (1.0 - BETA2) * g * g
        p[r] -= (state.lr * (m[r] / bc1) / (np.sqrt(v[r] / bc2) + EPS)).astype(p.dtype)


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict  # name -> max relative error
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(fn, params: dict, tol: float = 1e-4, h: float = 1e-3) -> GradCheckReport:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn(params) -> scalar Tensor`` must rebuild its graph from the given
    name -> numpy array mapping on every call. The comparison runs in float64
    so the finite-difference oracle is not limited by storage precision.
    """
    params64 = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in params64.items()}
    loss = fn(tensors)
    loss.backward()
    analytic = {k: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for k, t in tensors.items()}

    per_param = {}
    for name, p in params64.items():
        num = np.zeros_like(p)
        flat = p.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn({k: ad.Tensor(v) for k, v in params64.items()}).item()
            flat[i] = orig - h
            fm = fn({k: ad.Tensor(v) for k, v in params64.items()}).item()
            flat[i] = orig
            nflat[i] = (fp - fm) / (2.0 * h)
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1.0)
        per_param[name] = float(np.max(np.abs(a - num) / denom)) if p.size else 0.0

    worst = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(max_rel_err=worst, per_param=per_param, tol=tol)
