"""Per-class Mixture-of-Gaussians feature models: EM fitting and sampling.

Covariances are diagonal. All EM statistics are accumulated in float64; fits
are deterministic under a fixed sample order and seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import PromptclError
from .featureio import FormatError, archive_entry, read_archive, write_archive
from .rng import Rng

MOG_MAGIC = b"STARMOGB"


class FitError(PromptclError):
    pass


@dataclass
class EMConfig:
    m: int = 5
    seed: int = 0
    max_iters: ClassVar[int] = 100
    tol: ClassVar[float] = 1e-4  # relative log-likelihood gain
    var_floor: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.m < 1:
            raise FitError("component count must be >= 1")


@dataclass
class MoG:
    weights: np.ndarray            # (M,), simplex
    means: np.ndarray              # (M, D)
    covs: np.ndarray               # (M, D) per-component variances
    ll_history: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _component_log_density(mog: MoG, x: np.ndarray) -> np.ndarray:
    """(N, M) log N(x; mu_m, Sigma_m)."""
    n, d = x.shape
    out = np.empty((n, mog.m))
    for m in range(mog.m):
        var = mog.covs[m]
        diff2 = (x - mog.means[m]) ** 2 / var
        out[:, m] = -0.5 * (d * np.log(2 * np.pi) + np.sum(np.log(var)) + diff2.sum(axis=1))
    return out


def _logsumexp(a, axis, keepdims):
    """log(sum(exp(a))) along ``axis``, shifted by the max where it is finite:
    a row of all -inf gives -inf and a row holding +inf gives +inf."""
    a_max = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return out if keepdims else np.squeeze(out, axis=axis)


def log_likelihood(mog: MoG, samples) -> float:
    """Sum of log mixture densities over the samples (log-sum-exp)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mog.dim:
        raise FitError(f"samples shape {x.shape} does not match mixture dim {mog.dim}")
    comp = _component_log_density(mog, x) + np.log(mog.weights)
    return float(_logsumexp(comp, axis=1, keepdims=False).sum())


def _farthest_point_seeds(x: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Indices of M mutually distant samples, starting from a seeded pick."""
    n = x.shape[0]
    rng = Rng(seed)
    chosen = [int(rng.integers(0, n))]
    dist = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    while len(chosen) < m:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sum((x - x[nxt]) ** 2, axis=1))
    return np.array(chosen)


def fit_em(samples, cfg: EMConfig) -> MoG:
    """Fit a mixture by EM; records per-iteration log-likelihood in the result."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise FitError(f"need a nonempty 2-D sample array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise FitError("non-finite sample encountered")
    n = x.shape[0]
    m = min(cfg.m, n)
    floor = cfg.var_floor

    global_var = np.maximum(x.var(axis=0), floor)
    seeds = _farthest_point_seeds(x, m, cfg.seed)
    means = x[seeds].copy()
    covs = np.tile(global_var, (m, 1))
    weights = np.full(m, 1.0 / m)
    mog = MoG(weights=weights, means=means, covs=covs)

    history = []
    prev = -np.inf
    for _ in range(cfg.max_iters):
        # E-step
        comp = _component_log_density(mog, x) + np.log(mog.weights)
        norm = _logsumexp(comp, axis=1, keepdims=True)
        history.append(float(norm.sum()))
        resp = np.exp(comp - norm)  # rows sum to 1

        # M-step
        nk = resp.sum(axis=0)
        for k in range(m):
            if nk[k] < 1e-12:
                # degenerate component: re-seed at the farthest sample
                far = int(np.argmax(-norm[:, 0]))
                mog.means[k] = x[far]
                mog.covs[k] = global_var
                nk[k] = 1e-12
                continue
            w = resp[:, k]
            mu = (w[:, None] * x).sum(axis=0) / nk[k]
            diff = x - mu
            var = (w[:, None] * diff * diff).sum(axis=0) / nk[k]
            mog.covs[k] = np.maximum(var, floor)
            mog.means[k] = mu
        mog.weights = nk / nk.sum()

        cur = history[-1]
        if np.isfinite(prev) and abs(cur - prev) < cfg.tol * max(1.0, abs(prev)):
            break
        prev = cur

    mog.ll_history = history
    return mog


def sample(mog: MoG, n: int, rng: Rng) -> np.ndarray:
    """Draw n feature vectors: phi-categorical component, then Gaussian draw."""
    if n < 1:
        raise FitError("n must be >= 1")
    comps = rng.choice(mog.m, size=n, p=mog.weights / mog.weights.sum())
    # scaled and shifted in place: the bits of means + sqrt(covs) * eps
    x = rng.normal((n, mog.dim), dtype=np.float64)
    x *= np.sqrt(mog.covs)[comps]
    x += mog.means[comps]
    return x.astype(np.float32)


# ---------------------------------------------------------------------------
# mixture-bank checkpointing


def save_bank(path, bank: dict) -> None:
    """Persist a class-id -> MoG mapping; codebooks.bin lists the classes."""
    arrays = {}
    for cid in sorted(bank):
        mog = bank[cid]
        arrays[f"w{cid}"] = mog.weights
        arrays[f"mu{cid}"] = mog.means
        arrays[f"cov{cid}"] = mog.covs
    write_archive(path, MOG_MAGIC, arrays)


def load_bank(path, dim: int, class_ids) -> dict:
    """The ``dim``-dimensional mixtures of exactly ``class_ids`` (the codebook's
    classes) from a bank written by ``save_bank``. Other entries (older banks'
    ``class_ids``) are ignored; a missing or misshapen one raises FormatError."""
    arrays = read_archive(path, MOG_MAGIC)
    bank = {}
    for cid in class_ids:
        w, mu, cov = (archive_entry(arrays, path, f"{part}{cid}", "f")
                      for part in ("w", "mu", "cov"))
        if w.ndim != 1 or mu.shape != (len(w), dim) or cov.shape != mu.shape:
            raise FormatError(
                f"{path}: class {cid} mixture shapes weights {w.shape}, means "
                f"{mu.shape}, covs {cov.shape}; expected (M,), (M, {dim}), (M, {dim})")
        bank[cid] = MoG(weights=w.astype(np.float64), means=mu.astype(np.float64),
                        covs=cov.astype(np.float64))
    return bank
