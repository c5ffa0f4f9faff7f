"""Deterministic, platform-stable random streams.

Built on numpy's counter-based Philox generator so identical seeds and call
sequences reproduce bitwise-identical streams everywhere.
"""
from __future__ import annotations

import hashlib

import numpy as np


def _mix(seed: int, tag) -> int:
    h = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(h[:8], "little")


class Rng:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def child(self, tag) -> "Rng":
        """Derive an independent stream keyed by a stable tag."""
        return Rng(_mix(self.seed, tag))

    def normal(self, shape, std=1.0, dtype=np.float32):
        x = self._gen.standard_normal(shape)
        if std != 1.0:
            x *= std
        return x.astype(dtype, copy=False)

    def uniform(self, shape, low=0.0, high=1.0, dtype=np.float32):
        return self._gen.uniform(low, high, shape).astype(dtype)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def choice(self, n, size, p=None):
        return self._gen.choice(n, size=size, p=p)


def stable_name_seed(name: str) -> int:
    """A platform-stable 64-bit seed derived from a string."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")
