"""Adam with bias correction, plus gradient clipping and the warmup/cosine
learning-rate schedule.

Adam keeps its moments as flat vectors. Given a FlatParams and a gradient
FlatParams of the same layout it updates the whole parameter vector in
place, one cache-sized block at a time, with scratch for one block
allocated once. Each element sees the same operations in the same order,
so results do not depend on the blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nets import FlatParams

BLOCK = 32768  # elements per update block: a block of p, g, m, v and the scratch fit in L2
BETA1 = 0.9    # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # added to the root of the second moment


@dataclass
class Adam:
    lr: float = 1e-4
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    _scratch: np.ndarray | None = field(default=None, repr=False)

    def step(self, params: FlatParams, grads: FlatParams, lr: float | None = None) -> None:
        """One in-place Adam update.

        The whole gradient is checked first: a non-finite value raises
        FloatingPointError naming its parameter, and leaves the parameters,
        the moments and the step count untouched.
        """
        p, g = params.flat, grads.flat
        if p.size != g.size:
            raise ValueError("gradient layout does not match the parameters")
        if not np.isfinite(g).all():
            bad = next(n for n in params if not np.isfinite(grads[n]).all())
            raise FloatingPointError(f"NaN gradient for parameter {bad!r}")
        size = p.size
        if self.m is None:
            self.m, self.v = np.zeros(size), np.zeros(size)
            self._scratch = np.empty((2, min(BLOCK, size)))
        elif self.m.size != size:
            raise ValueError(f"Adam state holds {self.m.size} parameters, got {size}")
        eta = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for lo in range(0, size, BLOCK):
            hi = min(lo + BLOCK, size)
            self._update(p[lo:hi], g[lo:hi], self.m[lo:hi], self.v[lo:hi], eta, bc1, bc2)

    def _update(self, p, g, m, v, eta: float, bc1: float, bc2: float) -> None:
        """m = b1 m + (1-b1) g; v = b2 v + (1-b2) g^2;
        p -= eta (m/bc1) / (sqrt(v/bc2) + eps), through the scratch rows."""
        a, b = self._scratch[0, :p.size], self._scratch[1, :p.size]
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=a)
        m += a
        v *= BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - BETA2
        v += a
        np.divide(m, bc1, out=a)
        a *= eta
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        p -= a


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def warmup_cosine_lr(base_lr: float, step: int, warmup: int, total: int) -> float:
    """Linear warmup to base_lr, then cosine decay to zero over the run."""
    if step < warmup:
        return base_lr * (step + 1) / max(1, warmup)
    if total <= warmup:
        return base_lr
    frac = (step - warmup) / max(1, total - warmup)
    frac = min(1.0, frac)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))
