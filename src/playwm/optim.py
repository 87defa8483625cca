"""Adam with bias correction, plus gradient clipping and the warmup/cosine
learning-rate schedule.

Adam keeps its moments as flat vectors; the learning rate comes with every
step. Given a FlatParams, a gradient FlatParams of the same layout and a
rate it updates the whole parameter vector in place, one cache-sized block
at a time, with scratch for one block allocated once. Each element sees the
same operations in the same order, so results do not depend on the blocking.

The moments are kept scaled, m~ = m / (1 - b1) and v~ = v / (1 - b2), so a
step is m~ = b1 m~ + g, v~ = b2 v~ + g^2 and p -= a' m~ / (sqrt(v~) + e'),
with r = sqrt((1 - b2^t) / (1 - b2)), a' = lr (1 - b1) r / (1 - b1^t) and
e' = eps r. In real arithmetic that is exactly Adam's
p -= lr m^ / (sqrt(v^) + eps), with the bias corrections folded into the
step size and epsilon as in Kingma & Ba, 2015, "Adam: A Method for
Stochastic Optimization", section 2; it differs only in rounding, and runs
10 elementwise passes with one divide where the textbook order runs 14 with
three. Its one cost: v~ grows to g^2 / (1 - b2), so it overflows once |g|
reaches about 4e152, not the 1.3e154 at which g^2 does.
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
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    _scratch: np.ndarray | None = field(default=None, repr=False)

    def step(self, params: FlatParams, grads: FlatParams, lr: float) -> None:
        """One in-place Adam update at learning rate lr.

        The whole gradient is checked first: a non-finite value raises
        FloatingPointError naming its parameter, and leaves the parameters,
        the moments and the step count untouched.
        """
        p, g = params.flat, grads.flat
        if p.size != g.size:
            raise ValueError("gradient layout does not match the parameters")
        if not math.isfinite(np.dot(g, g)):  # a finite g whose square overflows passes the scan
            bad = next((n for n in params if not np.isfinite(grads[n]).all()), None)
            if bad is not None:
                raise FloatingPointError(f"non-finite gradient for parameter {bad!r}")
        size = p.size
        if self.m is None:
            self.m, self.v = np.zeros(size), np.zeros(size)
            self._scratch = np.empty((2, min(BLOCK, size)))
        elif self.m.size != size:
            raise ValueError(f"Adam state holds {self.m.size} parameters, got {size}")
        self.step_count += 1
        t = self.step_count
        r = math.sqrt((1.0 - BETA2 ** t) / (1.0 - BETA2))
        alpha = lr * (1.0 - BETA1) * r / (1.0 - BETA1 ** t)
        for lo in range(0, size, BLOCK):
            hi = min(lo + BLOCK, size)
            self._update(p[lo:hi], g[lo:hi], self.m[lo:hi], self.v[lo:hi], alpha, EPS * r)

    def _update(self, p, g, m, v, alpha: float, eps: float) -> None:
        """m = b1 m + g; v = b2 v + g^2; p -= alpha m / (sqrt(v) + eps),
        through the scratch rows."""
        a, b = self._scratch[0, :p.size], self._scratch[1, :p.size]
        m *= BETA1
        m += g
        v *= BETA2
        np.multiply(g, g, out=a)
        v += a
        np.sqrt(v, out=b)
        b += eps
        np.divide(m, b, out=a)
        a *= alpha
        p -= a


def clip_grad_norm(grads: FlatParams, max_norm: float) -> float:
    """Scale the gradient vector in place so its L2 norm is at most max_norm;
    returns the norm before scaling.

    A finite gradient whose squared norm overflows is measured as
    m * |g / m| with m = max |g|, and scaled like any other; a non-finite
    one is left for `Adam.step` to reject.
    """
    g = grads.flat
    total = math.sqrt(np.dot(g, g))
    if math.isinf(total) and np.isfinite(g).all():
        big = float(np.abs(g).max())
        unit = g / big
        total = big * math.sqrt(np.dot(unit, unit))
    if total > max_norm and total > 0.0:
        g *= max_norm / total
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
