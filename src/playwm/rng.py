"""Deterministic PRNG used by every stochastic component.

The generator is splitmix64: the 64-bit state advances by the additive
constant 0x9E3779B97F4A7C15 per draw and the post-increment state is mixed
with two xorshift-multiply rounds (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB). Each output depends only on the counter, one Python
int: scalar draws mix it in int arithmetic, masked to 64 bits after each
multiply, and blocks of draws vectorize it over numpy uint64 arrays. Both
advance the counter identically and give the same bits, so scalar and block
draws interleave freely.

Gaussians come from Box-Muller on two successive uniforms in (0,1]: the
cosine branch is returned first and the sine branch is cached for the next
draw. The cache is part of the stream contract; identical seeds give
identical draw sequences regardless of how calls are batched. The scalar
`gauss` keeps numpy's `log`, `sqrt`, `cos` and `sin`, as `normal` uses:
`math`'s round differently on some inputs.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA_INT, _MIX1_INT, _MIX2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA, _MIX1, _MIX2 = np.uint64(_GAMMA_INT), np.uint64(_MIX1_INT), np.uint64(_MIX2_INT)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_INV_TWO64 = 2.0 ** -64  # scaling by it is exact, like dividing by 2 ** 64


def _mix(z: np.ndarray) -> np.ndarray:
    """Mixes a uint64 counter array in place and returns it."""
    t = np.empty_like(z)
    z ^= np.right_shift(z, _S30, out=t)
    z *= _MIX1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _MIX2
    z ^= np.right_shift(z, _S31, out=t)
    return z


class Rng:
    """Seeded splitmix64 stream with uniform, integer, and Gaussian draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._gauss_cache: float | None = None

    def _next_block(self, n: int) -> np.ndarray:
        counters = np.arange(1, n + 1, dtype=np.uint64)
        counters *= _GAMMA
        counters += np.uint64(self._state)
        if n > 0:
            self._state = int(counters[-1])
        return _mix(counters)

    def next_u64(self) -> int:
        z = self._state = (self._state + _GAMMA_INT) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One uniform draw in (0, 1]."""
        return (float(self.next_u64()) + 1.0) * _INV_TWO64

    def _uniform_block(self, n: int) -> np.ndarray:
        z = self._next_block(n).astype(np.float64)
        z += 1.0
        z *= _INV_TWO64
        return z

    def uniform_array(self, shape) -> np.ndarray:
        shape = _as_shape(shape)
        n = math.prod(shape)
        out = self._uniform_block(n).reshape(shape)
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection-free modular reduction."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.next_u64() % n

    def randint_array(self, count: int, bound: int) -> np.ndarray:
        if bound <= 0:
            raise ValueError("randint bound must be positive")
        return (self._next_block(count) % np.uint64(bound)).astype(np.int64)

    def choice(self, weights) -> int:
        """Categorical draw over an unnormalized weight vector."""
        w = np.asarray(weights, dtype=np.float64)
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("choice needs positive total weight")
        u = self.uniform() * total
        return min(int(np.searchsorted(np.cumsum(w), u, side="left")), len(w) - 1)

    def gauss(self) -> float:
        cached = self._gauss_cache
        if cached is not None:
            self._gauss_cache = None
            return cached
        r = np.sqrt(-2.0 * np.log(self.uniform()))
        theta = 2.0 * np.pi * self.uniform()
        self._gauss_cache = float(r * np.sin(theta))
        return float(r * np.cos(theta))

    def normal(self, shape) -> np.ndarray:
        shape = _as_shape(shape)
        n = math.prod(shape)
        out = np.empty(n, dtype=np.float64)
        k = 0
        if self._gauss_cache is not None and n > 0:
            out[0] = self._gauss_cache
            self._gauss_cache = None
            k = 1
        m = n - k
        if m > 0:
            pairs = (m + 1) // 2
            u = self._uniform_block(2 * pairs).reshape(pairs, 2)
            r = np.log(u[:, 0])
            r *= -2.0
            np.sqrt(r, out=r)
            theta = u[:, 1] * (2.0 * np.pi)
            # cosine branches to the even slots, sine branches to the odd;
            # an odd count needs one slot more than out has left
            pairs_out = out[k:] if m % 2 == 0 else np.empty(2 * pairs, dtype=np.float64)
            np.multiply(r, np.cos(theta), out=pairs_out[0::2])
            np.multiply(r, np.sin(theta), out=pairs_out[1::2])
            if m % 2 == 1:
                out[k:] = pairs_out[:m]
                self._gauss_cache = float(pairs_out[m])
        return out.reshape(shape)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates shuffle, in place; returns the list for chaining."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def spawn_seed(self) -> int:
        """Derive a child seed; children are independent streams by counter position."""
        return self.next_u64()


def _as_shape(shape) -> tuple:
    if isinstance(shape, int):
        return (shape,)
    return tuple(shape)
