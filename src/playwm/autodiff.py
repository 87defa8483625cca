"""Hand-written training passes for the package's MLPs.

Every trained network is an nets.Mlp, so training needs no general graph:
nets.forward, given a cache list, keeps per layer the input and what the
activation and layer norm need; backward() walks the layers in reverse and
writes the parameter gradient into a FlatParams laid out like the net's
parameters, and returns the gradient with respect to the input when asked
(the DSRL actor is trained through the critics' inputs). Each loss writes
its gradient with respect to the net output by hand next to the loss:
diffusion.diffusion_loss (clean-signal regression), progress.progress_loss (sigmoid
then squared error), and the critic and actor losses in dsrl.update and
dsrl.actor_loss. mse() is the shared squared-error piece.

The arithmetic is the reverse-mode chain rule written out in a fixed
operation order, so seeded training reproduces to the bit. Training and
inference share the one forward pass. Training runs it on the whole
concatenated input, which backward needs; both diffusion samplers sum layer
0 in parts (conditioning and time embedding computed once per call), which
matches the single product within rounding.
"""

from __future__ import annotations

import numpy as np

from .nets import FlatParams, Mlp


def backward(net: Mlp, cache: list[tuple], dout: np.ndarray, grads: FlatParams | None,
             input_grad: bool = False) -> np.ndarray | None:
    """Backpropagate dout (the loss gradient at the net output) through the
    net, given the cache that nets.forward filled.

    Writes every parameter gradient into `grads` (None skips them, for a net
    that is only differentiated through); returns the gradient with respect
    to the input when input_grad is set, else None.
    """
    g = dout
    for i in reversed(range(net.n_layers)):
        h, norm, act = cache[i]
        if i < net.n_layers - 1:
            if net.activation == "silu":
                z, s = act
                g = g * (s * (1.0 + z * (1.0 - s)))
            else:  # relu
                g = g * act
            if norm is not None:
                y, inv = norm
                gy = g * inv
                g = gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True)
        if grads is not None:
            np.matmul(h.T, g, out=grads[f"w{i}"])
            g.sum(axis=0, out=grads[f"b{i}"])
        if i > 0 or input_grad:
            g = g @ net.params[f"w{i}"].T
    return g if input_grad else None


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error against a constant target and its gradient in pred."""
    diff = pred - target
    inv_n = 1.0 / diff.size
    return float((diff * diff).sum() * inv_n), (2.0 * diff) * inv_n

