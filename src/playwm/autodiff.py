"""Hand-written training passes for the package's MLPs.

Every trained network is an nets.Mlp, so training needs no general graph:
forward() runs the net and keeps, per layer, the input and what the
activation and layer norm need; backward() walks the layers in reverse and
writes the parameter gradient into a FlatParams laid out like the net's
parameters, and returns the gradient with respect to the input when asked
(the DSRL actor is trained through the critics' inputs). Each loss writes
its gradient with respect to the net output by hand next to the loss:
diffusion.diffusion_loss (clean-signal regression), progress.progress_loss (sigmoid
then squared error), and the critic and actor losses in dsrl.update and
dsrl.actor_loss. mse() is the shared squared-error piece.

The arithmetic is the reverse-mode chain rule written out in a fixed
operation order, so seeded training reproduces to the bit. The training
forward pass therefore computes silu, relu and layer norm the way their
derivatives need them, which can differ in the last bit from the inference
forward in nets.forward.
"""

from __future__ import annotations

import numpy as np

from .nets import FlatParams, Mlp, ShapeError

LN_EPS = 1e-5


def forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """Net output for a (batch, in_dim) array plus the cache backward() reads."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.in_dim:
        raise ShapeError(f"input shape {h.shape} != (batch, {net.in_dim}) of layer 0")
    cache = []
    for i in range(net.n_layers):
        z = h @ net.params[f"w{i}"] + net.params[f"b{i}"]
        if i == net.n_layers - 1:
            cache.append((h, None, None))
            h = z
            continue
        norm = None
        if net.layer_norm:
            xc = z - z.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
            z = xc * inv
            norm = (z, inv)
        if net.activation == "silu":
            s = 1.0 / (1.0 + np.exp(-z))
            act, out = (z, s), z * s
        elif net.activation == "relu":
            act = z > 0.0
            out = np.where(act, z, 0.0)
        elif net.activation == "tanh":
            out = np.tanh(z)
            act = out
        else:  # identity
            act, out = None, z
        cache.append((h, norm, act))
        h = out
    return h, cache


def backward(net: Mlp, cache: list[tuple], dout: np.ndarray, grads: FlatParams | None,
             input_grad: bool = False) -> np.ndarray | None:
    """Backpropagate dout (the loss gradient at the net output) through the net.

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
            elif net.activation == "relu":
                g = g * act
            elif net.activation == "tanh":
                g = g * (1.0 - act * act)
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

