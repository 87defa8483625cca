"""Plain fully connected networks over one flat parameter vector.

An Mlp owns a single contiguous float64 vector holding every parameter;
`net.params` is a FlatParams, a dict of named views into it ("w0", "b0",
...), so code that walks names (param_hash, checkpoints) reads it like any
parameter dict while Adam and Polyak averaging update the whole vector at
once. Hidden layers are relu or silu. forward() is the one forward pass,
for inference and training alike: training runs it on the whole input and,
given a cache list, keeps per layer what autodiff.backward reads; the
diffusion samplers hand it layer 0's conditioning term, computed once per
call, and only the noised columns of the input.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .checkpoint import CheckpointError
from .rng import Rng

ACTIVATIONS = ("relu", "silu")


class ShapeError(ValueError):
    pass


class FlatParams(dict):
    """Named views, in layout order, into one contiguous float64 vector `flat`."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        self.flat = np.zeros(sum(math.prod(s) for s in shapes.values()))
        off = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self[name] = self.flat[off:off + size].reshape(shape)
            off += size

    def zeros_like(self) -> "FlatParams":
        """A zeroed vector with the same layout (a gradient buffer)."""
        return FlatParams({name: view.shape for name, view in self.items()})


class Mlp:
    """Hidden layers apply layer norm (when enabled) and then the activation;
    the output layer is linear. A `params` dict given to the constructor is
    copied into the net's vector through load_params."""

    def __init__(self, widths: list[int], activation: str, layer_norm: bool = False,
                 params: dict[str, np.ndarray] | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.widths = list(widths)
        self.activation = activation
        self.layer_norm = layer_norm
        shapes: dict[str, tuple[int, ...]] = {}
        for i, (fan_in, fan_out) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            shapes[f"w{i}"] = (fan_in, fan_out)
            shapes[f"b{i}"] = (fan_out,)
        self._params = FlatParams(shapes)
        if params is not None:
            load_params(self, params, "Mlp parameters")

    @property
    def params(self) -> FlatParams:
        return self._params

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    def param_hash(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].tobytes())
        return h.hexdigest()


def load_params(net: Mlp, params: dict[str, np.ndarray], source: str) -> None:
    """Copy named arrays into the net's parameter vector.

    The names and shapes must be exactly those the net's widths imply;
    anything else raises CheckpointError naming `source` (the checkpoint
    path, for the loaders), before a single value is copied.
    """
    want = {name: view.shape for name, view in net.params.items()}
    got = {name: tuple(np.shape(arr)) for name, arr in params.items()}
    if got != want:
        bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        detail = ", ".join(f"{n}: {got.get(n, 'missing')} (want {want.get(n, 'none')})"
                           for n in bad)
        raise CheckpointError(f"{source}: parameters do not fit widths {net.widths}: {detail}")
    for name, view in net.params.items():
        view[...] = params[name]


def init_mlp(widths: list[int], rng: Rng, activation: str, layer_norm: bool = False) -> Mlp:
    net = Mlp(widths, activation, layer_norm)
    for i, fan_in in enumerate(widths[:-1]):
        w = net.params[f"w{i}"]
        w[...] = rng.normal(w.shape) * (1.0 / np.sqrt(fan_in))
    return net


def forward(net: Mlp, x: np.ndarray, cache: list | None = None, *,
            layer0: np.ndarray | None = None) -> np.ndarray:
    """Run the net on a (batch, in_dim) array.

    With a `cache` list, appends per layer the (input, layer norm, activation)
    entry that autodiff.backward reads: the layer norm's output and inverse
    scale, and what the activation's derivative needs (None where a layer has
    none). Caching changes no output bit. silu and layer norm are computed
    the way their derivatives need them.

    For inference, x may hold only the input's leading columns when `layer0`
    is given: layer 0's pre-activation is then x @ w0[:x's width] + layer0,
    so layer0 carries the remaining columns' product and the bias (see
    diffusion.DenoiserNet.conditioned). The sum is the single product's
    within rounding, not bit for bit.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] > net.in_dim or (layer0 is None and h.shape[1] != net.in_dim):
        raise ShapeError(f"input shape {h.shape} != (batch, {net.in_dim}) of layer 0")
    if layer0 is None:
        z = h @ net.params["w0"]
        z += net.params["b0"]  # in place, as below: fewer live (batch, width) arrays
    else:
        z = h @ net.params["w0"][:h.shape[1]]
        z += layer0
    for i in range(1, net.n_layers):
        norm = act = None
        if net.layer_norm:
            z -= z.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt((z * z).mean(axis=-1, keepdims=True) + 1e-5)
            z *= inv
            norm = (z, inv)
        if net.activation == "silu":
            s = np.exp(-z)
            s += 1.0
            np.divide(1.0, s, out=s)  # s = 1 / (1 + exp(-z))
            act, out = (z, s), z * s
        else:  # relu
            out = np.maximum(z, 0.0)
            if cache is not None:
                act = z > 0.0
        if cache is not None:
            cache.append((h, norm, act))
        h = out
        z = h @ net.params[f"w{i}"]
        z += net.params[f"b{i}"]
    if cache is not None:
        cache.append((h, None, None))
    return z
