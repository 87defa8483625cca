"""Progress regressor, whose change over a chunk is DSRL's dense reward.

The model maps an encoded state to a sigmoid progress value; training
targets are the normalized time indices of successful demo episodes, with
early stopping on a held-out demo split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nets, statecodec
from .checkpoint import header_builds, load_checkpoint, save_checkpoint
from .optim import Adam, clip_grad_norm
from .rng import Rng
from .scene import EnvState, SceneConfig, scene_from_dict, scene_to_dict
from .store import EpisodeStore

HIDDEN = 64       # width of the regressor's two hidden layers
BATCH = 64        # training pairs per step
EVAL_EVERY = 50   # steps between held-out evaluations
LR = 3e-3         # Adam rate
GRAD_CLIP = 1.0   # gradient-norm bound


@dataclass
class ProgressModel:
    net: nets.Mlp
    scene: SceneConfig

    def __call__(self, state: EnvState) -> float:
        return self.value(statecodec.encode_states(*statecodec.state_arrays([state])))

    def value(self, enc: np.ndarray) -> float:
        out = nets.forward(self.net, np.asarray(enc).reshape(1, -1))
        return float(1.0 / (1.0 + np.exp(-out[0, 0])))


class NoSuccessDemos(ValueError):
    pass


def progress_loss(net: nets.Mlp, x: np.ndarray, y: np.ndarray, grads: nets.FlatParams) -> float:
    """Mean squared error of sigmoid(net(x)) against the progress targets y;
    the parameter gradient is written into grads."""
    cache = []
    out = nets.forward(net, x, cache)
    pred = 1.0 / (1.0 + np.exp(-out))
    loss, dpred = ad.mse(pred, y)
    ad.backward(net, cache, dpred * pred * (1.0 - pred), grads)
    return loss


def train_progress(demos: EpisodeStore, scene: SceneConfig, rng: Rng,
                   steps: int = 1500, patience: int = 8) -> ProgressModel:
    """Fit the progress regressor on the successful demos of `demos`, a
    fifth of them (one at least) held out: `steps` Adam steps of BATCH
    training pairs, evaluated on the held-out pairs every EVAL_EVERY steps
    and at the last. Training stops after `patience` evaluations without
    improvement, and the model keeps the best parameters seen.
    NoSuccessDemos below 3 successful demos."""
    success_ids = [eid for eid in demos.ids() if demos.meta(eid).outcome]
    if len(success_ids) < 3:
        raise NoSuccessDemos(f"need at least 3 successful demos, got {len(success_ids)}")
    rng.shuffle(success_ids)
    n_held = max(1, len(success_ids) // 5)
    held_ids, train_ids = success_ids[:n_held], success_ids[n_held:]

    def pairs(ids):
        xs, ys = [], []
        for eid in ids:
            view = demos.read(eid)
            T = view.n_frames
            xs.append(statecodec.encode_states(*view.state_arrays()))
            ys.append(np.arange(T) / (T - 1) if T > 1 else np.ones(1))
        return np.concatenate(xs), np.concatenate(ys)[:, None]

    x_tr, y_tr = pairs(train_ids)
    x_ho, y_ho = pairs(held_ids)
    width = statecodec.state_dim(len(scene.objects))
    net = nets.init_mlp([width, HIDDEN, HIDDEN, 1], rng, "silu")
    opt = Adam(lr=LR)
    grads = net.params.zeros_like()
    best = {k: v.copy() for k, v in net.params.items()}
    best_err = np.inf
    stale = 0
    n = x_tr.shape[0]
    for step in range(steps):
        rows = rng.randint_array(BATCH, n)
        progress_loss(net, x_tr[rows], y_tr[rows], grads)
        clip_grad_norm(grads, GRAD_CLIP)
        opt.step(net.params, grads)
        if step % EVAL_EVERY == 0 or step == steps - 1:
            p = 1.0 / (1.0 + np.exp(-nets.forward(net, x_ho)))
            err = float(((p - y_ho) ** 2).mean())
            if err < best_err - 1e-6:
                best_err = err
                best = {k: v.copy() for k, v in net.params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break
    nets.load_params(net, best, "best progress parameters")
    return ProgressModel(net=net, scene=scene)


def save_progress(model: ProgressModel, path: str) -> None:
    save_checkpoint(path, "progress", {"scene": scene_to_dict(model.scene),
                                       "widths": model.net.widths},
                    model.net.params)


def load_progress(path: str) -> ProgressModel:
    header, params = load_checkpoint(path, "progress", ("widths", "scene"))
    with header_builds(path):
        scene = scene_from_dict(header["scene"])
    net = nets.Mlp(widths=header["widths"], activation="silu")
    nets.load_params(net, params, path)
    return ProgressModel(net=net, scene=scene)
