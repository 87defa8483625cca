"""Action-conditioned diffusion world model over state chunks.

The denoiser estimates a clean chunk of C future encoded states,
conditioned on H history states plus every action in the window (the H-1
transitions inside the history and the C actions driving the chunk).
Frames come from rendering projected predicted states, which keeps image
metrics meaningful while training stays in the low-dimensional state space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import nets, statecodec
from .checkpoint import header_builds, load_checkpoint, save_checkpoint
from .curation import AnnealSchedule, CurriculumIndex, sample_batch
from .diffusion import DenoiserNet, NoiseSchedule, ddpm_sample, diffusion_loss
from .optim import Adam, clip_grad_norm, warmup_cosine_lr
from .render import render_frames
from .rng import Rng
from .scene import EnvState, SceneConfig, scene_from_dict, scene_to_dict
from .store import ClipWindow, EpisodeStore, EpisodeView


@dataclass(frozen=True)
class WmConfig:
    history: int = 7
    chunk: int = 5
    denoise_steps: int = 50
    hidden: int = 256
    depth: int = 3
    activation: str = "silu"
    lr: float = 1e-3            # desk preset; full-scale preset is 5e-6
    warmup: int = 100
    grad_clip: float = 1.0
    batch: int = 64
    clip_x0: float = 1.2        # clean-signal clamp during sampling
    delta_scale: float = 1.25   # pose offsets scaled into the unit range

    @property
    def window_len(self) -> int:
        return self.history + self.chunk


@dataclass
class WorldModel:
    cfg: WmConfig
    scene: SceneConfig
    denoiser: DenoiserNet
    schedule: NoiseSchedule
    step_count: int = 0
    loss_trace: list = field(default_factory=list)

    @property
    def state_width(self) -> int:
        return statecodec.state_dim(len(self.scene.objects))

    @property
    def cond_dim(self) -> int:
        n_actions = self.cfg.history - 1 + self.cfg.chunk
        return self.cfg.history * self.state_width + n_actions * 4

    def param_hash(self) -> str:
        return self.denoiser.net.param_hash()

    def delta_mask(self) -> np.ndarray:
        return pose_delta_mask(len(self.scene.objects))

    def to_targets(self, future: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Diffusion-space targets: pose dims as scaled offsets from the last
        history state, flag-like dims absolute. Static content becomes an
        exact zero target, which the denoiser can pin far more tightly than
        an absolute coordinate."""
        C, width = self.cfg.chunk, self.state_width
        fut = future.reshape(-1, C, width)
        last = last.reshape(-1, width)
        mask = self.delta_mask()
        out = fut.copy()
        out[:, :, mask] = (fut[:, :, mask] - last[:, None, mask]) * self.cfg.delta_scale
        return out.reshape(fut.shape[0], C * width)

    def from_targets(self, sampled: np.ndarray, last: np.ndarray) -> np.ndarray:
        C, width = self.cfg.chunk, self.state_width
        x = sampled.reshape(-1, C, width).copy()
        last = last.reshape(-1, width)
        mask = self.delta_mask()
        x[:, :, mask] = x[:, :, mask] / self.cfg.delta_scale + last[:, None, mask]
        return x.reshape(-1, C * width)


def pose_delta_mask(n_objects: int) -> np.ndarray:
    """True for dims encoded as deltas: gripper x/y and object x/y/theta."""
    width = statecodec.state_dim(n_objects)
    mask = np.zeros(width, dtype=bool)
    mask[0] = mask[1] = True
    for i in range(n_objects):
        base = 4 + n_objects + 5 * i
        mask[base:base + 3] = True
    return mask


def create_worldmodel(scene: SceneConfig, cfg: WmConfig, rng: Rng | None) -> WorldModel:
    """A fresh world model; with rng None its parameters are zero, for load_worldmodel."""
    width = statecodec.state_dim(len(scene.objects))
    target_dim = cfg.chunk * width
    cond_dim = cfg.history * width + (cfg.history - 1 + cfg.chunk) * 4
    denoiser = DenoiserNet.create(target_dim, cond_dim, rng, hidden=cfg.hidden,
                                  depth=cfg.depth, activation=cfg.activation)
    return WorldModel(cfg=cfg, scene=scene, denoiser=denoiser,
                      schedule=NoiseSchedule.linear_scaled(cfg.denoise_steps))


# -- training data ------------------------------------------------------------

@dataclass
class WindowDataset:
    windows: list[ClipWindow]
    conds: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.windows)


def build_dataset(store: EpisodeStore, cfg: WmConfig, wins: list[ClipWindow]) -> WindowDataset:
    """Assemble (conditioning, target) arrays for every training window."""
    H, C = cfg.history, cfg.chunk
    by_ep: dict[str, list[int]] = {}
    for i, w in enumerate(wins):
        by_ep.setdefault(w.episode_id, []).append(i)
    conds = targets = None
    for eid, rows in by_ep.items():
        states, actions = window_inputs(store.read(eid), [wins[i].start for i in rows], H, C)
        if conds is None:
            width = states.shape[2]
            conds = np.zeros((len(wins), H * width + (H - 1 + C) * 4))
            targets = np.zeros((len(wins), C * width))
        conds[rows, :H * width] = states[:, :H].reshape(len(rows), -1)
        conds[rows, H * width:] = actions.reshape(len(rows), -1)
        targets[rows] = states[:, H:].reshape(len(rows), -1)
    if conds is None:  # no windows
        conds, targets = np.zeros((0, (H - 1 + C) * 4)), np.zeros((0, 0))
    return WindowDataset(windows=wins, conds=conds, targets=targets)


def window_inputs(view: EpisodeView, starts: list[int], history: int,
                  chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """The windows of one stored episode that begin at `starts`, encoded as
    the model sees them: their (n, history + chunk, width) states and their
    (n, history - 1 + chunk, 4) actions."""
    starts = np.asarray(starts)[:, None]
    return (statecodec.encode_states(*view.state_arrays())[starts + np.arange(history + chunk)],
            statecodec.encode_action_rows(view.actions)[starts + np.arange(history - 1 + chunk)])


# -- training -----------------------------------------------------------------

class TrainingError(RuntimeError):
    pass


def last_history_state(wm: WorldModel, conds: np.ndarray) -> np.ndarray:
    width = wm.state_width
    H = wm.cfg.history
    return conds[:, (H - 1) * width:H * width]


def train(wm: WorldModel, dataset: WindowDataset, steps: int, rng: Rng,
          curriculum: tuple[CurriculumIndex, AnnealSchedule] | None = None,
          log_every: int = 50) -> list[tuple[int, float]]:
    """Fit the denoiser for `steps` steps; sampling is uniform or
    curriculum-driven per batch.

    Each call starts a fresh Adam and a fresh warmup/cosine learning-rate
    schedule (and the curriculum restarts at its step 0), and checkpoints
    hold no optimizer state: resuming is not supported, so train(50) then
    train(50) is not train(100). step_count and the loss trace do continue.
    """
    if len(dataset) == 0:
        raise TrainingError("empty dataset")
    opt = Adam(lr=wm.cfg.lr)
    grads = wm.denoiser.net.params.zeros_like()
    trace: list[tuple[int, float]] = []
    n = len(dataset)
    for step in range(steps):
        if curriculum is None:
            rows = rng.randint_array(wm.cfg.batch, n)
        else:
            index, schedule = curriculum
            rows = sample_batch(index, schedule, step, wm.cfg.batch, rng)
        cond = dataset.conds[rows]
        x0 = wm.to_targets(dataset.targets[rows], last_history_state(wm, cond))
        value = diffusion_loss(wm.denoiser, wm.schedule, x0, cond, rng, grads)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at step {wm.step_count + step}")
        clip_grad_norm(grads, wm.cfg.grad_clip)
        lr = warmup_cosine_lr(wm.cfg.lr, step, wm.cfg.warmup, steps)
        opt.step(wm.denoiser.net.params, grads, lr=lr)
        if step % log_every == 0 or step == steps - 1:
            trace.append((wm.step_count + step, value))
    wm.step_count += steps
    wm.loss_trace.extend(trace)
    return trace


# -- inference ----------------------------------------------------------------

def predict_chunk(wm: WorldModel, hist_states: np.ndarray, actions: np.ndarray,
                  rng: Rng) -> np.ndarray:
    """Sample C future encoded states given encoded history and window actions.

    hist_states: (B, H, width); actions: (B, H-1+C, 4). Returns (B, C, width).
    """
    C = wm.cfg.chunk
    width = wm.state_width
    hs = np.asarray(hist_states, dtype=np.float64)
    ac = np.asarray(actions, dtype=np.float64)
    B = hs.shape[0]
    cond = np.concatenate([hs.reshape(B, -1), ac.reshape(B, -1)], axis=1)
    x = ddpm_sample(wm.denoiser, wm.schedule, cond, rng, clip_x0=wm.cfg.clip_x0)
    x = wm.from_targets(x, hs[:, -1, :])
    return x.reshape(B, C, width)


def predicted_frames(wm: WorldModel, vecs: np.ndarray) -> list[np.ndarray]:
    """The frames of (T, width) predicted state vectors: projected onto valid
    states as `statecodec.project_states` arrays, then rendered in one call."""
    template = wm.scene.nominal_state()
    gripper, _, objects = statecodec.project_states(vecs, template)
    roster = [(o.oid, o.kind, o.size) for o in template.objects]
    return list(render_frames(gripper, objects, roster))


class RolloutBackend:
    """B imagined rollouts that the world model advances one chunk per call.

    It holds each rollout's history window: the last H encoded states and
    the H-1 encoded actions between them.
    """

    def __init__(self, wm: WorldModel, rng: Rng):
        self.wm = wm
        self.rng = rng
        self.template = wm.scene.nominal_state()
        self.hist_states = np.zeros((0, wm.cfg.history, wm.state_width))
        self.hist_actions = np.zeros((0, wm.cfg.history - 1, 4))

    def reset(self, states: list[EnvState], rows: list[int] | None = None) -> None:
        """Start one rollout per state, its history that state held still.

        With rows, restart only those rollouts, rows[i] from states[i], and
        leave every other rollout's history as it is."""
        H = self.wm.cfg.history
        enc = np.stack([statecodec.encode_state(s) for s in states])
        held = np.repeat(enc[:, None, :], H, axis=1)
        if rows is None:
            self.hist_states = held
            self.hist_actions = np.zeros((len(states), H - 1, 4))
            return
        if len(rows) != len(states):
            raise ValueError(f"reset got {len(states)} states for {len(rows)} rows")
        self.hist_states[rows] = held
        self.hist_actions[rows] = 0.0

    def step_chunk(self, actions: np.ndarray) -> list[list[EnvState]]:
        """Drive every rollout by its C executed actions, (B, C, 4) in
        simulator units, encoded as `build_dataset` encodes stored actions;
        return each rollout's C predicted states. The raw predicted vectors
        are projected once onto valid states; the returned states are built
        from those arrays, and their encodings enter the history."""
        H, C = self.wm.cfg.history, self.wm.cfg.chunk
        if actions.shape != (len(self.hist_states), C, 4):
            raise ValueError(f"step_chunk takes (B, C, 4) = ({len(self.hist_states)}, {C}, 4) "
                             f"executed actions, got {actions.shape}")
        window = np.concatenate([self.hist_actions, statecodec.encode_action_rows(actions)],
                                axis=1)
        pred = predict_chunk(self.wm, self.hist_states, window, self.rng)
        B, width = len(pred), self.wm.state_width
        arrays = statecodec.project_states(pred.reshape(B * C, width), self.template)
        flat = statecodec.build_states(*arrays, self.template)
        clean = statecodec.encode_states(*arrays)
        self.hist_states = np.concatenate([self.hist_states, clean.reshape(B, C, width)],
                                          axis=1)[:, -H:]
        self.hist_actions = window[:, C:]
        return [flat[b * C:(b + 1) * C] for b in range(B)]


# -- persistence ----------------------------------------------------------

def save_worldmodel(wm: WorldModel, path: str) -> None:
    header = {
        "config": asdict(wm.cfg),
        "scene": scene_to_dict(wm.scene),
        "step_count": wm.step_count,
        "loss_trace": wm.loss_trace,
    }
    save_checkpoint(path, "worldmodel", header, wm.denoiser.net.params)


def load_worldmodel(path: str) -> WorldModel:
    _, header, params = load_checkpoint(path, "worldmodel", ("config", "scene", "step_count"))
    with header_builds(path):
        wm = create_worldmodel(scene_from_dict(header["scene"]), WmConfig(**header["config"]),
                               None)
    nets.load_params(wm.denoiser.net, params, path)
    wm.step_count = header["step_count"]
    wm.loss_trace = [tuple(x) for x in header.get("loss_trace", [])]
    return wm
