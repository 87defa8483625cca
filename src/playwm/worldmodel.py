"""Action-conditioned diffusion world model over state chunks.

The denoiser estimates a clean chunk of C future encoded states,
conditioned on H history states plus every action in the window (the H-1
transitions inside the history and the C actions driving the chunk).
Training windows are encoded in blocks of consecutive episodes, one codec
call a block, and gathered from the block's arrays. Frames come from
rendering projected predicted states, which keeps image metrics meaningful
while training stays in the low-dimensional state space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import nets, statecodec
from .checkpoint import count, header_builds, load_checkpoint, save_checkpoint
from .curation import AnnealSchedule, CurriculumIndex, sample_batch
from .diffusion import DenoiserNet, NoiseSchedule, ddpm_sample, diffusion_loss
from .optim import Adam, clip_grad_norm, warmup_cosine_lr
from .render import render_frames
from .rng import Rng
from .scene import EnvState, SceneConfig, roster, scene_from_dict, scene_to_dict
from .store import ClipWindow, EpisodeStore, blocks


LR = 1e-3            # desk preset; full-scale preset is 5e-6
GRAD_CLIP = 1.0
LOG_EVERY = 50       # steps between loss-trace entries
CLIP_X0 = 1.2        # clean-signal clamp during sampling
SAMPLE_STEPS = 10    # strided reverse steps per sampled chunk, of the denoise_steps trained
DELTA_SCALE = 1.25   # pose offsets scaled into the unit range
BLOCK_FRAMES = 1024  # frames of consecutive episodes encoded per codec call in build_dataset


@dataclass(frozen=True)
class WmConfig:
    """The world-model settings that callers set; the learning rate, the
    gradient clip, the sampling clamp, the sampling step count and the
    pose-offset scale are this module's constants. Training uses all
    denoise_steps steps; sampling visits SAMPLE_STEPS of them."""
    history: int = 7
    chunk: int = 5
    denoise_steps: int = 50
    hidden: int = 256
    depth: int = 3
    warmup: int = 100
    batch: int = 64

    def __post_init__(self):
        for name in ("history", "chunk", "denoise_steps", "hidden", "depth", "batch"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be nonnegative, got {self.warmup}")

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

    def param_hash(self) -> str:
        return self.denoiser.net.param_hash()

    def delta_mask(self) -> np.ndarray:
        return statecodec.pose_delta_mask(len(self.scene.objects))

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
        out[:, :, mask] = (fut[:, :, mask] - last[:, None, mask]) * DELTA_SCALE
        return out.reshape(fut.shape[0], C * width)

    def from_targets(self, sampled: np.ndarray, last: np.ndarray) -> np.ndarray:
        C, width = self.cfg.chunk, self.state_width
        x = sampled.reshape(-1, C, width).copy()
        last = last.reshape(-1, width)
        mask = self.delta_mask()
        x[:, :, mask] = x[:, :, mask] / DELTA_SCALE + last[:, None, mask]
        return x.reshape(-1, C * width)


def create_worldmodel(scene: SceneConfig, cfg: WmConfig, rng: Rng | None) -> WorldModel:
    """A fresh world model; with rng None its parameters are zero, for load_worldmodel."""
    width = statecodec.state_dim(len(scene.objects))
    target_dim = cfg.chunk * width
    cond_dim = cfg.history * width + (cfg.history - 1 + cfg.chunk) * 4
    denoiser = DenoiserNet.create(target_dim, cond_dim, rng, cfg.hidden, cfg.depth)
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
    """Assemble (conditioning, target) arrays for every training window.

    Each episode is read once, in order of first appearance in `wins`.
    Consecutive episodes are encoded together in the `store.blocks` of
    BLOCK_FRAMES frames: one `encode_states` and one `encode_action_rows`
    call a block, then one gather of every window of the block. Both codecs
    work row by row, so the arrays equal those of encoding each window on
    its own.
    No windows (the arrays' widths come from the episodes read), or one not
    cfg.window_len frames long, raise TrainingError naming the store before any read."""
    if not wins:
        raise TrainingError(f"{store.root}: no training windows to build a dataset from")
    other = [w for w in wins if w.length != cfg.window_len]
    if other:
        raise TrainingError(f"{store.root}: {other[0]} is not {cfg.window_len} frames long")
    H, C = cfg.history, cfg.chunk
    by_ep: dict[str, list[int]] = {}
    for i, w in enumerate(wins):
        by_ep.setdefault(w.episode_id, []).append(i)
    conds = targets = None
    for block in blocks(((view, view.n_frames) for view in map(store.read, by_ep)),
                        BLOCK_FRAMES):
        views = [view for view, _ in block]
        states = statecodec.encode_states(*(np.concatenate(part) for part in
                                            zip(*(v.state_arrays() for v in views))))
        actions = statecodec.encode_action_rows(np.concatenate([v.actions for v in views]))
        at = [i for v in views for i in by_ep[v.eid]]
        starts = np.array([wins[i].start for i in at])
        per_ep = [len(by_ep[v.eid]) for v in views]
        # each window's first frame and first step in the block's arrays
        frame0 = np.repeat(np.cumsum([0] + [v.n_frames for v in views[:-1]]), per_ep) + starts
        step0 = np.repeat(np.cumsum([0] + [v.n_steps for v in views[:-1]]), per_ep) + starts
        window_states = states[frame0[:, None] + np.arange(H + C)]
        if conds is None:
            width = states.shape[1]
            conds = np.zeros((len(wins), H * width + (H - 1 + C) * 4))
            targets = np.zeros((len(wins), C * width))
        conds[at, :H * width] = window_states[:, :H].reshape(len(at), -1)
        conds[at, H * width:] = actions[step0[:, None] + np.arange(H - 1 + C)].reshape(len(at), -1)
        targets[at] = window_states[:, H:].reshape(len(at), -1)
    return WindowDataset(windows=wins, conds=conds, targets=targets)


# -- training -----------------------------------------------------------------

class TrainingError(RuntimeError):
    pass


def last_history_state(wm: WorldModel, conds: np.ndarray) -> np.ndarray:
    width = wm.state_width
    H = wm.cfg.history
    return conds[:, (H - 1) * width:H * width]


def train(wm: WorldModel, dataset: WindowDataset, steps: int, rng: Rng,
          curriculum: tuple[CurriculumIndex, AnnealSchedule] | None = None) -> list[tuple[int, float]]:
    """Fit the denoiser for `steps` steps; sampling is uniform or
    curriculum-driven per batch.

    Each call starts a fresh Adam, warmup/cosine learning-rate schedule and
    curriculum anneal, each over its `steps`, and checkpoints hold no
    optimizer state: resuming is not supported, so train(50) then train(50)
    is not train(100). step_count and the loss trace do continue.
    """
    if len(dataset) == 0:
        raise TrainingError("empty dataset")
    if curriculum is not None:
        _check_curriculum(curriculum[0], dataset)
    opt = Adam(lr=LR)
    grads = wm.denoiser.net.params.zeros_like()
    trace: list[tuple[int, float]] = []
    n = len(dataset)
    for step in range(steps):
        if curriculum is None:
            rows = rng.randint_array(wm.cfg.batch, n)
        else:
            index, schedule = curriculum
            rows = sample_batch(index, schedule, step, steps, wm.cfg.batch, rng)
        cond = dataset.conds[rows]
        x0 = wm.to_targets(dataset.targets[rows], last_history_state(wm, cond))
        value = diffusion_loss(wm.denoiser, wm.schedule, x0, cond, rng, grads)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at step {wm.step_count + step}")
        clip_grad_norm(grads, GRAD_CLIP)
        lr = warmup_cosine_lr(LR, step, wm.cfg.warmup, steps)
        opt.step(wm.denoiser.net.params, grads, lr=lr)
        if step % LOG_EVERY == 0 or step == steps - 1:
            trace.append((wm.step_count + step, value))
    wm.step_count += steps
    wm.loss_trace.extend(trace)
    return trace


def _check_curriculum(index: CurriculumIndex, dataset: WindowDataset) -> None:
    """ValueError unless the index ranks exactly the dataset's windows, row
    for row: its members are dataset rows. Its rank count needs no check:
    `build_ranks`, `P_INIT` and `P_FINAL` all hold `curation.RANKS` ranks."""
    if len(index.windows) != len(dataset.windows):
        raise ValueError(f"curriculum index holds {len(index.windows)} windows, "
                         f"the dataset {len(dataset.windows)}")
    for row, (ranked, held) in enumerate(zip(index.windows, dataset.windows)):
        if ranked != held:
            raise ValueError(f"curriculum index row {row} is {ranked}, the dataset's is {held}")


# -- inference ----------------------------------------------------------------

def predict_chunk(wm: WorldModel, hist_states: np.ndarray, actions: np.ndarray,
                  rng: Rng) -> np.ndarray:
    """Sample C future encoded states given encoded history and window actions.

    hist_states: (B, H, width); actions: (B, H-1+C, 4). Returns (B, C, width),
    sampled by strided ancestral DDPM over SAMPLE_STEPS of the schedule's steps.
    """
    C = wm.cfg.chunk
    width = wm.state_width
    hs = np.asarray(hist_states, dtype=np.float64)
    ac = np.asarray(actions, dtype=np.float64)
    B = hs.shape[0]
    cond = np.concatenate([hs.reshape(B, -1), ac.reshape(B, -1)], axis=1)
    x = ddpm_sample(wm.denoiser, wm.schedule, cond, rng, steps=SAMPLE_STEPS, clip_x0=CLIP_X0)
    x = wm.from_targets(x, hs[:, -1, :])
    return x.reshape(B, C, width)


def predicted_frames(wm: WorldModel, vecs: np.ndarray) -> np.ndarray:
    """The (T, 64, 64) frames of (T, width) predicted state vectors: projected
    onto valid states as `statecodec.project_states` arrays, then rendered in
    one call."""
    scene_roster = roster(wm.scene.objects)
    gripper, _, objects = statecodec.project_states(vecs, scene_roster)
    return render_frames(gripper, objects, scene_roster)


class RolloutBackend:
    """B imagined rollouts that the world model advances one chunk per call.

    It holds each rollout's history window: the last H encoded states and
    the H-1 encoded actions between them.
    """

    def __init__(self, wm: WorldModel, rng: Rng):
        self.wm = wm
        self.rng = rng
        self.hist_states = np.zeros((0, wm.cfg.history, wm.state_width))
        self.hist_actions = np.zeros((0, wm.cfg.history - 1, 4))

    def reset(self, states: list[EnvState], rows: list[int] | None = None) -> None:
        """Start one rollout per state, its history that state held still.

        With rows, restart only those rollouts, rows[i] from states[i], and
        leave every other rollout's history as it is."""
        H = self.wm.cfg.history
        enc = statecodec.encode_states(*statecodec.state_arrays(states))
        held = np.repeat(enc[:, None, :], H, axis=1)
        if rows is None:
            self.hist_states = held
            self.hist_actions = np.zeros((len(states), H - 1, 4))
            return
        if len(rows) != len(states):
            raise ValueError(f"reset got {len(states)} states for {len(rows)} rows")
        self.hist_states[rows] = held
        self.hist_actions[rows] = 0.0

    def step_chunk(self, actions: np.ndarray, rows: list[int]) -> list[list[EnvState]]:
        """Drive the B rollouts of rows by their C executed actions, (B, C, 4)
        in simulator units and encoded as `build_dataset` encodes stored
        actions, and return the C predicted states of each; other rows'
        histories stay as they are. The raw predictions are projected once
        onto valid states; the returned states, none slip-fated, are built
        from those arrays, and their encodings enter the history."""
        H, C = self.wm.cfg.history, self.wm.cfg.chunk
        hist_states, hist_actions = self.hist_states[rows], self.hist_actions[rows]
        if actions.shape != (len(hist_states), C, 4):
            raise ValueError(f"step_chunk takes (B, C, 4) = ({len(hist_states)}, {C}, 4) "
                             f"executed actions, got {actions.shape}")
        window = np.concatenate([hist_actions, statecodec.encode_action_rows(actions)], axis=1)
        pred = predict_chunk(self.wm, hist_states, window, self.rng)
        B, width = len(pred), self.wm.state_width
        scene_roster = roster(self.wm.scene.objects)
        arrays = statecodec.project_states(pred.reshape(B * C, width), scene_roster)
        flat = statecodec.build_states(*arrays, np.zeros(B * C, dtype=bool), scene_roster)
        clean = statecodec.encode_states(*arrays)
        self.hist_states[rows] = np.concatenate([hist_states, clean.reshape(B, C, width)],
                                                axis=1)[:, -H:]
        self.hist_actions[rows] = window[:, C:]
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
    header, params = load_checkpoint(path, "worldmodel",
                                     ("config", "scene", "step_count", "loss_trace"))
    with header_builds(path):
        wm = create_worldmodel(scene_from_dict(header["scene"]), WmConfig(**header["config"]),
                               None)
        wm.step_count = count(header["step_count"])
        wm.loss_trace = [(count(step), float(loss)) for step, loss in header["loss_trace"]]
    nets.load_params(wm.denoiser.net, params, path)
    return wm
