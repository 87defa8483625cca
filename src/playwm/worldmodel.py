"""Action-conditioned diffusion world model over state chunks.

The denoiser predicts the noise on a chunk of C future encoded states,
conditioned on H history states plus every action in the window (the H-1
transitions inside the history and the C actions driving the chunk).
Frames come from rendering decoded predicted states, which keeps image
metrics meaningful while training stays in the low-dimensional state space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import nets, statecodec
from .checkpoint import load_checkpoint, save_checkpoint
from .curation import AnnealSchedule, CurriculumIndex, sample_batch
from .diffusion import DenoiserNet, NoiseSchedule, ddpm_sample, diffusion_loss
from .dynamics import Action
from .optim import Adam, clip_grad_norm, warmup_cosine_lr
from .render import render
from .rng import Rng
from .scene import EnvState, SceneConfig
from .store import ClipWindow, Episode, EpisodeStore, windows
from .tasks import infer_transition_event
from .skills import Instruction, Perturbation
from .tasks import TaskSpec


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


def create_worldmodel(scene: SceneConfig, cfg: WmConfig, rng: Rng) -> WorldModel:
    width = statecodec.state_dim(len(scene.objects))
    target_dim = cfg.chunk * width
    cond_dim = cfg.history * width + (cfg.history - 1 + cfg.chunk) * 4
    denoiser = DenoiserNet.create(target_dim, cond_dim, rng, hidden=cfg.hidden,
                                  depth=cfg.depth, activation=cfg.activation,
                                  x0_head=True)
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


def build_dataset(store: EpisodeStore, cfg: WmConfig, ids: list[str] | None = None,
                  stride: int | None = None,
                  wins: list[ClipWindow] | None = None) -> WindowDataset:
    """Assemble (conditioning, target) arrays for every training window."""
    W = cfg.window_len
    H, C = cfg.history, cfg.chunk
    if wins is None:
        wins = windows(store, W, stride, ids=ids)
    by_ep: dict[str, list[int]] = {}
    for i, w in enumerate(wins):
        by_ep.setdefault(w.episode_id, []).append(i)
    conds = targets = None
    for eid, rows in by_ep.items():
        view = store.read(eid)
        enc_states = statecodec.encode_states(*view.state_arrays())
        enc_actions = statecodec.encode_action_rows(view.actions)
        if conds is None:
            width = enc_states.shape[1]
            conds = np.zeros((len(wins), H * width + (H - 1 + C) * 4))
            targets = np.zeros((len(wins), C * width))
        starts = np.array([wins[i].start for i in rows])[:, None]
        conds[rows, :H * width] = enc_states[starts + np.arange(H)].reshape(len(rows), -1)
        conds[rows, H * width:] = enc_actions[starts + np.arange(H - 1 + C)].reshape(len(rows), -1)
        targets[rows] = enc_states[starts + np.arange(H, W)].reshape(len(rows), -1)
    if conds is None:  # no windows
        conds, targets = np.zeros((0, (H - 1 + C) * 4)), np.zeros((0, 0))
    return WindowDataset(windows=wins, conds=conds, targets=targets)


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
        value = diffusion_loss(wm.denoiser, wm.schedule, x0, cond, rng, grads,
                               weighting="x0")
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
                  rng: Rng, batch: int = 1) -> np.ndarray:
    """Sample C future encoded states given encoded history and window actions.

    hist_states: (H, width) or (B, H, width); actions: (H-1+C, 4) likewise.
    Returns (B, C, width).
    """
    H, C = wm.cfg.history, wm.cfg.chunk
    width = wm.state_width
    hs = np.asarray(hist_states, dtype=np.float64)
    ac = np.asarray(actions, dtype=np.float64)
    if hs.ndim == 2:
        hs = hs[None]
        ac = ac[None]
    B = hs.shape[0]
    cond = np.concatenate([hs.reshape(B, -1), ac.reshape(B, -1)], axis=1)
    x = ddpm_sample(wm.denoiser, wm.schedule, cond, rng, clip_x0=wm.cfg.clip_x0)
    x = wm.from_targets(x, hs[:, -1, :])
    return x.reshape(B, C, width)


def predicted_frames(wm: WorldModel, chunk: np.ndarray) -> list[np.ndarray]:
    """Frames of one predicted chunk: each raw vector decoded, then rendered."""
    template = wm.scene.nominal_state()
    return [render(statecodec.decode_state(vec, template)) for vec in chunk]


def sanitize_chunk(wm: WorldModel, chunk: np.ndarray) -> tuple[list[EnvState], np.ndarray]:
    """Project raw predicted vectors onto valid states; return both forms."""
    template = wm.scene.nominal_state()
    states = [statecodec.decode_state(vec, template) for vec in chunk]
    clean = np.stack([statecodec.encode_state(s) for s in states])
    return states, clean


class RolloutBackend:
    """Chunked imagination loop usable by the benchmark and the RL stack."""

    def __init__(self, wm: WorldModel, rng: Rng):
        self.wm = wm
        self.rng = rng
        self.preferred_chunk = wm.cfg.chunk
        self.hist_states: list[np.ndarray] = []
        self.hist_actions: list[np.ndarray] = []
        self.state: EnvState | None = None

    def reset(self, state: EnvState) -> EnvState:
        enc = statecodec.encode_state(state)
        H = self.wm.cfg.history
        self.hist_states = [enc.copy() for _ in range(H)]
        self.hist_actions = [np.zeros(4) for _ in range(H - 1)]
        self.state = state.copy()
        return self.state

    def step_chunk(self, actions: list[Action]) -> tuple[list[EnvState], list]:
        """Advance exactly len(actions) steps (at most C per model call)."""
        out_states: list[EnvState] = []
        out_events = []
        queue = list(actions)
        C = self.wm.cfg.chunk
        while queue:
            take = queue[:C]
            queue = queue[C:]
            enc_all = [statecodec.encode_action(a) for a in take]
            while len(enc_all) < C:
                enc_all.append(np.zeros(4))  # pad a truncated final chunk
            cond_actions = np.stack(self.hist_actions + enc_all)
            hist = np.stack(self.hist_states)
            chunk = predict_chunk(self.wm, hist, cond_actions, self.rng)[0]
            states, clean = sanitize_chunk(self.wm, chunk)
            prev = self.state
            for i in range(len(take)):
                ev = infer_transition_event(prev, take[i], states[i])
                out_events.append(ev)
                out_states.append(states[i])
                prev = states[i]
                self.hist_states.append(clean[i])
                self.hist_actions.append(statecodec.encode_action(take[i]))
            H = self.wm.cfg.history
            self.hist_states = self.hist_states[-H:]
            self.hist_actions = self.hist_actions[-(H - 1):]
            self.state = states[min(len(take), len(states)) - 1].copy()
        return out_states, out_events


class OracleBackend:
    """The simulator itself behind the rollout interface (harness bound)."""

    def __init__(self, scene: SceneConfig, seed: int = 0, noise: list[float] | None = None):
        from .env import Env

        self.env = Env(scene, seed=seed)
        self.noise = list(noise) if noise else None
        self.preferred_chunk = 8
        self._cursor = 0
        self.state: EnvState | None = None

    def reset(self, state: EnvState) -> EnvState:
        self.env.reset(state)
        self.state = self.env.state
        self._cursor = 0
        return self.state

    def step_chunk(self, actions: list[Action]) -> tuple[list[EnvState], list]:
        states, events = [], []
        for a in actions:
            u = None
            if self.noise is not None and self._cursor < len(self.noise):
                u = self.noise[self._cursor]
                self._cursor += 1
            s, ev = self.env.step(a, u=u)
            states.append(s.copy())
            events.append(ev)
        self.state = self.env.state
        return states, events


def rollout(wm_or_backend, initial_state: EnvState, action_source, horizon: int,
            rng: Rng | None = None, eid: str = "rollout", task: TaskSpec | None = None) -> Episode:
    """Imagined episode: open-loop (list of actions) or closed-loop (callable).

    A callable source receives (state, t) each control step and returns the
    next action or sub-chunk of actions; predicted states feed back into the
    history window. Fixed sequences are consumed a model chunk at a time.
    """
    backend = wm_or_backend
    if isinstance(wm_or_backend, WorldModel):
        backend = RolloutBackend(wm_or_backend, rng or Rng(0))
    group = getattr(backend, "preferred_chunk", 8)
    state = backend.reset(initial_state)
    states = [state.copy()]
    all_actions: list[Action] = []
    all_events = []
    t = 0
    while t < horizon:
        if callable(action_source):
            acts = action_source(backend.state, t)
            if not isinstance(acts, list):
                acts = [acts]
        else:
            acts = list(action_source[t:t + group])
        acts = acts[:horizon - t]
        if not acts:
            break
        new_states, events = backend.step_chunk(acts)
        for s, e, a in zip(new_states, events, acts):
            states.append(s.copy())
            all_events.append(e)
            all_actions.append(a)
        t += len(acts)
    if task is None:
        task = TaskSpec("push_to", states[0].objects[0].oid, region=(0.5, 0.5))
    instr = Instruction(task, Perturbation())
    return Episode(eid=eid, source="policy_rollout", instruction=instr, outcome=False,
                   seed=0, states=states, actions=all_actions, events=all_events,
                   noise=[0.0] * len(all_actions))


# -- persistence ----------------------------------------------------------

def save_worldmodel(wm: WorldModel, path: str) -> None:
    from .scene import scene_to_dict

    header = {
        "config": asdict(wm.cfg),
        "scene": scene_to_dict(wm.scene),
        "step_count": wm.step_count,
        "loss_trace": wm.loss_trace,
    }
    save_checkpoint(path, "worldmodel", header, wm.denoiser.net.params)


def load_worldmodel(path: str) -> WorldModel:
    from .scene import scene_from_dict

    kind, header, params = load_checkpoint(path)
    if kind != "worldmodel":
        raise ValueError(f"checkpoint kind {kind!r} is not a world model")
    cfg = WmConfig(**header["config"])
    scene = scene_from_dict(header["scene"])
    wm = create_worldmodel(scene, cfg, Rng(0))
    nets.load_params(wm.denoiser.net, params, path)
    wm.step_count = header["step_count"]
    wm.loss_trace = [tuple(x) for x in header.get("loss_trace", [])]
    return wm
