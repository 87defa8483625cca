"""Study orchestration: replay benchmark and policy-evaluation correlation.

Replay: held-out clips balanced across the six behavior modes; the model
conditions on the H-frame prefix, replays the ground-truth actions, and its
rendered predictions are scored against the true future frames. Oracle mode
substitutes the simulator (replaying each clip's recorded noise draws) and
must reach the ideal scores, bounding harness error.

Policy evaluation: success rates and mode histograms of lockstep rollouts
in the simulator against lockstep imagined rollouts, where the policy plans
from each rollout's last history state and its executed actions drive the
model. Both plan all their live rollouts in one batch per decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .curation import Embedder
from .diffusion import ddpm_sample
from .dynamics import Action
from .env import Env
from .metrics import lpips_proxy, mse, psnr, ssim
from .policies import (INIT_JITTER, DiffusionPolicy, SuiteEntry, measure_env_success,
                       plan_actions)
from .render import render_frames, render_states
from .rng import Rng
from .scene import EnvState, SceneConfig, jittered_state
from .store import ClipWindow, EpisodeStore, windows
from .tasks import (BehaviorMode, MODES, TaskSpec, check_success, classify_clip,
                    infer_transition_event)
from .worldmodel import (RolloutBackend, WorldModel, predict_chunk, predicted_frames,
                         window_inputs)

class BenchmarkError(RuntimeError):
    pass


@dataclass
class ReplayClip:
    store_name: str
    window: ClipWindow
    hist_states: np.ndarray      # (H, width) encoded
    actions: np.ndarray          # (H-1+C, 4) encoded
    gt_frames: list[np.ndarray]  # C ground-truth future frames
    init_state: EnvState         # state at the last history frame
    raw_actions: list[Action]    # the C driving actions
    noise: list[float]           # the C noise draws for oracle replay


@dataclass
class ReplayBenchmark:
    history: int
    chunk: int
    clips: list[ReplayClip]

    def by_mode(self) -> dict[BehaviorMode, list[int]]:
        out: dict[BehaviorMode, list[int]] = {m: [] for m in MODES}
        for i, c in enumerate(self.clips):
            out[c.window.mode].append(i)
        return out


def build_benchmark(stores: dict[str, EpisodeStore], heldout: dict[str, list[str]],
                    target_per_mode: int, rng: Rng, history: int = 7,
                    chunk: int = 5, stride: int = 3,
                    min_fraction: float = 0.8) -> ReplayBenchmark:
    """Draw a mode-balanced clip set from held-out episodes only."""
    W = history + chunk
    candidates: dict[BehaviorMode, list[tuple[str, ClipWindow]]] = {m: [] for m in MODES}
    for name, store in stores.items():
        for w in windows(store, W, stride, ids=heldout.get(name, [])):
            candidates[w.mode].append((name, w))
    floor = int(np.ceil(target_per_mode * min_fraction))
    shortfall = {m.value: len(candidates[m]) for m in MODES
                 if len(candidates[m]) < floor}
    if shortfall:
        raise BenchmarkError(
            f"insufficient held-out clips per mode (need >= {floor}): {shortfall}")
    clips: list[ReplayClip] = []
    for mode in MODES:
        pool = candidates[mode]
        picks = list(range(len(pool)))
        rng.shuffle(picks)
        for idx in picks[:min(target_per_mode, len(pool))]:
            name, w = pool[idx]
            clips.append(_load_clip(stores[name], name, w, history, chunk))
    return ReplayBenchmark(history=history, chunk=chunk, clips=clips)


def _load_clip(store: EpisodeStore, name: str, w: ClipWindow, H: int, C: int) -> ReplayClip:
    view = store.read(w.episode_id)
    t = w.start + H - 1  # the last history frame
    states, actions = window_inputs(view, [w.start], H, C)
    gripper, _, objects = view.state_arrays(t + 1, t + 1 + C)
    return ReplayClip(
        store_name=name, window=w,
        hist_states=states[0, :H],
        actions=actions[0],
        gt_frames=list(render_frames(gripper, objects, view.roster)),
        init_state=view.state(t),
        raw_actions=[Action(*a) for a in view.actions[t:t + C]],
        noise=list(view.noise[t:t + C]),
    )


def run_replay(benchmark: ReplayBenchmark, model: WorldModel | str, embedder: Embedder,
               rng: Rng | None = None, scene: SceneConfig | None = None) -> metrics.MetricReport:
    """Score predicted future frames per clip; model may be "oracle"."""
    C = benchmark.chunk
    if isinstance(model, str):
        if model != "oracle":
            raise ValueError(f"unknown predictor {model!r}")
        if scene is None:
            raise ValueError("oracle replay needs the scene config")
        pred_frames = _oracle_predictions(benchmark, scene)
    else:
        pred_frames = _model_predictions(benchmark, model, rng or Rng(0))
    rows = []
    for clip, frames in zip(benchmark.clips, pred_frames):
        vals = {"mse": 0.0, "psnr": 0.0, "ssim": 0.0, "lpips_proxy": 0.0}
        for f_pred, f_gt in zip(frames, clip.gt_frames):
            vals["mse"] += mse(f_pred, f_gt)
            vals["psnr"] += psnr(f_pred, f_gt)
            vals["ssim"] += ssim(f_pred, f_gt)
            vals["lpips_proxy"] += lpips_proxy(embedder, f_pred, f_gt)
        for k in vals:
            vals[k] /= C
        rows.append({"episode": clip.window.episode_id, "start": clip.window.start,
                     "mode": clip.window.mode.value, **vals})
    return metrics.MetricReport.from_rows(rows)


def _model_predictions(benchmark: ReplayBenchmark, wm: WorldModel, rng: Rng):
    clips = benchmark.clips
    hist = np.stack([c.hist_states for c in clips])
    acts = np.stack([c.actions for c in clips])
    pred = predict_chunk(wm, hist, acts, rng)
    frames = predicted_frames(wm, pred.reshape(-1, pred.shape[-1]))
    C = pred.shape[1]
    return [frames[i * C:(i + 1) * C] for i in range(len(clips))]


def _oracle_predictions(benchmark: ReplayBenchmark, scene: SceneConfig):
    out = []
    for clip in benchmark.clips:
        env = Env(scene, seed=0)
        env.reset(clip.init_state)
        stepped = [env.step(a, u=u)[0] for a, u in zip(clip.raw_actions, clip.noise)]
        out.append(list(render_states(stepped)))
    return out


# -- policy evaluation study ----------------------------------------------

@dataclass(frozen=True)
class EvalStudyConfig:
    task: TaskSpec
    n_real: int = 20
    n_wm: int = 50
    max_steps: int = 30
    replan: int = 5      # aligned with the model chunk inside rollouts


@dataclass
class PolicyEvalRow:
    name: str
    real_success: float
    predicted_success: float
    real_modes: dict[str, int]
    predicted_modes: dict[str, int]
    tv: float


@dataclass
class PolicyEvalReport:
    rows: list[PolicyEvalRow]
    pearson: float | None
    mean_tv: float
    flagged: str | None = None

    def to_csv(self) -> str:
        lines = ["policy,real_success,predicted_success,tv"]
        for r in self.rows:
            lines.append(f"{r.name},{r.real_success:.4f},{r.predicted_success:.4f},{r.tv:.4f}")
        return "\n".join(lines) + "\n"


def _mode_distribution(hist: dict[str, int]) -> np.ndarray:
    vec = np.array([hist.get(m.value, 0) for m in MODES], dtype=np.float64)
    total = vec.sum()
    return vec / total if total > 0 else np.full(len(MODES), 1.0 / len(MODES))


def measure_real(policy: DiffusionPolicy, scene: SceneConfig, cfg: EvalStudyConfig,
                 rng: Rng) -> tuple[float, dict[str, int]]:
    """Success rate and mode histogram of n_real lockstep rollouts in the simulator."""
    return measure_env_success(policy, scene, cfg.task, cfg.n_real, rng, cfg.max_steps,
                               cfg.replan)


def measure_imagined(policy: DiffusionPolicy, wm: WorldModel | SceneConfig,
                     cfg: EvalStudyConfig, rng: Rng) -> tuple[float, dict[str, int]]:
    """Success rate and mode histogram of n_wm closed-loop rollouts inside
    the world model, or inside the simulator when given its scene."""
    if isinstance(wm, WorldModel):
        return _measure_imagined_batch(policy, wm, cfg, rng)
    return measure_env_success(policy, wm, cfg.task, cfg.n_wm, rng, cfg.max_steps,
                               cfg.replan)


def _measure_imagined_batch(policy: DiffusionPolicy, wm: WorldModel,
                            cfg: EvalStudyConfig, rng: Rng) -> tuple[float, dict[str, int]]:
    """All rollouts advance in lockstep so the denoiser runs on full batches.

    The policy plans from each rollout's last history state, and the world
    model is driven by the actions the simulator would execute. A rollout
    that succeeds keeps its success state and records no further events,
    though the batch still steps it; the last chunk records only the steps
    up to max_steps.
    """
    B = cfg.n_wm
    C = wm.cfg.chunk
    if cfg.replan != C:
        raise ValueError(f"imagined rollouts re-plan once per model chunk: replan is "
                         f"{cfg.replan}, the model chunk is {C}")
    cur_states = [jittered_state(wm.scene, rng, INIT_JITTER) for _ in range(B)]
    backend = RolloutBackend(wm, rng)
    backend.reset(cur_states)
    succeeded = np.zeros(B, dtype=bool)
    all_events: list[list] = [[] for _ in range(B)]
    t = 0
    while t < cfg.max_steps:
        w0 = rng.normal((B, policy.latent_dim))
        acts = plan_actions(policy, backend.hist_states[:, -1], w0)[:, :C]
        pred = backend.step_chunk(acts)
        for b in range(B):
            if succeeded[b]:
                continue
            prev = cur_states[b]
            for a, s in zip(acts[b].tolist(), pred[b][:cfg.max_steps - t]):
                all_events[b].append(infer_transition_event(prev, Action(*a), s))
                prev = s
                if check_success(s, cfg.task, wm.scene.physics):
                    succeeded[b] = True
                    break
            cur_states[b] = prev
        t += C
    hist = {m.value: 0 for m in MODES}
    for b in range(B):
        hist[classify_clip(all_events[b], cfg.task, cur_states[b]).value] += 1
    return float(succeeded.mean()), hist


def run_policy_eval(entries: list[SuiteEntry], wm: WorldModel | SceneConfig,
                    scene: SceneConfig, cfg: EvalStudyConfig, rng: Rng) -> PolicyEvalReport:
    if len(entries) < 6:
        raise ValueError("the correlation study needs at least 6 policies")
    rows = []
    for entry in entries:
        real_rate, real_hist = measure_real(entry.policy, scene, cfg, Rng(rng.spawn_seed()))
        pred_rate, pred_hist = measure_imagined(entry.policy, wm, cfg, Rng(rng.spawn_seed()))
        tv = metrics.tv_distance(_mode_distribution(real_hist), _mode_distribution(pred_hist))
        rows.append(PolicyEvalRow(entry.variant.name, real_rate, pred_rate,
                                  real_hist, pred_hist, tv))
    reals = [r.real_success for r in rows]
    preds = [r.predicted_success for r in rows]
    flagged = None
    r = None
    try:
        r = metrics.pearson(reals, preds)
    except metrics.MetricError as exc:
        flagged = f"correlation omitted: {exc}"
    return PolicyEvalReport(rows=rows, pearson=r,
                            mean_tv=float(np.mean([x.tv for x in rows])), flagged=flagged)
