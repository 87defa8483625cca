"""Study orchestration: replay benchmark and policy-evaluation correlation.

Replay: held-out clips balanced across the six behavior modes; the model
conditions on the H-frame prefix, replays the ground-truth actions, and its
rendered predictions are scored against the true future frames. Oracle mode
substitutes the simulator (replaying each clip's recorded noise draws) and
must reach the ideal scores, bounding harness error.

Policy evaluation: success rates and mode histograms of rollouts in the
simulator (`measure_real`, which DSRL's evaluations call too) against
imagined rollouts (`measure_imagined`), where the policy's executed actions
drive the model. Both run through `closed_loop`, the one closed loop of a
policy, which plans all the rollouts that have not yet succeeded in one
batch per decision; the world model steps only those rollouts. Their
settings are checked once, by `EvalStudyConfig`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from . import metrics, statecodec
from .curation import Embedder
from .dynamics import Action, EventKind
from .env import Env
from .metrics import METRIC_NAMES, lpips_proxy, mse, psnr, ssim
from .policies import (HORIZON, INIT_JITTER, SUITE_POLICIES, DiffusionPolicy, SuiteEntry,
                       plan_actions)
from .render import render_frames, render_states
from .rng import Rng
from .scene import EnvState, SceneConfig, jittered_state
from .store import ClipWindow, EpisodeStore, windows
from .tasks import (BehaviorMode, MODES, TaskSpec, check_success, classify_clip,
                    infer_transition_event)
from .worldmodel import RolloutBackend, WorldModel, predict_chunk, predicted_frames

SCORE_BLOCK = 16  # frames scored per metrics call; a block's SSIM temporaries are about 3 MB
MIN_CLIP_FRACTION = 0.8  # each mode needs this share of target_per_mode held-out clips


class BenchmarkError(RuntimeError):
    pass


@dataclass
class ReplayClip:
    window: ClipWindow
    hist_states: np.ndarray      # (H, width) encoded
    actions: np.ndarray          # (H-1+C, 4) encoded
    gt_frames: list[np.ndarray]  # C ground-truth future frames
    init_state: EnvState         # state at the last history frame
    raw_actions: list[Action]    # the C driving actions
    noise: list[float]           # the C noise draws for oracle replay


@dataclass
class ReplayBenchmark:
    chunk: int
    clips: list[ReplayClip]


def build_benchmark(stores: dict[str, EpisodeStore], heldout: dict[str, list[str]],
                    target_per_mode: int, rng: Rng, history: int, chunk: int,
                    stride: int) -> ReplayBenchmark:
    """Draw a mode-balanced clip set of history + chunk frames from held-out episodes only.
    BenchmarkError, naming each short mode, unless every mode has at least
    MIN_CLIP_FRACTION of target_per_mode candidate clips."""
    W = history + chunk
    candidates: dict[BehaviorMode, list[tuple[str, ClipWindow]]] = {m: [] for m in MODES}
    for name, store in stores.items():
        for w in windows(store, W, stride, ids=heldout.get(name, [])):
            candidates[w.mode].append((name, w))
    floor = int(np.ceil(target_per_mode * MIN_CLIP_FRACTION))
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
            clips.append(_load_clip(stores[name], w, history, chunk))
    return ReplayBenchmark(chunk=chunk, clips=clips)


def _load_clip(store: EpisodeStore, w: ClipWindow, H: int, C: int) -> ReplayClip:
    """The clip of window w. Only its H history states and H-1+C actions
    are encoded, as `worldmodel.build_dataset` encodes them."""
    view = store.read(w.episode_id)
    t = w.start + H - 1  # the last history frame
    gripper, held, objects = view.state_arrays(slice(w.start, t + 1 + C))
    return ReplayClip(
        window=w,
        hist_states=statecodec.encode_states(gripper[:H], held[:H], objects[:H]),
        actions=statecodec.encode_action_rows(view.actions[w.start:t + C]),
        gt_frames=list(render_frames(gripper[H:], objects[H:], view.roster)),
        init_state=view.states_at([t])[0],
        raw_actions=[Action(*a) for a in view.actions[t:t + C]],
        noise=list(view.noise[t:t + C]),
    )


def run_replay(benchmark: ReplayBenchmark, model: WorldModel | str, embedder: Embedder,
               rng: Rng | None = None, scene: SceneConfig | None = None) -> metrics.MetricReport:
    """Score predicted future frames per clip; model may be "oracle". A
    world model samples its predictions from rng. The oracle resets the
    simulator to each clip's own `init_state` and replays its recorded
    actions and noise draws, so its frames do not depend on scene, which
    only permits oracle mode. Each raises ValueError without its input.

    The frames of every clip are scored in stacked blocks of at most
    SCORE_BLOCK frames, one call of each metric a block; each clip's row is
    the mean of its C per-frame scores, summed in frame order."""
    C = benchmark.chunk
    if isinstance(model, str):
        if model != "oracle":
            raise ValueError(f"unknown predictor {model!r}")
        if scene is None:
            raise ValueError("oracle replay needs the scene config")
    elif rng is None:
        raise ValueError("world-model replay needs an rng")
    if not benchmark.clips:
        return metrics.MetricReport.from_rows([])
    pred = (_oracle_predictions(benchmark, scene) if isinstance(model, str)
            else _model_predictions(benchmark, model, rng))
    gt = [f for clip in benchmark.clips for f in clip.gt_frames]
    scores: dict[str, list[float]] = {k: [] for k in METRIC_NAMES}
    for at in range(0, len(gt), SCORE_BLOCK):
        p, g = pred[at:at + SCORE_BLOCK], np.stack(gt[at:at + SCORE_BLOCK])
        m = mse(p, g).tolist()
        scores["mse"] += m
        scores["psnr"] += [psnr(v) for v in m]
        scores["ssim"] += ssim(p, g).tolist()
        scores["lpips_proxy"] += lpips_proxy(embedder, p, g).tolist()
    rows = []
    for i, clip in enumerate(benchmark.clips):
        vals = {}
        for k, per_frame in scores.items():
            total = 0.0
            for v in per_frame[i * C:(i + 1) * C]:
                total += v
            vals[k] = total / C
        rows.append({"episode": clip.window.episode_id, "start": clip.window.start,
                     "mode": clip.window.mode.value, **vals})
    return metrics.MetricReport.from_rows(rows)


def _model_predictions(benchmark: ReplayBenchmark, wm: WorldModel, rng: Rng) -> np.ndarray:
    """The (N*C, 64, 64) predicted frames of the N clips, clip by clip."""
    hist = np.stack([c.hist_states for c in benchmark.clips])
    acts = np.stack([c.actions for c in benchmark.clips])
    pred = predict_chunk(wm, hist, acts, rng)
    return predicted_frames(wm, pred.reshape(-1, pred.shape[-1]))


def _oracle_predictions(benchmark: ReplayBenchmark, scene: SceneConfig) -> np.ndarray:
    out = []
    for clip in benchmark.clips:
        env = Env(scene, seed=0)
        env.reset(clip.init_state)
        out.append(render_states([env.step(a, u=u)[0]
                                  for a, u in zip(clip.raw_actions, clip.noise)]))
    return np.concatenate(out)


# -- policy evaluation study ----------------------------------------------

@dataclass(frozen=True)
class EvalStudyConfig:
    task: TaskSpec
    n_real: int = 20
    n_wm: int = 50
    max_steps: int = 30
    replan: int = 5      # aligned with the model chunk inside rollouts

    def __post_init__(self):
        for name in ("n_real", "n_wm", "max_steps", "replan"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.replan > HORIZON:
            raise ValueError(f"replan must be at most {HORIZON}, got {self.replan}")


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


def _mode_distribution(hist: dict[str, int]) -> np.ndarray:
    """The shares of a `closed_loop` histogram: every mode, one rollout or more."""
    vec = np.array([hist[m.value] for m in MODES], dtype=np.float64)
    return vec / vec.sum()


def closed_loop(policy: DiffusionPolicy, states: list[EnvState],
                advance: Callable[[list[int], np.ndarray], list[Iterator[tuple[EnvState, EventKind]]]],
                cfg: EvalStudyConfig, rng: Rng,
                latent: Callable[[np.ndarray], np.ndarray] | None = None
                ) -> tuple[float, dict[str, int]]:
    """Success rate and mode histogram of one closed-loop rollout of
    cfg.task per start state, all stepping in lockstep.

    A rollout that starts in success takes no step. Each decision encodes
    the states of the B rollouts that have not yet succeeded in one
    `encode_states` call, takes their (B, L) latents from latent(encoded), or
    draws them from rng without it, and plans them in one `plan_actions`
    call. advance(rows, actions) gets those rollouts' indices into states
    and their first cfg.replan planned actions, (B, replan, 4), and returns
    an iterator of (state, event kind) pairs for each. The loop takes the
    pairs one at a time, up to each rollout's first success and to
    cfg.max_steps steps in all, so an advance that steps lazily takes no
    step past them. `classify_clip` labels each rollout from its steps'
    kinds and the loop's own success flag: a rollout succeeded exactly when
    a success stopped it, or it started in success.
    """
    task, max_steps = cfg.task, cfg.max_steps
    states = list(states)
    kinds: list[list[EventKind]] = [[] for _ in states]
    live = [b for b, state in enumerate(states) if not check_success(state, task)]
    t = 0
    while t < max_steps and live:
        conds = statecodec.encode_states(*statecodec.state_arrays([states[b] for b in live]))
        w0 = latent(conds) if latent is not None else rng.normal((len(live), policy.latent_dim))
        acts = plan_actions(policy, conds, w0)[:, :cfg.replan]
        n = min(acts.shape[1], max_steps - t)
        still = []
        for b, pairs in zip(live, advance(live, acts)):
            for state, kind in itertools.islice(pairs, n):
                states[b] = state
                kinds[b].append(kind)
                if check_success(state, task):
                    break
            else:
                still.append(b)
        live = still
        t += n
    failed = set(live)
    hist: dict[str, int] = {m.value: 0 for m in BehaviorMode}
    for b, clip in enumerate(kinds):
        hist[classify_clip(clip, task, b not in failed).value] += 1
    return (len(states) - len(failed)) / len(states), hist


def measure_real(policy: DiffusionPolicy, scene: SceneConfig, cfg: EvalStudyConfig,
                 rng: Rng, latent: Callable[[np.ndarray], np.ndarray] | None = None
                 ) -> tuple[float, dict[str, int]]:
    """Success rate and mode histogram of cfg.n_real lockstep rollouts in
    the simulator, each from a jittered nominal scene in an env of its own
    noise seed; `closed_loop` takes latent. ValueError before any draw on a
    policy trained in another scene.

    Every rollout's env seed and start state are drawn first; then
    `closed_loop` steps them, each env only as far as its rollout runs.
    """
    if policy.scene != scene:
        raise ValueError("the policy was trained in another scene than the simulator's")
    envs = []
    for _ in range(cfg.n_real):
        env = Env(scene, seed=rng.spawn_seed())
        env.reset(jittered_state(scene, rng, INIT_JITTER))
        envs.append(env)

    def advance(rows, actions):
        return [_env_steps(envs[b], row) for b, row in zip(rows, actions.tolist())]

    return closed_loop(policy, [env.state for env in envs], advance, cfg, rng, latent)


def _env_steps(env: Env, actions: list[list[float]]) -> Iterator[tuple[EnvState, EventKind]]:
    for row in actions:
        state, event = env.step(Action(*row))
        yield state, event.kind


def measure_imagined(policy: DiffusionPolicy, wm: WorldModel | SceneConfig,
                     cfg: EvalStudyConfig, rng: Rng) -> tuple[float, dict[str, int]]:
    """Success rate and mode histogram of n_wm closed-loop rollouts inside
    the world model, or inside the simulator when given its scene.
    ValueError before any draw on a policy trained in another scene.

    In the world model, `closed_loop` steps the rollouts from jittered start
    states: each decision advances only the rollouts that have not yet
    succeeded by one model chunk, driven by the actions the simulator would
    execute, and labels their predicted transitions one at a time.
    """
    if not isinstance(wm, WorldModel):
        return measure_real(policy, wm, replace(cfg, n_real=cfg.n_wm), rng)
    if policy.scene != wm.scene:
        raise ValueError("the policy was trained in another scene than the world model's")
    if cfg.replan != wm.cfg.chunk:
        raise ValueError(f"imagined rollouts re-plan once per model chunk: replan is "
                         f"{cfg.replan}, the model chunk is {wm.cfg.chunk}")
    starts = [jittered_state(wm.scene, rng, INIT_JITTER) for _ in range(cfg.n_wm)]
    backend = RolloutBackend(wm, rng)
    backend.reset(starts)
    last = list(starts)  # each rollout's latest state

    def advance(rows, actions):
        paths = [[last[b], *chunk] for b, chunk in zip(rows, backend.step_chunk(actions, rows))]
        for b, path in zip(rows, paths):
            last[b] = path[-1]
        return [_labelled(path, row) for path, row in zip(paths, actions.tolist())]

    return closed_loop(policy, starts, advance, cfg, rng)


def _labelled(path: list[EnvState], actions: list[list[float]]):
    """Each predicted state of path[1:] with the event kind inferred for
    the transition into it."""
    for prev, row, nxt in zip(path, actions, path[1:]):
        yield nxt, infer_transition_event(prev, Action(*row), nxt)


def run_policy_eval(entries: list[SuiteEntry], wm: WorldModel | SceneConfig,
                    cfg: EvalStudyConfig, rng: Rng) -> PolicyEvalReport:
    """Each policy's real and imagined success and mode histogram, and the rates' Pearson.
    Real rollouts run in the scene of the imagined ones: wm's, or wm itself for the
    simulator. ValueError before any rollout on too few entries or, naming them, on
    policies of another scene."""
    if len(entries) < SUITE_POLICIES:
        raise ValueError(f"a correlation study needs at least {SUITE_POLICIES} policies, "
                         f"got {len(entries)}")
    scene = wm.scene if isinstance(wm, WorldModel) else wm
    other = [e.variant.name for e in entries if e.policy.scene != scene]
    if other:
        raise ValueError(f"policies trained in another scene than the model's: {other}")
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
