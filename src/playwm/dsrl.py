"""Latent-noise RL fine-tuning of a frozen diffusion policy.

The RL action is the diffusion policy's initial latent w; the frozen
sampler plus the learned world model form the environment, and the real
simulator only evaluates. A tanh-squashed Gaussian actor proposes w per
re-plan decision, sampling from the one density its loss trains
(NoiseActor.squash); twin critics with layer norm and Polyak targets score
(state, w), and the temperature auto-tunes toward a fixed entropy target.
Decisions happen once per world-model chunk; the reward is the progress
change over the executed chunk, which telescopes the per-step dense reward.
Fine-tuning runs one imagined rollout per start state, all in lockstep, so
the policy sampler and the world model each run once per decision for the
whole batch of rollouts. The real-simulator evaluations run through
`bench.measure_real`, whose rollouts step in lockstep too: the actor maps each
decision's batch of encoded states to their mean latents in one forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import nets, statecodec
from .bench import EvalStudyConfig, measure_real
from .checkpoint import header_builds, load_checkpoint, save_checkpoint
from .optim import Adam
from .policies import INIT_JITTER, DiffusionPolicy, plan_actions
from .progress import ProgressModel
from .rng import Rng
from .scene import EnvState, SceneConfig, jittered_state
from .worldmodel import RolloutBackend
from .tasks import TaskSpec, check_success

LOG2PI = math.log(2.0 * math.pi)
ACTOR_LR = 3e-4          # desk preset; the paper-scale preset is 1e-5
CRITIC_LR = 3e-4
ALPHA_LR = 3e-4          # the temperature's rate
GAMMA = 0.99
TAU = 0.001              # Polyak rate of the target critics
TARGET_ENTROPY = 0.0
LOG_STD_MIN = -5.0       # the actor's log std spans [LOG_STD_MIN, LOG_STD_MAX]
LOG_STD_MAX = 2.0
EVAL_SEED = 424242       # every real-env evaluation of a run draws the same rollouts


@dataclass(frozen=True)
class DsrlConfig:
    """The fine-tuning settings that callers set; the optimizer rates, the
    discount, the Polyak rate, the entropy target and the log std bounds are
    this module's constants."""
    batch: int = 64
    train_freq: int = 15         # one update burst per this many control steps
    utd: int = 10                # updates per burst
    initial_rollout_steps: int = 800
    max_episode_steps: int = 30
    action_magnitude: float = 0.5
    replan: int = 5              # imagined decision cadence (one wm chunk)
    hidden: int = 256
    depth: int = 3
    buffer_capacity: int = 100_000
    eval_every: int = 1000
    eval_rollouts: int = 20

    def __post_init__(self):
        for name in ("batch", "train_freq", "utd", "initial_rollout_steps",
                     "max_episode_steps", "action_magnitude", "replan", "hidden", "depth",
                     "buffer_capacity", "eval_every", "eval_rollouts"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.max_episode_steps % self.replan:
            raise ValueError(f"max_episode_steps ({self.max_episode_steps}) must be a whole "
                             f"number of replan chunks ({self.replan})")


class NoiseActor:
    """Squashed Gaussian over the policy latent: w = M * tanh(mu + sigma * xi)."""

    def __init__(self, state_dim: int, latent_dim: int, cfg: DsrlConfig, rng: Rng):
        self.cfg = cfg
        self.latent_dim = latent_dim
        self.net = nets.init_mlp([state_dim] + [cfg.hidden] * cfg.depth + [2 * latent_dim],
                                 rng, "relu")
        self.grads = self.net.params.zeros_like()  # every update overwrites it whole

    def squash(self, out: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """The latents w for head output `out` and standard normal draws xi,
        their log densities, and the terms (t, u, std, tl) that actor_loss's
        gradient reads.

        The head's first half is mu; tanh of its second half, tl, maps onto
        log_std in [LOG_STD_MIN, LOG_STD_MAX]. Then t = tanh(mu + std * xi)
        and w = M t.
        """
        L, M = self.latent_dim, self.cfg.action_magnitude
        tl = np.tanh(out[:, L:])
        log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (tl + 1.0)
        std = np.exp(log_std)
        t = np.tanh(out[:, :L] + std * xi)
        u = ((t * t) * -1.0 + 1.0) * M + 1e-9  # the squash's Jacobian, M (1 - t^2), kept off zero
        logp = ((xi * xi) * -0.5 - (log_std + 0.5 * LOG2PI)).sum(axis=1) - np.log(u).sum(axis=1)
        return t * M, logp, (t, u, std, tl)

    def sample(self, states: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        """Latents and their log densities."""
        out = nets.forward(self.net, np.atleast_2d(states))
        w, logp, _ = self.squash(out, rng.normal((out.shape[0], self.latent_dim)))
        return w, logp

    def mean_latent(self, states: np.ndarray) -> np.ndarray:
        """The (B, L) latents at xi = 0, M tanh(mu), of (B, width) encoded states."""
        out = nets.forward(self.net, states)
        return self.squash(out, np.zeros((len(out), self.latent_dim)))[0]

    def param_hash(self) -> str:
        return self.net.param_hash()


class Critics:
    """Twin Q networks with layer norm plus Polyak-averaged target copies,
    with a gradient buffer per critic and one scratch vector for polyak."""

    def __init__(self, state_dim: int, latent_dim: int, cfg: DsrlConfig, rng: Rng):
        widths = [state_dim + latent_dim] + [cfg.hidden] * cfg.depth + [1]
        self.q1 = nets.init_mlp(widths, rng, "relu", layer_norm=True)
        self.q2 = nets.init_mlp(widths, rng, "relu", layer_norm=True)
        self.t1 = nets.Mlp(widths, "relu", layer_norm=True, params=self.q1.params)
        self.t2 = nets.Mlp(widths, "relu", layer_norm=True, params=self.q2.params)
        self.g1, self.g2 = self.q1.params.zeros_like(), self.q2.params.zeros_like()
        self._mix = np.empty_like(self.q1.params.flat)

    def target_min(self, states: np.ndarray, latents: np.ndarray) -> np.ndarray:
        joint = np.concatenate([states, latents], axis=1)
        return np.minimum(nets.forward(self.t1, joint), nets.forward(self.t2, joint))[:, 0]

    def polyak(self, tau: float) -> None:
        for online, target in ((self.q1, self.t1), (self.q2, self.t2)):
            target.params.flat *= 1.0 - tau
            np.multiply(tau, online.params.flat, out=self._mix)
            target.params.flat += self._mix


class ReplayBuffer:
    """FIFO ring buffer of (s, w, r, s', done) with uniform sampling."""

    def __init__(self, capacity: int, state_dim: int, latent_dim: int):
        self.capacity = capacity
        self.s = np.zeros((capacity, state_dim))
        self.w = np.zeros((capacity, latent_dim))
        self.r = np.zeros(capacity)
        self.s2 = np.zeros((capacity, state_dim))
        self.done = np.zeros(capacity)
        self.size = 0
        self._head = 0

    def push(self, s, w, r, s2, done) -> None:
        i = self._head
        self.s[i] = s
        self.w[i] = w
        self.r[i] = r
        self.s2[i] = s2
        self.done[i] = float(done)
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: Rng):
        rows = rng.randint_array(batch, self.size)
        return (self.s[rows], self.w[rows], self.r[rows], self.s2[rows], self.done[rows])


@dataclass
class DsrlState:
    actor: NoiseActor
    critics: Critics
    buffer: ReplayBuffer
    cfg: DsrlConfig
    alpha_param: nets.FlatParams  # log alpha, the temperature's log, as one element
    alpha_grad: nets.FlatParams   # its gradient buffer
    actor_opt: Adam
    q1_opt: Adam
    q2_opt: Adam
    alpha_opt: Adam
    updates_done: int = 0

    @property
    def log_alpha(self) -> float:
        return float(self.alpha_param.flat[0])


def make_dsrl(state_dim: int, latent_dim: int, cfg: DsrlConfig, rng: Rng) -> DsrlState:
    alpha_param = nets.FlatParams({"log_alpha": (1,)})
    alpha_param.flat[0] = math.log(0.1)
    return DsrlState(
        actor=NoiseActor(state_dim, latent_dim, cfg, Rng(rng.spawn_seed())),
        critics=Critics(state_dim, latent_dim, cfg, Rng(rng.spawn_seed())),
        buffer=ReplayBuffer(cfg.buffer_capacity, state_dim, latent_dim),
        cfg=cfg,
        alpha_param=alpha_param,
        alpha_grad=alpha_param.zeros_like(),
        actor_opt=Adam(lr=ACTOR_LR),
        q1_opt=Adam(lr=CRITIC_LR),
        q2_opt=Adam(lr=CRITIC_LR),
        alpha_opt=Adam(lr=ALPHA_LR),
    )


def update(st: DsrlState, rng: Rng) -> dict:
    """One SAC-style update: both critics, then actor and temperature, then Polyak."""
    cfg = st.cfg
    if st.buffer.size < cfg.batch:
        return {}
    s, w, r, s2, done = st.buffer.sample(cfg.batch, rng)
    alpha = math.exp(st.log_alpha)

    # critic targets (no gradients)
    w2, logp2 = st.actor.sample(s2, rng)
    target_q = st.critics.target_min(s2, w2) - alpha * logp2
    y = (r + GAMMA * (1.0 - done) * target_q)[:, None]
    if not np.all(np.isfinite(y)):
        raise FloatingPointError("NaN in critic target")

    joint = np.concatenate([s, w], axis=1)
    losses = {}
    critics = st.critics
    for name, net, grads, opt in (("q1", critics.q1, critics.g1, st.q1_opt),
                                  ("q2", critics.q2, critics.g2, st.q2_opt)):
        cache = []
        pred = nets.forward(net, joint, cache)
        loss, dpred = ad.mse(pred, y)
        if not np.isfinite(loss):
            raise FloatingPointError(f"NaN loss in critic {name}")
        ad.backward(net, cache, dpred, grads)
        opt.step(net.params, grads)
        losses[name] = loss

    # actor update via the reparameterized squashed sample
    xi = rng.normal((cfg.batch, st.actor.latent_dim))
    loss, logp = actor_loss(st, s, xi, alpha, st.actor.grads)
    if not np.isfinite(loss):
        raise FloatingPointError("NaN loss in actor")
    st.actor_opt.step(st.actor.net.params, st.actor.grads)
    losses["actor"] = loss

    # temperature toward the entropy target
    st.alpha_grad.flat[0] = np.mean(-(logp + TARGET_ENTROPY))
    st.alpha_opt.step(st.alpha_param, st.alpha_grad)
    np.clip(st.alpha_param.flat, -10.0, 4.0, out=st.alpha_param.flat)
    losses["alpha"] = math.exp(st.log_alpha)

    st.critics.polyak(TAU)
    st.updates_done += 1
    return losses


def actor_loss(st: DsrlState, s: np.ndarray, xi: np.ndarray, alpha: float,
               grads: nets.FlatParams) -> tuple[float, np.ndarray]:
    """The SAC actor objective and the log densities of its samples.

    loss = mean(alpha * logp(w | s) - min(q1, q2)(s, w)) over the
    reparameterized squashed sample w = M tanh(mu + std * xi). The loss
    gradient in the actor's parameters is written into grads; it
    reaches the actor through both critics' inputs and through logp.
    """
    B, M = s.shape[0], st.cfg.action_magnitude
    cache, cache1, cache2 = [], [], []
    w, logp, (t, u, std, tl) = st.actor.squash(nets.forward(st.actor.net, s, cache), xi)
    joint = np.concatenate([s, w], axis=1)
    q1 = nets.forward(st.critics.q1, joint, cache1)
    q2 = nets.forward(st.critics.q2, joint, cache2)
    take1 = q1 <= q2
    loss = float((logp * alpha - np.where(take1, q1, q2).sum(axis=1)).sum() * (1.0 / B))
    g_logp = np.full(B, 1.0 / B) * alpha
    g_q = np.full((B, 1), -(1.0 / B))
    g_joint = (ad.backward(st.critics.q1, cache1, g_q * take1, None, input_grad=True)
               + ad.backward(st.critics.q2, cache2, g_q * ~take1, None, input_grad=True))
    g_u = -g_logp[:, None] / u
    g_t = g_joint[:, s.shape[1]:] * M + (2.0 * t) * ((g_u * M) * -1.0)
    g_raw = g_t * (1.0 - t * t)
    g_log_std = (g_raw * xi) * std - g_logp[:, None]
    g_tl = (g_log_std * (0.5 * (LOG_STD_MAX - LOG_STD_MIN))) * (1.0 - tl * tl)
    # + 0.0 turns -0.0 into 0.0, as summing the two zero-padded halves always has
    dout = np.concatenate([g_raw, g_tl], axis=1) + 0.0
    ad.backward(st.actor.net, cache, dout, grads)
    return loss, logp


@dataclass
class EvalPoint:
    updates: int
    env_success: float
    imagined_return: float


def finetune(backend: RolloutBackend, policy: DiffusionPolicy, progress_model: ProgressModel,
             scene: SceneConfig, task: TaskSpec, cfg: DsrlConfig, rng: Rng,
             total_updates: int = 4000, inits: list[EnvState] | None = None
             ) -> tuple[DsrlState, list[EvalPoint], dict[str, np.ndarray]]:
    """Rollout/update loop inside the world model of `backend`, with periodic
    env evals in `scene`, every model's scene. cfg.replan must be the model chunk;
    `EvalStudyConfig` checks the evals' settings before anything is drawn.

    One imagined rollout runs per start state in `inits` (N of them), all in
    lockstep. Each step draws the N latents at once, plans the N policy
    chunks in one `plan_actions` call and advances every rollout by one
    model chunk, driven by the actions the simulator would execute. The N
    transitions then enter the buffer in row order, each push followed by
    the update-burst rule, and a rollout that succeeds or reaches
    max_episode_steps restarts from its own start state.

    Returns the DSRL state, the evaluation trace, and the best actor
    parameters by real-env success (the conservative stopping rule).
    """
    if cfg.replan != backend.wm.cfg.chunk:
        raise ValueError(f"DSRL decides once per model chunk: replan is {cfg.replan}, "
                         f"the model chunk is {backend.wm.cfg.chunk}")
    if inits is not None and not inits:
        raise ValueError("inits must hold at least one start state, got none")
    other = [name for name, model in (("world model", backend.wm), ("policy", policy),
                                      ("progress model", progress_model)) if model.scene != scene]
    if other:
        raise ValueError(f"finetune's scene differs from that of the {' and the '.join(other)}")
    eval_cfg = EvalStudyConfig(task, n_real=cfg.eval_rollouts, max_steps=cfg.max_episode_steps,
                               replan=cfg.replan)
    state_dim = statecodec.state_dim(len(scene.objects))
    st = make_dsrl(state_dim, policy.latent_dim, cfg, rng)
    if inits is None:
        init_rng = Rng(rng.spawn_seed())
        inits = [jittered_state(scene, init_rng, INIT_JITTER) for _ in range(16)]
    N, C, M = len(inits), cfg.replan, cfg.action_magnitude

    trace = [EvalPoint(0, measure_real(policy, scene, eval_cfg, Rng(EVAL_SEED))[0], 0.0)]
    best_success = -1.0
    control_steps = 0
    recent_returns: list[float] = []
    next_eval = cfg.eval_every

    backend.reset(inits)
    init_vecs = backend.hist_states[:, -1].copy()
    init_values = np.array([progress_model.value(v) for v in init_vecs])
    s_vecs, values = init_vecs, init_values
    steps = np.zeros(N, dtype=int)
    returns = np.zeros(N)

    while st.updates_done < total_updates:
        if control_steps < cfg.initial_rollout_steps:
            w = np.clip(rng.normal((N, st.actor.latent_dim)), -M, M)
        else:
            w, _ = st.actor.sample(s_vecs, rng)
        ends = [row[-1] for row in backend.step_chunk(plan_actions(policy, s_vecs, w)[:, :C],
                                                      list(range(N)))]
        end_vecs = backend.hist_states[:, -1].copy()
        end_values = np.array([progress_model.value(v) for v in end_vecs])
        restart = []
        for b in range(N):
            terminal = check_success(ends[b], task)
            reward = end_values[b] - values[b]
            st.buffer.push(s_vecs[b], w[b], reward, end_vecs[b], terminal)
            returns[b] += reward
            steps[b] += C
            control_steps += C
            if terminal or steps[b] >= cfg.max_episode_steps:
                recent_returns.append(float(returns[b]))
                restart.append(b)
            if control_steps % cfg.train_freq < C and st.buffer.size >= cfg.batch \
                    and control_steps >= cfg.initial_rollout_steps:
                for _ in range(cfg.utd):
                    if st.updates_done >= total_updates:
                        break
                    update(st, rng)
                    if st.updates_done >= next_eval:
                        success = measure_real(policy, scene, eval_cfg, Rng(EVAL_SEED),
                                               st.actor.mean_latent)[0]
                        wm_ret = float(np.mean(recent_returns[-20:])) if recent_returns else 0.0
                        trace.append(EvalPoint(st.updates_done, success, wm_ret))
                        if success > best_success:
                            best_success = success
                            best_params = {k: v.copy() for k, v in st.actor.net.params.items()}
                        next_eval += cfg.eval_every
        s_vecs, values = end_vecs, end_values
        if restart:
            backend.reset([inits[b] for b in restart], restart)
            s_vecs[restart], values[restart] = init_vecs[restart], init_values[restart]
            steps[restart] = 0
            returns[restart] = 0.0
    if best_success < 0:
        best_params = {k: v.copy() for k, v in st.actor.net.params.items()}
    return st, trace, best_params


def save_actor(st: DsrlState, path: str) -> None:
    header = {"config": asdict(st.cfg), "updates_done": st.updates_done,
              "widths": st.actor.net.widths}
    save_checkpoint(path, "noise_actor", header, st.actor.net.params)


def load_actor_params(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, parameters) of a saved actor. Its config must build a
    DsrlConfig and the parameters must fit the saved widths, else
    CheckpointError names the path."""
    header, params = load_checkpoint(path, "noise_actor", ("config", "widths"))
    with header_builds(path):
        DsrlConfig(**header["config"])
    net = nets.Mlp(header["widths"], "relu")
    nets.load_params(net, params, path)
    return header, net.params
