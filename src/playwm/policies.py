"""Policies: the scripted expert, behavior-cloned diffusion policies, and
the degraded-variant suite used by the evaluation studies.

A diffusion policy denoises a 16-action chunk conditioned on the current
encoded state; inference is 5-step deterministic DDIM from an explicit
initial latent, which makes the policy a pure function of (state, latent)
and therefore steerable by the RL stack. The caller chooses how many of a
chunk's actions execute before re-planning. `bench` runs policies in
closed loop, in the simulator and in a world model.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import nets, statecodec
from .checkpoint import count, header_builds, load_checkpoint, save_checkpoint
from .diffusion import DenoiserNet, NoiseSchedule, ddim_sample, diffusion_loss
from .dynamics import Action
from .env import Env
from .optim import Adam, clip_grad_norm
from .playsys import execute
from .rng import Rng
from .scene import EnvState, SceneConfig, jittered_state, scene_from_dict, scene_to_dict
from .skills import Instruction, Perturbation
from .store import EpisodeStore
from .tasks import TaskSpec


HORIZON = 16     # actions per planned chunk
LR = 1e-3        # behaviour-cloning Adam rate
GRAD_CLIP = 1.0  # behaviour-cloning gradient-norm bound
LOG_EVERY = 50   # steps between loss-trace entries
SUITE_POLICIES = 6  # the fewest policies a correlation study compares


@dataclass(frozen=True)
class PolicyConfig:
    """The policy settings that callers set; the chunk horizon and the
    behaviour-cloning rate and clip are this module's constants."""
    denoise_steps: int = 100
    ddim_steps: int = 5
    hidden: int = 256
    depth: int = 3
    batch: int = 64

    def __post_init__(self):
        for name in ("denoise_steps", "ddim_steps", "hidden", "depth", "batch"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class DiffusionPolicy:
    cfg: PolicyConfig
    scene: SceneConfig
    denoiser: DenoiserNet
    schedule: NoiseSchedule
    train_steps_done: int = 0

    @property
    def latent_dim(self) -> int:
        return HORIZON * 4

    def param_hash(self) -> str:
        return self.denoiser.net.param_hash()


def create_policy(scene: SceneConfig, cfg: PolicyConfig, rng: Rng | None) -> DiffusionPolicy:
    """A fresh policy; with rng None its parameters are zero, for load_policy."""
    cond_dim = statecodec.state_dim(len(scene.objects))
    denoiser = DenoiserNet.create(HORIZON * 4, cond_dim, rng, cfg.hidden, cfg.depth)
    return DiffusionPolicy(cfg=cfg, scene=scene, denoiser=denoiser,
                           schedule=NoiseSchedule.linear_scaled(cfg.denoise_steps))


# -- behavior cloning ---------------------------------------------------------

def chunk_dataset(store: EpisodeStore) -> tuple[np.ndarray, np.ndarray]:
    """(state, padded action chunk) pairs from every step of every episode."""
    conds, chunks = [], []
    for eid in store.ids():
        view = store.read(eid)
        T = view.n_steps
        # chunks running past the last action are padded with zero actions
        padded = np.vstack([statecodec.encode_action_rows(view.actions),
                            np.zeros((HORIZON - 1, 4))])
        steps = np.arange(T)[:, None] + np.arange(HORIZON)
        conds.append(statecodec.encode_states(*view.state_arrays(slice(T))))
        chunks.append(padded[steps].reshape(T, 4 * HORIZON))
    if not sum(len(c) for c in conds):
        raise ValueError("no training pairs in store")
    return np.concatenate(conds), np.concatenate(chunks)


def train_bc(policy: DiffusionPolicy, demos: EpisodeStore, steps: int, rng: Rng) -> list[tuple[int, float]]:
    """Behaviour-clone the denoiser on (state, action chunk) pairs for `steps`
    steps; returns the (step, loss) trace, its steps counted on from
    train_steps_done.

    Each call starts a fresh Adam, and checkpoints hold no optimizer state:
    resuming is not supported, so train_bc(50) then train_bc(50) is not
    train_bc(100). train_steps_done does continue.
    """
    conds, chunks = chunk_dataset(demos)
    opt = Adam(lr=LR)
    grads = policy.denoiser.net.params.zeros_like()
    n = conds.shape[0]
    trace = []
    for step in range(steps):
        rows = rng.randint_array(policy.cfg.batch, n)
        value = diffusion_loss(policy.denoiser, policy.schedule, chunks[rows],
                               conds[rows], rng, grads)
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite BC loss at step {step}")
        clip_grad_norm(grads, GRAD_CLIP)
        opt.step(policy.denoiser.net.params, grads)
        if step % LOG_EVERY == 0 or step == steps - 1:
            trace.append((policy.train_steps_done + step, value))
    policy.train_steps_done += steps
    return trace


# -- inference ----------------------------------------------------------------

def plan_actions(policy: DiffusionPolicy, conds: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """The executed (B, HORIZON, 4) action rows of B chunks, denoised in one
    DDIM call from the encoded states conds (B, width) and the latents w0."""
    chunks = ddim_sample(policy.denoiser, policy.schedule, conds, policy.cfg.ddim_steps, w0)
    return statecodec.decode_action_rows(chunks.reshape(len(chunks), HORIZON, 4))


def act(policy: DiffusionPolicy, state: EnvState, w0: np.ndarray) -> list[Action]:
    """The HORIZON actions of the chunk that `plan_actions` denoises for one
    state from the latent w0."""
    rows = plan_actions(policy, statecodec.encode_states(*statecodec.state_arrays([state])),
                        np.asarray(w0).reshape(1, -1))[0]
    return [Action(*row) for row in rows.tolist()]


# -- the degraded-policy suite -------------------------------------------------

@dataclass(frozen=True)
class PolicyVariant:
    name: str
    demo_count: int
    noise: float          # demo-collection perturbation level in [0, 1]
    train_steps: int


@dataclass(frozen=True)
class PolicySuiteSpec:
    task: TaskSpec
    variants: tuple

    def __post_init__(self):
        if len(self.variants) < SUITE_POLICIES:
            raise ValueError(f"a correlation study needs at least {SUITE_POLICIES} policies, "
                             f"got {len(self.variants)}")


def default_suite_spec() -> PolicySuiteSpec:
    variants = (
        PolicyVariant("untrained", 0, 0.0, 0),
        PolicyVariant("d1-hi", 1, 0.8, 900),
        PolicyVariant("d2-hi", 2, 0.6, 900),
        PolicyVariant("d3-mid", 3, 0.45, 1200),
        PolicyVariant("d5-mid", 5, 0.3, 1200),
        PolicyVariant("d8-low", 8, 0.15, 1500),
        PolicyVariant("d12-low", 12, 0.05, 1500),
        PolicyVariant("d20-clean", 20, 0.0, 1800),
    )
    return PolicySuiteSpec(task=TaskSpec("put_in", 1, 0), variants=variants)


@dataclass
class SuiteEntry:
    variant: PolicyVariant
    policy: DiffusionPolicy


# Pose jitter of the start states that task demos and policy evaluation draw.
INIT_JITTER = 0.03


def collect_task_demos(scene: SceneConfig, task: TaskSpec, episodes: int, noise: float,
                       rng: Rng, store: EpisodeStore) -> None:
    """Fixed-task expert demos; noise scales the perturbation knobs together."""
    for i in range(episodes):
        env = Env(scene, seed=rng.spawn_seed())
        env.reset(jittered_state(scene, rng, INIT_JITTER))
        perturb = Perturbation(sigma_w=0.06 * noise, sigma_g=0.05 * noise,
                               speed_mult=1.0 + 0.6 * noise * (rng.uniform() - 0.3))
        ep = execute(env, Instruction(task, perturb), rng)
        store.append(replace(ep, eid=f"demo-{len(store):06d}", source="demo", seed=i))


def build_suite(spec: PolicySuiteSpec, scene: SceneConfig, rng: Rng,
                store_root: str) -> list[SuiteEntry]:
    """Train every variant, in spec order; `bench.run_policy_eval` measures
    their success. A variant with demos keeps them in a store of its name
    under store_root."""
    entries: list[SuiteEntry] = []
    for variant in spec.variants:
        policy = create_policy(scene, PolicyConfig(), Rng(rng.spawn_seed()))
        if variant.demo_count > 0:
            demo_store = EpisodeStore(os.path.join(store_root, variant.name))
            collect_task_demos(scene, spec.task, variant.demo_count, variant.noise,
                               Rng(rng.spawn_seed()), demo_store)
            train_bc(policy, demo_store, variant.train_steps, Rng(rng.spawn_seed()))
        entries.append(SuiteEntry(variant=variant, policy=policy))
    return entries


# -- persistence ----------------------------------------------------------

def save_policy(policy: DiffusionPolicy, path: str) -> None:
    header = {
        "config": asdict(policy.cfg),
        "scene": scene_to_dict(policy.scene),
        "train_steps_done": policy.train_steps_done,
    }
    save_checkpoint(path, "policy", header, policy.denoiser.net.params)


def load_policy(path: str) -> DiffusionPolicy:
    header, params = load_checkpoint(path, "policy", ("config", "scene", "train_steps_done"))
    with header_builds(path):
        policy = create_policy(scene_from_dict(header["scene"]),
                               PolicyConfig(**header["config"]), None)
        policy.train_steps_done = count(header["train_steps_done"])
    nets.load_params(policy.denoiser.net, params, path)
    return policy
