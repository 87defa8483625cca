"""Autonomous play collection: grammar proposer, executor loop, and driver.

The proposer replaces a scene-describing language model with a seeded
grammar over verbs and applicable object pairs; instruction perturbations
(waypoint noise, grasp offset, speed) are the diversity source. An
out-of-bounds object always preempts the grammar with a retrieve-to-center
instruction. Play collection never resets the scene between episodes; demo
collection resets to a jittered nominal scene and runs the zero
perturbation expert.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace

from .dynamics import R_STACK, Action, Event, EventKind, out_of_bounds_ids
from .env import Env
from .rng import Rng
from .scene import EnvState, SceneConfig, jittered_state
from .skills import Instruction, Perturbation, SkillController
from .store import Episode, EpisodeStore, record
from .tasks import NEAR_RADIUS, FOLD_DONE, UNFOLD_DONE, TaskSpec, check_success

log = logging.getLogger("playwm.collect")

MAX_STEPS = 30  # an episode's step budget

GRAMMAR_VERBS = ("put_in", "take_out", "put_near", "stack", "unstack",
                 "fold", "unfold", "push_to")


class ProposalError(RuntimeError):
    pass


@dataclass(frozen=True)
class ProposerConfig:
    verb_weights: dict = field(default_factory=lambda: {v: 1.0 / len(GRAMMAR_VERBS) for v in GRAMMAR_VERBS})
    sigma_w_max: float = 0.05
    sigma_g_max: float = 0.05
    speed_range: tuple = (0.7, 1.6)
    towel_bias: int = 1           # extra weight on towel-subject put_near tasks

    def __post_init__(self):
        total = sum(self.verb_weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"grammar weights sum to {total}, expected 1")


DEMO_VERBS = ("put_in", "take_out", "stack", "unstack", "fold", "unfold")


def expert_config() -> ProposerConfig:
    weights = {v: (1.0 / len(DEMO_VERBS) if v in DEMO_VERBS else 0.0)
               for v in GRAMMAR_VERBS}
    return ProposerConfig(verb_weights=weights, sigma_w_max=0.0, sigma_g_max=0.0,
                          speed_range=(1.0, 1.0))


def bench_config() -> ProposerConfig:
    """Source mix for the replay benchmark: biased toward the rare modes."""
    weights = {"put_in": 0.12, "take_out": 0.08, "put_near": 0.28, "stack": 0.16,
               "unstack": 0.05, "fold": 0.02, "unfold": 0.02, "push_to": 0.27}
    return ProposerConfig(verb_weights=weights, sigma_w_max=0.09, sigma_g_max=0.08,
                          speed_range=(0.6, 1.9), towel_bias=4)


def applicable_tasks(state: EnvState, cfg: ProposerConfig) -> dict[str, list[tuple]]:
    """Enumerate per-verb candidate tasks whose predicates are currently
    false, each as its (subject, target) pair; `propose` builds the
    `TaskSpec` of the one it draws."""
    bowls = [o for o in state.objects if o.kind == "bowl"]
    rigids = [o for o in state.objects if o.kind in ("disk", "rect")]
    towels = [o for o in state.objects if o.kind == "towel2link"]
    out: dict[str, list[tuple]] = {v: [] for v in GRAMMAR_VERBS}

    for bowl in bowls:
        for obj in rigids:
            inside = math.hypot(obj.x - bowl.x, obj.y - bowl.y) < bowl.size[0]
            out["take_out" if inside else "put_in"].append((obj.oid, bowl.oid))

    near = out["put_near"]
    for subj in rigids + towels:
        copies = max(1, cfg.towel_bias) if subj.kind == "towel2link" else 1
        for other in state.objects:
            if other.oid == subj.oid:
                continue
            if math.hypot(subj.x - other.x, subj.y - other.y) >= NEAR_RADIUS:
                near.extend([(subj.oid, other.oid)] * copies)

    for subj in rigids:
        for base in rigids:
            if base.oid == subj.oid:
                continue
            if subj.z_level == base.z_level + 1 and math.hypot(subj.x - base.x, subj.y - base.y) <= R_STACK:
                out["unstack"].append((subj.oid, base.oid))
            elif subj.z_level == 0:
                out["stack"].append((subj.oid, base.oid))

    for towel in towels:
        if towel.fold_angle < FOLD_DONE:
            out["fold"].append((towel.oid, None))
        if towel.fold_angle > UNFOLD_DONE:
            out["unfold"].append((towel.oid, None))

    out["push_to"] = [(subj.oid, None) for subj in rigids]
    return out


def propose(state: EnvState, cfg: ProposerConfig, rng: Rng) -> Instruction:
    if not any(o.kind != "bowl" for o in state.objects):
        raise ProposalError("scene has no proposable object")

    perturb = Perturbation(
        sigma_w=rng.uniform() * cfg.sigma_w_max,
        sigma_g=rng.uniform() * cfg.sigma_g_max,
        speed_mult=cfg.speed_range[0] + rng.uniform() * (cfg.speed_range[1] - cfg.speed_range[0]),
        synonym=rng.randint(3),
    )

    stray = [oid for oid in out_of_bounds_ids(state)
             if state.object_by_id(oid).kind != "towel2link"]
    if stray:
        return Instruction(TaskSpec("reset_retrieve", stray[0]), perturb)

    candidates = applicable_tasks(state, cfg)
    verbs = [v for v in GRAMMAR_VERBS if candidates[v] and cfg.verb_weights.get(v, 0.0) > 0.0]
    if not verbs:
        raise ProposalError("no applicable instruction for this scene")
    weights = [cfg.verb_weights[v] for v in verbs]
    verb = verbs[rng.choice(weights)]
    subject, target = candidates[verb][rng.randint(len(candidates[verb]))]
    region = (0.2 + rng.uniform() * 0.6, 0.2 + rng.uniform() * 0.6) if verb == "push_to" else None
    return Instruction(TaskSpec(verb, subject, target, region), perturb)


def execute(env: Env, instr: Instruction, rng: Rng) -> Episode:
    """Run one instruction to success, terminal failure, or MAX_STEPS steps.
    Each skill action is sanitized once (clamped to `A_MAX` and the rest):
    the simulator executes that action and the episode records it, and the
    simulator's own `sanitized` call returns it as it is. The episode's id
    and source are empty and its seed 0; callers set them with
    `dataclasses.replace`."""
    skill = SkillController(instr, rng)
    states = [env.state.copy()]
    actions: list[Action] = []
    events: list[Event] = []
    noise: list[float] = []
    success = check_success(env.state, instr.task)
    while len(actions) < MAX_STEPS and not success:
        act = skill.action(env.state)
        if act is None:
            break
        act = act.sanitized()
        u = env.rng.uniform()
        state, event = env.step(act, u)
        states.append(state)
        actions.append(act)
        events.append(event)
        noise.append(u)
        success = check_success(state, instr.task)
    return record("", "", instr, bool(success), 0, states, actions, events, noise)


def collect(scene: SceneConfig, proposer: ProposerConfig, episodes: int, rng: Rng,
            store: EpisodeStore, source: str = "play", reset_each: bool = False) -> EpisodeStore:
    """Alternate propose/execute for a fixed number of episodes.

    Play mode leaves the scene wherever the last episode ended; demo mode
    (reset_each) restores a jittered nominal scene before every episode.
    """
    env = Env(scene, seed=rng.spawn_seed())
    if not reset_each:
        env.reset(jittered_state(scene, rng))
    for i in range(episodes):
        if reset_each:
            env.reset(jittered_state(scene, rng))
        ep_seed = rng.spawn_seed()
        ep_rng = Rng(ep_seed)
        instr = propose(env.state, proposer, ep_rng)
        episode = replace(execute(env, instr, ep_rng), eid=f"{source}-{i:06d}",
                          source=source, seed=ep_seed)
        store.append(episode)
        if log.isEnabledFor(logging.INFO):
            hist = {EventKind(k).name: c
                    for k, c in Counter(episode.event_rows[:, 0].tolist()).items()}
            log.info("episode %s %s outcome=%s events=%s", episode.eid, instr.text(),
                     episode.outcome, hist)
    return store
