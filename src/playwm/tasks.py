"""Task specs, success predicates, and the six-mode clip classifier."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import GRIP_DG, R_STACK, EventKind
from .scene import EnvState

VERBS = ("put_in", "take_out", "put_near", "stack", "unstack",
         "fold", "unfold", "push_to", "reset_retrieve")

FOLD_DONE = 3 * math.pi / 4
UNFOLD_DONE = math.pi / 8
NEAR_RADIUS = 0.12
REGION_RADIUS = 0.07
RETRIEVE_BOX = 0.15


class BehaviorMode(Enum):
    SUCCESS = "Success"
    MISSED_GRASP = "Missed Grasp"
    SLIDE = "Slide"
    SLIP = "Slip"
    DEFORMATION = "Deformation"
    COLLISION = "Collision"


MODES = tuple(BehaviorMode)

# failure label for each event kind; FOLD_CHANGE only counts outside fold tasks
FAILURE_LABEL = {
    EventKind.SLIP_DROP: BehaviorMode.SLIP,
    EventKind.GRASP_MISS: BehaviorMode.MISSED_GRASP,
    EventKind.OBJECT_COLLISION: BehaviorMode.COLLISION,
    EventKind.STACK_TOPPLE: BehaviorMode.COLLISION,
    EventKind.CONTACT_SLIDE: BehaviorMode.SLIDE,
    EventKind.FOLD_CHANGE: BehaviorMode.DEFORMATION,
}


@dataclass(frozen=True)
class TaskSpec:
    verb: str
    subject: int
    target: int | None = None            # object id, or None
    region: tuple[float, float] | None = None  # point target for push_to / retrieve

    def __post_init__(self):
        if self.verb not in VERBS:
            raise ValueError(f"unknown verb {self.verb!r}")


class DanglingObjectError(KeyError):
    pass


def check_success(state: EnvState, task: TaskSpec) -> bool:
    try:
        subj = state.object_by_id(task.subject)
    except KeyError as exc:
        raise DanglingObjectError(str(exc)) from exc
    held = state.gripper.held == task.subject
    verb = task.verb
    if verb == "put_in":
        bowl = _require(state, task.target)
        return (not held and subj.z_level == 0
                and _dist(subj, bowl) < bowl.size[0])
    if verb == "take_out":
        bowl = _require(state, task.target)
        return not held and _dist(subj, bowl) > bowl.size[0]
    if verb == "put_near":
        other = _require(state, task.target)
        return not held and _dist(subj, other) < NEAR_RADIUS
    if verb == "stack":
        base = _require(state, task.target)
        return (not held and subj.z_level == base.z_level + 1
                and _dist(subj, base) <= R_STACK)
    if verb == "unstack":
        base = _require(state, task.target)
        return (not held and subj.z_level == 0
                and _dist(subj, base) > base.effective_radius())
    if verb == "fold":
        return subj.fold_angle >= FOLD_DONE
    if verb == "unfold":
        return subj.fold_angle <= UNFOLD_DONE
    if verb == "push_to":
        px, py = task.region
        return not held and math.hypot(subj.x - px, subj.y - py) < REGION_RADIUS
    if verb == "reset_retrieve":
        lo, hi = RETRIEVE_BOX, 1.0 - RETRIEVE_BOX
        return not held and lo <= subj.x <= hi and lo <= subj.y <= hi
    raise ValueError(verb)


def _require(state: EnvState, oid):
    if oid is None:
        raise DanglingObjectError("task target missing")
    try:
        return state.object_by_id(oid)
    except KeyError as exc:
        raise DanglingObjectError(str(exc)) from exc


def _dist(a, b) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _failures(kinds: list[EventKind], task: TaskSpec) -> list[EventKind]:
    """The kinds that count as failures in task: FOLD_CHANGE only outside fold tasks."""
    exempt = EventKind.FOLD_CHANGE if task.verb in ("fold", "unfold") else None
    return [k for k in kinds if k in FAILURE_LABEL and k != exempt]


def classify_clip(kinds: list[EventKind], task: TaskSpec, success: bool) -> BehaviorMode:
    """Label a clip with exactly one behavior mode from the event kind of
    each of its steps (an `EventKind` or its int value) and whether the
    clip ends in success.

    A clip that ends in success with no failure event after its last
    successful grasp labels Success; otherwise the highest-precedence
    failure event in the clip decides. Clips with no failure events at all
    are nominal motion and also label Success, whatever their outcome.
    """
    failures = _failures(kinds, task)
    if not failures:
        return BehaviorMode.SUCCESS
    if success:
        grasps = [i for i, k in enumerate(kinds) if k == EventKind.GRASP_SUCCESS]
        if grasps and not _failures(kinds[grasps[-1] + 1:], task):
            return BehaviorMode.SUCCESS
    return FAILURE_LABEL[max(failures)]


def infer_transition_event(prev: EnvState, action, nxt: EnvState) -> EventKind:
    """Rule-based event kind of a (state, action, state) transition.

    Used on imagined rollouts, where the dynamics never ran and only the
    predicted states exist. Mirrors the simulator's event definitions
    approximately; covers the kinds that matter for mode statistics.
    """
    held_before = prev.gripper.held
    held_after = nxt.gripper.held
    if held_before is None and held_after is not None:
        return EventKind.GRASP_SUCCESS
    if action.dg < -GRIP_DG and nxt.gripper.z == 0 and held_before is None and held_after is None:
        return EventKind.GRASP_MISS
    if held_before is not None and held_after is None and action.dg <= GRIP_DG:
        return EventKind.SLIP_DROP
    moved = 0
    for obj in nxt.objects:
        if obj.oid == held_before or obj.oid == held_after:
            continue
        pobj = prev.object_by_id(obj.oid)
        if math.hypot(obj.x - pobj.x, obj.y - pobj.y) > 0.015:
            moved += 1
        if obj.kind == "towel2link" and abs(obj.fold_angle - pobj.fold_angle) > 0.05:
            return EventKind.FOLD_CHANGE
    if moved >= 2:
        return EventKind.OBJECT_COLLISION
    if moved == 1:
        return EventKind.CONTACT_SLIDE
    if held_before is not None:
        pobj = prev.object_by_id(held_before)
        if pobj.kind == "towel2link":
            nobj = nxt.object_by_id(held_before)
            if abs(nobj.fold_angle - pobj.fold_angle) > 0.05:
                return EventKind.FOLD_CHANGE
    return EventKind.NONE
