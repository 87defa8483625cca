"""Task specs, success predicates, and the six-mode clip classifier."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import Event, EventKind
from .scene import EnvState, Physics

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


def check_success(state: EnvState, task: TaskSpec, phys: Physics) -> bool:
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
                and _dist(subj, base) <= phys.r_stack)
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


def is_failure_event(event: Event, task: TaskSpec) -> bool:
    kind = event.kind
    if kind not in FAILURE_LABEL:
        return False
    if kind == EventKind.FOLD_CHANGE and task.verb in ("fold", "unfold"):
        return False
    return True


def classify_clip(events: list[Event], task: TaskSpec, final: EnvState,
                  phys: Physics) -> BehaviorMode:
    """Label a clip with exactly one behavior mode.

    Success requires the task predicate under phys at the clip end and no
    failure events after the last successful grasp; otherwise the
    highest-precedence failure event in the clip decides. Clips with no
    failure events at all are nominal motion and also label Success. phys
    must be the physics the clip ran under: a stack's success radius is
    `phys.r_stack`.
    """
    if not events:
        return BehaviorMode.SUCCESS
    last_grasp = -1
    for i, e in enumerate(events):
        if e.kind == EventKind.GRASP_SUCCESS:
            last_grasp = i
    failures = [e for e in events if is_failure_event(e, task)]
    if check_success(final, task, phys):
        tail = [e for e in events[last_grasp + 1:] if is_failure_event(e, task)]
        if not tail:
            return BehaviorMode.SUCCESS
    if not failures:
        return BehaviorMode.SUCCESS
    top = max(failures, key=lambda e: e.kind)
    return FAILURE_LABEL[top.kind]


def infer_transition_event(prev: EnvState, action, nxt: EnvState) -> Event:
    """Rule-based event annotation from a (state, action, state) transition.

    Used on imagined rollouts, where the dynamics never ran and only the
    predicted states exist. Mirrors the simulator's event definitions
    approximately; covers the kinds that matter for mode statistics.
    """
    held_before = prev.gripper.held
    held_after = nxt.gripper.held
    if held_before is None and held_after is not None:
        return Event(EventKind.GRASP_SUCCESS, (held_after,))
    if action.dg < -0.3 and nxt.gripper.z == 0 and held_before is None and held_after is None:
        return Event(EventKind.GRASP_MISS, ())
    if held_before is not None and held_after is None and action.dg <= 0.3:
        return Event(EventKind.SLIP_DROP, (held_before,))
    moved = []
    for obj in nxt.objects:
        if obj.oid == held_before or obj.oid == held_after:
            continue
        pobj = prev.object_by_id(obj.oid)
        if math.hypot(obj.x - pobj.x, obj.y - pobj.y) > 0.015:
            moved.append(obj.oid)
        if obj.kind == "towel2link" and abs(obj.fold_angle - pobj.fold_angle) > 0.05 \
                and held_before != obj.oid and held_after != obj.oid:
            return Event(EventKind.FOLD_CHANGE, (obj.oid,))
    if len(moved) >= 2:
        return Event(EventKind.OBJECT_COLLISION, tuple(moved[:2]))
    if len(moved) == 1:
        return Event(EventKind.CONTACT_SLIDE, (moved[0],))
    if held_before is not None:
        pobj = prev.object_by_id(held_before)
        if pobj.kind == "towel2link":
            nobj = nxt.object_by_id(held_before)
            if abs(nobj.fold_angle - pobj.fold_angle) > 0.05:
                return Event(EventKind.FOLD_CHANGE, (held_before,))
    return Event.none()
