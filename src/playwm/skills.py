"""Parameterized waypoint skills: the instruction executor.

One controller covers all verbs with a small phase machine. Perturbation
scales corrupt the planned waypoints and grasp points and rescale speeds;
at zero perturbation the controller is the scripted expert used for demo
collection, and it is deterministic given the plan rng. Success is left
to the one driver, `playsys.execute`, which checks it before every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import GRIPPER_RADIUS, Action
from .rng import Rng
from .scene import EnvState
from .tasks import TaskSpec

APPROACH_SPEED = 0.075
CARRY_SPEED = 0.038
PUSH_SPEED = 0.05
WAYPOINT_TOL = 0.012
MAX_ATTEMPTS = 3  # plans per instruction before the controller gives up

# the controller's fixed commands; actions are immutable, so each is built once
RAISE = Action(dz=1.0)
LOWER = Action(dz=-1.0)
OPEN = Action(dg=1.0)
CLOSE = Action(dg=-1.0)
RAISE_OPEN = Action(dz=1.0, dg=1.0)


@dataclass(frozen=True)
class Perturbation:
    sigma_w: float = 0.0    # waypoint corruption scale
    sigma_g: float = 0.0    # grasp point corruption scale
    speed_mult: float = 1.0
    synonym: int = 0        # phrasing variant index, recorded only


@dataclass(frozen=True)
class Instruction:
    task: TaskSpec
    perturb: Perturbation

    def text(self) -> str:
        t = self.task
        verb = _SYNONYMS.get(t.verb, (t.verb,))[self.perturb.synonym % len(_SYNONYMS.get(t.verb, (t.verb,)))]
        target = f" -> {t.target}" if t.target is not None else ""
        region = f" -> ({t.region[0]:.2f},{t.region[1]:.2f})" if t.region else ""
        return f"{verb} obj{t.subject}{target}{region}"


_SYNONYMS = {
    "put_in": ("put in", "place into", "drop into"),
    "take_out": ("take out", "remove from", "lift out of"),
    "put_near": ("put near", "move beside", "bring close to"),
    "stack": ("stack on", "put on top of"),
    "unstack": ("unstack from", "take off"),
    "fold": ("fold", "fold over"),
    "unfold": ("unfold", "flatten"),
    "push_to": ("push to", "slide to", "nudge toward"),
    "reset_retrieve": ("move toward the center",),
}


class SkillController:
    """Phase-machine controller; action() returns None when it gives up."""

    def __init__(self, instr: Instruction, plan_rng: Rng):
        self.instr = instr
        self.rng = plan_rng
        self.attempts = 0
        self.phase = "plan"
        self.grasp_point = (0.0, 0.0)
        self.place_point = (0.0, 0.0)
        self.push_goal = (0.0, 0.0)

    # -- planning ---------------------------------------------------------

    def _noise(self, scale: float) -> tuple[float, float]:
        if scale <= 0.0:
            return (0.0, 0.0)
        return (self.rng.gauss() * scale, self.rng.gauss() * scale)

    def _plan(self, state: EnvState) -> None:
        task = self.instr.task
        p = self.instr.perturb
        subj = state.object_by_id(task.subject)
        if subj.kind == "towel2link":
            gx, gy = subj.towel_free_end()
        else:
            gx, gy = subj.x, subj.y
        ng = self._noise(p.sigma_g)
        self.grasp_point = (_clip01(gx + ng[0]), _clip01(gy + ng[1]))

        verb = task.verb
        push_goal = None
        if verb == "push_to":
            push_goal = task.region
        elif verb == "reset_retrieve" and subj.kind not in ("disk", "rect"):
            push_goal = (0.5, 0.5)  # not graspable, shove it home instead

        if push_goal is not None:
            tx, ty = push_goal
            dx, dy = tx - subj.x, ty - subj.y
            d = math.hypot(dx, dy)
            ux, uy = (dx / d, dy / d) if d > 1e-9 else (1.0, 0.0)
            reach = GRIPPER_RADIUS + subj.effective_radius()
            nw = self._noise(p.sigma_w)
            self.grasp_point = (_clip01(subj.x - ux * (reach + 0.02) + nw[0]),
                                _clip01(subj.y - uy * (reach + 0.02) + nw[1]))
            self.push_goal = (_clip01(tx - ux * reach), _clip01(ty - uy * reach))
            self.phase = "goto_push_start"
        elif verb in ("put_in", "take_out", "put_near", "stack", "unstack", "reset_retrieve"):
            self.place_point = self._place_for(state, task)
            nw = self._noise(p.sigma_w)
            self.place_point = (_clip01(self.place_point[0] + nw[0]),
                                _clip01(self.place_point[1] + nw[1]))
            self.phase = "goto_grasp"
        elif verb in ("fold", "unfold"):
            self.phase = "goto_grasp"
        else:
            raise ValueError(verb)
        # waypoint corruption of the approach
        nw = self._noise(p.sigma_w)
        self.grasp_point = (_clip01(self.grasp_point[0] + nw[0]),
                            _clip01(self.grasp_point[1] + nw[1]))

    def _place_for(self, state: EnvState, task: TaskSpec) -> tuple[float, float]:
        subj = state.object_by_id(task.subject)
        verb = task.verb
        if verb == "put_in":
            bowl = state.object_by_id(task.target)
            return (bowl.x, bowl.y)
        if verb == "take_out":
            bowl = state.object_by_id(task.target)
            ux, uy = _direction(bowl.x, bowl.y, 0.5, 0.5)
            return (_clip01(bowl.x + ux * (bowl.size[0] + 0.16)),
                    _clip01(bowl.y + uy * (bowl.size[0] + 0.16)))
        if verb == "put_near":
            other = state.object_by_id(task.target)
            ux, uy = _direction(other.x, other.y, subj.x, subj.y)
            return (_clip01(other.x + ux * 0.10), _clip01(other.y + uy * 0.10))
        if verb == "stack":
            base = state.object_by_id(task.target)
            return (base.x, base.y)
        if verb == "unstack":
            base = state.object_by_id(task.target)
            ux, uy = _direction(base.x, base.y, 0.5, 0.5)
            off = base.effective_radius() + subj.effective_radius() + 0.06
            return (_clip01(base.x + ux * off), _clip01(base.y + uy * off))
        if verb == "reset_retrieve":
            return (0.5, 0.5)
        raise ValueError(verb)

    # -- control ----------------------------------------------------------

    def action(self, state: EnvState) -> Action | None:
        if self.phase == "plan":
            if self.attempts >= MAX_ATTEMPTS:
                return None
            self.attempts += 1
            self._plan(state)

        phase = self.phase
        task = self.instr.task
        g = state.gripper

        if phase == "goto_grasp":
            if g.z == 0:
                return RAISE
            if g.aperture <= 0.5:
                return OPEN
            step = _step_toward(g.x, g.y, self.grasp_point,
                                APPROACH_SPEED * self.instr.perturb.speed_mult)
            if step is not None:
                return step
            self.phase = "descend"
            return LOWER

        if phase == "descend":
            self.phase = "close"
            return CLOSE

        if phase == "close":
            # the close command was just executed; check what it caught
            if g.held == task.subject:
                self.phase = "arc" if task.verb in ("fold", "unfold") else "lift"
            else:
                self.phase = "plan"  # retry with a fresh plan
                return RAISE_OPEN
            return self.action(state)

        if phase == "lift":
            self.phase = "carry"
            return RAISE

        if phase == "carry":
            if g.held != task.subject:
                self.phase = "plan"  # slipped; try again
                return self.action(state)
            step = _step_toward(g.x, g.y, self.place_point,
                                CARRY_SPEED * self.instr.perturb.speed_mult)
            if step is not None:
                return step
            self.phase = "plan"
            return OPEN

        if phase == "arc":
            subj = state.object_by_id(task.subject)
            sign = 1.0 if task.verb == "fold" else -1.0
            phi = subj.theta + math.pi - subj.fold_angle
            tx, ty = sign * math.sin(phi), -sign * math.cos(phi)
            nw = self._noise(self.instr.perturb.sigma_w * 0.3)
            return Action(dx=tx * PUSH_SPEED + nw[0], dy=ty * PUSH_SPEED + nw[1])

        if phase == "goto_push_start":
            if g.z == 0:
                return RAISE
            step = _step_toward(g.x, g.y, self.grasp_point,
                                APPROACH_SPEED * self.instr.perturb.speed_mult)
            if step is not None:
                return step
            if g.aperture > 0.5:
                return CLOSE  # close the fingers to push with the body
            self.phase = "push"
            return LOWER

        if phase == "push":
            step = _step_toward(g.x, g.y, self.push_goal, PUSH_SPEED * self.instr.perturb.speed_mult)
            if step is not None:
                return step
            self.phase = "plan"
            return RAISE

        return None


def _step_toward(x, y, waypoint, speed) -> Action | None:
    """Planar step toward a waypoint, or None when within tolerance."""
    dx, dy = waypoint[0] - x, waypoint[1] - y
    d = math.hypot(dx, dy)
    if d <= WAYPOINT_TOL:
        return None
    s = min(d, speed)
    return Action(dx=dx / d * s, dy=dy / d * s)


def _direction(fx, fy, tx, ty) -> tuple[float, float]:
    dx, dy = tx - fx, ty - fy
    d = math.hypot(dx, dy)
    if d < 1e-9:
        return (1.0, 0.0)
    return (dx / d, dy / d)


def _clip01(v: float) -> float:
    return min(max(v, 0.02), 0.98)
