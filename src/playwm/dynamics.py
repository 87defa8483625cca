"""Quasi-static contact dynamics and the per-step interaction events.

step() is a pure function of (state, action, noise u); the physics are the
module constants below, since the simulator stands in for one fixed world.
The single uniform draw u decides the slip fate of a grasp made this step
and is ignored otherwise. Rules apply in a fixed order each control step:

  1. move the gripper by clamped deltas (held rigid object follows;
     a held towel end integrates tangential motion into its fold angle)
  2. closing while down attempts a grasp within R_GRASP
  3. a held rigid object slips if planar speed exceeds V_SLIP, or exceeds
     V_FATE on a grasp whose fate draw came up slippery
  4. moving while down and open pushes intersected objects ahead of the
     gripper until surfaces touch
  5. object-object overlaps are resolved by translating the untouched one
     along the contact normal
  6. opening while holding releases: near the top of a stack base the
     object stacks (offset <= R_TOPPLE) or topples off
  7. fold integration happened in rule 1 for a held towel end
  8. objects outside the tape margin raise the out-of-bounds flag

At most one primary event is reported per step, picked by precedence: the
first event of the highest kind. A step with none returns the one shared
`Event.none()`.

`Action.sanitized` is idempotent: an action that is already executable
(each field a Python float within its bounds, dz one of -1.0, +0.0 and
1.0) is returned itself, so a caller that sanitizes before `step` makes
step's own call a few comparisons, and both see the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .scene import EnvState, ObjectState, _clip

A_MAX = 0.08          # per-step |dx|,|dy| clamp
R_GRASP = 0.05        # grasp capture radius
V_SLIP = 0.05         # deterministic slip above this held planar speed
V_FATE = 0.04         # a fated grasp slips above this speed
P_SLIP = 0.05         # per-grasp slip probability
R_STACK = 0.04        # release within this of a base stacks or topples
R_TOPPLE = 0.025      # stacking offset beyond this topples
GRIP_DG = 0.3         # |dg| deadband before a close/open takes effect
MARGIN = 0.05         # tape margin; outside is out-of-bounds
GRIPPER_RADIUS = 2.0 / 64.0  # pushing reach of the gripper body; drawn at this radius


class EventKind(IntEnum):
    NONE = 0
    OUT_OF_BOUNDS = 1
    FOLD_CHANGE = 2
    CONTACT_SLIDE = 3
    STACK_TOPPLE = 4
    OBJECT_COLLISION = 5
    GRASP_SUCCESS = 6
    GRASP_MISS = 7
    SLIP_DROP = 8

    # IntEnum value doubles as the precedence rank (higher wins)


# `step`'s names for the kinds: loading a member from the Enum class costs
# about ten times as much as loading a module global
(_NONE, _OUT_OF_BOUNDS, _FOLD_CHANGE, _CONTACT_SLIDE, _STACK_TOPPLE, _OBJECT_COLLISION,
 _GRASP_SUCCESS, _GRASP_MISS, _SLIP_DROP) = EventKind


@dataclass(frozen=True, slots=True)
class Event:
    kind: EventKind
    oids: tuple = ()

    @staticmethod
    def none() -> "Event":
        return _NO_EVENT


_NO_EVENT = Event(EventKind.NONE)


@dataclass(frozen=True, slots=True)
class Action:
    dx: float = 0.0
    dy: float = 0.0
    dz: float = 0.0   # rounded to {-1, 0, +1}
    dg: float = 0.0   # aperture delta in [-1, 1]

    def sanitized(self) -> "Action":
        """The action that `step` executes: dx and dy clamped to A_MAX, dz
        clamped to [-1, 1] and rounded to -1.0, +0.0 or 1.0, dg clamped to
        [-1, 1]; a NaN dz raises ValueError. Idempotent, and an action that
        is already executable (Python floats in bounds, dz one of -1.0,
        +0.0 and 1.0) is returned itself; any other, with a -0.0 dz, a NaN
        or a numpy or int field, is built anew."""
        dx, dy, dz, dg = self.dx, self.dy, self.dz, self.dg
        if type(dx) is float and type(dy) is float and type(dz) is float \
                and type(dg) is float and -A_MAX <= dx <= A_MAX and -A_MAX <= dy <= A_MAX \
                and -1.0 <= dg <= 1.0 and (dz == 1.0 or dz == -1.0 or
                                           (dz == 0.0 and math.copysign(1.0, dz) == 1.0)):
            return self
        return Action(
            dx=_clip(dx, -A_MAX, A_MAX),
            dy=_clip(dy, -A_MAX, A_MAX),
            dz=float(round(_clip(dz, -1.0, 1.0))),
            dg=_clip(dg, -1.0, 1.0),
        )


GRASPABLE_KINDS = ("disk", "rect")
PUSHABLE_KINDS = ("disk", "rect", "bowl")
COLLIDER_KINDS = ("disk", "rect")


def step(state: EnvState, action: Action, u: float) -> tuple[EnvState, Event]:
    """Advance one control step. u is this step's uniform noise draw in (0,1]."""
    a = action.sanitized()
    s = state.copy()
    g = s.gripper
    # the primary event so far: the first one of the highest kind
    kind, oids = _NONE, ()
    held_at_start = g.held

    # (1) gripper motion and held-object follow
    old_x, old_y = g.x, g.y
    g.x = _clip(g.x + a.dx, 0.0, 1.0)
    g.y = _clip(g.y + a.dy, 0.0, 1.0)
    g.z = int(_clip(g.z + a.dz, 0.0, 1.0))
    g.aperture = _clip(g.aperture + a.dg, 0.0, 1.0)
    move_x, move_y = g.x - old_x, g.y - old_y
    speed = math.hypot(move_x, move_y)
    moved_ids: set[int] = set()

    held_obj = None if held_at_start is None else s.object_by_id(held_at_start)
    if held_obj is not None:
        if held_obj.kind == "towel2link":
            delta = _integrate_fold(held_obj, move_x, move_y)
            if abs(delta) > 1e-9:
                kind, oids = _FOLD_CHANGE, (held_obj.oid,)
        else:
            _translate_with_stack(s, held_obj, g.x - held_obj.x, g.y - held_obj.y)
            moved_ids.add(held_obj.oid)

    # (2) grasp attempt: decisive close while down with empty gripper
    if a.dg < -GRIP_DG and g.z == 0 and held_at_start is None:
        obj = _nearest_graspable(s, g.x, g.y)
        if obj is not None:
            if obj.kind == "towel2link":
                g.held = obj.oid
                s.slip_fated = False
            else:
                _detach_from_stack(s, obj)
                obj.x, obj.y = g.x, g.y
                obj.z_level = 0
                g.held = obj.oid
                s.slip_fated = u < P_SLIP
                moved_ids.add(obj.oid)
            kind, oids = _GRASP_SUCCESS, (obj.oid,)
        else:
            kind, oids = _GRASP_MISS, ()

    # (3) slip of a held rigid object
    dropped: int | None = None
    if held_obj is not None and g.held == held_at_start:
        if held_obj.kind != "towel2link" and speed > 0.0:
            slips = speed > V_SLIP or (s.slip_fated and speed > V_FATE)
            if slips:
                g.held = None
                s.slip_fated = False
                dropped = held_obj.oid
                kind, oids = _SLIP_DROP, (dropped,)

    # (4) pushing: down, free gripper, path intersects an object. Open
    # fingers straddle graspable objects instead of shoving them, so an
    # open gripper only pushes the bowl; a closed one pushes everything.
    if g.z == 0 and g.held is None and speed > 1e-12:
        ux, uy = move_x / speed, move_y / speed
        for obj in s.objects:
            if obj.kind not in PUSHABLE_KINDS or obj.z_level != 0 or obj.oid == dropped:
                continue
            if g.aperture > 0.5 and obj.kind in GRASPABLE_KINDS:
                continue
            reach = GRIPPER_RADIUS + obj.effective_radius()
            if _segment_point_distance(old_x, old_y, g.x, g.y, obj.x, obj.y) < reach:
                push = _push_out_distance(g.x, g.y, obj.x, obj.y, ux, uy, reach)
                if push > 1e-12:
                    _translate_with_stack(s, obj, ux * push, uy * push)
                    obj.x = _clip(obj.x, 0.0, 1.0)
                    obj.y = _clip(obj.y, 0.0, 1.0)
                    moved_ids.add(obj.oid)
                    if kind < _CONTACT_SLIDE:
                        kind, oids = _CONTACT_SLIDE, (obj.oid,)

    # (5) overlap resolution between rigid colliders on the same level; an
    # object carried aloft takes no part
    carried = g.held if g.z == 1 else None
    colliders = [(o, o.effective_radius()) for o in s.objects
                 if o.kind in COLLIDER_KINDS and o.oid != carried]
    for i, (a_obj, ra) in enumerate(colliders):
        for b_obj, rb in colliders[i + 1:]:
            if a_obj.z_level != b_obj.z_level:
                continue
            dx, dy = b_obj.x - a_obj.x, b_obj.y - a_obj.y
            dist = math.hypot(dx, dy)
            if dist >= ra + rb - 1e-12:
                continue
            if dist < 1e-9:
                dx, dy, dist = 1.0, 0.0, 1.0
            # translate the untouched participant along the contact normal
            if a_obj.oid in moved_ids or a_obj.oid == g.held:
                mover, sign = b_obj, 1.0
            elif b_obj.oid in moved_ids or b_obj.oid == g.held:
                mover, sign = a_obj, -1.0
            else:
                mover, sign = b_obj, 1.0
            shift = (ra + rb) - dist
            _translate_with_stack(s, mover, sign * dx / dist * shift, sign * dy / dist * shift)
            mover.x = _clip(mover.x, 0.0, 1.0)
            mover.y = _clip(mover.y, 0.0, 1.0)
            moved_ids.add(mover.oid)
            if kind < _OBJECT_COLLISION:
                kind, oids = _OBJECT_COLLISION, (a_obj.oid, b_obj.oid)

    # (6) release: a decisive open
    if a.dg > GRIP_DG and g.held is not None:
        obj = s.object_by_id(g.held)
        g.held = None
        s.slip_fated = False
        if obj.kind != "towel2link":
            base = _stack_base_below(s, obj)
            if base is not None:
                off = math.hypot(obj.x - base.x, obj.y - base.y)
                if off <= R_TOPPLE:
                    obj.z_level = base.z_level + 1
                else:
                    dx, dy = obj.x - base.x, obj.y - base.y
                    if off < 1e-9:
                        dx, dy, off = 1.0, 0.0, 1.0
                    reach = base.effective_radius() + obj.effective_radius()
                    obj.x = _clip(base.x + dx / off * reach, 0.0, 1.0)
                    obj.y = _clip(base.y + dy / off * reach, 0.0, 1.0)
                    obj.z_level = 0
                    if kind < _STACK_TOPPLE:
                        kind, oids = _STACK_TOPPLE, (obj.oid, base.oid)
            else:
                obj.z_level = 0

    # (8) out-of-bounds flags, which every other event outranks
    if kind == _NONE:
        oids = tuple(out_of_bounds_ids(s))
        if oids:
            kind = _OUT_OF_BOUNDS
    return s, Event.none() if kind == _NONE else Event(kind, oids)


def out_of_bounds_ids(state: EnvState) -> list[int]:
    lo, hi = MARGIN, 1.0 - MARGIN
    return [o.oid for o in state.objects
            if not (lo <= o.x <= hi and lo <= o.y <= hi)]


def _integrate_fold(obj: ObjectState, move_x: float, move_y: float) -> float:
    """Project gripper motion onto the free-end tangent; returns applied delta."""
    length = obj.size[0]
    phi = obj.theta + math.pi - obj.fold_angle
    tx, ty = math.sin(phi), -math.cos(phi)  # direction of increasing fold angle
    delta = (move_x * tx + move_y * ty) / length
    new = _clip(obj.fold_angle + delta, 0.0, math.pi)
    applied = new - obj.fold_angle
    obj.fold_angle = new
    return applied


def _nearest_graspable(state: EnvState, gx: float, gy: float):
    best, best_d = None, R_GRASP
    for obj in state.objects:
        if obj.kind in GRASPABLE_KINDS:
            d = math.hypot(obj.x - gx, obj.y - gy)
        elif obj.kind == "towel2link":
            ex, ey = obj.towel_free_end()
            d = math.hypot(ex - gx, ey - gy)
        else:
            continue
        if d <= best_d:
            best, best_d = obj, d
    return best


def _translate_with_stack(state: EnvState, obj: ObjectState, dx: float, dy: float) -> None:
    old_x, old_y = obj.x, obj.y
    obj.x += dx
    obj.y += dy
    # carry everything stacked above
    for upper in state.objects:
        if upper.oid == obj.oid or upper.z_level != obj.z_level + 1:
            continue
        if math.hypot(upper.x - old_x, upper.y - old_y) <= 0.05:
            _translate_with_stack(state, upper, dx, dy)


def _detach_from_stack(state: EnvState, obj: ObjectState) -> None:
    """Objects stacked above a removed object settle one level down."""
    level = obj.z_level
    for upper in sorted(state.objects, key=lambda o: o.z_level):
        if upper.oid != obj.oid and upper.z_level > level \
                and math.hypot(upper.x - obj.x, upper.y - obj.y) <= 0.06:
            upper.z_level -= 1


def _stack_base_below(state: EnvState, obj: ObjectState):
    candidates = [o for o in state.objects
                  if o.oid != obj.oid and o.kind in COLLIDER_KINDS
                  and math.hypot(o.x - obj.x, o.y - obj.y) <= R_STACK]
    if not candidates:
        return None
    top = max(candidates, key=lambda o: o.z_level)
    # only the top of a stack is a valid base
    return top


def _segment_point_distance(x0, y0, x1, y1, px, py) -> float:
    vx, vy = x1 - x0, y1 - y0
    L2 = vx * vx + vy * vy
    if L2 < 1e-18:
        return math.hypot(px - x0, py - y0)
    t = _clip(((px - x0) * vx + (py - y0) * vy) / L2, 0.0, 1.0)
    return math.hypot(px - (x0 + t * vx), py - (y0 + t * vy))


def _push_out_distance(gx, gy, ox, oy, ux, uy, reach) -> float:
    """Minimal slide s >= 0 along (ux, uy) so |(o + s u) - g| >= reach."""
    rx, ry = ox - gx, oy - gy
    d = math.hypot(rx, ry)
    if d >= reach:
        return 0.0
    b = rx * ux + ry * uy
    disc = b * b - (d * d - reach * reach)
    s = -b + math.sqrt(max(disc, 0.0))
    return max(s, 0.0)
