"""Scene and state types for the 2D tabletop environment.

The workspace is the unit square. A point gripper moves in x/y with a
binary height (0 down, 1 up) and an aperture in [0, 1]. Objects are rigid
disks and rectangles, an annular bowl, and a two-link towel hinged at its
pivot whose fold angle in [0, pi] is the one articulated degree of freedom.
A scene is its objects alone: the physics are `dynamics`' module constants.
The state records (`ObjectState`, `GripperState`, `EnvState`) are slotted
dataclasses: the simulator copies and reads them every step, and assigning
a misspelled attribute raises AttributeError instead of adding a field.

Object sizes by kind:
    disk        (radius,)
    rect        (half_w, half_h)
    bowl        (outer_r, inner_r)
    towel2link  (link_len, half_width)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KINDS = ("disk", "rect", "bowl", "towel2link")
_new = object.__new__


@dataclass(slots=True)
class ObjectState:
    oid: int
    kind: str
    x: float
    y: float
    theta: float
    size: tuple
    z_level: int = 0
    fold_angle: float = 0.0

    def effective_radius(self) -> float:  # a towel's first size is its link length
        return math.hypot(self.size[0], self.size[1]) if self.kind == "rect" else self.size[0]

    def towel_free_end(self) -> tuple[float, float]:
        if self.kind != "towel2link":
            raise ValueError("free end only defined for towel2link")
        length = self.size[0]
        phi = self.theta + math.pi - self.fold_angle
        return (self.x + length * math.cos(phi), self.y + length * math.sin(phi))


@dataclass(slots=True)
class GripperState:
    x: float = 0.5
    y: float = 0.5
    z: int = 1
    aperture: float = 1.0
    held: int | None = None


@dataclass(slots=True)
class EnvState:
    gripper: GripperState
    objects: list[ObjectState]
    slip_fated: bool = False  # hidden fate of the current grasp

    def object_by_id(self, oid: int) -> ObjectState:
        for obj in self.objects:
            if obj.oid == oid:
                return obj
        raise KeyError(f"no object with id {oid}")

    def copy(self) -> "EnvState":
        """A copy that shares no record with this state (objects share their
        size tuples). The simulator copies the state every step, so the
        objects are filled slot by slot, without an `__init__` call each."""
        objects = []
        for o in self.objects:
            c = _new(ObjectState)
            c.oid = o.oid
            c.kind = o.kind
            c.x = o.x
            c.y = o.y
            c.theta = o.theta
            c.size = o.size
            c.z_level = o.z_level
            c.fold_angle = o.fold_angle
            objects.append(c)
        g = self.gripper
        return EnvState(GripperState(g.x, g.y, g.z, g.aperture, g.held), objects,
                        self.slip_fated)


@dataclass(frozen=True)
class SceneConfig:
    objects: tuple          # tuple of ObjectState templates (nominal poses)

    def nominal_state(self) -> EnvState:
        return EnvState(GripperState(), list(self.objects)).copy()


def roster(objects) -> tuple:
    """The object roster of `objects`: each one's (oid, kind, size), in order."""
    return tuple((o.oid, o.kind, o.size) for o in objects)


def default_scene() -> SceneConfig:
    objects = (
        ObjectState(0, "bowl", 0.28, 0.30, 0.0, (0.11, 0.085)),
        ObjectState(1, "disk", 0.60, 0.35, 0.0, (0.035,)),
        ObjectState(2, "rect", 0.45, 0.62, 0.0, (0.035, 0.027)),
        ObjectState(3, "rect", 0.68, 0.60, 0.0, (0.030, 0.030)),
        ObjectState(4, "towel2link", 0.72, 0.80, -2.3, (0.085, 0.028)),
    )
    return SceneConfig(objects=objects)


OBJECT_KEYS = {"id", "kind", "pose", "size", "z_level", "fold_angle"}  # of a scene_to_dict object


def scene_to_dict(cfg: SceneConfig) -> dict:
    return {
        "objects": [
            {
                "id": o.oid, "kind": o.kind, "pose": [o.x, o.y, o.theta],
                "size": list(o.size), "z_level": o.z_level, "fold_angle": o.fold_angle,
            }
            for o in cfg.objects
        ],
    }


def scene_from_dict(data: dict) -> SceneConfig:
    """The scene of a `scene_to_dict` record. Any key this does not read, or
    that the record lacks, at the top level or in an object, raises
    ValueError naming it (and the object's id), so a record from another
    layout fails instead of losing or defaulting the key silently."""
    _check_keys(data, {"objects"}, "scene")
    objs = []
    for od in data["objects"]:
        _check_keys(od, OBJECT_KEYS, f"scene object {od.get('id')!r}")
        kind = od["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown object kind {kind!r}")
        x, y, theta = od["pose"]
        objs.append(ObjectState(od["id"], kind, x, y, theta, tuple(od["size"]),
                                od["z_level"], od["fold_angle"]))
    return SceneConfig(objects=tuple(objs))


def _check_keys(record: dict, keys: set, what: str) -> None:
    for problem, names in (("unknown", set(record) - keys), ("missing", keys - set(record))):
        if names:
            raise ValueError(f"{problem} {what} keys {sorted(names)}")


def jittered_state(cfg: SceneConfig, rng, jitter: float = 0.02) -> EnvState:
    """Nominal scene with Gaussian pose jitter, pushed apart until separated."""
    state = cfg.nominal_state()
    for obj in state.objects:
        obj.x = _clip(obj.x + rng.gauss() * jitter, 0.12, 0.88)
        obj.y = _clip(obj.y + rng.gauss() * jitter, 0.12, 0.88)
    _separate(state)
    return state


def _separate(state: EnvState, iters: int = 12) -> None:
    rigids = [o for o in state.objects if o.kind in ("disk", "rect")]
    for _ in range(iters):
        moved = False
        for i, a in enumerate(rigids):
            for b in rigids[i + 1:]:
                ra, rb = a.effective_radius(), b.effective_radius()
                dx, dy = b.x - a.x, b.y - a.y
                d = math.hypot(dx, dy)
                if d < ra + rb:
                    if d < 1e-9:
                        dx, dy, d = 1.0, 0.0, 1.0
                    push = (ra + rb - d) / 2 + 1e-4
                    b.x = _clip(b.x + dx / d * push, 0.08, 0.92)
                    b.y = _clip(b.y + dy / d * push, 0.08, 0.92)
                    a.x = _clip(a.x - dx / d * push, 0.08, 0.92)
                    a.y = _clip(a.y - dy / d * push, 0.08, 0.92)
                    moved = True
        if not moved:
            return


def _clip(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v
