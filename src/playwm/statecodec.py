"""Fixed affine codec between EnvState/Action and the learned models' vectors.

Encoded components live in roughly [-1, 1]. The object roster (`scene.roster`)
is scene metadata and never encoded; decode_state() needs a template state
to restore it and projects the vector back onto the valid state manifold
(clamped positions, binary height, rounded stack levels); decoding an action
clips it to what the simulator executes. `state_arrays` flattens states into
arrays and `build_states` builds them back; `encode_states`, `project_states`,
`encode_action_rows` and `decode_action_rows` code many states or actions
given as arrays at once; they are the program's only codecs. The per-object
`encode_state`, `decode_state`, `encode_action` and `decode_action` are the
references that tests hold them to, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import A_MAX, Action  # action scale: encoded dx, dy = dx / A_MAX, dy / A_MAX
from .scene import EnvState, GripperState, ObjectState

MAX_Z_LEVEL = 2


def state_dim(n_objects: int) -> int:
    return 4 + n_objects + 5 * n_objects


def pose_delta_mask(n_objects: int) -> np.ndarray:
    """True for the encoded dims that a world model predicts as offsets:
    gripper x, y and each object's x, y, theta."""
    mask = np.zeros(state_dim(n_objects), dtype=bool)
    mask[:2] = True
    mask[4 + n_objects:].reshape(n_objects, 5)[:, :3] = True
    return mask


def encode_state(state: EnvState) -> np.ndarray:
    g = state.gripper
    parts = [g.x * 2 - 1, g.y * 2 - 1, float(g.z) * 2 - 1, g.aperture * 2 - 1]
    for obj in state.objects:
        parts.append(1.0 if g.held == obj.oid else -1.0)
    for obj in state.objects:
        parts.extend([
            obj.x * 2 - 1,
            obj.y * 2 - 1,
            _wrap_angle(obj.theta) / math.pi,
            float(obj.z_level) - 1.0,
            obj.fold_angle / math.pi * 2 - 1,
        ])
    return np.array(parts)


def state_arrays(states: list[EnvState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays of T states that share one object roster: gripper (T, 4)
    x, y, z, aperture; held (T, n) bool, whether the gripper holds each
    object; objects (T, n, 5) x, y, theta, z_level, fold_angle per object."""
    oids = np.array([o.oid for o in states[0].objects], dtype=np.float64)
    flat = []  # per state: gripper x, y, z, aperture, held id (-1 for none), each object's pose
    for s in states:
        g = s.gripper
        flat += (g.x, g.y, g.z, g.aperture, -1 if g.held is None else g.held)
        for o in s.objects:
            flat += (o.x, o.y, o.theta, o.z_level, o.fold_angle)
    rows = np.fromiter(flat, np.float64, len(flat)).reshape(len(states), 5 + 5 * len(oids))
    return rows[:, :4], rows[:, 4:5] == oids, rows[:, 5:].reshape(len(states), len(oids), 5)


def encode_states(gripper: np.ndarray, held: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """`encode_state` of T states given as arrays, at once: `gripper` (T, 4)
    is x, y, z, aperture; `held` (T, n) is whether the gripper holds each
    object; `objects` (T, n, 5) is x, y, theta, z_level, fold_angle per
    object. Equal bit for bit to stacking `encode_state` of each state."""
    objects = np.asarray(objects, dtype=np.float64)
    T, n = objects.shape[:2]
    body = np.stack([objects[..., 0] * 2 - 1,
                     objects[..., 1] * 2 - 1,
                     _wrap_angle(objects[..., 2]) / math.pi,
                     objects[..., 3] - 1.0,
                     objects[..., 4] / math.pi * 2 - 1], axis=-1)
    return np.concatenate([np.asarray(gripper, dtype=np.float64) * 2 - 1,
                           np.where(held, 1.0, -1.0),
                           body.reshape(T, 5 * n)], axis=1)


def decode_state(vec: np.ndarray, template: EnvState) -> EnvState:
    vec = np.asarray(vec, dtype=np.float64)
    n = len(template.objects)
    if vec.shape[-1] != state_dim(n):
        raise ValueError(f"vector width {vec.shape[-1]} != state dim {state_dim(n)}")
    s = template.copy()
    g = s.gripper
    g.x = _unit(vec[0])
    g.y = _unit(vec[1])
    g.z = 1 if vec[2] > 0.0 else 0
    g.aperture = _unit(vec[3])
    held_slots = vec[4:4 + n]
    g.held = None
    if held_slots.size and held_slots.max() > 0.0:
        g.held = s.objects[int(held_slots.argmax())].oid
    body = vec[4 + n:]
    for i, obj in enumerate(s.objects):
        ox, oy, oth, oz, of = body[5 * i:5 * i + 5]
        obj.x = _unit(ox)
        obj.y = _unit(oy)
        obj.theta = _wrap_angle(oth * math.pi)
        obj.z_level = int(np.clip(round(oz + 1.0), 0, MAX_Z_LEVEL))
        obj.fold_angle = float(np.clip((of + 1) / 2 * math.pi, 0.0, math.pi))
    if g.held is not None:
        # held rigid objects ride at the gripper position
        obj = s.object_by_id(g.held)
        if obj.kind != "towel2link":
            obj.x, obj.y = g.x, g.y
            obj.z_level = 0
    return s


def project_states(vecs: np.ndarray, roster: tuple) -> tuple[np.ndarray, ...]:
    """The `state_arrays` (gripper, held, objects) of (T, width) vectors
    of the roster's objects, projected onto valid states; z-levels round
    half to even like `round`. A non-finite z-level raises ValueError."""
    vecs = np.asarray(vecs, dtype=np.float64)
    n = len(roster)
    if vecs.ndim != 2 or vecs.shape[1] != state_dim(n):
        raise ValueError(f"state vectors must be (T, {state_dim(n)}), got {vecs.shape}")
    body = vecs[:, 4 + n:].reshape(len(vecs), n, 5)
    if not np.isfinite(body[..., 3]).all():
        raise ValueError("a state vector has a non-finite z-level")
    gripper = np.clip((vecs[:, :4] + 1.0) / 2.0, 0.0, 1.0)
    gripper[:, 2] = vecs[:, 2] > 0.0
    slots = vecs[:, 4:4 + n]
    slot = np.where(slots.max(axis=1, initial=0.0) > 0.0, slots.argmax(axis=1) if n else 0, -1)
    objects = np.empty_like(body)
    objects[..., :2] = np.clip((body[..., :2] + 1.0) / 2.0, 0.0, 1.0)
    objects[..., 2] = _wrap_angle(body[..., 2] * math.pi)
    objects[..., 3] = np.clip(np.rint(body[..., 3] + 1.0), 0, MAX_Z_LEVEL)
    objects[..., 4] = np.clip((body[..., 4] + 1) / 2 * math.pi, 0.0, math.pi)
    rows = np.flatnonzero(slot >= 0)  # held rigid objects ride at the gripper position
    rows = rows[[roster[k][1] != "towel2link" for k in slot[rows]]]
    objects[rows, slot[rows], :2] = gripper[rows, :2]
    objects[rows, slot[rows], 3] = 0.0
    return gripper, slot[:, None] == np.arange(n), objects


def build_states(gripper: np.ndarray, held: np.ndarray, objects: np.ndarray,
                 slip: np.ndarray, roster: tuple) -> list[EnvState]:
    """The T states of `state_arrays` arrays of the roster's objects, state t
    slip-fated where the (T,) bool array `slip` is."""
    return [EnvState(GripperState(x, y, int(z), ap,
                                  roster[h.index(True)][0] if True in h else None),
                     [ObjectState(oid, kind, ox, oy, th, size, int(lv), fold)
                      for (oid, kind, size), (ox, oy, th, lv, fold) in zip(roster, obj_rows)],
                     fated)
            for (x, y, z, ap), h, obj_rows, fated
            in zip(gripper.tolist(), held.tolist(), objects.tolist(), slip.tolist())]


def encode_action(a: Action) -> np.ndarray:
    return np.array([a.dx / A_MAX, a.dy / A_MAX, a.dz, a.dg])


def encode_action_rows(actions: np.ndarray) -> np.ndarray:
    """`encode_action` of every (dx, dy, dz, dg) row, along the last axis, at once."""
    out = np.array(actions, dtype=np.float64)
    out[..., :2] /= A_MAX
    return out


def decode_action_rows(vecs: np.ndarray) -> np.ndarray:
    """`decode_action` of every encoded row, along the last axis, at once:
    the executed (dx, dy, dz, dg) rows."""
    out = np.clip(np.asarray(vecs, dtype=np.float64), -1.0, 1.0)
    out[..., :2] *= A_MAX
    return out


def decode_action(vec: np.ndarray) -> Action:
    vec = np.asarray(vec, dtype=np.float64)
    return Action(
        dx=float(np.clip(vec[0], -1, 1)) * A_MAX,
        dy=float(np.clip(vec[1], -1, 1)) * A_MAX,
        dz=float(np.clip(vec[2], -1, 1)),
        dg=float(np.clip(vec[3], -1, 1)),
    )


def _unit(v: float) -> float:
    return float(np.clip((v + 1.0) / 2.0, 0.0, 1.0))


def _wrap_angle(theta):
    """Wrap to [-pi, pi); elementwise on arrays."""
    return (theta + math.pi) % (2 * math.pi) - math.pi
