"""Bit-exact rasterizer: 64x64 single-channel frames of tabletop states.

Pixels are sampled at their centers with strict point-in-shape tests and no
anti-aliasing, so identical states give byte-identical frames. Background
is 0.0; object intensity is (3 + id mod 6)/10; the gripper is a 2-pixel
radius disk at 1.0 (0.9 when the aperture is at most half closed). Objects
paint in ascending (z_level, oid) order and the gripper last.

`render_frames` draws T frames in one call from gripper and object arrays,
as `statecodec.state_arrays`, `Episode.state_arrays` and `project_states`
give them; `render` and `render_states` draw `EnvState`s through
`state_arrays`. Each object is tested on one fixed-size pixel patch per
frame that holds every pixel its shape can cover. It pays a fixed cost per
object and z-level, so callers render many frames per call.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import GRIPPER_RADIUS
from .scene import EnvState, roster
from .statecodec import state_arrays

FRAME_SIZE = 64

_CENTERS = (np.arange(FRAME_SIZE) + 0.5) / FRAME_SIZE  # pixel centers along rows and columns


def object_intensity(oid: int) -> float:
    return (3 + oid % 6) / 10.0


def render(state: EnvState) -> np.ndarray:
    return render_states([state])[0]


def render_states(states: list[EnvState]) -> np.ndarray:
    """The (T, 64, 64) frames of T states that share one object roster."""
    gripper, _, objects = state_arrays(states)
    return render_frames(gripper, objects, roster(states[0].objects))


def render_frames(gripper: np.ndarray, objects: np.ndarray, roster: tuple) -> np.ndarray:
    """The (T, 64, 64) frames of T states given as arrays: `gripper` (T, 4)
    is x, y, z, aperture; `objects` (T, n, 5) is x, y, theta, z_level,
    fold_angle per object; `roster` is the n objects' (oid, kind, size) in
    row order. Frame t is byte for byte the frame of state t."""
    gripper = np.asarray(gripper, dtype=np.float64)
    objects = np.asarray(objects, dtype=np.float64)
    T = len(gripper)
    frames = np.zeros((T, FRAME_SIZE, FRAME_SIZE))
    pixels = frames.reshape(-1)
    levels = objects[..., 3]
    by_oid = sorted(range(len(roster)), key=lambda i: roster[i][0])
    # One pass per z-level, each over the frames that have the object at that
    # level, gives every frame the (z_level, oid) painting order.
    for level in np.unique(levels):
        for i in by_oid:
            rows = np.flatnonzero(levels[:, i] == level)
            if rows.size:
                oid, kind, size = roster[i]
                _paint_object(pixels, rows, objects[rows, i], kind, size,
                              object_intensity(oid))
    near, px, py, flat = _patches(np.arange(T), gripper[:, 0], gripper[:, 1], GRIPPER_RADIUS)
    g = gripper[near][:, :, None, None]
    mask = (px - g[:, 0]) ** 2 + (py - g[:, 1]) ** 2 < GRIPPER_RADIUS ** 2
    shade = np.where(g[:, 3] > 0.5, 1.0, 0.9)
    pixels[flat[mask]] = np.broadcast_to(shade, mask.shape)[mask]
    return frames


def _paint_object(pixels: np.ndarray, rows: np.ndarray, pose: np.ndarray, kind: str,
                  size, value: float) -> None:
    """Paint one object at `value` into frames `rows` of the flat frame
    stack, given its pose in each, (len(rows), 5) x, y, theta, z_level,
    fold_angle."""
    if kind in ("disk", "bowl"):
        reach = size[0]
    elif kind in ("rect", "towel2link"):
        reach = math.hypot(*size)  # rect half-diagonal; towel link length and half-width
    else:
        raise ValueError(f"unknown kind {kind!r}")
    near, px, py, flat = _patches(rows, pose[:, 0], pose[:, 1], reach)
    p = pose[near][:, :, None, None]
    x, y, theta = p[:, 0], p[:, 1], p[:, 2]
    if kind == "disk":
        mask = (px - x) ** 2 + (py - y) ** 2 < size[0] ** 2
    elif kind == "rect":
        mask = _rect_mask(px, py, x, y, *_cos_sin(theta), size[0], size[1])
    elif kind == "bowl":
        d2 = (px - x) ** 2 + (py - y) ** 2
        mask = (d2 < size[0] ** 2) & (d2 >= size[1] ** 2)
    else:
        length, half_w = size
        mask = _link_mask(px, py, x, y, theta, length, half_w)
        mask |= _link_mask(px, py, x, y, theta + math.pi - p[:, 4], length, half_w)
    pixels[flat[mask]] = value


def _patches(rows: np.ndarray, x: np.ndarray, y: np.ndarray, reach: float):
    """One P x P pixel patch, P fixed by `reach`, per frame of `rows` whose
    (x, y) lies near the table: every pixel within `reach` of (x, y) is in
    it, with a margin of over a pixel, and tests on it are the arithmetic of
    tests over the whole grid, so frames do not change. A pose more than
    `reach` + 1 from the table's center in x or y, or not finite, covers no
    pixel center. Returns the near mask over `rows`, the patches' pixel x
    (k, 1, P) and y (k, P, 1), and their indices (k, P, P) into the flat
    frame stack."""
    side = min(FRAME_SIZE, math.ceil(2 * reach * FRAME_SIZE) + 5)
    near = (np.abs(x - 0.5) < reach + 1.0) & (np.abs(y - 0.5) < reach + 1.0)
    span = np.arange(side)

    def anchored(c):
        start = np.clip(np.floor((c[near] - reach) * FRAME_SIZE) - 1, 0, FRAME_SIZE - side)
        return start.astype(np.int64)[:, None] + span

    cols, lines = anchored(x), anchored(y)
    flat = (rows[near, None, None] * FRAME_SIZE + lines[:, :, None]) * FRAME_SIZE \
        + cols[:, None, :]
    return near, _CENTERS[cols][:, None, :], _CENTERS[lines][:, :, None], flat


def _cos_sin(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """math.cos and math.sin of each angle, as the per-state tests took them:
    numpy's vectorized cos and sin need not round the same on every CPU."""
    angles = phi.reshape(-1).tolist()
    return (np.array([math.cos(a) for a in angles]).reshape(phi.shape),
            np.array([math.sin(a) for a in angles]).reshape(phi.shape))


def _rect_mask(px, py, cx, cy, c, s, half_w, half_h) -> np.ndarray:
    """A rectangle centred at (cx, cy), turned to the angle of cosine c and sine s."""
    dx = px - cx
    dy = py - cy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (np.abs(u) < half_w) & (np.abs(v) < half_h)


def _link_mask(px, py, pivot_x, pivot_y, phi, length, half_w) -> np.ndarray:
    """A towel link: rectangle from the pivot outward along direction phi."""
    c, s = _cos_sin(phi)
    cx = pivot_x + 0.5 * length * c
    cy = pivot_y + 0.5 * length * s
    return _rect_mask(px, py, cx, cy, c, s, 0.5 * length, half_w)
