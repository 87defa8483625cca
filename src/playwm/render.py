"""Bit-exact rasterizer: 64x64 single-channel frames of an EnvState.

Pixels are sampled at their centers with strict point-in-shape tests and no
anti-aliasing, so identical states give byte-identical frames. Background
is 0.0; object intensity is (3 + id mod 6)/10; the gripper is a 2-pixel
radius disk at 1.0 (0.9 when the aperture is at most half closed).
"""

from __future__ import annotations

import math

import numpy as np

from .scene import EnvState, ObjectState

FRAME_SIZE = 64

_coords = (np.arange(FRAME_SIZE) + 0.5) / FRAME_SIZE
_PX, _PY = np.meshgrid(_coords, _coords)  # PX[row, col] = x, PY[row, col] = y


def object_intensity(oid: int) -> float:
    return (3 + oid % 6) / 10.0


def render(state: EnvState) -> np.ndarray:
    frame = np.zeros((FRAME_SIZE, FRAME_SIZE))
    for obj in sorted(state.objects, key=lambda o: (o.z_level, o.oid)):
        box = _box(obj.x, obj.y, _reach(obj))
        frame[box][_object_mask(obj, _PX[box], _PY[box])] = object_intensity(obj.oid)
    g = state.gripper
    radius = 2.0 / FRAME_SIZE
    box = _box(g.x, g.y, radius)
    gmask = (_PX[box] - g.x) ** 2 + (_PY[box] - g.y) ** 2 < radius ** 2
    frame[box][gmask] = 1.0 if g.aperture > 0.5 else 0.9
    return frame


def _reach(obj: ObjectState) -> float:
    """Distance from (x, y) that bounds every point of the object's shape."""
    if obj.kind in ("disk", "bowl"):
        return obj.size[0]
    return math.hypot(*obj.size)  # rect half-diagonal; towel link length and half-width


def _box(x: float, y: float, reach: float) -> tuple[slice, slice]:
    """Rows and columns of the pixels within `reach` of (x, y), plus a margin
    of over a pixel. Every pixel outside is beyond the shape, and a pixel's
    test inside is the same arithmetic as over the whole grid, so frames do
    not change."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return slice(0, 0), slice(0, 0)  # a non-finite pose covers no pixel center
    return tuple(slice(max(math.floor((c - reach) * FRAME_SIZE) - 1, 0),
                       max(math.ceil((c + reach) * FRAME_SIZE) + 1, 0)) for c in (y, x))


def _object_mask(obj: ObjectState, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """The object's pixels among the pixel centers (px, py)."""
    if obj.kind == "disk":
        return (px - obj.x) ** 2 + (py - obj.y) ** 2 < obj.size[0] ** 2
    if obj.kind == "rect":
        return _rect_mask(px, py, obj.x, obj.y, obj.theta, obj.size[0], obj.size[1])
    if obj.kind == "bowl":
        d2 = (px - obj.x) ** 2 + (py - obj.y) ** 2
        return (d2 < obj.size[0] ** 2) & (d2 >= obj.size[1] ** 2)
    if obj.kind == "towel2link":
        length, half_w = obj.size
        m = _link_mask(px, py, obj.x, obj.y, obj.theta, length, half_w)
        phi = obj.theta + math.pi - obj.fold_angle
        return m | _link_mask(px, py, obj.x, obj.y, phi, length, half_w)
    raise ValueError(f"unknown kind {obj.kind!r}")


def _rect_mask(px, py, cx, cy, theta, half_w, half_h) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    dx = px - cx
    dy = py - cy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (np.abs(u) < half_w) & (np.abs(v) < half_h)


def _link_mask(px, py, pivot_x, pivot_y, phi, length, half_w) -> np.ndarray:
    """A towel link: rectangle from the pivot outward along direction phi."""
    cx = pivot_x + 0.5 * length * math.cos(phi)
    cy = pivot_y + 0.5 * length * math.sin(phi)
    return _rect_mask(px, py, cx, cy, phi, 0.5 * length, half_w)
