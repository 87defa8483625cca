"""Scalar evaluation metrics: MSE, PSNR, SSIM, embedding-distance proxy,
Pearson correlation and total-variation distance.

MSE, SSIM and the proxy score each frame of two (n, h, w) stacks in one
call. SSIM's Gaussian window is separable, so its windowed maps are two
products with fixed band matrices of the 1-D taps, a row pass and a column
pass; they agree with the 49-term sums of the 2-D window to within 1e-15.

The perceptual proxy is the Euclidean distance between the frames'
projections by `curation.Embedder`'s frozen sign matrix, scaled by
1/sqrt(d); it replaces a learned perceptual metric and is declared as such
wherever reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curation import Embedder

METRIC_NAMES = ("mse", "psnr", "ssim", "lpips_proxy")


@dataclass
class MetricReport:
    """Per-clip rows plus per-mode and overall mean aggregates."""

    rows: list
    per_mode: dict
    overall: dict

    @staticmethod
    def from_rows(rows: list) -> "MetricReport":
        per_mode: dict[str, dict[str, float]] = {}
        by_mode: dict[str, list] = {}
        for r in rows:
            by_mode.setdefault(r["mode"], []).append(r)
        for mode, group in by_mode.items():
            per_mode[mode] = {k: float(np.mean([g[k] for g in group])) for k in METRIC_NAMES}
        overall = {k: float(np.mean([r[k] for r in rows])) for k in METRIC_NAMES} if rows else {}
        return MetricReport(rows=rows, per_mode=per_mode, overall=overall)


PSNR_CAP_DB = 100.0
SSIM_WINDOW = 7
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


class MetricError(ValueError):
    pass


def _stacks(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as (n, h, w) float64 stacks of one shape."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise MetricError(f"shape mismatch {x.shape} vs {y.shape}")
    if x.ndim != 3:
        raise MetricError(f"need (n, h, w) stacks, got shape {x.shape}")
    return x, y


def mse(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (n,) mean squared errors of each frame of two (n, h, w) stacks."""
    x, y = _stacks(x, y)
    d = (x - y).reshape(len(x), -1)
    return (d * d).mean(axis=1)


def psnr(m: float) -> float:
    """10*log10(1/m) dB for an MSE m at unit dynamic range, capped at 100 dB."""
    if m <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / m))


_AXIS = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
_TAPS = np.exp(-(_AXIS ** 2) / (2.0 * SSIM_SIGMA ** 2))
_TAPS /= _TAPS.sum()  # the normalised 1-D Gaussian window


def _band(n: int) -> np.ndarray:
    """The (n, n - SSIM_WINDOW + 1) matrix whose column j holds the taps in
    rows j to j + SSIM_WINDOW - 1: a line of n pixels times it is the line's
    valid-mode Gaussian filter."""
    m = n - SSIM_WINDOW + 1
    band = np.zeros((n, m))
    cols = np.arange(m)
    for k, tap in enumerate(_TAPS):
        band[cols + k, cols] = tap
    return band


def ssim(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (n,) mean SSIMs over valid 7x7 Gaussian windows (sigma 1.5, unit
    range) of each frame of two (n, h, w) stacks.

    The window is separable, so the five windowed maps (x, y, x*x, y*y and
    x*y) of every frame come from two products with band matrices of the
    1-D taps: Gv.T @ (stack @ Gh). They agree with the 49-term weighted sums
    of the 2-D window to within 1e-15 per frame. A frame's bits depend only
    on its shape, not on the other frames of its stack, and identical frames
    score exactly 1.0."""
    x, y = _stacks(x, y)
    n, h, w = x.shape
    if min(h, w) < SSIM_WINDOW:
        raise MetricError(f"frames must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    stack = np.concatenate([x, y, x * x, y * y, x * y])
    maps = _band(h).T @ (stack @ _band(w))
    mu_x, mu_y, sxx, syy, sxy = maps.reshape(5, n, *maps.shape[1:])
    xx = sxx - mu_x * mu_x
    yy = syy - mu_y * mu_y
    xy = sxy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * xy + SSIM_C2)
    den = (mu_x ** 2 + mu_y ** 2 + SSIM_C1) * (xx + yy + SSIM_C2)
    return (num / den).reshape(n, -1).mean(axis=1)


def lpips_proxy(embedder: Embedder, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (n,) frozen-embedding distances scaled by 1/sqrt(d), a perceptual
    stand-in, of each frame of two (n, h, w) stacks. Both stacks are
    embedded in products of the same shape, so identical frames score
    exactly 0."""
    x, y = _stacks(x, y)
    d = embedder.embed_frames(x) - embedder.embed_frames(y)
    return np.linalg.norm(d, axis=1) / math.sqrt(d.shape[1])


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.size < 2:
        raise MetricError("need two equal-length sequences of length >= 2")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    vx = float((xc * xc).sum())
    vy = float((yc * yc).sum())
    if vx <= 0.0 or vy <= 0.0:
        raise MetricError("undefined correlation: zero variance input")
    return float((xc * yc).sum() / math.sqrt(vx * vy))


def tv_distance(p, q) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise MetricError("distributions must share a support")
    for name, v in (("p", p), ("q", q)):
        if abs(v.sum() - 1.0) > 1e-9 or np.any(v < -1e-12):
            raise MetricError(f"{name} is not a probability vector")
    return float(0.5 * np.abs(p - q).sum())
