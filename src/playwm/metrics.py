"""Scalar evaluation metrics: MSE, PSNR, SSIM, embedding-distance proxy,
Pearson correlation, total-variation distance, and score normalization.

The perceptual proxy is the Euclidean distance between frozen-projection
embeddings scaled by 1/sqrt(d); it replaces a learned perceptual metric and
is declared as such wherever reported.
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


def mse(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise MetricError(f"shape mismatch {x.shape} vs {y.shape}")
    d = x - y
    return float((d * d).mean())


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """10*log10(1/MSE) for unit dynamic range, capped at 100 dB."""
    m = mse(x, y)
    if m <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / m))


def _gaussian_kernel(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    ax = np.arange(size) - half
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


_KERNEL = _gaussian_kernel()


def _windowed(stack: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode weighted local sums of each image of a (k, h, w) stack.

    In the flattened images the window shift (i, j) is the offset i*w + j,
    so each kernel term is one multiply-add over a contiguous slice; the
    size-1 columns that wrap into the next row are cropped. The terms run in
    the order of a loop over shifted 2D slices, so the sums equal its bit for
    bit."""
    size = kernel.shape[0]
    k, h, w = stack.shape
    oh, ow = h - size + 1, w - size + 1
    n = oh * w - (size - 1)
    flat = stack.reshape(k, h * w)
    acc = np.zeros((k, oh * w))
    tmp = np.empty((k, n))
    for i in range(size):
        for j in range(size):
            np.multiply(flat[:, i * w + j:i * w + j + n], kernel[i, j], out=tmp)
            acc[:, :n] += tmp
    return acc.reshape(k, oh, w)[:, :, :ow]


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean SSIM over valid 7x7 Gaussian windows (sigma 1.5, unit range)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise MetricError(f"shape mismatch {x.shape} vs {y.shape}")
    if min(x.shape) < SSIM_WINDOW:
        raise MetricError(f"frames must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    mu_x, mu_y, sxx, syy, sxy = _windowed(np.stack([x, y, x * x, y * y, x * y]), _KERNEL)
    xx = sxx - mu_x * mu_x
    yy = syy - mu_y * mu_y
    xy = sxy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * xy + SSIM_C2)
    den = (mu_x ** 2 + mu_y ** 2 + SSIM_C1) * (xx + yy + SSIM_C2)
    return float((num / den).mean())


def lpips_proxy(embedder: Embedder, x: np.ndarray, y: np.ndarray) -> float:
    """Frozen-embedding distance scaled by 1/sqrt(d); perceptual stand-in."""
    ex = embedder.embed_frame(x).ravel()
    ey = embedder.embed_frame(y).ravel()
    return float(np.linalg.norm(ex - ey) / math.sqrt(ex.size))


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
