"""Denoising diffusion machinery: schedule, noising, loss, and samplers.

Every denoiser here estimates the clean signal x0 (not the noise), trains
on uniform clean-signal regression over all T steps, and samples over an
evenly strided subsequence of them: by clamped strided ancestral DDPM
(Nichol & Dhariwal, 2021) or by deterministic DDIM (Song et al., 2021),
which derives the noise from the x0 estimate.

Index convention: alpha_bars has length T+1 with alpha_bars[0] = 1 (the
clean level); the schedule stores nothing else, and a step from t down to
s < t has beta_{t,s} = 1 - alpha_bars[t] / alpha_bars[s]. Timesteps fed to
the denoiser are embedded as 16 sinusoidal features of t/T.

The denoiser's input is (noised target | conditioning | time embedding).
Training concatenates it: backward needs the whole input. Both samplers
condition once per call (DenoiserNet.conditioned): layer 0's conditioning
product plus bias, a (batch, hidden) array, and a table of the
time-embedding products of the timesteps the sampler visits are computed
before the first reverse step, so each step multiplies only the noised
target through layer 0 and adds the two cached terms. That sum differs from
the single product within rounding (about 1e-15). The table is one product
of at least two rows: a one-row product takes BLAS's matrix-vector path,
which rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import nets
from .rng import Rng

TIME_EMBED_DIM = 16


class SamplingError(RuntimeError):
    pass


@dataclass(frozen=True)
class NoiseSchedule:
    T: int
    alpha_bars: np.ndarray  # (T+1,), alpha_bars[0] == 1.0

    @staticmethod
    def linear(T: int, beta_start: float, beta_end: float) -> "NoiseSchedule":
        betas = np.linspace(beta_start, beta_end, T)
        if not np.all((betas > 0.0) & (betas < 1.0)):
            raise ValueError(f"a {T}-step linear schedule has betas outside (0, 1): "
                             f"[{betas.min()}, {betas.max()}]")
        return NoiseSchedule(T=T, alpha_bars=np.concatenate([[1.0], np.cumprod(1.0 - betas)]))

    @staticmethod
    def linear_scaled(T: int) -> "NoiseSchedule":
        """The default linear range subsampled at T steps.

        The (1e-4, 0.02) endpoints describe a 1000-step reference process;
        per-step betas scale by 1000/T so alpha_bar_T stays near zero at any
        T and the N(0, I) sampling prior matches the forward marginal. At
        T <= 20 the last beta reaches 1, so T must be at least 21.
        """
        scale = 1000.0 / T
        return NoiseSchedule.linear(T, 1e-4 * scale, 0.02 * scale)


def time_embedding(t, T: int) -> np.ndarray:
    """16 sinusoidal features of t/T; t may be an int or an int array."""
    t = np.asarray(t, dtype=np.float64)
    frac = t / float(T)
    freqs = 2.0 ** np.arange(TIME_EMBED_DIM // 2)
    angles = frac[..., None] * freqs * 2.0 * np.pi
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass
class DenoiserNet:
    """Clean-signal estimator over (noised target | conditioning | time embedding).

    The MLP output is the estimate of x0. A plain MLP cannot represent the
    t-dependent gain that direct noise regression needs; the samplers derive
    the noise from the estimate where they need it.
    """

    target_dim: int
    net: nets.Mlp

    @staticmethod
    def create(target_dim: int, cond_dim: int, rng: Rng | None, hidden: int,
               depth: int) -> "DenoiserNet":
        """A randomly initialised silu net, or with rng None an all-zero one
        for a loader to fill."""
        widths = [target_dim + cond_dim + TIME_EMBED_DIM] + [hidden] * depth + [target_dim]
        net = nets.Mlp(widths, "silu") if rng is None else nets.init_mlp(widths, rng, "silu")
        return DenoiserNet(target_dim, net)

    def conditioned(self, cond: np.ndarray, T: int, ts: np.ndarray
                    ) -> Callable[[np.ndarray, int], np.ndarray]:
        """The clean-signal estimator (x_t, t) -> x0 estimate for a fixed
        (batch, cond_dim) conditioning and t among the timesteps ts, within
        rounding of the net's forward pass over the concatenated input.

        Layer 0's conditioning product plus bias, and the time-embedding
        products of each t in ts, are computed here once; each call
        multiplies only x_t through layer 0. A conditioning of the wrong
        width raises ShapeError.
        """
        k = self.target_dim
        cond_dim = self.net.in_dim - k - TIME_EMBED_DIM
        if cond.ndim != 2 or cond.shape[1] != cond_dim:
            raise nets.ShapeError(f"conditioning shape {cond.shape} != (batch, {cond_dim}): "
                                  f"in_dim {self.net.in_dim} - target {k} - time {TIME_EMBED_DIM}")
        w0 = self.net.params["w0"]
        cond_term = cond @ w0[k:k + cond_dim]
        cond_term += self.net.params["b0"]
        temb = time_embedding(ts if ts.size > 1 else np.repeat(ts, 2), T)
        time_terms = temb @ w0[k + cond_dim:]
        row_of = {int(t): i for i, t in enumerate(ts)}

        def predict(x_t: np.ndarray, t: int) -> np.ndarray:
            return nets.forward(self.net, x_t, layer0=cond_term + time_terms[row_of[t]])
        return predict


def q_sample(schedule: NoiseSchedule, x0: np.ndarray, t: np.ndarray, eps: np.ndarray
             ) -> np.ndarray:
    """Forward noising sqrt(abar_t) x0 + sqrt(1 - abar_t) eps of a float
    (batch, dim) x0, with t an integer array of one timestep in 0..T per
    row and eps shaped like x0."""
    abar = schedule.alpha_bars[t][:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def diffusion_loss(denoiser: DenoiserNet, schedule: NoiseSchedule, x0: np.ndarray,
                   cond: np.ndarray, rng: Rng, grads: nets.FlatParams) -> float:
    """Clean-signal loss: mean squared error between x0 and its estimate.

    x0 (batch, target_dim) and cond (batch, cond_dim) are float arrays.
    Samples t uniformly in {1..T} and eps ~ N(0, I) per batch row. Its
    parameter gradient is written into grads, a FlatParams laid out like
    the denoiser's parameters.
    Every timestep weighs the same; the noise-space objective would barely
    weigh the high-noise steps that few-step samplers depend on.
    """
    batch = x0.shape[0]
    t = rng.randint_array(batch, schedule.T) + 1
    eps = rng.normal(x0.shape)
    x_t = q_sample(schedule, x0, t, eps)
    inp = np.concatenate([x_t, cond, time_embedding(t, schedule.T)], axis=-1)
    cache = []
    diff = nets.forward(denoiser.net, inp, cache) - x0
    inv_n = 1.0 / diff.size
    ad.backward(denoiser.net, cache, (2.0 * diff) * inv_n, grads)
    return float((diff * diff).sum() * inv_n)


def strided_timesteps(T: int, steps: int) -> np.ndarray:
    """The timesteps a sampler of `steps` steps visits, from T down: `steps`
    evenly strided integers of 1..T, T first and, from 2 steps on, 1 last.
    ValueError unless 1 <= steps <= T."""
    if not (1 <= steps <= T):
        raise ValueError(f"steps must be in 1..{T}, got {steps}")
    if steps == 1:
        return np.array([T])
    return np.round(np.linspace(1, T, steps)).astype(int)[::-1]


def ddpm_sample(denoiser: DenoiserNet, schedule: NoiseSchedule, cond: np.ndarray,
                rng: Rng, *, steps: int, clip_x0: float) -> np.ndarray:
    """Strided ancestral reverse sampler over `steps` of the schedule's T
    timesteps (those of `strided_timesteps`), conditioned on a float
    (batch, cond_dim) cond; returns (batch, target_dim).

    Each step from t to the next visited s (0 after the last) takes the
    posterior mean of x_s given x_t and the clean-signal estimate, clamped
    to [-clip_x0, clip_x0], with beta_{t,s} = 1 - abar_t / abar_s, and adds
    noise of variance beta_{t,s} while s > 0: one N(0, I) block per step
    after the initial one. The clamp keeps small models from running away
    outside the data range. At steps = T every s is t - 1 and this is the
    full T-step ancestral DDPM (sigma_t^2 = beta_t), up to rounding. Bad
    steps raise before any draw.
    """
    taus = strided_timesteps(schedule.T, steps)
    predict = denoiser.conditioned(cond, schedule.T, taus)
    x = rng.normal((cond.shape[0], denoiser.target_dim))
    for t, s in zip(taus, [*taus[1:], 0]):
        abar = schedule.alpha_bars[t]
        abar_prev = schedule.alpha_bars[s]
        alpha = abar / abar_prev
        beta = 1.0 - alpha
        x0_hat = np.clip(predict(x, t), -clip_x0, clip_x0)
        x = (np.sqrt(abar_prev) * beta * x0_hat
             + np.sqrt(alpha) * (1.0 - abar_prev) * x) / (1.0 - abar)
        if s > 0:
            x = x + np.sqrt(beta) * rng.normal(x.shape)
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"non-finite sample at reverse step t={t}")
    return x


def ddim_sample(denoiser: DenoiserNet, schedule: NoiseSchedule, cond: np.ndarray,
                steps: int, w0: np.ndarray) -> np.ndarray:
    """Deterministic (eta=0) DDIM over the timesteps of `strided_timesteps`.

    The output is a pure function of (net parameters, cond, w0, steps); w0 is
    the explicit initial latent, which is what makes the diffusion policy
    steerable through its noise input. w0 (batch, target_dim) and cond
    (batch, cond_dim) are float arrays, one row per sample each. The net
    estimates each step's x0, and the noise estimate is derived from it.
    """
    taus = strided_timesteps(schedule.T, steps)
    if w0.shape[-1] != denoiser.target_dim:
        raise ValueError(f"w0 width {w0.shape[-1]} != target width {denoiser.target_dim}")
    if w0.shape[0] != cond.shape[0]:
        raise ValueError(f"w0 shape {w0.shape} and cond shape {cond.shape} differ in rows")
    predict = denoiser.conditioned(cond, schedule.T, taus)
    x = w0
    for t, t_prev in zip(taus, [*taus[1:], 0]):
        abar_t = schedule.alpha_bars[t]
        abar_prev = schedule.alpha_bars[t_prev]
        x0_pred = predict(x, t)
        eps_hat = (x - np.sqrt(abar_t) * x0_pred) / np.sqrt(1.0 - abar_t)
        x = np.sqrt(abar_prev) * x0_pred + np.sqrt(1.0 - abar_prev) * eps_hat
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"non-finite sample at DDIM step t={t}")
    return x
