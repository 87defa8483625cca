import numpy as np
import pytest

from playwm import diffusion as df
from playwm import nets
from playwm.optim import Adam, clip_grad_norm
from playwm.rng import Rng
from test_numerics import assert_grads_close, finite_diff


def zero_denoiser(target_dim=2, cond_dim=3):
    net = df.DenoiserNet.create(target_dim, cond_dim, Rng(0), hidden=8, depth=1)
    for p in net.net.params.values():
        p[:] = 0.0
    return net


def derived_betas(schedule):
    """beta_1..beta_T, derived from the schedule's alpha_bars."""
    return 1.0 - schedule.alpha_bars[1:] / schedule.alpha_bars[:-1]


def scaled_betas(T):
    """beta_1..beta_T of NoiseSchedule.linear_scaled(T), from its definition."""
    scale = 1000.0 / T
    return np.linspace(1e-4 * scale, 0.02 * scale, T)


class TestSchedule:
    def test_linear_schedule_invariants(self):
        s = df.NoiseSchedule.linear(50, 1e-4, 0.02)
        betas = derived_betas(s)
        assert s.alpha_bars[0] == 1.0
        assert np.all(np.diff(betas) > 0)
        assert np.all((betas > 0) & (betas < 1))
        assert np.all(np.diff(s.alpha_bars) < 0)
        np.testing.assert_allclose(betas, np.linspace(1e-4, 0.02, 50), rtol=1e-12)

    def test_scaled_schedule_rejects_betas_of_one_or_more(self):
        # at T = 20 the last scaled beta is 0.02 * 1000 / 20 = 1.0
        with pytest.raises(ValueError, match="20-step"):
            df.NoiseSchedule.linear_scaled(20)

    @pytest.mark.parametrize("T", [21, 25, 50, 100])
    def test_scaled_schedule_builds(self, T):
        s = df.NoiseSchedule.linear_scaled(T)
        betas = derived_betas(s)
        assert np.all((betas > 0) & (betas < 1))
        assert 0.0 < s.alpha_bars[T] < 1e-3
        np.testing.assert_allclose(betas, scaled_betas(T), rtol=1e-12)


class TestQSample:
    def test_t_zero_is_identity(self):
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        x0 = np.array([[0.3, -0.7]])
        eps = np.ones_like(x0)
        assert np.array_equal(df.q_sample(s, x0, 0, eps), x0)

    def test_alpha_bar_quarter(self):
        # craft a schedule point with abar = 0.25
        s = df.NoiseSchedule(T=1, alpha_bars=np.array([1.0, 0.25]))
        out = df.q_sample(s, np.array([1.0]), 1, np.array([0.0]))
        assert out[0] == pytest.approx(0.5)

    def test_full_noise_limit(self):
        s = df.NoiseSchedule(T=1, alpha_bars=np.array([1.0, 1e-12]))
        eps = np.array([2.0])
        out = df.q_sample(s, np.array([5.0]), 1, eps)
        assert out[0] == pytest.approx(2.0, abs=1e-5)

    def test_out_of_range_t(self):
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        with pytest.raises(ValueError):
            df.q_sample(s, np.zeros(2), 11, np.zeros(2))

    def test_marginal_statistics(self):
        s = df.NoiseSchedule.linear(50, 1e-4, 0.02)
        rng = Rng(4)
        x0 = np.full((20_000, 1), 0.8)
        eps = rng.normal(x0.shape)
        t = 30
        xt = df.q_sample(s, x0, t, eps)
        abar = s.alpha_bars[t]
        n = x0.shape[0]
        # 3-sigma statistical bounds
        assert abs(xt.mean() - np.sqrt(abar) * 0.8) < 3 * np.sqrt((1 - abar) / n)
        assert abs(xt.var() - (1 - abar)) < 3 * (1 - abar) * np.sqrt(2.0 / n)


class TestLoss:
    def test_perfect_net_zero_loss(self):
        # a net whose clean-signal output is exactly x0 hits loss 0
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        net = zero_denoiser(target_dim=2, cond_dim=3)
        rng = Rng(1)
        x0 = np.zeros((4, 2))  # zero net output == the true clean signal here
        loss = df.diffusion_loss(net, s, x0, np.zeros((4, 3)), rng, net.net.params.zeros_like())
        assert loss == 0.0

    def test_zero_net_loss_is_mean_square_of_x0(self):
        # whatever t and eps are drawn, a zero estimate misses x0 by x0
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        net = zero_denoiser(target_dim=4, cond_dim=2)
        x0 = Rng(2).normal((64, 4))
        loss = df.diffusion_loss(net, s, x0, np.zeros((64, 2)), Rng(3),
                                 net.net.params.zeros_like())
        assert loss == pytest.approx(float((x0 * x0).mean()), rel=1e-14)

    def test_loss_nonnegative_and_differentiable(self):
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        net = df.DenoiserNet.create(3, 2, Rng(5), hidden=8, depth=1)
        grads = net.net.params.zeros_like()
        loss = df.diffusion_loss(net, s, np.ones((8, 3)), np.zeros((8, 2)), Rng(3), grads)
        assert loss >= 0.0
        assert np.any(grads.flat != 0)

    def test_gradient_matches_finite_differences(self):
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        net = df.DenoiserNet.create(3, 2, Rng(6), hidden=8, depth=2)
        rng = Rng(7)
        x0, cond = rng.normal((5, 3)), rng.normal((5, 2))

        def loss(grads=None):
            # a fresh generator per call: every evaluation draws the same t and eps
            grads = net.net.params.zeros_like() if grads is None else grads
            return df.diffusion_loss(net, s, x0, cond, Rng(8), grads)

        grads = net.net.params.zeros_like()
        assert loss(grads) == pytest.approx(loss(), rel=1e-12)
        for name, p in net.net.params.items():
            assert_grads_close(grads[name], finite_diff(p, loss), name)


class TestDdpm:
    def test_zero_stub_closed_form(self):
        # the last step weighs x by 1 - alpha_bars[0] = 0 and adds no noise,
        # so a zero clean-signal estimate gives exactly 0
        s = df.NoiseSchedule.linear(20, 1e-4, 0.02)
        net = zero_denoiser(target_dim=2, cond_dim=1)
        for steps in (1, 5, 20):
            out = df.ddpm_sample(net, s, np.zeros((3, 1)), Rng(4), steps=steps, clip_x0=1.0)
            assert out.shape == (3, 2)
            assert np.all(out == 0.0)

    def test_clip_x0_is_keyword_only(self):
        # so are the steps, which have no default
        s = df.NoiseSchedule.linear(20, 1e-4, 0.02)
        net = zero_denoiser(target_dim=2, cond_dim=1)
        with pytest.raises(TypeError):
            df.ddpm_sample(net, s, np.zeros((1, 1)), Rng(4), 20, 1.0)
        with pytest.raises(TypeError):
            df.ddpm_sample(net, s, np.zeros((1, 1)), Rng(4), clip_x0=1.0)

    def test_seeded_reproducibility(self):
        s = df.NoiseSchedule.linear(20, 1e-4, 0.02)
        net = df.DenoiserNet.create(2, 1, Rng(7), hidden=8, depth=1)
        a = df.ddpm_sample(net, s, np.zeros((3, 1)), Rng(99), steps=5, clip_x0=1.0)
        b = df.ddpm_sample(net, s, np.zeros((3, 1)), Rng(99), steps=5, clip_x0=1.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("steps", [1, 2, 10, 20])
    def test_draws_one_noise_block_per_step(self, steps):
        # the initial block, then one per step but the last
        s = df.NoiseSchedule.linear(20, 1e-4, 0.02)
        net = df.DenoiserNet.create(2, 1, Rng(7), hidden=8, depth=1)
        a, b = Rng(99), Rng(99)
        df.ddpm_sample(net, s, np.zeros((3, 1)), a, steps=steps, clip_x0=1.0)
        for _ in range(steps):
            b.normal((3, 2))
        assert same_stream(a, b)

    @pytest.mark.parametrize("steps", [0, -1, 21])
    def test_bad_steps_raise_before_any_draw(self, sampler_calls, steps):
        s = df.NoiseSchedule.linear(20, 1e-4, 0.02)
        net = df.DenoiserNet.create(2, 1, Rng(7), hidden=8, depth=1)
        rng = Rng(9)
        with pytest.raises(ValueError, match=f"steps must be in 1..20, got {steps}"):
            df.ddpm_sample(net, s, np.zeros((3, 1)), rng, steps=steps, clip_x0=1.0)
        assert same_stream(rng, Rng(9))
        assert sampler_calls == {"embed": [], "forward": []}

    def test_point_mass_recovery(self):
        # train on a 1-dim point mass and check samples concentrate there
        target = 0.7
        s = df.NoiseSchedule.linear(50, 1e-4, 0.02)
        rng = Rng(13)
        net = df.DenoiserNet.create(1, 1, rng, hidden=32, depth=2)
        opt = Adam(lr=3e-3)
        x0 = np.full((128, 1), target)
        cond = np.zeros((128, 1))
        grads = net.net.params.zeros_like()
        for _ in range(800):
            df.diffusion_loss(net, s, x0, cond, rng, grads)
            clip_grad_norm(grads, 1.0)
            opt.step(net.net.params, grads)
        samples = df.ddpm_sample(net, s, np.zeros((256, 1)), Rng(5), steps=10, clip_x0=1.2)
        assert abs(samples.mean() - target) < 0.05


def concatenated_forward(denoiser, x, cond, t, T):
    """The denoiser's output on its whole input (noised target | conditioning
    | time embedding), the way training runs it."""
    temb = np.broadcast_to(df.time_embedding(t, T), (x.shape[0], df.TIME_EMBED_DIM))
    return nets.forward(denoiser.net, np.concatenate([x, cond, temb], axis=-1))


def strided(T, steps):
    """The timesteps that a sampler of `steps` steps visits, from T down:
    T alone at one step, else `steps` rounded points of linspace(1, T)."""
    if steps == 1:
        return np.array([T])
    return np.unique(np.round(np.linspace(1, T, steps)).astype(int))[::-1]


def test_one_step_visits_only_T():
    """A one-step sampler asks the net for x0 at the most-noised level, T,
    where its N(0, I) start lies, not at t = 1."""
    for T in (1, 2, 50, 1000):
        assert df.strided_timesteps(T, 1).tolist() == [T]


def test_strided_timesteps_from_two_steps_on_are_the_unique_rounded_grid():
    """For every 2 <= steps <= T <= 1000, the visited timesteps are those of
    np.unique over the rounded linspace(1, T, steps), reversed: the rounded
    grid strictly increases, so np.unique never drops or moves a value.
    Column j of linspace(1, Ts, steps) is linspace(1, Ts[j], steps) to the
    bit. Rounding linspace(T, 1, steps) instead would move 22 012 of these
    pairs, such as (26, 23), by the ties that round to even."""
    for steps in range(2, 1001):
        Ts = np.arange(steps, 1001)
        grid = np.round(np.linspace(1, Ts, steps))
        assert (grid[1:] > grid[:-1]).all(), f"a repeated timestep at {steps} steps"
        for T in (steps, 1000):
            assert np.array_equal(df.strided_timesteps(T, steps), strided(T, steps)), (T, steps)
    assert np.array_equal(df.strided_timesteps(26, 23), strided(26, 23))


def ddpm_reference(denoiser, schedule, betas, cond, rng, clip_x0):
    """The T-step ancestral loop with the whole concatenated input through
    nets.forward at every step and beta_t read from `betas`, as ddpm_sample
    ran before it cached the conditioning and strided its steps."""
    cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
    x = rng.normal((cond.shape[0], denoiser.target_dim))
    for t in range(schedule.T, 0, -1):
        beta = betas[t - 1]
        alpha = 1.0 - beta
        abar = schedule.alpha_bars[t]
        abar_prev = schedule.alpha_bars[t - 1]
        out = concatenated_forward(denoiser, x, cond, t, schedule.T)
        x0_hat = np.clip(out, -clip_x0, clip_x0)
        x = (np.sqrt(abar_prev) * beta * x0_hat
             + np.sqrt(alpha) * (1.0 - abar_prev) * x) / (1.0 - abar)
        if t > 1:
            x = x + np.sqrt(beta) * rng.normal(x.shape)
    return x


def ddpm_strided_reference(denoiser, schedule, cond, rng, steps, clip_x0):
    """The strided ancestral loop with the whole concatenated input through
    nets.forward at every step: the clamped posterior mean from t to the
    next visited s with beta_{t,s} = 1 - abar_t / abar_s, and noise of that
    variance while s > 0."""
    cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
    x = rng.normal((cond.shape[0], denoiser.target_dim))
    taus = list(strided(schedule.T, steps)) + [0]
    for t, s in zip(taus, taus[1:]):
        abar, abar_s = schedule.alpha_bars[t], schedule.alpha_bars[s]
        beta = 1.0 - abar / abar_s
        out = concatenated_forward(denoiser, x, cond, int(t), schedule.T)
        x0_hat = np.clip(out, -clip_x0, clip_x0)
        x = (np.sqrt(abar_s) * beta * x0_hat
             + np.sqrt(1.0 - beta) * (1.0 - abar_s) * x) / (1.0 - abar)
        if s > 0:
            x = x + np.sqrt(beta) * rng.normal(x.shape)
    return x


def ddim_reference(denoiser, schedule, cond, steps, w0):
    """The DDIM loop with the whole concatenated input through nets.forward
    at every step, as ddim_sample ran before it cached the conditioning."""
    x = np.array(w0, dtype=np.float64)
    taus = strided(schedule.T, steps)
    for i, t in enumerate(taus):
        t_prev = taus[i + 1] if i + 1 < len(taus) else 0
        abar_t = schedule.alpha_bars[t]
        abar_prev = schedule.alpha_bars[t_prev]
        x0_pred = concatenated_forward(denoiser, x, cond, int(t), schedule.T)
        eps_hat = (x - np.sqrt(abar_t) * x0_pred) / np.sqrt(1.0 - abar_t)
        x = np.sqrt(abar_prev) * x0_pred + np.sqrt(1.0 - abar_prev) * eps_hat
    return x


def same_stream(a: Rng, b: Rng) -> bool:
    """Whether two generators give the same next draws (normal first, so a
    cached Box-Muller branch is compared too)."""
    return np.array_equal(a.normal(3), b.normal(3)) and a.next_u64() == b.next_u64()


@pytest.fixture
def sampler_calls(monkeypatch):
    """Records each time_embedding call's T, and the input width of each
    forward pass and whether layer 0's conditioning term came with it."""
    calls = {"embed": [], "forward": []}
    embed, forward = df.time_embedding, nets.forward

    def counted_embed(t, T):
        calls["embed"].append(T)
        return embed(t, T)

    def counted_forward(net, x, cache=None, **kwargs):
        calls["forward"].append((np.shape(x)[1], kwargs.get("layer0") is not None))
        return forward(net, x, cache, **kwargs)

    monkeypatch.setattr(df, "time_embedding", counted_embed)
    monkeypatch.setattr(nets, "forward", counted_forward)
    return calls


class TestConditioned:
    T = 50

    @pytest.mark.parametrize("activation", ["silu", "relu"])
    @pytest.mark.parametrize("batch", [1, 7, 16, 64])
    def test_matches_the_concatenated_forward(self, activation, batch):
        den = df.DenoiserNet(6, nets.init_mlp([33, 32, 32, 32, 6], Rng(1), activation))
        rng = Rng(2)
        x, cond = rng.normal((batch, 6)), rng.normal((batch, 11))
        ts = (1, self.T // 2, self.T)
        predict = den.conditioned(cond, self.T, np.array(ts))
        for t in ts:
            want = concatenated_forward(den, x, cond, t, self.T)
            np.testing.assert_allclose(predict(x, t), want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 7, 50])
    def test_ddpm_matches_the_concatenated_loop(self, batch):
        """At steps = T, the T-step ancestral DDPM on the same draws."""
        s = df.NoiseSchedule.linear_scaled(self.T)
        den = df.DenoiserNet.create(6, 11, Rng(3), hidden=32, depth=3)
        cond = Rng(4).normal((batch, 11))
        a, b = Rng(5), Rng(5)
        got = df.ddpm_sample(den, s, cond, a, steps=self.T, clip_x0=2.0)
        want = ddpm_reference(den, s, scaled_betas(self.T), cond, b, 2.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert same_stream(a, b)

    @pytest.mark.parametrize("steps", [1, 2, 10, T])
    @pytest.mark.parametrize("batch", [1, 7, 50])
    def test_ddpm_matches_the_strided_concatenated_loop(self, steps, batch):
        s = df.NoiseSchedule.linear_scaled(self.T)
        den = df.DenoiserNet.create(6, 11, Rng(3), hidden=32, depth=3)
        cond = Rng(4).normal((batch, 11))
        a, b = Rng(5), Rng(5)
        got = df.ddpm_sample(den, s, cond, a, steps=steps, clip_x0=2.0)
        want = ddpm_strided_reference(den, s, cond, b, steps, 2.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert same_stream(a, b)

    @pytest.mark.parametrize("steps", [1, 2, 5, 100])
    @pytest.mark.parametrize("hidden, batch", [(32, 7), (256, 1), (256, 64)])
    def test_ddim_is_bit_equal_to_the_full_table(self, monkeypatch, steps, hidden, batch):
        """The table of the visited timesteps' rows, two rows at least,
        rounds like the table of every t in 0..T."""
        s = df.NoiseSchedule.linear_scaled(100)
        den = df.DenoiserNet.create(64, 40, Rng(3), hidden=hidden, depth=3)
        rng = Rng(4)
        cond, w0 = rng.normal((batch, 40)), rng.normal((batch, 64))
        got = df.ddim_sample(den, s, cond, steps, w0)
        conditioned = df.DenoiserNet.conditioned
        monkeypatch.setattr(df.DenoiserNet, "conditioned",
                            lambda self, c, T, ts: conditioned(self, c, T, np.arange(T + 1)))
        assert got.tobytes() == df.ddim_sample(den, s, cond, steps, w0).tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 10, T])
    @pytest.mark.parametrize("hidden, batch", [(32, 7), (256, 1), (256, 64)])
    def test_ddpm_is_bit_equal_to_the_full_table(self, monkeypatch, steps, hidden, batch):
        s = df.NoiseSchedule.linear_scaled(self.T)
        den = df.DenoiserNet.create(64, 40, Rng(3), hidden=hidden, depth=3)
        cond = Rng(4).normal((batch, 40))
        got = df.ddpm_sample(den, s, cond, Rng(5), steps=steps, clip_x0=2.0)
        conditioned = df.DenoiserNet.conditioned
        monkeypatch.setattr(df.DenoiserNet, "conditioned",
                            lambda self, c, T, ts: conditioned(self, c, T, np.arange(T + 1)))
        again = df.ddpm_sample(den, s, cond, Rng(5), steps=steps, clip_x0=2.0)
        assert got.tobytes() == again.tobytes()

    @pytest.mark.parametrize("batch", [1, 7, 50])
    def test_ddim_matches_the_concatenated_loop(self, batch):
        s = df.NoiseSchedule.linear_scaled(100)
        den = df.DenoiserNet.create(6, 11, Rng(3), hidden=32, depth=3)
        rng = Rng(4)
        cond, w0 = rng.normal((batch, 11)), rng.normal((batch, 6))
        got = df.ddim_sample(den, s, cond, 5, w0)
        want = ddim_reference(den, s, cond, 5, w0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_ddpm_conditions_once_per_call(self, sampler_calls):
        s = df.NoiseSchedule.linear(20, 1e-4, 0.02)
        den = df.DenoiserNet.create(2, 3, Rng(6), hidden=8, depth=2)
        df.ddpm_sample(den, s, np.zeros((4, 3)), Rng(7), steps=5, clip_x0=1.0)
        assert sampler_calls == {"embed": [20], "forward": [(2, True)] * 5}

    def test_ddim_conditions_once_per_call(self, sampler_calls):
        s = df.NoiseSchedule.linear(30, 1e-4, 0.02)
        den = df.DenoiserNet.create(2, 3, Rng(6), hidden=8, depth=2)
        df.ddim_sample(den, s, np.zeros((4, 3)), 5, Rng(7).normal((4, 2)))
        assert sampler_calls == {"embed": [30], "forward": [(2, True)] * 5}

    @pytest.mark.parametrize("cond_dim", [2, 4])
    def test_bad_conditioning_width_raises_before_any_draw(self, cond_dim):
        s = df.NoiseSchedule.linear(20, 1e-4, 0.02)
        den = df.DenoiserNet.create(2, 3, Rng(8), hidden=8, depth=1)
        rng = Rng(9)
        with pytest.raises(nets.ShapeError, match=f"conditioning shape \\(5, {cond_dim}\\) "
                                                  "!= \\(batch, 3\\)"):
            df.ddpm_sample(den, s, np.zeros((5, cond_dim)), rng, steps=5, clip_x0=1.0)
        assert same_stream(rng, Rng(9))

    @pytest.mark.parametrize("w0_rows, cond_rows", [(3, 1), (1, 3)])
    def test_ddim_rows_of_w0_and_cond_must_agree(self, sampler_calls, w0_rows, cond_rows):
        # a one-row conditioning term would otherwise broadcast over every row
        s = df.NoiseSchedule.linear(30, 1e-4, 0.02)
        den = df.DenoiserNet.create(2, 3, Rng(6), hidden=8, depth=1)
        with pytest.raises(ValueError, match=f"w0 shape \\({w0_rows}, 2\\) and cond shape "
                                             f"\\({cond_rows}, 3\\) differ in rows"):
            df.ddim_sample(den, s, np.zeros((cond_rows, 3)), 5, np.zeros((w0_rows, 2)))
        assert sampler_calls == {"embed": [], "forward": []}


class TestDdim:
    def test_deterministic_given_w0(self):
        s = df.NoiseSchedule.linear(30, 1e-4, 0.02)
        net = df.DenoiserNet.create(2, 1, Rng(3), hidden=8, depth=1)
        w0 = Rng(8).normal((2, 2))
        a = df.ddim_sample(net, s, np.zeros((2, 1)), 5, w0)
        b = df.ddim_sample(net, s, np.zeros((2, 1)), 5, w0)
        assert np.array_equal(a, b)

    def test_zero_stub_closed_form(self):
        # a zero clean-signal estimate is carried to exactly 0: the last step
        # weighs the noise derived from it by sqrt(1 - alpha_bars[0]) = 0
        s = df.NoiseSchedule.linear(30, 1e-4, 0.02)
        net = zero_denoiser(2, 1)
        w0 = Rng(8).normal((4, 2))
        for steps in (1, 5):
            out = df.ddim_sample(net, s, np.zeros((4, 1)), steps, w0)
            assert out.shape == (4, 2)
            assert np.all(out == 0.0)

    def test_full_steps_allowed(self):
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        net = zero_denoiser(1, 1)
        out = df.ddim_sample(net, s, np.zeros((1, 1)), 10, np.array([[2.0]]))
        assert np.all(out == 0.0)

    def test_continuity_in_w0(self):
        s = df.NoiseSchedule.linear(30, 1e-4, 0.02)
        rng = Rng(21)
        net = df.DenoiserNet.create(2, 1, rng, hidden=16, depth=2)
        w0 = rng.normal((1, 2))
        base = df.ddim_sample(net, s, np.zeros((1, 1)), 5, w0)
        for scale in (1e-3, 1e-2, 0.1):
            delta = rng.normal((1, 2)) * scale
            moved = df.ddim_sample(net, s, np.zeros((1, 1)), 5, w0 + delta)
            assert np.linalg.norm(moved - base) < 50.0 * np.linalg.norm(delta)

    def test_bad_steps_rejected(self):
        s = df.NoiseSchedule.linear(10, 1e-4, 0.02)
        net = zero_denoiser(1, 1)
        with pytest.raises(ValueError):
            df.ddim_sample(net, s, np.zeros((1, 1)), 0, np.zeros((1, 1)))


def test_gaussian_mixture_recovery_small():
    """Mini version of the mixture-recovery check (full one lives in acceptance)."""
    means = (-2.0, 2.0)
    s = df.NoiseSchedule.linear(200, 1e-4, 0.02)
    rng = Rng(17)
    net = df.DenoiserNet.create(1, 1, rng, hidden=64, depth=2)
    opt = Adam(lr=2e-3)
    n = 256
    grads = net.net.params.zeros_like()
    for _ in range(1200):
        comp = rng.uniform_array(n) < 0.5
        x0 = np.where(comp, means[0], means[1])[:, None] + rng.normal((n, 1)) * 0.2
        df.diffusion_loss(net, s, x0, np.zeros((n, 1)), rng, grads)
        clip_grad_norm(grads, 1.0)
        opt.step(net.net.params, grads)
    samples = df.ddpm_sample(net, s, np.zeros((512, 1)), Rng(30), steps=10,
                             clip_x0=3.0).ravel()
    lo = samples[samples < 0].mean()
    hi = samples[samples >= 0].mean()
    assert abs(lo - means[0]) < 0.3
    assert abs(hi - means[1]) < 0.3
