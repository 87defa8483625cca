import hashlib
import math

import numpy as np
import pytest

from playwm import autodiff as ad
from playwm import dsrl, nets, optim, progress
from playwm.curation import EMBED_DIM, FRAME_PIXELS, Embedder
from playwm.rng import Rng


def finite_diff(arr, loss_value, h=1e-5):
    """Central-difference gradient of loss_value() in every entry of arr,
    which is perturbed in place and restored."""
    g = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_value()
        flat[i] = orig - h
        down = loss_value()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def assert_grads_close(got, want, what=""):
    denom = np.maximum(np.abs(want), 1e-3)
    rel = np.abs(got - want) / denom
    assert rel.max() < 1e-4, f"{what}: max rel err {rel.max()}"


def mean_square_grads(net, x, input_grad=False):
    """Gradients of mean(net(x)^2) from the hand-written backward pass."""
    cache = []
    out = nets.forward(net, x, cache)
    _, dout = ad.mse(out, np.zeros_like(out))
    grads = net.params.zeros_like()
    gx = ad.backward(net, cache, dout, grads, input_grad=input_grad)
    return grads, gx


def mean_square(net, x):
    out = nets.forward(net, x)
    return float((out * out).mean())


class TestBackward:
    def test_scalar_square(self):
        loss, grad = ad.mse(np.array([3.0]), np.zeros(1))
        assert loss == 9.0
        assert grad[0] == pytest.approx(6.0)

    def test_linear_sum_grad_equals_input(self):
        net = nets.Mlp([2, 2], "relu", params={"w0": np.ones((2, 2)), "b0": np.zeros(2)})
        x = np.array([[1.0, 1.0]])
        cache = []
        out = nets.forward(net, x, cache)
        grads = net.params.zeros_like()
        ad.backward(net, cache, np.ones_like(out), grads)
        assert np.allclose(grads["w0"], np.ones((2, 2)))
        assert np.allclose(grads["b0"], np.ones(2))

    def test_dout_shape_mismatch_rejected(self):
        net = nets.init_mlp([3, 4, 2], Rng(0), "relu")
        cache = []
        nets.forward(net, np.zeros((5, 3)), cache)
        with pytest.raises(ValueError):
            ad.backward(net, cache, np.zeros((5, 3)), net.params.zeros_like())

    @pytest.mark.parametrize("layer_norm", [False, True])
    @pytest.mark.parametrize("activation", nets.ACTIVATIONS)
    def test_caching_changes_no_output_bit(self, activation, layer_norm):
        rng = Rng(4)
        net = nets.init_mlp([3, 8, 5, 2], rng, activation, layer_norm=layer_norm)
        x = rng.normal((4, 3))
        cache = []
        assert np.array_equal(nets.forward(net, x, cache), nets.forward(net, x))
        assert len(cache) == net.n_layers

    @pytest.mark.parametrize("activation", nets.ACTIVATIONS)
    def test_mlp_matches_finite_differences(self, activation):
        rng = Rng(11)
        net = nets.init_mlp([3, 8, 5, 2], rng, activation)
        x = rng.normal((4, 3))
        if activation == "relu":
            # keep pre-activations away from the kink
            x = x + 0.05
        got, _ = mean_square_grads(net, x)
        for name, p in net.params.items():
            assert_grads_close(got[name], finite_diff(p, lambda: mean_square(net, x)),
                               f"{activation}/{name}")

    def test_layer_norm_gradient(self):
        for activation in nets.ACTIVATIONS:
            rng = Rng(5)
            net = nets.init_mlp([4, 6, 6, 3], rng, activation, layer_norm=True)
            x = rng.normal((3, 4))
            got, gx = mean_square_grads(net, x, input_grad=True)
            for name, p in net.params.items():
                assert_grads_close(got[name], finite_diff(p, lambda: mean_square(net, x)),
                                   f"{activation}/{name}")
            assert_grads_close(gx, finite_diff(x, lambda: mean_square(net, x)), activation)

    @pytest.mark.parametrize("activation", nets.ACTIVATIONS)
    def test_input_gradient(self, activation):
        rng = Rng(12)
        net = nets.init_mlp([3, 8, 5, 2], rng, activation)
        x = rng.normal((4, 3)) + 0.05
        got, gx = mean_square_grads(net, x, input_grad=True)
        assert_grads_close(gx, finite_diff(x, lambda: mean_square(net, x)), activation)
        # the parameter gradients are the same whether or not the input's is asked for
        without, none = mean_square_grads(net, x)
        assert none is None
        assert np.array_equal(got.flat, without.flat)

    def test_input_gradient_without_parameter_gradients(self):
        rng = Rng(13)
        net = nets.init_mlp([3, 8, 2], rng, "silu", layer_norm=True)
        x = rng.normal((4, 3))
        cache = []
        out = nets.forward(net, x, cache)
        _, dout = ad.mse(out, np.zeros_like(out))
        _, want = mean_square_grads(net, x, input_grad=True)
        assert np.array_equal(ad.backward(net, cache, dout, None, input_grad=True), want)

    def test_minimum_routes_gradient(self):
        """The actor's gradient reaches it only through the critic whose
        value is the smaller one."""
        st, s, xi = small_dsrl(21)
        n = st.critics.q2.n_layers
        st.critics.q2.params[f"b{n - 1}"][:] += 1e3  # q1 is the minimum on every row

        def actor_grads():
            grads = st.actor.net.params.zeros_like()
            dsrl.actor_loss(st, s, xi, 0.2, grads)
            return grads.flat.copy()

        base = actor_grads()
        st.critics.q2.params[f"w{n - 1}"][:] *= 2.0
        assert np.array_equal(actor_grads(), base)
        st.critics.q1.params[f"w{n - 1}"][:] *= 2.0
        assert not np.allclose(actor_grads(), base)


def small_dsrl(seed, batch=16):
    cfg = dsrl.DsrlConfig(hidden=8, depth=2, batch=batch)
    st = dsrl.make_dsrl(5, 3, cfg, Rng(seed))
    rng = Rng(seed + 1)
    return st, rng.normal((batch, 5)), rng.normal((batch, 3))


class TestLossGradients:
    def test_progress_loss(self):
        rng = Rng(14)
        net = nets.init_mlp([5, 8, 8, 1], rng, "silu")
        x, y = rng.normal((6, 5)), rng.uniform_array(6)[:, None]
        grads = net.params.zeros_like()
        loss = progress.progress_loss(net, x, y, grads)
        p = 1.0 / (1.0 + np.exp(-nets.forward(net, x)))
        assert loss == pytest.approx(float(((p - y) ** 2).mean()), rel=1e-12)
        for name, arr in net.params.items():
            assert_grads_close(grads[name],
                               finite_diff(arr, lambda: progress.progress_loss(
                                   net, x, y, net.params.zeros_like())), name)

    def test_dsrl_actor_loss_through_both_critics(self):
        st, s, xi = small_dsrl(15)
        w, _, _ = st.actor.squash(nets.forward(st.actor.net, s), xi)
        joint = np.concatenate([s, w], axis=1)
        take1 = nets.forward(st.critics.q1, joint) <= nets.forward(st.critics.q2, joint)
        assert 0 < take1.sum() < len(s), "both critics should be the minimum on some rows"
        grads = st.actor.net.params.zeros_like()
        dsrl.actor_loss(st, s, xi, 0.3, grads)
        for name, arr in st.actor.net.params.items():
            want = finite_diff(arr, lambda: dsrl.actor_loss(
                st, s, xi, 0.3, st.actor.net.params.zeros_like())[0])
            assert_grads_close(grads[name], want, name)


def test_dsrl_sample_log_density_is_the_trained_one():
    """The actor samples on the same squashed density its loss trains:
    for the same states and draws, sample() and actor_loss() give the same
    log densities to the bit."""
    st, s, _ = small_dsrl(16)
    xi = Rng(30).normal((len(s), st.actor.latent_dim))
    _, logp = st.actor.sample(s, Rng(30))
    grads = st.actor.net.params.zeros_like()
    assert np.array_equal(logp, dsrl.actor_loss(st, s, xi, 0.2, grads)[1])


class TestMlpForward:
    def test_hidden_layers_are_relu_or_silu(self):
        assert nets.ACTIVATIONS == ("relu", "silu")
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            nets.Mlp([2, 3, 1], "tanh")

    def test_zero_weights_give_zero_output(self):
        rng = Rng(0)
        net = nets.init_mlp([3, 4, 2], rng, "relu")
        for p in net.params.values():
            p[:] = 0.0
        out = nets.forward(net, np.array([[1.0, -2.0, 3.0]]))
        assert np.all(out == 0.0)

    def test_identity_single_layer(self):
        net = nets.Mlp(widths=[2, 2], activation="relu",
                       params={"w0": np.eye(2), "b0": np.zeros(2)})
        out = nets.forward(net, np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[1.0, 2.0]])

    def test_hand_evaluated_tanh_layer(self):
        net = nets.Mlp(widths=[1, 1], activation="relu",
                       params={"w0": np.array([[2.0]]), "b0": np.array([1.0])})
        # single layer: output layer is linear, so apply tanh on top manually
        out = np.tanh(nets.forward(net, np.array([[0.0]])))
        assert out[0, 0] == pytest.approx(0.76159, abs=1e-5)

    def test_shape_mismatch_reports_layer(self):
        rng = Rng(0)
        net = nets.init_mlp([3, 4], rng, "silu")
        with pytest.raises(nets.ShapeError, match="layer 0"):
            nets.forward(net, np.zeros((1, 5)))


def flat_params(**arrays) -> nets.FlatParams:
    """A FlatParams holding copies of the given arrays, in argument order."""
    out = nets.FlatParams({name: np.shape(value) for name, value in arrays.items()})
    for name, value in arrays.items():
        out[name][...] = value
    return out


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        rng = Rng(1)
        net = nets.init_mlp([2, 3], rng, "silu")
        before = {k: v.copy() for k, v in net.params.items()}
        opt = optim.Adam(lr=0.1)
        zero = net.params.zeros_like()
        for _ in range(5):
            opt.step(net.params, zero)
        for k in net.params:
            assert np.allclose(net.params[k], before[k])

    def test_first_step_is_sign_scaled(self):
        params = flat_params(p=[1.0, -2.0])
        g = np.array([0.5, -0.25])
        opt = optim.Adam(lr=0.1)
        opt.step(params, flat_params(p=g))
        expect = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(params["p"], expect, atol=1e-6)

    def test_constant_gradient_descends_monotonically(self):
        params = flat_params(p=[0.0])
        opt = optim.Adam(lr=0.1)
        prev = 0.0
        for _ in range(1000):
            opt.step(params, flat_params(p=[1.0]))
            assert params["p"][0] < prev
            prev = params["p"][0]

    def test_nan_gradient_aborts_with_name(self):
        params = flat_params(theta=[0.0])
        opt = optim.Adam()
        with pytest.raises(FloatingPointError, match="theta"):
            opt.step(params, flat_params(theta=[np.nan]))

    def test_nan_gradient_changes_nothing(self):
        params = flat_params(a=[1.0], b=[2.0])
        opt = optim.Adam(lr=0.1)
        with pytest.raises(FloatingPointError, match="'b'"):
            opt.step(params, flat_params(a=[1.0], b=[np.nan]))
        assert params["a"][0] == 1.0 and params["b"][0] == 2.0
        assert opt.step_count == 0 and opt.m is None
        opt.step(params, flat_params(a=[1.0], b=[1.0]))
        assert opt.step_count == 1 and params["a"][0] == pytest.approx(0.9)

    def test_nan_gradient_in_flat_params_names_parameter(self):
        net = nets.init_mlp([3, 4, 2], Rng(2), "silu")
        before = net.params.flat.copy()
        grads = net.params.zeros_like()
        grads["w1"][1, 0] = np.inf
        opt = optim.Adam()
        with pytest.raises(FloatingPointError, match="non-finite gradient for parameter 'w1'"):
            opt.step(net.params, grads)
        assert np.array_equal(net.params.flat, before) and opt.step_count == 0

    def test_finite_gradient_whose_square_overflows_updates(self):
        """g . g overflows at |g| = 1e200, but every entry is finite: the step
        runs, reporting the overflow, and the other parameter moves as it
        would alone."""
        params = flat_params(a=[1.0], b=[2.0])
        opt = optim.Adam(lr=0.1)
        with pytest.warns(RuntimeWarning, match="overflow"):
            opt.step(params, flat_params(a=[1e200], b=[0.5]))
        assert opt.step_count == 1
        assert np.isfinite(params.flat).all()
        assert params["b"][0] == pytest.approx(1.9)

    def test_blocked_flat_update_matches_per_array_reference(self):
        """The flat, blocked update is bit-identical to the scaled-moment Adam
        (see optim's docstring) applied array by array with whole-array
        temporaries, across several block boundaries."""
        rng = Rng(3)
        net = nets.init_mlp([300, 150, 40], rng, "silu")  # 51 190 parameters: two blocks, w0 split
        assert net.params.flat.size > optim.BLOCK
        ref = {k: v.copy() for k, v in net.params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
        opt = optim.Adam(lr=1e-2)
        grads = net.params.zeros_like()
        b1, b2 = optim.BETA1, optim.BETA2
        for t in range(1, 5):
            grads.flat[:] = rng.normal(grads.flat.size)
            lr = 1e-2 / t
            opt.step(net.params, grads, lr=lr)
            r = math.sqrt((1.0 - b2 ** t) / (1.0 - b2))
            alpha = lr * (1.0 - b1) * r / (1.0 - b1 ** t)
            for k, p in ref.items():
                g = grads[k]
                ref_m[k] = b1 * ref_m[k] + g
                ref_v[k] = b2 * ref_v[k] + g * g
                p -= alpha * (ref_m[k] / (np.sqrt(ref_v[k]) + optim.EPS * r))
        for k in ref:
            assert np.array_equal(net.params[k], ref[k]), k

    def test_matches_textbook_adam(self):
        """Over 300 steps with a varying lr and gradients from 1e-4 to 10,
        each parameter's displacement is Algorithm 1 of Kingma & Ba (2015)
        within 1e-12 relative."""
        rng = Rng(12)
        n = 40
        params = flat_params(p=rng.normal(n))
        start = params.flat.copy()
        ref, m, v = start.copy(), np.zeros(n), np.zeros(n)
        scale = 10.0 ** (rng.uniform_array(n) * 5.0 - 4.0)
        grads = params.zeros_like()
        opt = optim.Adam()
        b1, b2 = optim.BETA1, optim.BETA2
        for t in range(1, 301):
            g = rng.normal(n) * scale
            grads.flat[:] = g
            lr = 1e-2 * (1.5 + math.sin(t)) / 2.5
            opt.step(params, grads, lr=lr)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            ref -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + optim.EPS)
        assert np.all(np.abs(params.flat - ref) <= 1e-12 * np.abs(ref - start))

    def test_grad_clip(self):
        grads = flat_params(a=[3.0, 4.0])
        norm = optim.clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(np.linalg.norm(grads["a"]), 1.0)

    def test_grad_clip_scales_the_vector_in_place(self):
        rng = Rng(4)
        grads = flat_params(w=rng.normal((30, 20)), b=rng.normal(20))
        flat, before = grads.flat, grads.flat.copy()
        norm = optim.clip_grad_norm(grads, 2.0)
        assert norm == pytest.approx(np.linalg.norm(before), rel=1e-14)
        assert grads.flat is flat and np.array_equal(flat, before * (2.0 / norm))
        assert np.linalg.norm(flat) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("max_norm", [5.0, 6.0])
    def test_grad_clip_leaves_gradients_at_or_below_max_norm(self, max_norm):
        grads = flat_params(a=[3.0], b=[4.0])
        before = grads.flat.copy()
        assert optim.clip_grad_norm(grads, max_norm) == 5.0
        assert np.array_equal(grads.flat, before)

    def test_grad_clip_scales_a_gradient_whose_square_overflows(self):
        """g . g overflows at |g| = 1e200, but every entry is finite: the
        gradient is scaled to max_norm, not zeroed."""
        grads = flat_params(a=[1e200], b=[1.0])
        with np.errstate(over="ignore"):
            norm = optim.clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(1e200, rel=1e-15)
        assert np.linalg.norm(grads.flat) == pytest.approx(1.0, rel=1e-15)
        assert grads.flat.tolist() == pytest.approx([1.0, 1e-200], rel=1e-15)

    def test_grad_clip_leaves_a_nan_gradient_for_adam(self):
        grads = flat_params(a=[np.nan], b=[1.0])
        assert math.isnan(optim.clip_grad_norm(grads, 1.0))
        assert math.isnan(grads["a"][0]) and grads["b"][0] == 1.0
        with pytest.raises(FloatingPointError, match="non-finite gradient for parameter 'a'"):
            optim.Adam().step(flat_params(a=[0.0], b=[0.0]), grads)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]
        assert np.array_equal(a.normal(7), b.normal(7))

    def test_batching_does_not_change_stream(self):
        a, b = Rng(9), Rng(9)
        big = a.normal(10)
        parts = np.concatenate([b.normal(3), b.normal(4), b.normal(3)])
        assert np.array_equal(big, parts)

    def test_uniform_in_half_open_unit(self):
        r = Rng(3)
        u = r.uniform_array(10_000)
        assert u.min() > 0.0 and u.max() <= 1.0

    def test_gaussian_moments(self):
        g = Rng(7).normal(200_000)
        assert abs(g.mean()) < 0.01
        assert abs(g.std() - 1.0) < 0.01

    def test_shuffle_deterministic(self):
        assert Rng(1).shuffle(list(range(10))) == Rng(1).shuffle(list(range(10)))

    def test_first_output_is_splitmix64(self):
        """Seed 0 gives splitmix64's published first output."""
        assert Rng(0).next_u64() == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [0, 11])
    def test_mixed_call_stream_is_pinned(self, seed):
        """Every draw kind, interleaved, hashes to the same stream from a seed."""
        digest = {0: "25c856be60aebe57", 11: "43c43f17048af437"}[seed]
        assert _mixed_stream_digest(Rng(seed), 3000) == digest

    def test_scalar_draws_equal_block_draws(self):
        n = 200_000
        a, b = Rng(5), Rng(5)
        _assert_same_bits([a.uniform() for _ in range(n)], b.uniform_array(n))
        assert [a.randint(2**40 + 7) for _ in range(1000)] == \
            b.randint_array(1000, 2**40 + 7).tolist()
        odd = n + 1  # both leave a cached sine branch behind
        _assert_same_bits([a.gauss() for _ in range(odd)], b.normal(odd))
        _assert_same_bits([a.gauss(), a.gauss()], b.normal(2))
        assert a.next_u64() == b.next_u64()

    def test_gauss_cache_hands_over_both_ways(self):
        """A gauss that leaves a cached branch feeds the next normal(n), and a
        normal(odd n) leaves one for the next gauss, as one block draw does."""
        a, b = Rng(8), Rng(8)
        parts = []
        for i in range(4000):
            k = i % 6 + 1
            parts += [a.gauss()] + a.normal(k).tolist() + a.normal((k, 2)).ravel().tolist()
        _assert_same_bits(parts, b.normal(len(parts)))
        assert a.uniform() == b.uniform()


def _assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in want.tolist()]
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _mixed_stream_digest(rng, rounds):
    """sha256 prefix over a fixed mixed sequence of every Rng draw kind."""
    h = hashlib.sha256()
    for i in range(rounds):
        k = i % 7 + 1  # odd and even sizes
        outs = [rng.uniform(), rng.gauss(), rng.normal(k), rng.randint(k + 2), rng.next_u64(),
                rng.uniform_array((k, 2)), rng.randint_array(k, 1000),
                rng.choice([1.0, 0.5, float(k)]), rng.shuffle(list(range(k + 1))),
                rng.spawn_seed(), rng.normal((2, k)), rng.gauss()]
        for out in outs:
            if isinstance(out, float):
                h.update(float.hex(out).encode())
            elif isinstance(out, np.ndarray):
                h.update(out.dtype.str.encode() + out.tobytes())
            else:
                h.update(repr(out).encode())
    return h.hexdigest()[:16]


class TestProjection:
    """The embedder's frozen sign matrix."""

    def test_same_seed_identical(self):
        assert np.array_equal(Embedder.create(5).matrix, Embedder.create(5).matrix)
        assert not np.array_equal(Embedder.create(5).matrix, Embedder.create(6).matrix)

    def test_single_entry_sign(self):
        m = Embedder.create(0).matrix
        assert m.shape == (FRAME_PIXELS, EMBED_DIM)
        assert set(np.unique(m * np.sqrt(EMBED_DIM))) == {-1.0, 1.0}

    def test_column_norms(self):
        col_sq = (Embedder.create(1).matrix ** 2).sum(axis=0)
        assert np.allclose(col_sq, FRAME_PIXELS / EMBED_DIM)

    def test_immutable(self):
        m = Embedder.create(2).matrix
        with pytest.raises(ValueError):
            m[0, 0] = 3.0
