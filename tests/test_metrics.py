import math

import numpy as np
import pytest

from playwm import metrics as M
from playwm.bench import SCORE_BLOCK
from playwm.curation import EMBED_DIM, Embedder
from playwm.rng import Rng


def rand_stack(rng, n=64):
    """One random n x n frame as a stack of one, (1, n, n)."""
    return rng.uniform_array((1, n, n))


class TestMsePsnr:
    def test_identical(self):
        f = rand_stack(Rng(1))
        assert M.mse(f, f)[0] == 0.0
        assert M.psnr(M.mse(f, f)[0]) == 100.0

    def test_zero_vs_one(self):
        z = np.zeros((1, 16, 16))
        o = np.ones((1, 16, 16))
        assert M.mse(z, o)[0] == 1.0
        assert M.psnr(M.mse(z, o)[0]) == 0.0

    def test_half_pixels_differ(self):
        x = np.zeros((1, 8, 8))
        y = np.zeros((1, 8, 8))
        y[0, :4, :] = 0.1
        assert M.mse(x, y)[0] == pytest.approx(0.005)
        assert M.psnr(M.mse(x, y)[0]) == pytest.approx(10 * math.log10(200), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(M.MetricError):
            M.mse(np.zeros((1, 4, 4)), np.zeros((1, 5, 5)))

    @pytest.mark.parametrize("metric", ["mse", "ssim", "lpips_proxy"])
    def test_one_frame_pair_is_not_a_stack(self, metric):
        x = np.zeros((16, 16))
        args = (Embedder.create(0), x, x) if metric == "lpips_proxy" else (x, x)
        with pytest.raises(M.MetricError, match="need \\(n, h, w\\) stacks"):
            getattr(M, metric)(*args)


def ssim_oracle(x, y):
    """Direct per-window SSIM formula, coded independently of the main path."""
    size, sigma = 7, 1.5
    ax = np.arange(size) - 3.0
    g = np.exp(-(ax ** 2) / (2 * sigma ** 2))
    k = np.outer(g, g)
    k /= k.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = x.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            wx = x[i:i + size, j:j + size]
            wy = y[i:i + size, j:j + size]
            mx = (k * wx).sum()
            my = (k * wy).sum()
            vxx = (k * wx * wx).sum() - mx * mx
            vyy = (k * wy * wy).sum() - my * my
            vxy = (k * wx * wy).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * vxy + c2))
                        / ((mx * mx + my * my + c1) * (vxx + vyy + c2)))
    return float(np.mean(vals))


def windowed_shifted_slices(img, kernel):
    """Weighted local sums as a loop over shifted 2D slices, one image a call."""
    size = kernel.shape[0]
    h, w = img.shape
    oh, ow = h - size + 1, w - size + 1
    out = np.zeros((oh, ow))
    for i in range(size):
        for j in range(size):
            out += kernel[i, j] * img[i:i + oh, j:j + ow]
    return out


def gaussian_kernel(size=7, sigma=1.5):
    """The normalised 2D Gaussian window as one outer product."""
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2.0 * sigma ** 2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_five_calls(x, y):
    """SSIM as five windowed calls of 49 terms each, one image a call: the
    reference that the separable band products must agree with to 1e-15."""
    k = gaussian_kernel()
    mu_x = windowed_shifted_slices(x, k)
    mu_y = windowed_shifted_slices(y, k)
    xx = windowed_shifted_slices(x * x, k) - mu_x * mu_x
    yy = windowed_shifted_slices(y * y, k) - mu_y * mu_y
    xy = windowed_shifted_slices(x * y, k) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + M.SSIM_C1) * (2.0 * xy + M.SSIM_C2)
    den = (mu_x ** 2 + mu_y ** 2 + M.SSIM_C1) * (xx + yy + M.SSIM_C2)
    return float((num / den).mean())


class TestSsim:
    def test_self_similarity(self):
        f = rand_stack(Rng(2), 16)
        assert M.ssim(f, f)[0] == 1.0

    def test_band_products_agree_with_five_calls(self):
        rng = Rng(10)
        for _ in range(40):
            h, w = 7 + rng.randint(64), 7 + rng.randint(64)
            a = rng.uniform_array((1, h, w))
            b = np.clip(a + 0.2 * rng.normal((1, h, w)), 0.0, 1.0)
            assert abs(M.ssim(a, b)[0] - ssim_five_calls(a[0], b[0])) <= 1e-15, (h, w)

    @pytest.mark.parametrize("n", [1, 7, SCORE_BLOCK, 2 * SCORE_BLOCK + 3])
    def test_stacked_call_is_one_frame_calls_bit_for_bit(self, n):
        rng = Rng(11 + n)
        for shape in ((64, 64), (7, 7), (9, 23)):
            a = rng.uniform_array((n, *shape))
            b = np.clip(a + 0.2 * rng.normal((n, *shape)), 0.0, 1.0)
            stacked = M.ssim(a, b)
            assert stacked.shape == (n,)
            ones = np.array([M.ssim(a[i:i + 1], b[i:i + 1])[0] for i in range(n)])
            assert stacked.tobytes() == ones.tobytes(), shape

    @pytest.mark.parametrize("n", [1, 7, SCORE_BLOCK, 180])
    def test_identical_frames_score_exactly_one(self, n):
        rng = Rng(12)
        for shape in ((64, 64), (7, 7), (9, 23)):
            a = rng.uniform_array((n, *shape))
            assert (M.ssim(a, a) == 1.0).all(), shape

    def test_symmetry(self):
        a, b = rand_stack(Rng(3), 16), rand_stack(Rng(4), 16)
        assert M.ssim(a, b)[0] == pytest.approx(M.ssim(b, a)[0], abs=1e-15)

    def test_constant_zero_vs_one(self):
        z = np.zeros((1, 16, 16))
        o = np.ones((1, 16, 16))
        expect = M.SSIM_C1 / (1 + M.SSIM_C1)
        assert M.ssim(z, o)[0] == pytest.approx(expect, rel=1e-9)

    def test_against_direct_oracle(self):
        rng = Rng(5)
        for _ in range(20):
            a, b = rand_stack(rng, 12), rand_stack(rng, 12)
            assert M.ssim(a, b)[0] == pytest.approx(ssim_oracle(a[0], b[0]), abs=1e-9)

    def test_too_small(self):
        with pytest.raises(M.MetricError):
            M.ssim(np.zeros((1, 5, 5)), np.zeros((1, 5, 5)))


class TestLpipsProxy:
    def test_identity_and_symmetry(self):
        emb = Embedder.create(0)
        a, b = rand_stack(Rng(6)), rand_stack(Rng(7))
        assert M.lpips_proxy(emb, a, a)[0] == 0.0
        assert M.lpips_proxy(emb, a, b)[0] == pytest.approx(M.lpips_proxy(emb, b, a)[0])

    def test_triangle_inequality(self):
        emb = Embedder.create(0)
        rng = Rng(8)
        a, b, c = (rand_stack(rng) for _ in range(3))
        assert M.lpips_proxy(emb, a, c)[0] <= (M.lpips_proxy(emb, a, b)[0]
                                               + M.lpips_proxy(emb, b, c)[0] + 1e-12)

    def test_single_pixel_delta(self):
        emb = Embedder.create(0)
        a = np.zeros((1, 64, 64))
        b = a.copy()
        delta = 0.37
        b[0, 10, 20] = delta
        d = M.lpips_proxy(emb, a, b)[0]
        assert d == pytest.approx(delta / math.sqrt(EMBED_DIM), rel=1e-12)


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0]
        assert M.pearson(xs, [2 * v for v in xs]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0]
        assert M.pearson(xs, [-v for v in xs]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert M.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_affine_invariance(self):
        rng = Rng(9)
        xs = rng.normal(20)
        ys = rng.normal(20)
        base = M.pearson(xs, ys)
        assert M.pearson(3.0 * xs + 1.5, ys) == pytest.approx(base, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(M.MetricError):
            M.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestTv:
    def test_equal(self):
        assert M.tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint(self):
        assert M.tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert M.tv_distance([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.25)

    def test_metric_properties(self):
        rng = Rng(10)
        for _ in range(10):
            p = rng.uniform_array(4)
            q = rng.uniform_array(4)
            r = rng.uniform_array(4)
            p, q, r = p / p.sum(), q / q.sum(), r / r.sum()
            assert M.tv_distance(p, q) == pytest.approx(M.tv_distance(q, p))
            assert M.tv_distance(p, r) <= M.tv_distance(p, q) + M.tv_distance(q, r) + 1e-12

    def test_not_normalized(self):
        with pytest.raises(M.MetricError):
            M.tv_distance([0.5, 0.6], [0.5, 0.5])
