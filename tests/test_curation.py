import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from playwm import curation as cu
from playwm.env import Env
from playwm.playsys import ProposerConfig, collect, execute
from playwm.projection import Projection
from playwm.render import render
from playwm.rng import Rng
from playwm.scene import EnvState, default_scene
from playwm.skills import Instruction, Perturbation
from playwm.store import ClipWindow, EpisodeStore, windows
from playwm.tasks import BehaviorMode, TaskSpec


def whole_episode_embed(store, wins, embedder):
    """The embedding that `embed_store_windows` replaced, kept as its
    reference: each episode's sampled frames are rendered one state at a time
    into a zero-filled whole-episode stack, which is projected in one product."""
    by_ep = {}
    for i, w in enumerate(wins):
        by_ep.setdefault(w.episode_id, []).append(i)
    out = np.zeros((len(wins), embedder.dim))
    for eid, rows in by_ep.items():
        view = store.read(eid)
        picks = {i: [wins[i].start + j for j in cu.window_sample_indices(wins[i].length)]
                 for i in rows}
        flat = np.zeros((view.n_frames, cu.FRAME_PIXELS))
        for t in {t for idx in picks.values() for t in idx}:
            flat[t] = render(view.state(t)).reshape(cu.FRAME_PIXELS)
        proj = embedder.projection.apply(flat)
        for i, idx in picks.items():
            out[i] = proj[idx].reshape(-1)
    return out


def demo_episode(eid, seed=1):
    ep = execute(Env(default_scene()), Instruction(TaskSpec("put_in", 1, 0), Perturbation()),
                 Rng(seed))
    ep.eid, ep.source = eid, "demo"
    return ep


def without_towel(ep, eid):
    """The episode with its towel taken out of every state: another roster."""
    states = [EnvState(s.gripper, [o for o in s.objects if o.kind != "towel2link"],
                       s.step_index, s.slip_fated) for s in ep.states]
    return replace(ep, eid=eid, states=states)


@pytest.fixture(scope="module")
def play_store(tmp_path_factory):
    store = EpisodeStore(str(tmp_path_factory.mktemp("play")))
    collect(default_scene(), ProposerConfig(), 20, Rng(21), store)
    return store


class TestEmbedder:
    def test_zero_frames_zero_vector(self):
        emb = cu.Embedder.create(0)
        assert np.all(emb.embed_frame(np.zeros((5, 64, 64))) == 0.0)

    def test_identical_windows_identical_vectors(self, tmp_path):
        """Each window's vector is the embedding of its four sampled frames."""
        store = EpisodeStore(str(tmp_path / "s"))
        store.append(demo_episode("e1"))
        w = ClipWindow("e1", 2, 12, BehaviorMode.SUCCESS)
        emb = cu.Embedder.create(1)
        rows = cu.embed_store_windows(store, [w, w], emb)
        assert np.array_equal(rows[0], rows[1])
        view = store.read("e1")
        frames = np.stack([render(view.state(w.start + i)) for i in cu.window_sample_indices(12)])
        assert np.allclose(rows[0], emb.embed_frame(frames).reshape(-1), rtol=0, atol=1e-12)

    def test_one_episode_store_keeps_the_whole_episode_bits(self, tmp_path):
        """A block of 4 rows, padded with zero rows, keeps the bits of the
        whole-episode product, which a product of 7 rows or fewer would not."""
        store = EpisodeStore(str(tmp_path / "s"))
        store.append(demo_episode("e1"))
        w = ClipWindow("e1", 1, 12, BehaviorMode.SUCCESS)
        emb = cu.Embedder.create(1)
        got = cu.embed_store_windows(store, [w], emb)
        assert store.read("e1").n_frames >= 8
        assert got.tobytes() == whole_episode_embed(store, [w], emb).tobytes()

    def test_blocks_keep_the_whole_episode_bits(self, play_store, tmp_path):
        """Windows over more than one block, overlapping, repeated and in any
        episode order, embed as the whole-episode stacks did, bit for bit."""
        wins = windows(play_store, 12, stride=1)
        wins = wins[::-1] + wins[:5]
        emb = cu.Embedder.create(2)
        frames = {(w.episode_id, w.start + j) for w in wins
                  for j in cu.window_sample_indices(w.length)}
        assert len(frames) > cu.BLOCK_FRAMES
        got = cu.embed_store_windows(play_store, wins, emb)
        assert got.tobytes() == whole_episode_embed(play_store, wins, emb).tobytes()

    def test_a_roster_change_closes_a_block(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        eps = [demo_episode(f"e{k}", seed=k) for k in range(4)]
        eps[2] = without_towel(eps[2], "e2")
        for ep in eps:
            store.append(ep)
        wins = [ClipWindow(ep.eid, start, 5, BehaviorMode.SUCCESS)
                for ep in eps for start in (0, 3)]
        emb = cu.Embedder.create(3)
        got = cu.embed_store_windows(store, wins, emb)
        assert got.tobytes() == whole_episode_embed(store, wins, emb).tobytes()

    def test_each_sampled_frame_renders_once_and_each_block_projects_once(
            self, play_store, monkeypatch):
        rendered, products = [], []
        render_frames, apply = cu.render_frames, Projection.apply

        def counting_render(gripper, objects, roster):
            rendered.append(gripper.copy())
            return render_frames(gripper, objects, roster)

        def counting_apply(projection, x):
            products.append(len(x))
            return apply(projection, x)

        monkeypatch.setattr(cu, "render_frames", counting_render)
        monkeypatch.setattr(Projection, "apply", counting_apply)
        wins = windows(play_store, 12, stride=2)
        cu.embed_store_windows(play_store, wins + wins, cu.Embedder.create(4))
        sampled = {}
        for w in wins:
            sampled.setdefault(w.episode_id, set()).update(
                w.start + j for j in cu.window_sample_indices(w.length))
        want = np.concatenate([play_store.read(eid).state_arrays()[0][sorted(ts)]
                               for eid, ts in sampled.items()])
        assert np.concatenate(rendered).tobytes() == want.tobytes()
        n = len(want)
        assert [len(g) for g in rendered] == \
            [cu.BLOCK_FRAMES] * (n // cu.BLOCK_FRAMES) + [n % cu.BLOCK_FRAMES]
        assert products == [max(len(g), cu.MIN_PRODUCT_ROWS) for g in rendered]

    def test_peak_memory_does_not_grow_with_the_store(self, tmp_path):
        """The peak allocation of a pass over 200 episodes is that over 50,
        within one block's pixels, and below two blocks' pixels: no stack
        grows with the store, and one block's frames are freed before the
        next block is drawn."""
        store = EpisodeStore(str(tmp_path / "s"))
        eps = [demo_episode(f"d{k}", seed=k) for k in range(5)]
        for k in range(200):
            store.append(replace(eps[k % 5], eid=f"e{k:03d}"))
        emb = cu.Embedder.create(5)
        peaks = []
        for n in (50, 200):
            wins = windows(store, 12, stride=3, ids=store.ids()[:n])
            tracemalloc.start()
            try:
                cu.embed_store_windows(store, wins, emb)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        block_bytes = cu.BLOCK_FRAMES * cu.FRAME_PIXELS * 8
        assert peaks[1] - peaks[0] < block_bytes, peaks
        assert peaks[1] < 2 * block_bytes, peaks

    def test_single_lit_pixel_reads_projection_row(self):
        emb = cu.Embedder.create(3)
        frame = np.zeros((64, 64))
        frame[5, 7] = 1.0
        flat_index = 5 * 64 + 7
        vec = emb.embed_frame(frame)
        assert np.array_equal(vec[0], emb.projection.matrix[flat_index])

    def test_sample_indices(self):
        assert cu.window_sample_indices(5) == (0, 1, 2, 4)
        assert cu.window_sample_indices(12) == (0, 3, 7, 11)


class TestKmeans:
    def test_identical_points_single_cluster(self):
        pts = np.tile([2.0, -1.0], (10, 1))
        model = cu.kmeans(pts, 1, Rng(0))
        assert np.allclose(model.centroids[0], [2.0, -1.0])
        assert model.inertia == pytest.approx(0.0, abs=1e-18)

    def test_two_blobs(self):
        rng = Rng(1)
        a = rng.normal((50, 8)) * 0.1
        a[:, 0] += 5.0
        b = rng.normal((50, 8)) * 0.1
        b[:, 0] -= 5.0
        model = cu.kmeans(np.vstack([a, b]), 2, Rng(2))
        means = sorted(model.centroids[:, 0])
        assert means[0] == pytest.approx(-5.0, abs=0.05)
        assert means[1] == pytest.approx(5.0, abs=0.05)
        assert np.allclose(sorted(model.centroids[:, 0]),
                           sorted([a[:, 0].mean() * 0 - 5, 5]), atol=0.06)

    def test_k_equals_n(self):
        rng = Rng(3)
        pts = rng.normal((6, 3))
        model = cu.kmeans(pts, 6, Rng(4))
        assert model.inertia == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            cu.kmeans(np.zeros((2, 3)), 5, Rng(0))


class TestDistance:
    def test_at_centroid(self):
        model = cu.ClusterModel(centroids=np.zeros((1, 8)), inertia=0.0, seed=0)
        assert cu.distances_to_success(model, np.zeros((1, 8)))[0] == 0.0

    def test_euclidean(self):
        model = cu.ClusterModel(centroids=np.zeros((1, 8)), inertia=0.0, seed=0)
        e = np.zeros((1, 8))
        e[0, 0], e[0, 1] = 3.0, 4.0
        assert cu.distances_to_success(model, e)[0] == pytest.approx(5.0)

    def test_min_over_centroids(self):
        cents = np.zeros((2, 4))
        cents[1, 0] = 10.0
        model = cu.ClusterModel(centroids=cents, inertia=0.0, seed=0)
        e = np.zeros((2, 4))
        e[0, 0], e[1, 0] = 6.0, 3.0
        assert cu.distances_to_success(model, e) == pytest.approx([4.0, 3.0])

    def test_dimension_mismatch(self):
        model = cu.ClusterModel(centroids=np.zeros((1, 8)), inertia=0.0, seed=0)
        with pytest.raises(ValueError):
            cu.distances_to_success(model, np.zeros((1, 5)))


class TestRanks:
    def test_zero_distance_rank_one(self):
        d = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        idx = cu.build_ranks(d, 5)
        assert idx.ranks[0] == 1

    def test_max_distance_top_rank(self):
        d = np.linspace(0, 9, 10)
        idx = cu.build_ranks(d, 5)
        assert idx.ranks[d.argmax()] == 5

    def test_uniform_1_to_100(self):
        d = np.arange(1, 101, dtype=np.float64)
        idx = cu.build_ranks(d, 5)
        sizes = [int((idx.ranks == r).sum()) for r in range(1, 6)]
        assert sizes == [20, 20, 20, 20, 20]

    def test_partition_property(self):
        rng = Rng(5)
        d = rng.uniform_array(137) * 10
        idx = cu.build_ranks(d, 5)
        assert set(idx.ranks) <= {1, 2, 3, 4, 5}
        assert sum(len(m) for m in idx.members) == 137
        # monotone difficulty in rank index
        means = [d[m].mean() for m in idx.members if len(m)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_boundary_goes_to_higher_rank(self):
        d = np.array([0.0, 1.0, 1.0, 2.0])
        idx = cu.build_ranks(d, 2, fractions=(0.5,))
        # threshold = sorted[ceil(0.5*4)] = sorted[2] = 1.0; d == 1.0 is rank 2
        assert idx.thresholds[1] == 1.0
        assert list(idx.ranks) == [1, 2, 2, 2]


class TestAnneal:
    def test_initial_and_final_exact(self):
        s = cu.AnnealSchedule()
        assert tuple(cu.rank_distribution(s, 0)) == (0.5, 0.3, 0.1, 0.05, 0.05)
        assert tuple(cu.rank_distribution(s, s.total_steps)) == (0.1, 0.2, 0.2, 0.25, 0.25)
        assert tuple(cu.rank_distribution(s, s.total_steps * 3)) == (0.1, 0.2, 0.2, 0.25, 0.25)

    def test_midpoint(self):
        s = cu.AnnealSchedule(update_period=500, total_steps=2500)
        p = cu.rank_distribution(s, 1250)  # floor(1250/500)*500/2500 = 0.4, not 0.5
        lam = (1250 // 500) * 500 / 2500
        expect = (1 - lam) * np.array(s.p_init) + lam * np.array(s.p_final)
        assert np.allclose(p, expect)
        # exact midpoint needs a period boundary at S/2
        s2 = cu.AnnealSchedule(update_period=250, total_steps=2500)
        p2 = cu.rank_distribution(s2, 1250)
        assert np.allclose(p2, [0.3, 0.25, 0.15, 0.15, 0.15])

    def test_piecewise_constant_within_period(self):
        s = cu.AnnealSchedule()
        assert np.array_equal(cu.rank_distribution(s, 500), cu.rank_distribution(s, 999))

    def test_sums_to_one_everywhere(self):
        s = cu.AnnealSchedule()
        for step in range(0, 4000, 83):
            p = cu.rank_distribution(s, step)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= min(min(s.p_init), min(s.p_final)) - 1e-12)

    def test_invalid_distributions(self):
        with pytest.raises(ValueError):
            cu.AnnealSchedule(p_init=(0.5, 0.5, 0.1), p_final=(0.4, 0.3, 0.3))


def tiny_index(sizes):
    d = []
    for r, n in enumerate(sizes):
        d.extend([r + 0.5] * n)
    d = np.array(d)
    fr = tuple(np.cumsum(sizes)[:-1] / sum(sizes))
    return cu.build_ranks(d, len(sizes), fractions=fr)


class TestSampler:
    def test_degenerate_distribution(self):
        idx = tiny_index([10, 10, 10, 10, 10])
        sched = cu.AnnealSchedule(p_init=(1.0, 0.0, 0.0, 0.0, 0.0),
                                  p_final=(1.0, 0.0, 0.0, 0.0, 0.0))
        rows = cu.sample_batch(idx, sched, 0, 200, Rng(1))
        assert np.all(idx.ranks[rows] == 1)

    def test_determinism(self):
        idx = tiny_index([10, 10, 10, 10, 10])
        sched = cu.AnnealSchedule()
        a = cu.sample_batch(idx, sched, 100, 64, Rng(7))
        b = cu.sample_batch(idx, sched, 100, 64, Rng(7))
        assert np.array_equal(a, b)

    def test_frequencies_match_schedule(self):
        idx = tiny_index([200, 200, 200, 200, 200])
        sched = cu.AnnealSchedule()
        step = 1000
        p = cu.rank_distribution(sched, step)
        rows = cu.sample_batch(idx, sched, step, 100_000, Rng(3))
        ranks = idx.ranks[rows]
        freq = np.array([(ranks == r).mean() for r in range(1, 6)])
        assert np.all(np.abs(freq - p) < 0.01)
        # chi-square goodness of fit, df=4, p>0.01 means stat < 13.2767
        n = len(rows)
        stat = float((((freq - p) * n) ** 2 / (p * n)).sum())
        assert stat < 13.2767

    def test_empty_rank_mass_redistributed(self):
        idx = tiny_index([10, 10, 10, 10, 10])
        idx.members[0] = np.array([], dtype=np.int64)  # force an empty rank
        sched = cu.AnnealSchedule()
        p = cu.effective_rank_distribution(idx, sched, 0)
        assert p[0] == 0.0
        assert abs(p.sum() - 1.0) < 1e-12
        rows = cu.sample_batch(idx, sched, 0, 500, Rng(5))
        assert np.all(idx.ranks[rows] != 1)


class TestPcaHull:
    def test_rank_one_data(self):
        rng = Rng(11)
        t = rng.normal(200)
        pts = np.outer(t, np.array([1.0, 2.0, -1.0]))
        coords, _ = cu.pca_2d(pts)
        assert coords[:, 1].var() < 1e-12 * max(1.0, coords[:, 0].var())

    def test_orthogonal_blobs_direction(self):
        rng = Rng(12)
        axis = np.zeros(16)
        axis[3] = 1.0
        pts = np.concatenate([rng.normal((100, 16)) * 0.01 + 5 * axis,
                              rng.normal((100, 16)) * 0.01 - 5 * axis])
        _, V = cu.pca_2d(pts)
        cos = abs(V[:, 0] @ axis)
        assert cos > 0.99

    def test_hull_degenerate(self):
        assert cu.convex_hull_area(np.tile([1.0, 2.0], (10, 1))) == 0.0

    def test_hull_unit_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        assert cu.convex_hull_area(pts) == pytest.approx(1.0)

    def test_mean_pairwise(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert cu.mean_pairwise_distance(pts) == pytest.approx(5.0)
