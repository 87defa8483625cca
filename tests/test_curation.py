import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import events_of
from playwm import curation as cu
from playwm.dynamics import Action
from playwm.env import Env
from playwm.playsys import ProposerConfig, collect, execute
from playwm.render import render
from playwm.rng import Rng
from playwm.scene import EnvState, default_scene
from playwm.skills import Instruction, Perturbation
from playwm.store import ClipWindow, EpisodeStore, record, windows
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
            flat[t] = render(view.states_at([t])[0]).reshape(cu.FRAME_PIXELS)
        proj = flat @ embedder.matrix
        for i, idx in picks.items():
            out[i] = proj[idx].reshape(-1)
    return out


def demo_episode(eid, seed=1):
    ep = execute(Env(default_scene(), seed=0), Instruction(TaskSpec("put_in", 1, 0), Perturbation()),
                 Rng(seed))
    return replace(ep, eid=eid, source="demo")


def without_towel(ep, eid):
    """The episode with its towel taken out of every state: another roster."""
    states = [EnvState(s.gripper, [o for o in s.objects if o.kind != "towel2link"],
                       s.slip_fated) for s in ep.states_at(slice(None))]
    return record(eid, ep.source, ep.instruction, ep.outcome, ep.seed, states,
                  [Action(*a) for a in ep.actions], events_of(ep), ep.noise.tolist())


@pytest.fixture(scope="module")
def play_store(tmp_path_factory):
    store = EpisodeStore(str(tmp_path_factory.mktemp("play")))
    collect(default_scene(), ProposerConfig(), 20, Rng(21), store)
    return store


class TestEmbedder:
    def test_zero_frames_zero_vector(self):
        emb = cu.Embedder.create(0)
        assert np.all(emb.embed_frames(np.zeros((5, 64, 64))) == 0.0)

    def test_identical_windows_identical_vectors(self, tmp_path):
        """Each window's vector is the embedding of its four sampled frames."""
        store = EpisodeStore(str(tmp_path / "s"))
        store.append(demo_episode("e1"))
        w = ClipWindow("e1", 2, 12, BehaviorMode.SUCCESS)
        emb = cu.Embedder.create(1)
        rows = cu.embed_store_windows(store, [w, w], emb)
        assert np.array_equal(rows[0], rows[1])
        view = store.read("e1")
        frames = np.stack([render(s) for s in
                           view.states_at(w.start + np.array(cu.window_sample_indices(12)))])
        assert np.allclose(rows[0], emb.embed_frames(frames).reshape(-1), rtol=0, atol=1e-12)

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

    def test_each_window_renders_its_frames_in_order_and_each_block_projects_once(
            self, play_store, monkeypatch):
        """Each window's four sampled frames are rendered in window order, a
        frame that overlapping windows share once for each of them, in
        blocks of whole episodes."""
        rendered, products = [], []
        render_frames = cu.render_frames

        def counting_render(gripper, objects, roster):
            rendered.append(gripper.copy())
            return render_frames(gripper, objects, roster)

        class CountingMatrix(np.ndarray):
            """The sign matrix, counting the rows of each product it ends."""

            def __rmatmul__(self, x):
                products.append(len(x))
                return x @ self.view(np.ndarray)

        monkeypatch.setattr(cu, "render_frames", counting_render)
        wins = windows(play_store, 12, stride=1)
        emb = cu.Embedder(cu.Embedder.create(4).matrix.view(CountingMatrix))
        cu.embed_store_windows(play_store, wins, emb)
        want = np.concatenate([play_store.read(w.episode_id).state_arrays()[0][
            [w.start + j for j in cu.window_sample_indices(w.length)]] for w in wins])
        assert len(want) > cu.BLOCK_FRAMES  # the windows cross a block boundary
        ids = [w.episode_id for w in wins]
        assert ids == sorted(ids, key=ids.index)  # each episode's windows are consecutive
        assert len({play_store.meta(w.episode_id).roster for w in wins}) == 1
        assert np.concatenate(rendered).tobytes() == want.tobytes()
        blocks, n = [], 0  # whole episodes, as many as fit
        for k in (cu.SAMPLED_FRAMES * ids.count(eid) for eid in dict.fromkeys(ids)):
            if n + k > cu.BLOCK_FRAMES:
                blocks.append(n)
                n = 0
            n += k
        assert [len(g) for g in rendered] == blocks + [n]
        assert max(map(len, rendered)) <= cu.BLOCK_FRAMES
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
        vec = emb.embed_frames(frame)
        assert np.array_equal(vec[0], emb.matrix[flat_index])

    def test_sample_indices(self):
        assert cu.window_sample_indices(5) == (0, 1, 2, 4)
        assert cu.window_sample_indices(12) == (0, 3, 7, 11)


class TestKmeans:
    def test_identical_points_single_cluster(self):
        pts = np.tile([2.0, -1.0], (10, 1))
        centroids = cu.kmeans(pts, 1, Rng(0))
        assert centroids.shape == (1, 2)
        assert np.array_equal(centroids[0], [2.0, -1.0])

    def test_two_blobs(self):
        rng = Rng(1)
        a = rng.normal((50, 8)) * 0.1
        a[:, 0] += 5.0
        b = rng.normal((50, 8)) * 0.1
        b[:, 0] -= 5.0
        centroids = cu.kmeans(np.vstack([a, b]), 2, Rng(2))
        means = sorted(centroids[:, 0])
        assert means[0] == pytest.approx(-5.0, abs=0.05)
        assert means[1] == pytest.approx(5.0, abs=0.05)
        assert np.allclose(sorted(centroids[:, 0]),
                           sorted([a[:, 0].mean() * 0 - 5, 5]), atol=0.06)

    def test_k_equals_n(self):
        rng = Rng(3)
        pts = rng.normal((6, 3))
        centroids = cu.kmeans(pts, 6, Rng(4))
        assert centroids.shape == (6, 3)
        # every point is its own centroid
        assert (cu.distances_to_success(centroids, pts) ** 2).sum() == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            cu.kmeans(np.zeros((2, 3)), 5, Rng(0))

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_cluster_fails_before_any_draw(self, k):
        rng = Rng(0)
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            cu.kmeans(Rng(1).normal((10, 4)), k, rng)
        assert rng.next_u64() == Rng(0).next_u64()

    @pytest.mark.parametrize("k", [0, -1])
    def test_success_centroids_need_one_cluster(self, tmp_path, k):
        store = EpisodeStore(str(tmp_path / "demo"))
        store.append(demo_episode("e1"))
        assert store.meta("e1").outcome
        rng = Rng(0)
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            cu.fit_success_centroids(store, cu.Embedder.create(0), k, rng, window_len=12)
        assert rng.next_u64() == Rng(0).next_u64()

    def test_success_centroids_never_read_a_failed_demo(self, tmp_path, monkeypatch):
        """Each successful demo is read once, for its windows and their
        embeddings alike; a failed demo is skipped by its manifest outcome,
        unread, and the centroids are those of the store without it."""
        only = EpisodeStore(str(tmp_path / "only"))
        mixed = EpisodeStore(str(tmp_path / "mixed"))
        for eid, seed in (("e1", 1), ("e2", 2)):
            only.append(demo_episode(eid, seed))
            mixed.append(demo_episode(eid, seed))
        mixed.append(replace(demo_episode("e3", 3), outcome=False))
        read = mixed.read
        seen = []

        def counting_read(eid):
            seen.append(eid)
            return read(eid)

        monkeypatch.setattr(mixed, "read", counting_read)
        embedder = cu.Embedder.create(0)
        got = cu.fit_success_centroids(mixed, embedder, 2, Rng(5), window_len=12)
        assert seen == ["e1", "e2"]
        assert np.array_equal(got, cu.fit_success_centroids(only, embedder, 2, Rng(5),
                                                            window_len=12))


class TestDistance:
    def test_at_centroid(self):
        assert cu.distances_to_success(np.zeros((1, 8)), np.zeros((1, 8)))[0] == 0.0

    def test_euclidean(self):
        e = np.zeros((1, 8))
        e[0, 0], e[0, 1] = 3.0, 4.0
        assert cu.distances_to_success(np.zeros((1, 8)), e)[0] == pytest.approx(5.0)

    def test_min_over_centroids(self):
        cents = np.zeros((2, 4))
        cents[1, 0] = 10.0
        e = np.zeros((2, 4))
        e[0, 0], e[1, 0] = 6.0, 3.0
        assert cu.distances_to_success(cents, e) == pytest.approx([4.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cu.distances_to_success(np.zeros((1, 8)), np.zeros((1, 5)))


def clip_windows(n):
    """n windows of one episode, one for each of n distances."""
    return [ClipWindow("e0", start, 5, BehaviorMode.SUCCESS) for start in range(n)]


def window_ranks(idx, n):
    """Each of n windows' 1-based rank, read from the rank member lists;
    0 for a window in no rank."""
    ranks = np.zeros(n, dtype=np.int64)
    for r, rows in enumerate(idx.members, start=1):
        ranks[rows] = r
    return ranks


class TestRanks:
    def test_zero_distance_rank_one(self):
        d = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        idx = cu.build_ranks(d, clip_windows(len(d)))
        assert window_ranks(idx, len(d))[0] == 1

    def test_max_distance_top_rank(self):
        d = np.linspace(0, 9, 10)
        idx = cu.build_ranks(d, clip_windows(len(d)))
        assert window_ranks(idx, len(d))[d.argmax()] == 5

    def test_uniform_1_to_100(self):
        d = np.arange(1, 101, dtype=np.float64)
        idx = cu.build_ranks(d, clip_windows(len(d)))
        ranks = window_ranks(idx, len(d))
        sizes = [int((ranks == r).sum()) for r in range(1, 6)]
        assert sizes == [20, 20, 20, 20, 20]

    def test_partition_property(self):
        rng = Rng(5)
        d = rng.uniform_array(137) * 10
        idx = cu.build_ranks(d, clip_windows(len(d)))
        assert set(window_ranks(idx, len(d))) <= {1, 2, 3, 4, 5}
        assert sum(len(m) for m in idx.members) == 137
        # monotone difficulty in rank index
        means = [d[m].mean() for m in idx.members if len(m)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_boundary_goes_to_higher_rank(self):
        d = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        idx = cu.build_ranks(d, clip_windows(len(d)))
        # thresholds = sorted[ceil(k/5*10)] = sorted[2, 4, 6, 8] = 2, 3, 5, 7;
        # each d equal to one is in the rank above it
        assert list(window_ranks(idx, len(d))) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


    def test_one_window_per_distance(self):
        with pytest.raises(ValueError, match="6 windows for 7 distances"):
            cu.build_ranks(np.arange(7.0), clip_windows(6))


class TestAnneal:
    def test_rank_distributions_are_positive_over_every_rank(self):
        """P_INIT and P_FINAL are distributions over the RANKS ranks that
        build_ranks makes, and every rank has mass in both, so a nonempty
        rank keeps mass whichever ranks are empty."""
        for p in (cu.P_INIT, cu.P_FINAL):
            assert len(p) == cu.RANKS
            assert all(x > 0.0 for x in p)
            assert abs(sum(p) - 1.0) < 1e-9

    def test_initial_and_final_exact(self):
        s = cu.AnnealSchedule()
        assert tuple(cu.rank_distribution(s, 0, 2500)) == cu.P_INIT == (0.5, 0.3, 0.1, 0.05, 0.05)
        assert tuple(cu.rank_distribution(s, 2500, 2500)) == cu.P_FINAL \
            == (0.1, 0.2, 0.2, 0.25, 0.25)
        assert tuple(cu.rank_distribution(s, 2500 * 3, 2500)) == cu.P_FINAL

    def test_midpoint(self):
        s = cu.AnnealSchedule(update_period=500)
        p = cu.rank_distribution(s, 1250, 2500)  # floor(1250/500)*500/2500 = 0.4, not 0.5
        lam = (1250 // 500) * 500 / 2500
        expect = (1 - lam) * np.array(cu.P_INIT) + lam * np.array(cu.P_FINAL)
        assert np.allclose(p, expect)
        # exact midpoint needs a period boundary at S/2
        s2 = cu.AnnealSchedule(update_period=250)
        p2 = cu.rank_distribution(s2, 1250, 2500)
        assert np.allclose(p2, [0.3, 0.25, 0.15, 0.15, 0.15])

    def test_anneal_spans_the_run(self):
        """The same step is further along a shorter run: at step 500, a
        1000-step run is halfway and a 2500-step run a fifth of the way."""
        s = cu.AnnealSchedule()
        for total, lam in ((1000, 0.5), (2500, 0.2), (500, 1.0)):
            expect = (1 - lam) * np.array(cu.P_INIT) + lam * np.array(cu.P_FINAL)
            assert np.allclose(cu.rank_distribution(s, 500, total), expect)
        # below one update period no run has annealed
        assert tuple(cu.rank_distribution(s, 499, 60)) == cu.P_INIT

    def test_piecewise_constant_within_period(self):
        s = cu.AnnealSchedule()
        assert np.array_equal(cu.rank_distribution(s, 500, 2500),
                              cu.rank_distribution(s, 999, 2500))

    def test_sums_to_one_everywhere(self):
        s = cu.AnnealSchedule()
        for step in range(0, 4000, 83):
            p = cu.rank_distribution(s, step, 2500)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= min(min(cu.P_INIT), min(cu.P_FINAL)) - 1e-12)

    def test_invalid_distributions(self):
        with pytest.raises(ValueError, match="rank distributions must sum to 1"):
            cu.check_rank_distribution("P_INIT", (0.5, 0.5, 0.1, 0.0, 0.0))

    @pytest.mark.parametrize("name", ["p_init", "p_final"])
    @pytest.mark.parametrize("n", [3, 6])
    def test_distributions_hold_one_probability_per_rank(self, name, n):
        """A distribution over another number of ranks than build_ranks
        makes fails by name when the module loads, not inside numpy at the
        first curriculum batch."""
        with pytest.raises(ValueError, match=rf"{name.upper()} must hold one probability "
                                             rf"per rank \({cu.RANKS}\), got {n}"):
            cu.check_rank_distribution(name.upper(), (1.0 / n,) * n)

    @pytest.mark.parametrize("name", ["p_init", "p_final"])
    def test_probabilities_must_be_nonnegative(self, name):
        """A distribution that sums to 1 through a negative entry is rejected,
        not sampled from; so is one with a zero, which would leave a
        nonempty rank without mass."""
        for p in ((1.5, -0.5, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match=f"{name.upper()} holds a negative probability"):
                cu.check_rank_distribution(name.upper(), p)

    @pytest.mark.parametrize("name", ["update_period"])
    def test_periods_must_be_at_least_one(self, name):
        """It fails by name when built, not by dividing by zero in
        rank_distribution."""
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
                cu.AnnealSchedule(**{name: value})

    @pytest.mark.parametrize("step, total", [(-1, 10), (0, 0), (3, -2)])
    def test_step_and_run_length_are_checked(self, step, total):
        """A negative step, or a run of no steps, fails by name, not by
        dividing by zero or annealing past P_FINAL."""
        with pytest.raises(ValueError, match=f"got step {step} of {total}"):
            cu.rank_distribution(cu.AnnealSchedule(), step, total)


def tiny_index(sizes):
    """An index whose rank r holds the next sizes[r] window rows."""
    ends = np.cumsum(sizes)
    return cu.CurriculumIndex(windows=clip_windows(int(ends[-1])),
                              members=[np.arange(end - n, end) for n, end in zip(sizes, ends)])


class TestSampler:
    def test_degenerate_distribution(self, monkeypatch):
        idx = tiny_index([10, 10, 10, 10, 10])
        monkeypatch.setattr(cu, "P_INIT", (1.0, 0.0, 0.0, 0.0, 0.0))
        monkeypatch.setattr(cu, "P_FINAL", (1.0, 0.0, 0.0, 0.0, 0.0))
        rows = cu.sample_batch(idx, cu.AnnealSchedule(), 0, 10, 200, Rng(1))
        assert np.all(window_ranks(idx, 50)[rows] == 1)

    def test_determinism(self):
        idx = tiny_index([10, 10, 10, 10, 10])
        sched = cu.AnnealSchedule()
        a = cu.sample_batch(idx, sched, 100, 2500, 64, Rng(7))
        b = cu.sample_batch(idx, sched, 100, 2500, 64, Rng(7))
        assert np.array_equal(a, b)

    def test_frequencies_match_schedule(self):
        idx = tiny_index([200, 200, 200, 200, 200])
        sched = cu.AnnealSchedule()
        step = 1000
        p = cu.rank_distribution(sched, step, 2500)
        rows = cu.sample_batch(idx, sched, step, 2500, 100_000, Rng(3))
        ranks = window_ranks(idx, 1000)[rows]
        freq = np.array([(ranks == r).mean() for r in range(1, 6)])
        assert np.all(np.abs(freq - p) < 0.01)
        # chi-square goodness of fit, df=4, p>0.01 means stat < 13.2767
        n = len(rows)
        stat = float((((freq - p) * n) ** 2 / (p * n)).sum())
        assert stat < 13.2767

    def test_empty_rank_mass_redistributed(self):
        idx = tiny_index([10, 10, 10, 10, 10])
        ranks = window_ranks(idx, 50)
        idx.members[0] = np.array([], dtype=np.int64)  # force an empty rank
        sched = cu.AnnealSchedule()
        p = cu.effective_rank_distribution(idx, sched, 0, 2500)
        assert p[0] == 0.0
        assert abs(p.sum() - 1.0) < 1e-12
        rows = cu.sample_batch(idx, sched, 0, 2500, 500, Rng(5))
        assert np.all(ranks[rows] != 1)


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

    def test_coverage_needs_two_windows_a_store(self, play_store, tmp_path):
        one = EpisodeStore(str(tmp_path / "one"))
        one.append(demo_episode("e1"))
        n = one.read("e1").n_frames
        assert len(windows(one, n)) == 1
        with pytest.raises(ValueError, match="store 'one' has fewer than 2 windows"):
            cu.coverage_report({"play": play_store, "one": one}, cu.Embedder.create(0),
                               window_len=n)
