"""Golden digests of one seeded curation pass and of every reader of stored
episodes: window modes, embeddings, distances to success, rank counts, the
world-model dataset, the BC chunk dataset, the progress training inputs, the
replay clips and the coverage report of the play and demo stores. A refactor
of the read path must leave each one bit-identical.
"""

import hashlib

import numpy as np
import pytest

from playwm import bench, curation, nets, policies, progress, statecodec, store
from playwm.playsys import ProposerConfig, collect, expert_config
from playwm.rng import Rng
from playwm.scene import default_scene
from playwm.worldmodel import WmConfig, build_dataset

W = WmConfig().window_len

GOLDEN = {
    "window_modes": "bd5d94c60ed618cc4aabe3f928674533adb6cdee3ed1696d4b9234b4f967cc6e",
    "embeddings": "2533b7fee4a3bd84b89b49dc1e245022e93c2573b0fca9e038d9e683a9757eb5",
    "distances": "2c18e89b04909847cbb9b0e6e5f9e162044cb89b0021fe3b66aa7c093a41630e",
    "rank_counts": [4, 4, 3, 4, 3],
    "dataset": "fccfaf1ec651d8bc39909573d2dd625da512bbeb8ec477ef753de251b31c7875",
    "chunk_dataset": "01771a815e19df96691a6d2a2447e233abbd40c50f5c804187f4444fc316a211",
    "progress_inputs": "bf25dbee732f3ecbc6f9cb1aac9698cc540637d655c3631c7c5d5e3a9367aa5a",
    "progress_params": "a8786d35860faa481229b2f827026cf4654b19da23fa301d720007fdde38f906",
    "replay_clips": "2662effaf3de27fedadc2b4779a5309fdb268cf3fa436e5009f77af291294d14",
    "coverage": "df0f8726cab74073918ff681a50382fb9e98f2b56e6a3283bddc2cc647aff9d7",
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    scene = default_scene()
    play = store.EpisodeStore(str(tmp_path_factory.mktemp("play")))
    collect(scene, ProposerConfig(), 24, Rng(31), play)
    demo = store.EpisodeStore(str(tmp_path_factory.mktemp("demo")))
    collect(scene, expert_config(), 10, Rng(32), demo, source="demo", reset_each=True)
    return scene, play, demo


@pytest.fixture(scope="module")
def curated(stores):
    """One curation pass as the pipeline runs it: split, label, embed, rank."""
    _, play, demo = stores
    train_ids, held = store.split(play, 0.25, Rng(33))
    keep = set(train_ids)
    wins = [w for w in store.windows(play, W) if w.episode_id in keep]
    embedder = curation.Embedder.create(34)
    embs = curation.embed_store_windows(play, wins, embedder)
    centroids = curation.fit_success_centroids(demo, embedder, 4, Rng(35), window_len=W)
    dists = curation.distances_to_success(centroids, embs)
    index = curation.build_ranks(dists, wins=wins)
    return dict(wins=wins, held=held, embs=embs, dists=dists, index=index)


def test_window_modes(curated):
    rows = [(w.episode_id, w.start, w.length, w.mode.value) for w in curated["wins"]]
    assert digest(rows) == GOLDEN["window_modes"]


def test_embeddings_and_distances(curated):
    assert digest(curated["embs"]) == GOLDEN["embeddings"]
    assert digest(curated["dists"]) == GOLDEN["distances"]


def test_rank_counts(curated):
    assert [len(m) for m in curated["index"].members] == GOLDEN["rank_counts"]


def test_world_model_dataset(stores, curated):
    ds = build_dataset(stores[1], WmConfig(), wins=curated["wins"])
    assert digest(ds.conds, ds.targets) == GOLDEN["dataset"]


def test_chunk_dataset(stores):
    conds, chunks = policies.chunk_dataset(stores[2])
    assert digest(conds, chunks) == GOLDEN["chunk_dataset"]


def test_progress_training_pairs(stores, monkeypatch):
    """The encoded states reach the network only through `nets.forward`, in
    training and evaluation alike; a batch far larger than the pair count
    draws every training pair, and each evaluation sees every held-out pair.
    The targets shape the parameters."""
    scene, _, demo = stores
    seen = []
    forward = nets.forward

    def spy(net, x, *args, **kwargs):
        seen.append(np.array(x))
        return forward(net, x, *args, **kwargs)

    monkeypatch.setattr(nets, "forward", spy)
    monkeypatch.setattr(progress, "BATCH", 4096)
    monkeypatch.setattr(progress, "EVAL_EVERY", 1)
    model = progress.train_progress(demo, scene, Rng(36), steps=3, patience=10)
    assert digest(*seen) == GOLDEN["progress_inputs"]
    assert model.net.param_hash() == GOLDEN["progress_params"]


@pytest.fixture(scope="module")
def replay(stores, curated):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "MIN_CLIP_FRACTION", 0.0)
        return bench.build_benchmark({"play": stores[1]}, {"play": curated["held"]}, 3,
                                     Rng(37), history=7, chunk=5, stride=3)


def test_replay_clips(replay):
    parts = []
    for c in replay.clips:
        s = c.init_state
        parts += [c.window.episode_id, c.window.start, c.hist_states, c.actions,
                  *c.gt_frames, s.gripper, s.objects, s.slip_fated,
                  c.raw_actions, c.noise]
    assert digest(*parts) == GOLDEN["replay_clips"]


def test_replay_init_states_encode_as_their_last_history_state(replay):
    """The digest above hashes each initial state's repr, which also shows
    its scalars' types; this pins their values."""
    assert len(replay.clips) == 8
    for c in replay.clips:
        assert statecodec.encode_state(c.init_state).tobytes() == c.hist_states[-1].tobytes()


def test_coverage_report(stores):
    """Every window of both stores in store order with its shared PCA
    coordinates, and each store's hull area, mean pairwise distance and
    mode counts; the counts are hashed sorted, so only their values are
    pinned."""
    _, play, demo = stores
    report = curation.coverage_report({"play": play, "demo": demo}, curation.Embedder.create(38),
                                      window_len=W)
    assert [r["source"] for r in report.rows].count("demo") > 1
    assert digest(report.rows, report.hull_area, report.mean_pairwise,
                  {s: sorted(c.items()) for s, c in report.mode_counts.items()}) \
        == GOLDEN["coverage"]
