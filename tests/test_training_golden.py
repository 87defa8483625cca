"""Golden digests of seeded training at tiny sizes: the world model with
uniform and curriculum sampling, behaviour cloning, the progress model, a
few DSRL updates on a seeded buffer and one short DSRL fine-tuning run. Each
pins parameter hashes and loss traces, so a change to the training math
must leave every one bit-identical.
"""

import hashlib

import numpy as np
import pytest

from playwm import curation, dsrl, nets, policies, progress, statecodec, store, worldmodel
from playwm.playsys import ProposerConfig, collect, expert_config
from playwm.rng import Rng
from playwm.scene import default_scene, jittered_state
from playwm.tasks import TaskSpec

WM_CFG = worldmodel.WmConfig(hidden=32, depth=2, batch=16, denoise_steps=25, warmup=3)
BC_CFG = policies.PolicyConfig(hidden=32, depth=2, batch=16, denoise_steps=25)
DSRL_CFG = dsrl.DsrlConfig(hidden=32, depth=2, batch=16, buffer_capacity=64,
                           initial_rollout_steps=20, max_episode_steps=10, train_freq=5,
                           utd=2, eval_every=4, eval_rollouts=1)

GOLDEN = {
    "wm_uniform": "ef4f8da61dd9eea871a9ed0d48516530b49f6f3392ca8b6f09f57051bcbe72ba",
    "wm_curriculum": "7abfaa3bf9312bd20645e38822086a4138483f997e2df31d820596442c3d4a5b",
    "bc": "7e8e5ee680e5f08ea1ec4160d1e1501c4a17c32a59c3229e6066beac66a57a21",
    "progress": "f6f6ac7a2b95ba4e2ca10455aec7d34a329f7851d2b8533c5693409946d19d18",
    "dsrl_update": "e00bde36639e7d5a6ce15f18183019b80419a778fa06bbc4d39e3acc2f604ae8",
    "dsrl_finetune": "471238440095789b2929e7148a6b6d642f4efafc51cfb4b90472d62316c37aeb",
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
    collect(scene, ProposerConfig(), 8, Rng(41), play)
    demo = store.EpisodeStore(str(tmp_path_factory.mktemp("demo")))
    collect(scene, expert_config(), 8, Rng(42), demo, source="demo", reset_each=True)
    return scene, play, demo


@pytest.fixture(scope="module")
def dataset(stores):
    _, play, demo = stores
    wins = store.windows(play, WM_CFG.window_len)
    embedder = curation.Embedder.create(43)
    embs = curation.embed_store_windows(play, wins, embedder)
    centroids = curation.fit_success_centroids(demo, embedder, 3, Rng(44),
                                               window_len=WM_CFG.window_len)
    index = curation.build_ranks(curation.distances_to_success(centroids, embs), wins=wins)
    return worldmodel.build_dataset(play, WM_CFG, wins=wins), index


@pytest.mark.parametrize("sampling", ["uniform", "curriculum"])
def test_worldmodel_train(stores, dataset, sampling, monkeypatch):
    monkeypatch.setattr(worldmodel, "LOG_EVERY", 3)
    ds, index = dataset
    wm = worldmodel.create_worldmodel(stores[0], WM_CFG, Rng(45))
    curriculum = (index, curation.AnnealSchedule(update_period=4))
    trace = worldmodel.train(wm, ds, 12, Rng(46),
                             curriculum=curriculum if sampling == "curriculum" else None)
    assert digest(wm.param_hash(), trace) == GOLDEN[f"wm_{sampling}"]


def test_worldmodel_train_rejects_an_index_over_other_windows(stores, dataset):
    """An index over more windows than the dataset holds, and one over the
    same windows in another order, fail before the first step."""
    ds, _ = dataset
    n = len(ds.windows)
    wm = worldmodel.create_worldmodel(stores[0], WM_CFG, Rng(45))
    more = curation.build_ranks(np.arange(27.0), wins=(ds.windows * 27)[:27])
    with pytest.raises(ValueError, match=f"curriculum index holds 27 windows, the dataset {n}"):
        worldmodel.train(wm, ds, 1, Rng(46), curriculum=(more, curation.AnnealSchedule()))
    reversed_ = curation.build_ranks(np.arange(float(n)), wins=ds.windows[::-1])
    with pytest.raises(ValueError, match="curriculum index row 0 is "):
        worldmodel.train(wm, ds, 1, Rng(46), curriculum=(reversed_, curation.AnnealSchedule()))
    assert wm.step_count == 0


@pytest.mark.parametrize("sampling", ["uniform", "curriculum"])
def test_worldmodel_train_stops_on_a_non_finite_loss(stores, dataset, sampling):
    """NaN targets stop a run at its first step, before the optimizer
    moves any parameter: the hash, step count and loss trace are those of
    the steps before it."""
    ds, index = dataset
    wm = worldmodel.create_worldmodel(stores[0], WM_CFG, Rng(45))
    worldmodel.train(wm, ds, 2, Rng(46))
    before = (wm.param_hash(), wm.step_count, list(wm.loss_trace))
    nan = worldmodel.WindowDataset(ds.windows, ds.conds, np.full_like(ds.targets, np.nan))
    with pytest.raises(worldmodel.TrainingError, match="non-finite loss at step 2"):
        worldmodel.train(wm, nan, 5, Rng(47),
                         curriculum=(index, curation.AnnealSchedule()) if sampling == "curriculum"
                         else None)
    assert (wm.param_hash(), wm.step_count, wm.loss_trace) == before


@pytest.mark.parametrize("config, name", [(worldmodel.WmConfig, n) for n in
                                          ("history", "chunk", "denoise_steps", "hidden",
                                           "depth", "batch")]
                         + [(policies.PolicyConfig, n) for n in
                            ("denoise_steps", "ddim_steps", "hidden", "depth", "batch")])
def test_model_config_counts_must_be_positive(config, name):
    """Each count fails by name when built, not at its first use: a zero
    batch divides by zero in training, a negative depth builds a linear
    denoiser, a zero width builds a net of zero-width layers, a zero chunk
    fails in a reshape and zero DDIM steps fail only at the first plan."""
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{name} must be positive, got {value}"):
            config(**{name: value})


def test_wm_config_warmup_must_be_nonnegative():
    """A negative warmup would silently shift the learning-rate schedule; a
    zero warmup starts the cosine decay at once."""
    assert worldmodel.WmConfig(warmup=0).warmup == 0
    with pytest.raises(ValueError, match="warmup must be nonnegative, got -1"):
        worldmodel.WmConfig(warmup=-1)


def test_train_bc(stores, monkeypatch):
    monkeypatch.setattr(policies, "LOG_EVERY", 3)
    policy = policies.create_policy(stores[0], BC_CFG, Rng(47))
    trace = policies.train_bc(policy, stores[2], 12, Rng(48))
    assert digest(policy.param_hash(), trace) == GOLDEN["bc"]


def test_train_bc_stops_on_a_non_finite_loss(stores, monkeypatch):
    """NaN conditioning stops a run at its first step, before the optimizer
    moves any parameter or the step count advances."""
    policy = policies.create_policy(stores[0], BC_CFG, Rng(47))
    policies.train_bc(policy, stores[2], 2, Rng(48))
    before = (policy.param_hash(), policy.train_steps_done)
    conds, chunks = policies.chunk_dataset(stores[2])
    monkeypatch.setattr(policies, "chunk_dataset",
                        lambda demos: (np.full_like(conds, np.nan), chunks))
    with pytest.raises(FloatingPointError, match="non-finite BC loss at step 0"):
        policies.train_bc(policy, stores[2], 5, Rng(49))
    assert (policy.param_hash(), policy.train_steps_done) == before


def test_train_progress(stores, monkeypatch):
    for name, value in (("HIDDEN", 16), ("BATCH", 16), ("EVAL_EVERY", 5)):
        monkeypatch.setattr(progress, name, value)
    scene, _, demo = stores
    model = progress.train_progress(demo, scene, Rng(49), steps=40, patience=3)
    assert digest(model.net.param_hash()) == GOLDEN["progress"]


def _dsrl_state(seed: int):
    scene = default_scene()
    width = statecodec.state_dim(len(scene.objects))
    st = dsrl.make_dsrl(width, 8, DSRL_CFG, Rng(seed))
    rng = Rng(seed + 1)
    for _ in range(40):
        st.buffer.push(rng.normal(width), rng.normal(8) * 0.3, rng.normal(1)[0],
                       rng.normal(width), rng.uniform() < 0.2)
    return st


def test_dsrl_updates():
    st = _dsrl_state(50)
    rng = Rng(52)
    losses = [dsrl.update(st, rng) for _ in range(4)]
    nets_ = (st.actor.net, st.critics.q1, st.critics.q2, st.critics.t1, st.critics.t2)
    assert digest([n.param_hash() for n in nets_], losses, st.log_alpha) == GOLDEN["dsrl_update"]


def test_dsrl_finetune(stores):
    scene = stores[0]
    wm = worldmodel.create_worldmodel(scene, WM_CFG, Rng(53))
    policy = policies.create_policy(scene, policies.PolicyConfig(hidden=32, depth=2,
                                                                 denoise_steps=25), Rng(54))
    width = statecodec.state_dim(len(scene.objects))
    prog = progress.ProgressModel(nets.init_mlp([width, 16, 16, 1], Rng(55), "silu"), scene)
    init_rng = Rng(56)
    inits = [jittered_state(scene, init_rng, 0.03) for _ in range(2)]
    cfg = dsrl.DsrlConfig(hidden=32, depth=2, batch=8, buffer_capacity=64,
                          initial_rollout_steps=10, max_episode_steps=10, train_freq=5,
                          utd=2, eval_every=4, eval_rollouts=1)
    backend = worldmodel.RolloutBackend(wm, Rng(57))
    st, trace, best = dsrl.finetune(backend, policy, prog, scene, TaskSpec("put_in", 1, 0),
                                    cfg, Rng(58), total_updates=8, inits=inits)
    best_hash = nets.Mlp(widths=st.actor.net.widths, activation="relu", params=best).param_hash()
    assert digest(st.actor.param_hash(), best_hash, st.log_alpha, st.buffer.size,
                  [(p.updates, p.env_success, p.imagined_return) for p in trace]) \
        == GOLDEN["dsrl_finetune"]
