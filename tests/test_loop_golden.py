"""Golden digests of every closed-loop evaluation: real and imagined success
rates with their mode histograms, the predicted states the imagined
evaluation scores, and the unsteered and steered DSRL evaluation, each from
a tiny trained policy and world model at fixed seeds. The rates and
histograms pin how a loop draws its random numbers and counts its steps;
only the predicted states see what the world model is conditioned on, so a
change to how the imagined loop encodes its actions moves that digest
alone."""

import hashlib

import pytest

from conftest import TASK
from playwm import bench, dsrl, statecodec
from playwm.rng import Rng

CFG = bench.EvalStudyConfig(task=TASK, n_real=10, n_wm=10, max_steps=30)

GOLDEN = {
    "real": "927280d53fc67ec74fe22a4d50d3da06298c6a6ee7c78f68d505abb947cb3b47",
    "imagined_world_model": "bf5abd36f82d956e120e9351c44be374959cd4d505711b514bf16201ddcffba4",
    "imagined_predicted_states": "f6d507da8bb1c7ac982f8fc09386976764a866dd51e6bbeb4c74bc1019f07ddd",
    "imagined_scene": "d68657815aed973b825e3f3870647608330af2cf8b0e4edcc65679188117ebcb",
    "env_success": "bd374a6b4650c7519588105ecc02de7b7c5f2c68640c3283a91e2073db8614e1",
    "steered_False": "ca924e6162ec04e58c897a87d0ee8b9060a3746476906140cda7a61456e699e7",
    "steered_True": "ac72c0f552d7551e2ed4102327c83dbe490f0b5d3450358d7d8104aca05f8044",
}


def digest(rng, rate, hist=None) -> str:
    """The result and the next seed of the loop's stream, which pins how
    many numbers the loop drew."""
    return hashlib.sha256(repr((rate, sorted((hist or {}).items()),
                                rng.spawn_seed())).encode()).hexdigest()


def pin(name, rng, rate, hist):
    # a histogram of one mode would pin too little of the loop
    assert sum(1 for n in hist.values() if n) > 1, hist
    assert digest(rng, rate, hist) == GOLDEN[name]


def test_measure_real(trained):
    scene, policy, _ = trained
    rng = Rng(70)
    pin("real", rng, *bench.measure_real(policy, scene, CFG, rng))


@pytest.mark.parametrize("backend", ["world_model", "scene"])
def test_measure_imagined(trained, backend):
    scene, policy, wm = trained
    rng = Rng(71)
    pin(f"imagined_{backend}", rng,
        *bench.measure_imagined(policy, wm if backend == "world_model" else scene, CFG, rng))


def test_imagined_predicted_states(trained, monkeypatch):
    """Every predicted state the lockstep imagined evaluation scores, encoded,
    in the order it scores them: this sees what the model is conditioned on,
    which the rate and the histogram alone may not."""
    scene, policy, wm = trained
    h, infer = hashlib.sha256(), bench.infer_transition_event

    def scored(prev, action, nxt):
        h.update(statecodec.encode_state(nxt).tobytes())
        return infer(prev, action, nxt)

    monkeypatch.setattr(bench, "infer_transition_event", scored)
    bench.measure_imagined(policy, wm, CFG, Rng(71))
    assert h.hexdigest() == GOLDEN["imagined_predicted_states"]


def test_measure_env_success(trained):
    scene, policy, _ = trained
    rng = Rng(73)
    cfg = bench.EvalStudyConfig(TASK, n_real=10, max_steps=30, replan=8)
    pin("env_success", rng, *bench.measure_real(policy, scene, cfg, rng))


@pytest.mark.parametrize("steered", [False, True])
def test_evaluate_steered(trained, steered):
    scene, policy, _ = trained
    st = None
    if steered:
        st = dsrl.make_dsrl(statecodec.state_dim(len(scene.objects)), policy.latent_dim,
                            dsrl.DsrlConfig(hidden=32, depth=2), Rng(80))
    rng = Rng(74)
    rate, _ = bench.measure_real(policy, scene, bench.EvalStudyConfig(TASK, n_real=10), rng,
                                 latent=st.actor.mean_latent if steered else None)
    assert 0.0 < rate < 1.0
    assert digest(rng, rate) == GOLDEN[f"steered_{steered}"]
