import pytest

from playwm import dsrl, nets, policies, progress, statecodec, worldmodel
from playwm.rng import Rng
from playwm.scene import default_scene, jittered_state
from conftest import TASK


def _finetune(total_updates, **overrides):
    scene = default_scene()
    wm = worldmodel.create_worldmodel(scene, worldmodel.WmConfig(hidden=16, depth=1,
                                                                 denoise_steps=25), Rng(1))
    policy = policies.create_policy(scene, policies.PolicyConfig(hidden=16, depth=1,
                                                                 denoise_steps=25), Rng(2))
    width = statecodec.state_dim(len(scene.objects))
    prog = progress.ProgressModel(nets.init_mlp([width, 8, 1], Rng(3), "silu"), scene)
    init_rng = Rng(4)
    inits = [jittered_state(scene, init_rng, 0.03) for _ in range(2)]
    cfg = dsrl.DsrlConfig(**{**dict(hidden=16, depth=1, batch=8, buffer_capacity=64,
                                    initial_rollout_steps=10, max_episode_steps=10,
                                    train_freq=5, eval_every=1000, eval_rollouts=1),
                             **overrides})
    backend = worldmodel.RolloutBackend(wm, Rng(5))
    return dsrl.finetune(backend, policy, prog, scene, TASK, cfg, Rng(6),
                         total_updates=total_updates, inits=inits)


@pytest.mark.parametrize("total_updates, utd", [(8, 2), (30, 10), (7, 3)])
def test_finetune_stops_at_total_updates(total_updates, utd):
    st, _, _ = _finetune(total_updates, utd=utd)
    assert st.updates_done == total_updates


def test_finetune_replan_must_match_model_chunk():
    with pytest.raises(ValueError, match="once per model chunk"):
        _finetune(2, replan=4)


def test_rollout_backend_steps_a_batch_one_chunk_at_a_time():
    scene = default_scene()
    wm = worldmodel.create_worldmodel(scene, worldmodel.WmConfig(hidden=16, depth=1), Rng(1))
    backend = worldmodel.RolloutBackend(wm, Rng(2))
    init_rng = Rng(3)
    backend.reset([jittered_state(scene, init_rng, 0.03) for _ in range(3)])
    H, C = wm.cfg.history, wm.cfg.chunk
    actions = Rng(4).normal((3, C, 4)) * 0.1
    states = backend.step_chunk(actions)
    assert [len(row) for row in states] == [C] * 3
    assert backend.hist_states.shape == (3, H, wm.state_width)
    # the history ends in the re-encoded predicted states and driving actions
    for b in range(3):
        for i in range(C):
            got = backend.hist_states[b, H - C + i]
            assert (got == statecodec.encode_state(states[b][i])).all()
    assert (backend.hist_actions[:, -C:] == actions).all()
    with pytest.raises(ValueError, match="encoded actions"):
        backend.step_chunk(actions[:, :C - 1])
