from dataclasses import astuple, replace

import numpy as np
import pytest

from playwm import dsrl, nets, policies, progress, statecodec, worldmodel
from playwm.diffusion import ddim_sample
from playwm.rng import Rng
from playwm.scene import SceneConfig, default_scene, jittered_state
from conftest import TASK


class RecordingBackend(worldmodel.RolloutBackend):
    """A stepper that records the actions it is given, and each reset with
    the number of steps before it."""

    def __init__(self, wm, rng):
        super().__init__(wm, rng)
        self.actions, self.resets = [], []

    def reset(self, states, rows=None):
        self.resets.append((len(self.actions), list(states), rows))
        super().reset(states, rows)

    def step_chunk(self, actions, rows):
        self.actions.append(actions.copy())
        return super().step_chunk(actions, rows)


def _finetune(total_updates, n_inits=2, policy=None, scene=None, **overrides):
    """(DSRL state, backend, start states) of a tiny fine-tuning run, its
    models in the default scene and `scene` (by default that one) given to
    finetune."""
    models_scene = default_scene()
    scene = scene or models_scene
    wm = worldmodel.create_worldmodel(models_scene, worldmodel.WmConfig(hidden=16, depth=1,
                                                                        denoise_steps=25), Rng(1))
    policy = policy or _policy(models_scene)
    width = statecodec.state_dim(len(scene.objects))
    prog = progress.ProgressModel(nets.init_mlp([width, 8, 1], Rng(3), "silu"), models_scene)
    init_rng = Rng(4)
    inits = [jittered_state(scene, init_rng, policies.INIT_JITTER) for _ in range(n_inits)]
    cfg = dsrl.DsrlConfig(**{**dict(hidden=16, depth=1, batch=8, buffer_capacity=64,
                                    initial_rollout_steps=10, max_episode_steps=10,
                                    train_freq=5, eval_every=1000, eval_rollouts=1),
                             **overrides})
    backend = RecordingBackend(wm, Rng(5))
    st, _, _ = dsrl.finetune(backend, policy, prog, scene, TASK, cfg, Rng(6),
                             total_updates=total_updates, inits=inits)
    return st, backend, inits


def _policy(scene, gain=1.0):
    """A tiny untrained policy; gain scales its output layer."""
    policy = policies.create_policy(scene, policies.PolicyConfig(hidden=16, depth=1,
                                                                 denoise_steps=25), Rng(2))
    policy.denoiser.net.params["w1"][...] *= gain
    policy.denoiser.net.params["b1"][...] *= gain
    return policy


@pytest.mark.parametrize("name", ["buffer_capacity", "eval_rollouts", "eval_every", "hidden",
                                  "depth"])
def test_config_counts_must_be_positive(name):
    """Each count fails by name when built, not at its first use: an empty
    buffer at the first push, no eval rollouts in the success rate, an eval
    after every update, zero-width layers that output only zeros, and a
    linear net."""
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{name} must be positive, got {value}"):
            dsrl.DsrlConfig(**{name: value})


@pytest.mark.parametrize("total_updates, utd", [(8, 2), (30, 10), (7, 3)])
def test_finetune_stops_at_total_updates(total_updates, utd):
    st, _, _ = _finetune(total_updates, utd=utd)
    assert st.updates_done == total_updates


def test_finetune_steps_every_start_state_in_lockstep():
    st, backend, inits = _finetune(12, n_inits=3, utd=4)
    C = backend.wm.cfg.chunk
    assert backend.actions and all(a.shape == (3, C, 4) for a in backend.actions)
    # every step pushes one transition per rollout
    assert st.buffer.size == 3 * len(backend.actions)


def test_finetune_restarts_each_rollout_from_its_own_start_state():
    # max_episode_steps 10 is two chunks of 5, so every rollout restarts
    # after each second step if it has not succeeded before
    st, backend, inits = _finetune(12, n_inits=3, utd=4)
    (_, first, rows), *restarts = backend.resets
    assert rows is None and first == inits
    assert restarts
    for step, states, rows in restarts:
        assert len(rows) == len(states) and sorted(set(rows)) == list(rows)
        assert all(s is inits[b] for s, b in zip(states, rows))
        # the rollout's next transition starts from its start state
        if step < len(backend.actions):
            for b in rows:
                assert (st.buffer.s[3 * step + b] == statecodec.encode_state(inits[b])).all()


def test_finetune_is_seed_deterministic():
    (a, _, _), (b, _, _) = _finetune(12), _finetune(12)
    assert a.actor.param_hash() == b.actor.param_hash()
    assert a.buffer.size == b.buffer.size
    for name in ("s", "w", "r", "s2", "done"):
        assert (getattr(a.buffer, name) == getattr(b.buffer, name)).all(), name


def test_finetune_drives_the_model_with_the_executed_actions():
    """The stepper is given the actions `act` would decode: clipped, in
    simulator units. (The policy chunks are denoised as one batch, as
    finetune does: a batch of rows and rows one at a time differ in the last
    bits.)"""
    policy = _policy(default_scene(), gain=4.0)
    st, backend, inits = _finetune(2, n_inits=2, policy=policy)
    C = backend.wm.cfg.chunk
    # the buffer's first two rows are the first step's states and latents
    conds = np.stack([statecodec.encode_state(s) for s in inits])
    assert (st.buffer.s[:2] == conds).all()
    chunks = ddim_sample(policy.denoiser, policy.schedule, conds, policy.cfg.ddim_steps,
                         st.buffer.w[:2])
    assert (np.abs(chunks[:, :4 * C]) > 1.0).any()  # some actions are clipped
    for b in range(len(inits)):
        want = [astuple(statecodec.decode_action(chunks[b, 4 * i:4 * i + 4])) for i in range(C)]
        assert (backend.actions[0][b] == np.array(want)).all()


def test_act_decodes_the_chunk_plan_actions_plans():
    """`act` on one state is `plan_actions` on its encoding with the same
    latent: the chunk's HORIZON actions, row for row."""
    scene = default_scene()
    policy = _policy(scene, gain=4.0)
    state = jittered_state(scene, Rng(8), policies.INIT_JITTER)
    w0 = Rng(9).normal(policy.latent_dim)
    rows = policies.plan_actions(policy, statecodec.encode_state(state)[None, :], w0[None, :])[0]
    actions = policies.act(policy, state, w0)
    assert len(actions) == policies.HORIZON
    assert [astuple(a) for a in actions] == [tuple(row) for row in rows.tolist()]


@pytest.mark.parametrize("max_episode_steps, replan", [(7, 5), (12, 5), (10, 4), (3, 5)])
def test_config_episode_must_be_whole_chunks(max_episode_steps, replan):
    """A rollout restarts only at a chunk's end, so an episode length that
    is not a whole number of chunks would run imagined episodes longer than
    the real evaluations, which cut at max_episode_steps."""
    with pytest.raises(ValueError, match=rf"max_episode_steps \({max_episode_steps}\) must be a "
                                         rf"whole number of replan chunks \({replan}\)"):
        dsrl.DsrlConfig(max_episode_steps=max_episode_steps, replan=replan)
    dsrl.DsrlConfig(max_episode_steps=2 * replan, replan=replan)


def test_finetune_replan_must_match_model_chunk():
    with pytest.raises(ValueError, match="once per model chunk"):
        _finetune(2, replan=4, max_episode_steps=8)


def test_finetune_rejects_models_of_another_scene(monkeypatch):
    """Each model whose scene is not finetune's is named before the actor
    is drawn or the first real evaluation runs: start states and real
    evaluations come from finetune's scene, rollouts from the world
    model's."""
    def not_reached(*args, **kwargs):
        raise AssertionError("finetune went past its argument checks")

    monkeypatch.setattr(dsrl, "make_dsrl", not_reached)
    monkeypatch.setattr(dsrl, "measure_real", not_reached)
    bowl, *rest = default_scene().objects
    moved = SceneConfig((replace(bowl, x=bowl.x + 0.1), *rest))
    with pytest.raises(ValueError, match="differs from that of the world model and the policy "
                                         "and the progress model$"):
        _finetune(2, scene=moved)
    with pytest.raises(ValueError, match="differs from that of the policy$"):
        _finetune(2, policy=_policy(moved))


def test_finetune_rejects_no_start_states(monkeypatch):
    """An empty `inits` fails by name before the actor is drawn or the first
    real evaluation runs, not in the first reset of the model's rollouts."""
    def not_reached(*args, **kwargs):
        raise AssertionError("finetune went past its argument checks")

    monkeypatch.setattr(dsrl, "make_dsrl", not_reached)
    monkeypatch.setattr(dsrl, "measure_real", not_reached)
    with pytest.raises(ValueError, match="inits must hold at least one start state"):
        _finetune(2, n_inits=0)


def test_rollout_backend_steps_a_batch_one_chunk_at_a_time():
    scene = default_scene()
    wm = worldmodel.create_worldmodel(scene, worldmodel.WmConfig(hidden=16, depth=1), Rng(1))
    backend = worldmodel.RolloutBackend(wm, Rng(2))
    init_rng = Rng(3)
    backend.reset([jittered_state(scene, init_rng, 0.03) for _ in range(3)])
    H, C = wm.cfg.history, wm.cfg.chunk
    actions = Rng(4).normal((3, C, 4)) * 0.1  # executed: dx, dy in simulator units
    states = backend.step_chunk(actions, [0, 1, 2])
    assert [len(row) for row in states] == [C] * 3
    assert backend.hist_states.shape == (3, H, wm.state_width)

    def assert_history_encodes(chunk):
        """The history ends in stacked `encode_state` of the returned states, bit for bit."""
        want = np.array([[statecodec.encode_state(s) for s in row] for row in chunk])
        assert backend.hist_states[:, -C:].tobytes() == want.tobytes()
    # the history ends in the re-encoded predicted states and driving actions
    assert_history_encodes(states)
    assert (backend.hist_actions[:, -C:] == statecodec.encode_action_rows(actions)).all()
    assert_history_encodes(backend.step_chunk(actions[::-1] * 5.0, [0, 1, 2]))  # a second chunk
    with pytest.raises(ValueError, match="executed actions"):
        backend.step_chunk(actions[:, :C - 1], [0, 1, 2])


def test_rollout_backend_steps_only_the_chosen_rows():
    """step_chunk(actions, rows) advances the histories of those rows by one
    chunk and leaves every other row's history byte for byte."""
    scene = default_scene()
    wm = worldmodel.create_worldmodel(scene, worldmodel.WmConfig(hidden=16, depth=1), Rng(1))
    H, C = wm.cfg.history, wm.cfg.chunk
    init_rng = Rng(3)
    starts = [jittered_state(scene, init_rng, 0.03) for _ in range(4)]
    backend = worldmodel.RolloutBackend(wm, Rng(2))
    backend.reset(starts)
    backend.step_chunk(Rng(4).normal((4, C, 4)) * 0.1, [0, 1, 2, 3])
    kept_states, kept_actions = backend.hist_states.copy(), backend.hist_actions.copy()
    rows, actions = [3, 1], Rng(5).normal((2, C, 4)) * 0.1
    states = backend.step_chunk(actions, rows)
    assert [len(chunk) for chunk in states] == [C, C]
    for b, chunk, acts in zip(rows, states, actions):
        want = np.array([statecodec.encode_state(s) for s in chunk])
        assert backend.hist_states[b, -C:].tobytes() == want.tobytes()
        assert backend.hist_states[b, :H - C].tobytes() == kept_states[b, C:].tobytes()
        assert (backend.hist_actions[b, -C:] == statecodec.encode_action_rows(acts)).all()
        assert backend.hist_actions[b, :-C].tobytes() == kept_actions[b, C:].tobytes()
    for b in (0, 2):
        assert backend.hist_states[b].tobytes() == kept_states[b].tobytes()
        assert backend.hist_actions[b].tobytes() == kept_actions[b].tobytes()
    with pytest.raises(ValueError, match=rf"\(2, {C}, 4\) executed actions, got \(4, {C}, 4\)"):
        backend.step_chunk(Rng(5).normal((4, C, 4)), rows)


def test_rollout_backend_resets_only_the_chosen_rows():
    scene = default_scene()
    wm = worldmodel.create_worldmodel(scene, worldmodel.WmConfig(hidden=16, depth=1), Rng(1))
    backend = worldmodel.RolloutBackend(wm, Rng(2))
    init_rng = Rng(3)
    starts = [jittered_state(scene, init_rng, 0.03) for _ in range(4)]
    backend.reset(starts)
    H, C = wm.cfg.history, wm.cfg.chunk
    backend.step_chunk(Rng(4).normal((4, C, 4)) * 0.1, [0, 1, 2, 3])
    kept_states, kept_actions = backend.hist_states.copy(), backend.hist_actions.copy()
    fresh = [jittered_state(scene, init_rng, 0.03) for _ in range(2)]
    backend.reset(fresh, rows=[3, 1])
    # the restarted rows hold their new state still, with zero actions
    for b, state in ((3, fresh[0]), (1, fresh[1])):
        assert (backend.hist_states[b] == statecodec.encode_state(state)).all()
        assert (backend.hist_actions[b] == 0.0).all()
    # the other rows keep their histories
    for b in (0, 2):
        assert (backend.hist_states[b] == kept_states[b]).all()
        assert (backend.hist_actions[b] == kept_actions[b]).all()
    assert backend.hist_states.shape == (4, H, wm.state_width)
    with pytest.raises(ValueError, match="2 states for 1 rows"):
        backend.reset(fresh, rows=[0])
