import pytest

from conftest import TASK
from playwm import bench, statecodec
from playwm.bench import EvalStudyConfig, measure_imagined
from playwm.policies import PolicyConfig, create_policy
from playwm.rng import Rng
from playwm.scene import default_scene
from playwm.tasks import TaskSpec, check_success
from playwm.worldmodel import WmConfig, create_worldmodel


def test_imagined_replan_must_match_model_chunk():
    scene = default_scene()
    wm = create_worldmodel(scene, WmConfig(hidden=16, depth=1), Rng(0))
    policy = create_policy(scene, PolicyConfig(), Rng(1))
    cfg = EvalStudyConfig(task=TaskSpec("put_in", 1, 0), n_wm=2, replan=wm.cfg.chunk - 1)
    with pytest.raises(ValueError, match="re-plan once per model chunk"):
        measure_imagined(policy, wm, cfg, Rng(2))


def test_step_counters_see_every_step(trained, monkeypatch):
    """The benchmark counts imagined steps by replacing
    `bench.infer_transition_event` and real steps by replacing `bench.Env.step`;
    each must see exactly one call per step of a rollout that has not yet
    succeeded."""
    scene, policy, wm = trained
    cfg = EvalStudyConfig(task=TASK, n_real=10, n_wm=10, max_steps=30)
    infer, step = bench.infer_transition_event, bench.Env.step
    imagined: list[bool] = []          # per call: did the step reach success
    real: dict[object, list[bool]] = {}  # the same per env

    def counted_infer(prev, action, nxt):
        imagined.append(check_success(nxt, TASK, scene.physics))
        return infer(prev, action, nxt)

    def counted_step(env, action, u=None):
        out = step(env, action, u)
        real.setdefault(env, []).append(check_success(out[0], TASK, env.phys))
        return out

    monkeypatch.setattr(bench, "infer_transition_event", counted_infer)
    monkeypatch.setattr(bench.Env, "step", counted_step)

    rate, _ = bench.measure_imagined(policy, wm, cfg, Rng(71))
    wins = round(rate * cfg.n_wm)
    assert 0 < wins < cfg.n_wm
    # a rollout stops counting at its first success
    assert sum(imagined) == wins
    assert (cfg.n_wm - wins) * cfg.max_steps + wins <= len(imagined) <= cfg.n_wm * cfg.max_steps
    assert not real

    rate, _ = bench.measure_real(policy, scene, cfg, Rng(70))
    wins = round(rate * cfg.n_real)
    assert 0 < wins < cfg.n_real and len(real) == cfg.n_real
    for flags in real.values():
        n = len(flags)
        assert flags == [False] * cfg.max_steps or (n <= cfg.max_steps and
                                                    flags == [False] * (n - 1) + [True])
    assert sum(map(sum, real.values())) == wins


def test_imagined_rollouts_stop_at_max_steps(trained, monkeypatch):
    """A max_steps that is not a multiple of the model chunk cuts the last
    chunk short: an imagined rollout records no more steps than a real one."""
    scene, policy, wm = trained
    cfg = EvalStudyConfig(task=TASK, n_wm=10, max_steps=7)
    assert cfg.max_steps % wm.cfg.chunk
    infer, calls = bench.infer_transition_event, []

    def counted_infer(prev, action, nxt):
        # every state is kept alive, so ids stay unique and chain each rollout
        calls.append((prev, nxt, check_success(nxt, TASK, scene.physics)))
        return infer(prev, action, nxt)

    monkeypatch.setattr(bench, "infer_transition_event", counted_infer)
    rate, _ = bench.measure_imagined(policy, wm, cfg, Rng(71))
    rollouts = {}  # id of a rollout's latest state -> (steps recorded, success)
    for prev, nxt, success in calls:
        n, _ = rollouts.pop(id(prev), (0, False))
        rollouts[id(nxt)] = (n + 1, success)
    assert len(rollouts) == cfg.n_wm
    assert sum(success for _, success in rollouts.values()) == round(rate * cfg.n_wm)
    assert any(n == cfg.max_steps for n, _ in rollouts.values())
    for n, success in rollouts.values():
        assert n == cfg.max_steps or (n < cfg.max_steps and success)


def test_imagined_decodes_each_prediction_once(trained, monkeypatch):
    scene, policy, wm = trained
    cfg = EvalStudyConfig(task=TASK, n_wm=10, max_steps=30)
    decode, calls = statecodec.decode_state, []
    monkeypatch.setattr(statecodec, "decode_state",
                        lambda *args: calls.append(1) or decode(*args))
    bench.measure_imagined(policy, wm, cfg, Rng(71))
    C = wm.cfg.chunk
    assert len(calls) == cfg.n_wm * -(-cfg.max_steps // C) * C
