import math
import os
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import TASK
from playwm import bench, dsrl, metrics, nets, policies, progress, statecodec, worldmodel
from playwm.bench import EvalStudyConfig, measure_imagined
from playwm.curation import Embedder
from playwm.playsys import ProposerConfig, collect
from playwm.policies import PolicyConfig, create_policy
from playwm.rng import Rng
from playwm.scene import SceneConfig, default_scene
from playwm.store import EpisodeStore
from playwm.tasks import TaskSpec, check_success
from playwm.worldmodel import WmConfig, create_worldmodel
from test_metrics import ssim_five_calls


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
        imagined.append(check_success(nxt, TASK))
        return infer(prev, action, nxt)

    def counted_step(env, action, u=None):
        out = step(env, action, u)
        real.setdefault(env, []).append(check_success(out[0], TASK))
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
        calls.append((prev, nxt, check_success(nxt, TASK)))
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
    """Each predicted vector is projected onto a valid state once, for both
    the returned states and the history's encodings: C rows for each
    rollout that a decision plans, and none for a finished one."""
    scene, policy, wm = trained
    cfg = EvalStudyConfig(task=TASK, n_wm=10, max_steps=30)
    project, rows = statecodec.project_states, []
    plan, planned = policies.plan_actions, []
    monkeypatch.setattr(statecodec, "project_states",
                        lambda vecs, roster: rows.append(len(vecs)) or project(vecs, roster))
    monkeypatch.setattr(bench, "plan_actions",
                        lambda *args: planned.append(len(args[1])) or plan(*args))
    rate, _ = bench.measure_imagined(policy, wm, cfg, Rng(71))
    assert 0 < rate < 1 and planned[-1] < cfg.n_wm
    assert rows == [wm.cfg.chunk * n for n in planned]


@pytest.mark.parametrize("steps", [None, 4])
def test_predict_chunk_runs_one_forward_per_sample_step(trained, monkeypatch, steps):
    """A world-model chunk takes SAMPLE_STEPS reverse steps, fewer than the
    denoise_steps the model trained on, each one denoiser forward over the
    whole batch; the step count is read from the module constant."""
    _, _, wm = trained
    if steps is not None:
        monkeypatch.setattr(worldmodel, "SAMPLE_STEPS", steps)
    forward, shapes = nets.forward, []

    def counted_forward(net, x, cache=None, **kwargs):
        shapes.append(x.shape)
        return forward(net, x, cache, **kwargs)

    monkeypatch.setattr(nets, "forward", counted_forward)
    H, C, B = wm.cfg.history, wm.cfg.chunk, 3
    worldmodel.predict_chunk(wm, np.zeros((B, H, wm.state_width)), np.zeros((B, H - 1 + C, 4)),
                             Rng(5))
    assert worldmodel.SAMPLE_STEPS < wm.cfg.denoise_steps
    assert shapes == [(B, wm.denoiser.target_dim)] * worldmodel.SAMPLE_STEPS


@pytest.mark.parametrize("loop", ["bench", "dsrl"])
def test_imagined_loops_drive_the_model_with_the_executed_actions(trained, monkeypatch, loop):
    """The lockstep evaluation and DSRL condition the world model on the
    policy's chunks as the simulator executes them, encoded as the stored
    actions the model trained on."""
    scene, policy, wm = trained
    C, N = wm.cfg.chunk, 5  # at N = 3 every imagined rollout succeeds in its first chunk
    ddim, predict = policies.ddim_sample, worldmodel.predict_chunk
    chunks, pairs = [], []

    def spied_ddim(*args):
        chunks.append(ddim(*args))
        return chunks[-1]

    def spied_predict(wm_, hist, actions, rng):
        # each prediction is driven by the plan made just before it
        pairs.append((chunks[-1], actions[:, -C:].copy()))
        return predict(wm_, hist, actions, rng)

    for module in (policies, bench, dsrl):  # wherever a loop may call the sampler
        monkeypatch.setattr(module, "ddim_sample", spied_ddim, raising=False)
    monkeypatch.setattr(worldmodel, "predict_chunk", spied_predict)
    if loop == "bench":
        bench.measure_imagined(policy, wm, EvalStudyConfig(task=TASK, n_wm=N), Rng(71))
        assert len(pairs) == len(chunks)
    else:
        width = statecodec.state_dim(len(scene.objects))
        prog = progress.ProgressModel(nets.init_mlp([width, 8, 1], Rng(3), "silu"), scene)
        cfg = dsrl.DsrlConfig(hidden=16, depth=1, batch=8, initial_rollout_steps=10,
                              max_episode_steps=10, train_freq=5, eval_rollouts=1)
        dsrl.finetune(worldmodel.RolloutBackend(wm, Rng(5)), policy, prog, scene, TASK, cfg,
                      Rng(6), total_updates=2, inits=[scene.nominal_state()] * N)
    assert pairs
    planned = [chunk[:, :4 * C].reshape(len(chunk), C, 4) for chunk, _ in pairs]
    assert any((np.abs(c) > 1.0).any() for c in planned)  # some actions are clipped
    for chunk, (_, got) in zip(planned, pairs):
        want = statecodec.encode_action_rows(statecodec.decode_action_rows(chunk))
        assert got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("max_steps", [30, 7])
def test_imagined_rollouts_step_in_lockstep(trained, monkeypatch, max_steps):
    """The imagined twin of `test_real_rollouts_step_in_lockstep`: each
    decision plans every rollout that has not yet succeeded in one
    `plan_actions` call, and the world model predicts exactly those rows,
    from the very states they were planned from. A rollout is neither
    planned nor predicted after its first success."""
    scene, policy, wm = trained
    C, n = wm.cfg.chunk, 10
    plan, predict = policies.plan_actions, worldmodel.predict_chunk
    step_chunk = worldmodel.RolloutBackend.step_chunk
    plans, predicted, stepped = [], [], []

    def spied_plan(policy_, conds, w0):
        plans.append(conds.copy())
        return plan(policy_, conds, w0)

    def spied_predict(wm_, hist, actions, rng):
        predicted.append(hist[:, -1].copy())
        return predict(wm_, hist, actions, rng)

    def spied_step(backend, actions, rows=None):
        out = step_chunk(backend, actions, rows)
        stepped.append((list(range(len(out))) if rows is None else list(rows), out))
        return out

    monkeypatch.setattr(bench, "plan_actions", spied_plan)
    monkeypatch.setattr(worldmodel, "predict_chunk", spied_predict)
    monkeypatch.setattr(worldmodel.RolloutBackend, "step_chunk", spied_step)
    cfg = EvalStudyConfig(task=TASK, n_wm=n, max_steps=max_steps)
    rate, _ = bench.measure_imagined(policy, wm, cfg, Rng(71))
    counts = [len(conds) for conds in plans]
    assert counts[0] == n and counts == sorted(counts, reverse=True)
    assert len(plans) == len(predicted) == len(stepped) == -(-max_steps // C)
    for conds, hist in zip(plans, predicted):
        assert hist.tobytes() == conds.tobytes()
    done, t = set(), 0
    for rows, chunks in stepped:
        assert rows == [b for b in range(n) if b not in done]
        for b, chunk in zip(rows, chunks):
            if any(check_success(s, TASK) for s in chunk[:max_steps - t]):
                done.add(b)
        t += C
    assert len(done) == round(rate * n)
    if max_steps == 30:
        assert 0 < len(done) < n


@pytest.mark.parametrize("max_steps, replan", [(30, 5), (7, 5)])
@pytest.mark.parametrize("steered", [False, True])
def test_real_rollouts_step_in_lockstep(trained, monkeypatch, max_steps, replan, steered):
    """Each decision plans every rollout that has not yet succeeded in one
    `plan_actions` call, from `encode_state` of its env's state, and hands
    `latent` those encoded states as one batch. A rollout takes no step
    after its first success, and every other one takes max_steps steps,
    also when replan does not divide it."""
    scene, policy, _ = trained
    envs, plans, latents = [], [], []

    class RecordingEnv(bench.Env):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.flags = []  # per step: did it reach success
            envs.append(self)

        def step(self, action, u=None):
            out = super().step(action, u)
            self.flags.append(check_success(out[0], TASK))
            return out

    plan = policies.plan_actions

    def spied_plan(policy_, conds, w0):
        live = [env for env in envs if not any(env.flags)]
        want = np.stack([statecodec.encode_state(env.state) for env in live])
        assert conds.tobytes() == want.tobytes()
        plans.append((conds.copy(), w0.shape))
        return plan(policy_, conds, w0)

    def latent(conds):
        latents.append(conds.copy())
        return np.zeros((len(conds), policy.latent_dim))

    monkeypatch.setattr(bench, "Env", RecordingEnv)
    monkeypatch.setattr(bench, "plan_actions", spied_plan)
    n = 10
    cfg = EvalStudyConfig(task=TASK, n_real=n, max_steps=max_steps, replan=replan)
    rate, _ = bench.measure_real(policy, scene, cfg, Rng(73), latent=latent if steered else None)
    assert len(envs) == n
    rows = [len(conds) for conds, _ in plans]
    assert rows[0] == n and rows == sorted(rows, reverse=True)
    assert [shape for _, shape in plans] == [(b, policy.latent_dim) for b in rows]
    if steered:
        assert [c.tobytes() for c in latents] == [conds.tobytes() for conds, _ in plans]
    else:
        assert not latents
    wins = [env for env in envs if any(env.flags)]
    assert len(wins) == round(rate * n)
    if max_steps == 30:
        assert 0 < len(wins) < n
    for env in envs:
        if env in wins:
            assert len(env.flags) <= max_steps
            assert env.flags == [False] * (len(env.flags) - 1) + [True]
        else:
            assert env.flags == [False] * max_steps


def test_measure_real_plans_once_per_decision(trained, monkeypatch):
    """Ten rollouts of 30 steps at replan 5 make at most 30 / 5 = 6
    `plan_actions` calls, one per decision, however many rollouts live; a
    loop that planned each rollout on its own would make up to 60."""
    scene, policy, _ = trained
    calls, plan = [], policies.plan_actions
    monkeypatch.setattr(bench, "plan_actions",
                        lambda *args: calls.append(len(args[1])) or plan(*args))
    cfg = EvalStudyConfig(task=TASK, n_real=10, max_steps=30, replan=5)
    bench.measure_real(policy, scene, cfg, Rng(70))
    assert 0 < len(calls) <= 6 and calls[0] == cfg.n_real


def test_closed_loops_encode_live_states_through_arrays(trained, monkeypatch):
    """The real and imagined evaluations and DSRL encode live states only
    through `encode_states`: one call per `closed_loop` decision, on that
    decision's live rollouts, and one per `RolloutBackend.reset`, beside
    the one with which each `step_chunk` encodes its predictions."""
    scene, policy, wm = trained
    encode, plan = statecodec.encode_states, policies.plan_actions
    reset, step = worldmodel.RolloutBackend.reset, worldmodel.RolloutBackend.step_chunk
    encoded, want = [], Counter()  # per encode_states call: its caller and its rows

    def scalar(state):
        raise AssertionError("the program called the scalar encode_state")

    def counted_encode(*arrays):
        encoded.append((sys._getframe(1).f_code.co_name, len(arrays[0])))
        return encode(*arrays)

    def counted_plan(policy_, conds, w0):
        want["closed_loop", len(conds)] += 1
        return plan(policy_, conds, w0)

    def counted_reset(backend, states, rows=None):
        want["reset", len(states)] += 1
        return reset(backend, states, rows)

    def counted_step(backend, actions, rows=None):
        want["step_chunk", len(actions) * wm.cfg.chunk] += 1
        return step(backend, actions, rows)

    monkeypatch.setattr(statecodec, "encode_state", scalar)
    monkeypatch.setattr(statecodec, "encode_states", counted_encode)
    monkeypatch.setattr(bench, "plan_actions", counted_plan)
    monkeypatch.setattr(worldmodel.RolloutBackend, "reset", counted_reset)
    monkeypatch.setattr(worldmodel.RolloutBackend, "step_chunk", counted_step)
    cfg = EvalStudyConfig(task=TASK, n_real=6, n_wm=6)
    bench.measure_real(policy, scene, cfg, Rng(70))
    bench.measure_imagined(policy, wm, cfg, Rng(71))
    width = statecodec.state_dim(len(scene.objects))
    prog = progress.ProgressModel(nets.init_mlp([width, 8, 1], Rng(3), "silu"), scene)
    dsrl_cfg = dsrl.DsrlConfig(hidden=16, depth=1, batch=8, initial_rollout_steps=10,
                               max_episode_steps=10, train_freq=5, eval_rollouts=2)
    dsrl.finetune(worldmodel.RolloutBackend(wm, Rng(5)), policy, prog, scene, TASK, dsrl_cfg,
                  Rng(6), total_updates=2, inits=[scene.nominal_state()] * 5)
    assert {name for name, _ in want} == {"closed_loop", "reset", "step_chunk"}
    assert Counter(encoded) == want


@pytest.mark.parametrize("entry", ["finetune", "EvalStudyConfig"])
def test_replan_above_the_policy_horizon_is_refused(trained, monkeypatch, entry):
    """A plan holds HORIZON actions, so a larger replan would silently
    re-plan after HORIZON of them; it is refused by name before any draw.
    DSRL's real evaluations re-plan once per model chunk, so a model chunk
    of 20 is refused before the actor or a start state is drawn."""
    scene, policy, _ = trained
    rng = Rng(73)

    def not_reached(*args, **kwargs):
        raise AssertionError("finetune went past its argument checks")

    monkeypatch.setattr(dsrl, "make_dsrl", not_reached)
    with pytest.raises(ValueError, match="replan must be at most 16, got 20"):
        if entry == "finetune":
            wm = create_worldmodel(scene, WmConfig(hidden=16, depth=1, chunk=20), Rng(0))
            width = statecodec.state_dim(len(scene.objects))
            prog = progress.ProgressModel(nets.init_mlp([width, 8, 1], Rng(3), "silu"), scene)
            dsrl.finetune(worldmodel.RolloutBackend(wm, Rng(5)), policy, prog, scene, TASK,
                          dsrl.DsrlConfig(replan=20, max_episode_steps=40), rng,
                          total_updates=1)
        else:
            bench.measure_real(policy, scene, EvalStudyConfig(task=TASK, max_steps=40,
                                                              replan=20), rng)
    assert rng.spawn_seed() == Rng(73).spawn_seed()


@pytest.mark.parametrize("n_wm", [0, -2])
@pytest.mark.parametrize("in_model", [True, False])
def test_imagined_rollouts_reject_bad_counts(trained, n_wm, in_model):
    """No imagined rollouts have no success rate: the config refuses n_wm
    below 1 by name, so neither the world model nor the simulator draws."""
    scene, policy, wm = trained
    rng = Rng(71)
    with pytest.raises(ValueError, match=f"n_wm must be at least 1, got {n_wm}"):
        measure_imagined(policy, wm if in_model else scene,
                         EvalStudyConfig(task=TASK, n_wm=n_wm), rng)
    assert rng.spawn_seed() == Rng(71).spawn_seed()


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("field", ["n_real", "n_wm", "max_steps", "replan"])
def test_eval_config_rejects_counts_that_run_nothing(field, value):
    """A config whose rollouts take no step or that runs no rollout would
    report rates over nothing: max_steps 0 once labelled every real rollout
    a success without a step."""
    with pytest.raises(ValueError, match=f"{field} must be at least 1, got {value}"):
        EvalStudyConfig(task=TASK, **{field: value})


@pytest.fixture(scope="module")
def replay_store(tmp_path_factory):
    """Twelve play episodes, all held out: 10 clips over five modes."""
    store = EpisodeStore(str(tmp_path_factory.mktemp("replay-play")))
    collect(default_scene(), ProposerConfig(), 12, Rng(43), store)
    return store


def replay_benchmark(store, per_mode):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "MIN_CLIP_FRACTION", 0.0)  # a mode may have fewer clips
        bm = bench.build_benchmark({"play": store}, {"play": store.ids()}, per_mode, Rng(44),
                                   history=7, chunk=5, stride=3)
    # each mode's clips come out together; interleave them, so that rows
    # scored against the wrong clip's frames differ
    bm.clips = bm.clips[::2] + bm.clips[1::2]
    return bm


def test_build_benchmark_encodes_only_each_clip_history(replay_store, monkeypatch):
    """A clip encodes the H history states of its window, not its episode."""
    encode, rows = statecodec.encode_states, []
    monkeypatch.setattr(statecodec, "encode_states",
                        lambda *arrays: rows.append(len(arrays[0])) or encode(*arrays))
    bm = replay_benchmark(replay_store, 2)
    H = WmConfig().history
    assert bm.clips and rows == [H] * len(bm.clips)
    assert all(len(clip.hist_states) == H for clip in bm.clips)


def test_oracle_replay_ignores_the_scene(replay_store):
    """The oracle starts every clip from its own stored state, so a scene
    with other objects at other poses scores the same report."""
    bm = replay_benchmark(replay_store, 2)
    other = SceneConfig(tuple(replace(o, x=1.0 - o.x, y=1.0 - o.y)
                              for o in default_scene().objects[:3]))
    emb = Embedder.create(3)
    assert bm.clips
    assert bench.run_replay(bm, "oracle", emb, scene=default_scene()) == \
        bench.run_replay(bm, "oracle", emb, scene=other)


def test_build_benchmark_names_each_short_mode(replay_store):
    """At the default floor, MIN_CLIP_FRACTION of the clips asked for each
    mode, the draw fails and names every mode with fewer candidates, with
    its count. At 12 a mode the floor is 10: Deformation, with exactly 10
    candidates, and Missed Grasp, with 12, are not short."""
    with pytest.raises(bench.BenchmarkError) as err:
        bench.build_benchmark({"play": replay_store}, {"play": replay_store.ids()}, 12,
                              Rng(44), history=7, chunk=5, stride=3)
    assert str(err.value) == ("insufficient held-out clips per mode (need >= 10): "
                              "{'Success': 9, 'Slide': 2, 'Slip': 0, 'Collision': 2}")


def rows_one_frame_a_call(bm, frames, embedder):
    """Replay rows scored one frame pair a call, as before the blocks: MSE
    as one 2D mean, PSNR from it, SSIM as 49-term sums, the proxy from
    one-row products."""
    C, out = bm.chunk, []
    for i, clip in enumerate(bm.clips):
        vals = dict.fromkeys(metrics.METRIC_NAMES, 0.0)
        for f_pred, f_gt in zip(frames[i * C:(i + 1) * C], clip.gt_frames, strict=True):
            d = f_pred - f_gt
            m = float((d * d).mean())
            vals["mse"] += m
            vals["psnr"] += 100.0 if m <= 0.0 else min(100.0, 10.0 * math.log10(1.0 / m))
            vals["ssim"] += ssim_five_calls(f_pred, f_gt)
            ex, ey = ((f.reshape(1, -1) @ embedder.matrix).ravel() for f in (f_pred, f_gt))
            vals["lpips_proxy"] += float(np.linalg.norm(ex - ey) / math.sqrt(ex.size))
        out.append({k: v / C for k, v in vals.items()})
    return out


def test_replay_rows_match_one_frame_a_call(trained, replay_store, monkeypatch):
    """Blocks of SCORE_BLOCK frames cut across clips (10 clips of 5 frames
    are blocks of 16, 16, 16 and 2), yet each row scores its own clip's
    frames: MSE and PSNR bit for bit, SSIM and the proxy within 1e-15."""
    _, _, wm = trained
    bm = replay_benchmark(replay_store, 2)
    n = len(bm.clips) * bm.chunk
    assert n > bench.SCORE_BLOCK and n % bench.SCORE_BLOCK
    predicted, render = [], bench.predicted_frames
    monkeypatch.setattr(bench, "predicted_frames",
                        lambda *args: predicted.append(render(*args)) or predicted[-1])
    emb = Embedder.create(3)
    report = bench.run_replay(bm, wm, emb, Rng(45))
    want = rows_one_frame_a_call(bm, predicted[0], emb)
    assert len(report.rows) == len(want) == len(bm.clips)
    assert len({row["ssim"] for row in want}) == len(want)
    for clip, got, ref in zip(bm.clips, report.rows, want):
        assert (got["episode"], got["start"]) == (clip.window.episode_id, clip.window.start)
        assert (got["mse"], got["psnr"]) == (ref["mse"], ref["psnr"])
        assert abs(got["ssim"] - ref["ssim"]) <= 1e-15
        assert abs(got["lpips_proxy"] - ref["lpips_proxy"]) <= 1e-15


def test_replay_scores_each_block_in_one_call(trained, replay_store, monkeypatch):
    """One call of each metric per block of at most SCORE_BLOCK frames, for
    the model and the oracle alike: per-frame scoring cannot come back."""
    scene, _, wm = trained
    bm = replay_benchmark(replay_store, 2)
    blocks = {"ssim": [], "lpips_proxy": []}  # frames scored per call

    def spied(name):
        fn = getattr(metrics, name)

        def counted(*args):
            blocks[name].append(len(args[-1]))
            return fn(*args)
        return counted

    for name in blocks:
        spy = spied(name)
        monkeypatch.setattr(metrics, name, spy)
        monkeypatch.setattr(bench, name, spy, raising=False)
    n = len(bm.clips) * bm.chunk
    for model, kwargs in ((wm, {"rng": Rng(45)}), ("oracle", {"scene": scene})):
        for sizes in blocks.values():
            sizes.clear()
        bench.run_replay(bm, model, Embedder.create(3), **kwargs)
        for sizes in blocks.values():
            assert len(sizes) <= -(-n // bench.SCORE_BLOCK)
            assert sum(sizes) == n and max(sizes) <= bench.SCORE_BLOCK


def test_replay_of_no_clips_is_the_empty_report(trained, replay_store):
    """A benchmark drawn with no clips per mode has no clips; the model and
    the oracle both score it as the same empty report."""
    scene, _, wm = trained
    bm = replay_benchmark(replay_store, 0)
    assert bm.clips == []
    emb = Embedder.create(3)
    by_model = bench.run_replay(bm, wm, emb, Rng(45))
    by_oracle = bench.run_replay(bm, "oracle", emb, scene=scene)
    assert by_model == by_oracle == metrics.MetricReport(rows=[], per_mode={}, overall={})


def test_model_replay_needs_an_rng(trained, replay_store):
    """A world model samples its predictions; without an rng it fails, as
    the oracle does without a scene, instead of drawing from a hidden seed.
    Each fails too when given the other's input, which it would ignore."""
    scene, _, wm = trained
    emb = Embedder.create(3)
    for bm in (replay_benchmark(replay_store, 0), replay_benchmark(replay_store, 1)):
        with pytest.raises(ValueError, match="world-model replay needs an rng"):
            bench.run_replay(bm, wm, emb)
        with pytest.raises(ValueError, match="oracle replay needs the scene config"):
            bench.run_replay(bm, "oracle", emb)
        with pytest.raises(ValueError, match="world-model replay takes no scene config"):
            bench.run_replay(bm, wm, emb, Rng(45), scene=scene)
        with pytest.raises(ValueError, match="oracle replay draws nothing: it takes no rng"):
            bench.run_replay(bm, "oracle", emb, Rng(45), scene=scene)


@pytest.mark.parametrize("stores, heldout, missing, extra", [
    (("play", "bench"), ("play",), ["bench"], []),
    (("play",), ("play", "bench"), [], ["bench"]),
    (("play",), ("bench",), ["play"], ["bench"]),
])
def test_held_out_ids_name_exactly_the_stores(replay_store, monkeypatch,
                                              stores, heldout, missing, extra):
    """A store without held-out ids would give no clips, and ids for no
    store would be dropped: both fail, naming the keys, before any read."""
    monkeypatch.setattr(replay_store, "read", lambda eid: pytest.fail(f"read {eid}"))
    with pytest.raises(ValueError, match=re.escape(
            f"heldout must name exactly the stores: missing {missing}, extra {extra}")):
        bench.build_benchmark({name: replay_store for name in stores},
                              {name: replay_store.ids() for name in heldout}, 1, Rng(44),
                              history=7, chunk=5, stride=3)


def test_build_suite_keeps_each_trained_variant_demos_under_the_root(tmp_path):
    """Only a variant with demos writes a store, one named after it under the
    root; the entries come back in spec order, each trained as its variant
    asks."""
    scene = default_scene()
    untrained = tuple(policies.PolicyVariant(f"untrained{k}", 0, 0.0, 0) for k in range(5))
    trained_variant = policies.PolicyVariant("d1", 1, 0.2, 3)
    spec = policies.PolicySuiteSpec(TASK, (untrained[0], trained_variant, *untrained[1:]))
    root = tmp_path / "suite"
    entries = policies.build_suite(spec, scene, Rng(9), str(root))
    assert [e.variant for e in entries] == list(spec.variants)
    assert [e.policy.train_steps_done for e in entries] == [0, 3, 0, 0, 0, 0]
    assert sorted(os.listdir(root)) == ["d1"]
    assert len(EpisodeStore(str(root / "d1"))) == 1


def test_default_suite_degrades_from_clean_to_untrained():
    """The suite the study trains: enough distinctly named variants on
    put_in 1 -> 0, the untrained one first, then demo counts rising and
    noise not rising, so the policies span success rates."""
    spec = policies.default_suite_spec()
    variants = spec.variants
    assert spec.task == TaskSpec("put_in", 1, 0)
    assert len(variants) >= policies.SUITE_POLICIES
    assert len({v.name for v in variants}) == len(variants)
    first, *rest = variants
    assert (first.demo_count, first.train_steps) == (0, 0)
    assert all(a.demo_count < b.demo_count and a.noise >= b.noise
               for a, b in zip(rest, rest[1:]))


def test_a_suite_of_too_few_policies_is_refused_before_training(trained):
    """The spec refuses fewer than SUITE_POLICIES variants when it is built,
    and `run_policy_eval` as many entries, before it measures any."""
    scene, policy, _ = trained
    variants = tuple(policies.PolicyVariant(f"v{k}", 0, 0.0, 0)
                     for k in range(policies.SUITE_POLICIES))
    policies.PolicySuiteSpec(TASK, variants)
    with pytest.raises(ValueError, match="at least 6 policies, got 3"):
        policies.PolicySuiteSpec(TASK, variants[:3])
    entries = [policies.SuiteEntry(v, policy) for v in variants[:-1]]
    with pytest.raises(ValueError, match="at least 6 policies, got 5"):
        bench.run_policy_eval(entries, scene, EvalStudyConfig(task=TASK), Rng(0))


def suite_entries(policy, other=None, at=()):
    """SUITE_POLICIES untrained variants v0, v1, ..., each with `policy`,
    or with `other` at the indices `at`."""
    return [policies.SuiteEntry(policies.PolicyVariant(f"v{k}", 0, 0.0, 0),
                                other if k in at else policy)
            for k in range(policies.SUITE_POLICIES)]


@pytest.mark.parametrize("in_model", [True, False])
def test_policy_eval_runs_real_rollouts_in_the_model_scene(trained, monkeypatch, in_model):
    """One row per entry, in entry order, over the world model or the
    simulator alike; every real rollout runs in the scene of the imagined
    ones."""
    scene, policy, wm = trained
    model = wm if in_model else scene
    seen = []
    measure = bench.measure_real

    def spy(policy, scene, *args):
        seen.append(scene)
        return measure(policy, scene, *args)

    monkeypatch.setattr(bench, "measure_real", spy)
    cfg = EvalStudyConfig(task=TASK, n_real=2, n_wm=2, max_steps=10)
    report = bench.run_policy_eval(suite_entries(policy), model, cfg, Rng(7))
    assert [r.name for r in report.rows] == [f"v{k}" for k in range(6)]
    assert len(seen) == (6 if in_model else 12)
    assert all(s is (wm.scene if in_model else scene) for s in seen)
    assert report.mean_tv == pytest.approx(np.mean([r.tv for r in report.rows]))
    assert (report.pearson is None) != (report.flagged is None)


@pytest.mark.parametrize("in_model", [True, False])
def test_policy_eval_refuses_policies_of_another_scene(trained, monkeypatch, in_model):
    """Policies trained with the bowl moved are named before any rollout,
    against the world model's scene or the simulator's."""
    scene, policy, wm = trained

    def not_reached(*args, **kwargs):
        raise AssertionError("run_policy_eval went past its argument checks")

    monkeypatch.setattr(bench, "measure_real", not_reached)
    monkeypatch.setattr(bench, "measure_imagined", not_reached)
    bowl, *rest = scene.objects
    moved = SceneConfig((replace(bowl, x=bowl.x + 0.1), *rest))
    other = create_policy(moved, PolicyConfig(hidden=16, depth=1), Rng(5))
    entries = suite_entries(policy, other, at=(1, 4))
    names = ["v1", "v4"] if in_model else ["v0", "v2", "v3", "v5"]
    with pytest.raises(ValueError, match=re.escape(
            f"policies trained in another scene than the model's: {names}")):
        bench.run_policy_eval(entries, wm if in_model else moved,
                              EvalStudyConfig(task=TASK), Rng(0))


def moved_policy():
    """A tiny policy of the default scene with the bowl moved 0.1 to the right."""
    bowl, *rest = default_scene().objects
    moved = SceneConfig((replace(bowl, x=bowl.x + 0.1), *rest))
    return create_policy(moved, PolicyConfig(hidden=16, depth=1), Rng(5))


def test_measure_real_refuses_a_policy_of_another_scene(trained):
    """A policy trained with the bowl moved is refused before any draw: its
    rollouts would start from states it never saw."""
    scene, _, _ = trained
    rng = Rng(70)
    with pytest.raises(ValueError, match="trained in another scene than the simulator's"):
        bench.measure_real(moved_policy(), scene, EvalStudyConfig(task=TASK), rng)
    assert rng.spawn_seed() == Rng(70).spawn_seed()


@pytest.mark.parametrize("in_model", [True, False])
def test_measure_imagined_refuses_a_policy_of_another_scene(trained, in_model):
    """The same refusal, before any draw, in the world model or in the
    simulator."""
    scene, _, wm = trained
    rng = Rng(71)
    where = "world model" if in_model else "simulator"
    with pytest.raises(ValueError, match=f"trained in another scene than the {where}'s"):
        bench.measure_imagined(moved_policy(), wm if in_model else scene,
                               EvalStudyConfig(task=TASK), rng)
    assert rng.spawn_seed() == Rng(71).spawn_seed()


@pytest.mark.parametrize("in_model", [True, False])
def test_closed_loop_labels_clips_with_its_own_success_flags(trained, monkeypatch, in_model):
    """`closed_loop` hands `classify_clip` each rollout's own success flag:
    rate × n of them are true, and each is `check_success` of its rollout's
    last state."""
    scene, policy, wm = trained
    loop, classify = bench.closed_loop, bench.classify_clip
    last: dict[int, object] = {}  # each rollout's latest state
    flags: list[bool] = []

    def tracked(b, pairs):
        for state, kind in pairs:
            last[b] = state
            yield state, kind

    def spied_loop(policy, states, advance, *rest):
        last.update(enumerate(states))

        def spied_advance(rows, actions):
            return [tracked(b, pairs) for b, pairs in zip(rows, advance(rows, actions))]
        return loop(policy, states, spied_advance, *rest)

    def spied_classify(kinds, task, success):
        flags.append(success)
        return classify(kinds, task, success)

    monkeypatch.setattr(bench, "closed_loop", spied_loop)
    monkeypatch.setattr(bench, "classify_clip", spied_classify)
    cfg = EvalStudyConfig(task=TASK, n_real=10, n_wm=10, max_steps=30)
    if in_model:
        rate, _ = bench.measure_imagined(policy, wm, cfg, Rng(71))
    else:
        rate, _ = bench.measure_real(policy, scene, cfg, Rng(70))
    n = len(flags)
    assert n == 10 and 0 < sum(flags) < n
    assert sum(flags) == round(rate * n)
    assert flags == [check_success(last[b], TASK) for b in range(n)]
