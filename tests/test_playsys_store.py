import hashlib
import importlib
import importlib.util
import json
import logging
import os
import pathlib
import re
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest

from conftest import content_digest, events_of
from playwm import bench, playsys, statecodec, worldmodel
from playwm.curation import Embedder
from playwm.dynamics import Action, EventKind
from playwm.env import Env
from playwm.playsys import (ProposalError, ProposerConfig, applicable_tasks, collect,
                            execute, expert_config, propose)
from playwm.render import render
from playwm.rng import Rng
from playwm.scene import EnvState, GripperState, ObjectState, default_scene, jittered_state
from playwm.skills import Instruction, Perturbation
from playwm.store import Episode, EpisodeStore, StoreError, blocks, record, split, windows
from playwm.tasks import BehaviorMode, TaskSpec, check_success
from playwm.worldmodel import WmConfig, build_dataset


def fresh_env(seed=0):
    return Env(default_scene(), seed=seed)


def budgeted_env(monkeypatch, max_steps):
    """A fresh env whose episodes stop after max_steps steps."""
    monkeypatch.setattr(playsys, "MAX_STEPS", max_steps)
    return fresh_env()


def expert_instruction(task):
    return Instruction(task, Perturbation())


def expert_episode(eid, seed=1):
    ep = execute(fresh_env(), expert_instruction(TaskSpec("put_in", 1, 0)), Rng(seed))
    return replace(ep, eid=eid, source="demo")


def manifest_bytes(root):
    with open(os.path.join(root, "manifest.jsonl"), "rb") as fh:
        return fh.read()


# seed 7, 8 play episodes, manifest layout 3: metadata in the manifest only
GOLDEN_MANIFEST_HASH = "2ebc3ce5df68b5d153e75bbbf74ae007cc360bb0e728e4760092b10b1b0f1c79"
# the same store's blob sha256 fields in manifest order, joined: pins the
# blob bytes whatever layout holds them
GOLDEN_BLOB_HASH = "5e9e6eae8d6f7e3dba9a5aa851e53f9765450ec56ff3397b7c0fd6816ac583e2"
# the same store's content_digest: what reads return, whatever the layout
GOLDEN_CONTENT_HASH = "c27f74467836167fd8ccad29ad63f867cbf221aea68ef1e65192b8678921b49b"


def blob_record(store, eid):
    """(segment path, offset, length) of the episode's blob."""
    entry = store.meta(eid)
    return os.path.join(store.root, "episodes.bin"), entry.offset, entry.nbytes


def manifest_records(root):
    """The parsed lines of a store's manifest."""
    return [json.loads(line) for line in manifest_bytes(root).splitlines()]


def write_manifest(root, records):
    with open(os.path.join(root, "manifest.jsonl"), "wb") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True).encode() + b"\n" for rec in records)


class ReopeningStore:
    """Opens the store afresh for every append, as separate runs would."""

    def __init__(self, root):
        self.root = root

    def append(self, episode):
        return EpisodeStore(self.root).append(episode)


class TestSkills:
    def test_expert_put_in_succeeds(self):
        env = fresh_env()
        ep = execute(env, expert_instruction(TaskSpec("put_in", 1, 0)), Rng(1))
        assert ep.outcome, [e.kind.name for e in events_of(ep)]
        assert ep.n_steps <= 30

    def test_expert_success_rate_over_seeded_scenes(self):
        wins = 0
        scene = default_scene()
        for seed in range(100):
            rng = Rng(1000 + seed)
            env = Env(scene, seed=rng.spawn_seed())
            env.reset(jittered_state(scene, rng, 0.03))
            task = [TaskSpec("put_in", 1, 0), TaskSpec("stack", 1, 3),
                    TaskSpec("put_near", 2, 1), TaskSpec("fold", 4)][seed % 4]
            ep = execute(env, expert_instruction(task), rng)
            wins += ep.outcome
        assert wins >= 95, f"expert won only {wins}/100"

    def test_grasp_offset_noise_causes_misses(self):
        misses = 0
        scene = default_scene()
        for seed in range(100):
            rng = Rng(seed)
            env = Env(scene, seed=rng.spawn_seed())
            env.reset(jittered_state(scene, rng, 0.03))
            instr = Instruction(TaskSpec("put_in", 1, 0), Perturbation(sigma_g=0.08))
            ep = execute(env, instr, rng)
            if any(e.kind == EventKind.GRASP_MISS for e in events_of(ep)):
                misses += 1
        assert misses > 50

    def test_episode_length_capped(self):
        env = fresh_env()
        instr = Instruction(TaskSpec("put_in", 1, 0), Perturbation(sigma_w=0.3, sigma_g=0.3))
        ep = execute(env, instr, Rng(2))
        assert ep.n_steps <= 30

    def test_expert_fold_then_unfold(self):
        env = fresh_env()
        ep = execute(env, expert_instruction(TaskSpec("fold", 4)), Rng(3))
        assert ep.outcome
        ep2 = execute(env, expert_instruction(TaskSpec("unfold", 4)), Rng(4))
        assert ep2.outcome

    def test_expert_push_to(self):
        env = fresh_env()
        ep = execute(env, expert_instruction(TaskSpec("push_to", 1, region=(0.45, 0.5))), Rng(5))
        assert ep.outcome
        assert any(e.kind == EventKind.CONTACT_SLIDE for e in events_of(ep))

    def test_expert_stack_then_unstack(self):
        env = fresh_env()
        ep = execute(env, expert_instruction(TaskSpec("stack", 1, 3)), Rng(6))
        assert ep.outcome
        ep2 = execute(env, expert_instruction(TaskSpec("unstack", 1, 3)), Rng(7))
        assert ep2.outcome


class TestProposer:
    def test_oob_priority(self):
        s = default_scene().nominal_state()
        s.object_by_id(1).x = 0.01
        instr = propose(s, ProposerConfig(), Rng(0))
        assert instr.task.verb == "reset_retrieve"
        assert instr.task.subject == 1

    def test_determinism(self):
        s = default_scene().nominal_state()
        a = propose(s, ProposerConfig(), Rng(9))
        b = propose(s, ProposerConfig(), Rng(9))
        assert a == b

    def test_degenerate_grammar(self):
        weights = {v: 0.0 for v in ProposerConfig().verb_weights}
        weights["put_in"] = 1.0
        cfg = ProposerConfig(verb_weights=weights)
        s = default_scene().nominal_state()
        for seed in range(10):
            instr = propose(s, cfg, Rng(seed))
            assert instr.task.verb == "put_in"
            assert s.object_by_id(instr.task.subject).kind in ("disk", "rect")

    def test_empty_scene_raises(self):
        s = EnvState(gripper=GripperState(), objects=[])
        with pytest.raises(ProposalError):
            propose(s, ProposerConfig(), Rng(0))

    def test_verb_frequency_uniform(self):
        # scene where every verb is applicable
        objs = [
            ObjectState(0, "bowl", 0.3, 0.3, 0.0, (0.11, 0.085)),
            ObjectState(1, "disk", 0.31, 0.3, 0.0, (0.035,)),       # in bowl
            ObjectState(2, "rect", 0.6, 0.6, 0.0, (0.03, 0.03)),
            ObjectState(3, "rect", 0.602, 0.602, 0.0, (0.03, 0.03), z_level=1),  # stacked
            ObjectState(4, "towel2link", 0.72, 0.75, -2.3, (0.085, 0.028), fold_angle=1.5),
            ObjectState(5, "disk", 0.8, 0.3, 0.0, (0.035,)),
        ]
        s = EnvState(gripper=GripperState(), objects=objs)
        cfg = ProposerConfig()
        avail = applicable_tasks(s, cfg)
        assert all(avail[v] for v in avail), {k: len(v) for k, v in avail.items()}
        rng = Rng(123)
        counts = {}
        n = 10_000
        for _ in range(n):
            instr = propose(s, cfg, rng)
            counts[instr.task.verb] = counts.get(instr.task.verb, 0) + 1
        for verb, c in counts.items():
            assert abs(c / n - 1 / 8) < 0.02, (verb, c / n)

    def test_grammar_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProposerConfig(verb_weights={"put_in": 0.5})


class TestCollect:
    def test_collect_counts_and_clamps(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        collect(default_scene(), ProposerConfig(), 10, Rng(5), store)
        assert len(store) == 10
        for eid in store.ids():
            ep = store.read(eid)
            assert np.all(np.abs(ep.actions[:, :2]) <= 0.08 + 1e-12)

    def test_info_log_line_per_episode(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="playwm.collect"):
            collect(default_scene(), ProposerConfig(), 3, Rng(5), EpisodeStore(str(tmp_path / "s")))
        assert [r.getMessage() for r in caplog.records] == [
            "episode play-000000 fold over obj4 outcome=True events={'NONE': 14, "
            "'GRASP_MISS': 2, 'GRASP_SUCCESS': 1, 'FOLD_CHANGE': 5}",
            "episode play-000001 stack on obj1 -> 3 outcome=True events={'NONE': 16, "
            "'GRASP_SUCCESS': 1}",
            "episode play-000002 put on top of obj3 -> 2 outcome=True events={'NONE': 9, "
            "'GRASP_SUCCESS': 1}",
        ]

    def test_no_log_record_below_info(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="playwm.collect"):
            collect(default_scene(), ProposerConfig(), 2, Rng(5), EpisodeStore(str(tmp_path / "s")))
        assert caplog.records == []

    def test_episode_arrays_outlive_the_next_episode(self):
        env, rng = fresh_env(), Rng(4)
        first = execute(env, propose(env.state, ProposerConfig(), rng), rng)
        arrays = (first.states, first.actions, first.event_rows, first.noise)
        snapshot = [a.tobytes() for a in arrays]
        second = execute(env, propose(env.state, ProposerConfig(), rng), rng)
        assert first.n_frames > 2 and second.n_frames > 2
        assert second.states[0].tobytes() == first.states[-1].tobytes()
        assert [a.tobytes() for a in arrays] == snapshot
        assert not any(a.flags.writeable for a in arrays)

    def test_traced_layers_count_every_call(self, tmp_path):
        """The benchmark's tracer wraps each layer through its module or
        class attribute and the by-name imports of it, so a hot path that
        bound one some other way at import time would drop out of the
        per-layer trace. On a seeded collect it counts every step, every
        proposal and every append."""
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module in {module for module, _, _ in tracing.LAYERS}:
            importlib.import_module(f"playwm.{module}")
        store = EpisodeStore(str(tmp_path / "s"))
        with tracing.Tracer() as tracer:
            collect(default_scene(), ProposerConfig(), 12, Rng(5), store)
        calls = {name: stats[0] for name, stats in tracer.stats.items()}
        steps = sum(store.read(eid).n_steps for eid in store.ids())
        assert calls["dynamics.step"] == steps > 0
        assert calls["playsys.propose"] == calls["store.EpisodeStore.append"] == len(store) == 12
        assert calls["scene.EnvState.copy"] > steps
        assert calls["skills.SkillController.action"] >= steps

    def test_two_runs_identical_manifests(self, tmp_path):
        h = []
        for d in ("a", "b"):
            store = EpisodeStore(str(tmp_path / d))
            collect(default_scene(), ProposerConfig(), 8, Rng(7), store)
            h.append(store.manifest_hash())
        assert h[0] == h[1]

    def test_play_initial_variance_exceeds_demo(self, tmp_path):
        play = EpisodeStore(str(tmp_path / "play"))
        collect(default_scene(), ProposerConfig(), 60, Rng(1), play,
                source="play", reset_each=False)
        demo = EpisodeStore(str(tmp_path / "demo"))
        collect(default_scene(), expert_config(), 60, Rng(1), demo,
                source="demo", reset_each=True)

        def initial_var(store):
            pos = []
            for eid in store.ids():
                ep = store.read(eid)
                for o in ep.states_at([0])[0].objects:
                    if o.kind in ("disk", "rect"):
                        pos.append([o.x, o.y])
            return np.var(np.array(pos), axis=0).sum()

        assert initial_var(play) > initial_var(demo)

    @pytest.mark.parametrize("oid, x, grasped", [(1, 0.01, True), (0, 0.02, False)])
    def test_expert_retrieves_an_object_out_of_bounds(self, oid, x, grasped):
        """A stray disk is proposed for retrieval, grasped and placed at the
        retrieve target; a stray bowl, which cannot be grasped, is shoved
        home. Both end inside the retrieve box."""
        for seed in range(4):
            state = default_scene().nominal_state()
            state.object_by_id(oid).x = x
            instr = propose(state, expert_config(), Rng(seed))
            assert instr.task == TaskSpec("reset_retrieve", oid)
            assert not check_success(state, instr.task)
            env = Env(default_scene(), seed=seed)
            env.reset(state)
            ep = execute(env, expert_instruction(instr.task), Rng(seed))
            assert ep.outcome
            held = [s.gripper.held for s in ep.states_at(range(ep.n_frames))]
            assert (oid in held) == grasped

    def test_oob_recovery(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        human_play = ProposerConfig(sigma_w_max=0.12, sigma_g_max=0.10, speed_range=(0.5, 2.0))
        collect(default_scene(), human_play, 40, Rng(11), store)
        # reset priority keeps strays from persisting over consecutive episodes
        consecutive = 0
        worst = 0
        for eid in store.ids():
            ep = store.read(eid)
            oob_start = any(not (0.05 <= o.x <= 0.95 and 0.05 <= o.y <= 0.95)
                            for o in ep.states_at([0])[0].objects if o.kind != "towel2link")
            consecutive = consecutive + 1 if oob_start else 0
            worst = max(worst, consecutive)
        assert worst <= 3


class TestStore:
    def test_roundtrip_identity(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        ep = replace(expert_episode("e1"), seed=42)
        store.append(ep)
        back = store.read("e1")
        for f in fields(Episode):
            want, got = getattr(ep, f.name), getattr(back, f.name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
                assert got.tobytes() == want.tobytes(), f.name
                assert not got.flags.writeable and not want.flags.writeable, f.name
            else:
                assert got == want, f.name

    def test_episode_holds_the_run(self):
        env = fresh_env()
        live = [(env.state.copy(), None, None, None)]
        env_step = env.step

        def recording_step(action, u):
            state, event = env_step(action, u)
            live.append((state.copy(), action.sanitized(), event, u))
            return state, event

        env.step = recording_step
        ep = execute(env, expert_instruction(TaskSpec("put_in", 1, 0)), Rng(1))
        assert ep.n_frames == len(live) and ep.n_steps == len(live) - 1
        for t, (s, (state, action, event, u)) in enumerate(zip(ep.states_at(slice(None)), live)):
            assert s.gripper == state.gripper and s.objects == state.objects
            assert s.slip_fated == state.slip_fated
            # frames are not stored: rendering the recorded states
            # reproduces the collection-time frames byte for byte
            assert render(s).tobytes() == render(state).tobytes()
            if t:
                assert Action(*ep.actions[t - 1]) == action
                assert events_of(ep)[t - 1] == event
                assert ep.noise[t - 1] == u

    def test_encode_states_equals_stacked_encode_state(self, tmp_path):
        ep = expert_episode("e1")
        states = ep.states_at(slice(None))
        assert any(s.gripper.held is not None for s in states)
        near_pi = [np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
                   np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0), 3 * np.pi]
        for t, s in enumerate(states):
            s.objects[t % len(s.objects)].theta = near_pi[t % len(near_pi)]
        store = EpisodeStore(str(tmp_path / "s"))
        store.append(record(ep.eid, ep.source, ep.instruction, ep.outcome, ep.seed, states,
                            [Action(*a) for a in ep.actions], events_of(ep), ep.noise.tolist()))
        view = store.read("e1")
        states = np.stack([statecodec.encode_state(s) for s in view.states_at(slice(None))])
        actions = np.stack([statecodec.encode_action(Action(*a)) for a in view.actions])
        assert statecodec.encode_states(*view.state_arrays()).tobytes() == states.tobytes()
        assert statecodec.encode_action_rows(view.actions).tobytes() == actions.tobytes()

    def test_hash_verifies(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        env = fresh_env()
        ep = replace(execute(env, expert_instruction(TaskSpec("put_in", 1, 0)), Rng(1)),
                     eid="e1", source="demo")
        store.append(ep)
        assert store.verify("e1")

    def test_duplicate_id_rejected(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        env = fresh_env()
        ep = replace(execute(env, expert_instruction(TaskSpec("put_in", 1, 0)), Rng(1)),
                     eid="e1", source="demo")
        store.append(ep)
        with pytest.raises(Exception, match="duplicate"):
            store.append(ep)

    def test_reload_from_disk(self, tmp_path):
        path = str(tmp_path / "s")
        store = EpisodeStore(path)
        env = fresh_env()
        ep = replace(execute(env, expert_instruction(TaskSpec("put_in", 1, 0)), Rng(1)),
                     eid="e1", source="demo")
        store.append(ep)
        again = EpisodeStore(path)
        assert again.ids() == ["e1"]
        assert again.read("e1").outcome == ep.outcome


    def test_golden_manifest_hash(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        collect(default_scene(), ProposerConfig(), 8, Rng(7), store)
        assert store.manifest_hash() == GOLDEN_MANIFEST_HASH

    def test_golden_blob_hashes(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        collect(default_scene(), ProposerConfig(), 8, Rng(7), store)
        joined = "".join(store.meta(eid).sha256 for eid in store.ids())
        assert hashlib.sha256(joined.encode()).hexdigest() == GOLDEN_BLOB_HASH
        assert all(store.verify(eid) for eid in store.ids())

    def test_golden_content(self, tmp_path):
        """Read through the store that wrote it and through a fresh one."""
        store = EpisodeStore(str(tmp_path / "s"))
        collect(default_scene(), ProposerConfig(), 8, Rng(7), store)
        assert content_digest(store) == GOLDEN_CONTENT_HASH
        assert content_digest(EpisodeStore(store.root)) == GOLDEN_CONTENT_HASH

    def test_golden_manifest_hash_reopening_between_appends(self, tmp_path):
        root = str(tmp_path / "s")
        collect(default_scene(), ProposerConfig(), 8, Rng(7), ReopeningStore(root))
        assert EpisodeStore(root).manifest_hash() == GOLDEN_MANIFEST_HASH

    def test_manifest_is_append_only(self, tmp_path):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        before = b""
        for i in range(5):
            store.append(expert_episode(f"e{i}", seed=i))
            now = manifest_bytes(root)
            assert now.startswith(before)
            assert now.count(b"\n") == i + 1 and now.endswith(b"\n")
            before = now

    @pytest.mark.parametrize("torn", [b'{"id": "e9", "fi', b"not json\n", b"\n"])
    def test_torn_final_line_dropped(self, tmp_path, torn):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        for i in range(2):
            store.append(expert_episode(f"e{i}", seed=i))
        intact = manifest_bytes(root)
        with open(os.path.join(root, "manifest.jsonl"), "ab") as fh:
            fh.write(torn)
        again = EpisodeStore(root)
        assert again.ids() == ["e0", "e1"]
        assert manifest_bytes(root) == intact
        again.append(expert_episode("e2", seed=2))
        reopened = EpisodeStore(root)
        assert reopened.ids() == ["e0", "e1", "e2"]
        assert [reopened.read(eid).eid for eid in reopened.ids()] == ["e0", "e1", "e2"]

    def test_bad_inner_manifest_line_raises(self, tmp_path):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        store.append(expert_episode("e0"))
        good = manifest_bytes(root)
        with open(os.path.join(root, "manifest.jsonl"), "wb") as fh:
            fh.write(b"{broken\n" + good)
        with pytest.raises(StoreError, match=r"manifest\.jsonl: line 1 "):
            EpisodeStore(root)

    def test_truncated_blob_raises(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        store.append(expert_episode("e0", seed=0))
        store.append(expert_episode("e1"))
        path, _, _ = blob_record(store, "e1")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        assert store.verify("e0") and not store.verify("e1")
        with pytest.raises(StoreError, match=r"episodes\.bin: episode 'e1' holds"):
            store.read("e1")

    def test_flipped_byte_raises(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        store.append(expert_episode("e1"))
        store.append(expert_episode("e2", seed=2))
        path, offset, length = blob_record(store, "e1")
        with open(path, "r+b") as fh:
            fh.seek(offset + length - 3)
            byte = fh.read(1)
            fh.seek(offset + length - 3)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert not store.verify("e1") and store.verify("e2")
        with pytest.raises(StoreError, match=r"episodes\.bin: episode 'e1' sha256"):
            store.read("e1")

    def test_unknown_id_raises(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        for call in (store.read, store.verify, store.meta):
            with pytest.raises(StoreError, match="unknown episode id"):
                call("nope")

    def test_torn_segment_tail_dropped(self, tmp_path):
        """Blob bytes of an append that never wrote its manifest line."""
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        for i in range(2):
            store.append(expert_episode(f"e{i}", seed=i))
        path = os.path.join(root, "episodes.bin")
        committed = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"PWEP" + bytes(100))
        again = EpisodeStore(root)
        assert os.path.getsize(path) == committed
        again.append(expert_episode("e2", seed=2))
        reopened = EpisodeStore(root)
        assert reopened.ids() == ["e0", "e1", "e2"]
        assert [reopened.read(eid).eid for eid in reopened.ids()] == ["e0", "e1", "e2"]

    def test_short_segment_raises(self, tmp_path):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        store.append(expert_episode("e0"))
        path = os.path.join(root, "episodes.bin")
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 1)
        with pytest.raises(StoreError, match=rf"episodes\.bin: segment holds {size - 1} bytes, "
                                             rf"its manifest records {size}"):
            EpisodeStore(root)

    def test_failed_manifest_fsync_leaves_no_record(self, tmp_path, monkeypatch):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        store.append(expert_episode("e0", seed=0))
        committed = manifest_bytes(root)

        def failing_fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="Input/output error"):
            store.append(expert_episode("e1", seed=1))
        monkeypatch.undo()
        assert store.ids() == ["e0"] and manifest_bytes(root) == committed
        store.append(expert_episode("e1", seed=1))
        store.append(expert_episode("e2", seed=2))
        reopened = EpisodeStore(root)
        assert reopened.ids() == ["e0", "e1", "e2"]
        for i, eid in enumerate(reopened.ids()):
            assert reopened.verify(eid)
            assert reopened.read(eid).noise.tolist() == expert_episode(eid, seed=i).noise.tolist()

    def test_short_manifest_write_leaves_no_record(self, tmp_path, monkeypatch):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        store.append(expert_episode("e0", seed=0))
        committed = manifest_bytes(root)
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:-1]))
        with pytest.raises(StoreError, match="manifest.jsonl: wrote"):
            store.append(expert_episode("e1", seed=1))
        monkeypatch.undo()
        assert store.ids() == ["e0"] and manifest_bytes(root) == committed
        store.append(expert_episode("e1", seed=1))
        assert EpisodeStore(root).ids() == ["e0", "e1"]

    def _two_episode_records(self, tmp_path):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        for i in range(2):
            store.append(expert_episode(f"e{i}", seed=i))
        return root, manifest_records(root)

    def test_old_layout_manifest_line_raises(self, tmp_path):
        """A store of the per-file layout, one blob file per episode."""
        root, (rec, _) = self._two_episode_records(tmp_path)
        old = {k: v for k, v in rec.items() if k not in ("layout", "bytes")}
        write_manifest(root, [{**old, "file": "episodes/e0.bin"}])
        with pytest.raises(StoreError, match=r"manifest\.jsonl: line 1 has layout None; "
                                             r"this store reads layout 3 only"):
            EpisodeStore(root)

    def test_v2_store_raises_naming_line_1(self, tmp_path):
        """A line of layout 2, whose blobs held the metadata."""
        root, records = self._two_episode_records(tmp_path)
        keep = ("id", "bytes", "sha256", "source", "outcome", "n_steps", "seed")
        write_manifest(root, [{**{k: rec[k] for k in keep}, "verb": rec["task"]["verb"]}
                              for rec in records])
        with pytest.raises(StoreError, match=r"manifest\.jsonl: line 1 has layout None"):
            EpisodeStore(root)

    @pytest.mark.parametrize("layout", [2, 4, "3", 3.0])
    def test_other_layout_raises_naming_its_line(self, tmp_path, layout):
        root, (first, second) = self._two_episode_records(tmp_path)
        write_manifest(root, [first, {**second, "layout": layout}])
        with pytest.raises(StoreError, match=rf"manifest\.jsonl: line 2 has layout "
                                             rf"{re.escape(repr(layout))};"):
            EpisodeStore(root)

    @pytest.mark.parametrize("field, step", [("bytes", 8), ("bytes", -12), ("n_steps", 1),
                                             ("objects", None)])
    def test_bytes_disagreeing_with_the_arrays_raises(self, tmp_path, field, step):
        """`bytes` must be the length that n_steps and the object count
        imply (step None: one object fewer)."""
        root, (first, second) = self._two_episode_records(tmp_path)
        value = second[field][:-1] if step is None else second[field] + step
        write_manifest(root, [first, {**second, field: value}])
        with pytest.raises(StoreError, match=r"manifest\.jsonl: line 2 gives \d+ bytes; a blob "
                                             r"of \d+ steps of \d+ objects holds \d+"):
            EpisodeStore(root)

    @pytest.mark.parametrize("field, value", [
        ("id", 7), ("sha256", None), ("sha256", "ab" * 31), ("sha256", "AB" * 32),
        ("outcome", 1), ("outcome", None),
        ("bytes", None), ("bytes", -8), ("bytes", "4096"), ("source", None), ("source", 3),
        ("seed", None), ("seed", 1.5), ("seed", True), ("n_steps", None), ("n_steps", -1),
        ("objects", None),
        pytest.param("objects", [[0, "bowl"]], id="objects-pair"),
        pytest.param("objects", [[0, "bowl", ["0.11", 0.085]]], id="objects-string-size"),
        pytest.param("objects", [["0", "bowl", [0.11, 0.085]]], id="objects-string-oid"),
        ("task", None),
        pytest.param("task", {"verb": "jump", "subject": 1, "target": 0, "region": None},
                     id="task-unknown-verb"),
        pytest.param("task", {"verb": "put_in", "subject": 1.0, "target": 0, "region": None},
                     id="task-float-subject"),
        pytest.param("task", {"verb": "push_to", "subject": 1, "target": None, "region": [0.5]},
                     id="task-short-region"),
        pytest.param("task", {"verb": "put_in", "subject": 1, "target": 0}, id="task-no-region"),
        ("perturb", None),
        pytest.param("perturb", {"sigma_w": 0.0, "sigma_g": 0.0, "speed_mult": "1.0",
                                 "synonym": 0}, id="perturb-string-speed"),
        pytest.param("perturb", {"sigma_w": 0.0, "sigma_g": 0.0, "speed_mult": 1.0,
                                 "synonym": 0.0}, id="perturb-float-synonym"),
        pytest.param("perturb", {"sigma_w": 0.0, "sigma_g": 0.0, "speed_mult": 1.0},
                     id="perturb-no-synonym"),
    ])
    def test_mistyped_manifest_field_raises(self, tmp_path, field, value):
        """A complete line, the final one too, with a field (None: without
        it) that reads and curation could not use fails when the store
        opens, naming the line and the field."""
        root, (first, second) = self._two_episode_records(tmp_path)
        rec = {k: v for k, v in second.items() if k != field}
        if value is not None:
            rec[field] = value
        write_manifest(root, [first, rec])
        with pytest.raises(StoreError, match=rf"manifest\.jsonl: line 2 needs .* in '{field}'"):
            EpisodeStore(root)

    def test_layout_is_one_segment_and_the_manifest(self, seeded_play_store):
        """Appends create no file: 30 collected episodes leave two files."""
        assert len(seeded_play_store) == 30
        assert sorted(os.listdir(seeded_play_store.root)) == ["episodes.bin", "manifest.jsonl"]
        assert all(seeded_play_store.verify(eid) for eid in seeded_play_store.ids())


def count_calls(monkeypatch, owner, name):
    """A list that gains an entry at each call of owner.name."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestRereads:
    """A read parses nothing; every read runs every check."""

    def _store(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        store.append(expert_episode("e1"))
        store.append(expert_episode("e2", seed=2))
        return store

    def test_second_read_parses_nothing(self, tmp_path, monkeypatch):
        """Neither the first read nor a later one, through the store that
        wrote the episode or a fresh one, calls json.loads."""
        store = self._store(tmp_path)
        fresh = EpisodeStore(store.root)
        loads = count_calls(monkeypatch, json, "loads")
        first = store.read("e1")
        second = store.read("e1")
        again = fresh.read("e1")
        assert loads == []
        for f in fields(Episode):
            a, b, c = getattr(first, f.name), getattr(second, f.name), getattr(again, f.name)
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()) \
                    == (c.dtype, c.shape, c.tobytes()), f.name
                assert not b.flags.writeable and not c.flags.writeable, f.name
            else:
                assert a == b == c, f.name

    def test_every_read_takes_one_pread(self, tmp_path, monkeypatch):
        """And one sha256 of the bytes it read."""
        store = self._store(tmp_path)
        preads = count_calls(monkeypatch, os, "pread")
        hashes = count_calls(monkeypatch, hashlib, "sha256")
        for _ in range(3):
            store.read("e2")
        e1, e2 = store.meta("e1"), store.meta("e2")
        assert [args[1:] for args in preads] == [(e2.nbytes, e1.nbytes)] * 3
        assert len(hashes) == 3 and all(len(args[0]) == e2.nbytes for args in hashes)

    def _rewrite(self, store, eid, edit):
        """Replace the episode's blob in the segment by edit(blob), which
        may be shorter; return the new blob."""
        path, offset, length = blob_record(store, eid)
        with open(path, "r+b") as fh:
            fh.seek(offset)
            blob = edit(fh.read(length))
            fh.seek(offset)
            fh.write(blob)
            if len(blob) < length:
                fh.truncate(offset + len(blob))
        return blob

    def test_flipped_byte_after_a_read_raises(self, tmp_path):
        store = self._store(tmp_path)
        store.read("e1")
        self._rewrite(store, "e1", lambda b: b[:-3] + bytes([b[-3] ^ 0xFF]) + b[-2:])
        with pytest.raises(StoreError, match=r"episodes\.bin: episode 'e1' sha256"):
            store.read("e1")
        assert store.read("e2").eid == "e2"

    def test_short_segment_after_a_read_raises(self, tmp_path):
        store = self._store(tmp_path)
        store.read("e2")
        self._rewrite(store, "e2", lambda b: b[:-5])
        with pytest.raises(StoreError, match=r"episodes\.bin: episode 'e2' holds"):
            store.read("e2")


class TestAppendChecks:
    """`append` commits no episode that it could not read back."""

    @pytest.mark.parametrize("edit", [
        lambda ep: {"states": ep.states.astype(np.float32)},
        lambda ep: {"noise": ep.noise.astype(">f8")},
        lambda ep: {"event_rows": ep.event_rows.astype(np.int64)},
        lambda ep: {"states": np.asfortranarray(ep.states)},
        lambda ep: {"actions": np.asfortranarray(ep.actions)},
        lambda ep: {"noise": ep.noise[:-1]},
        lambda ep: {"states": ep.states[:-1]},
        lambda ep: {"roster": ep.roster[:-1]},
    ], ids=["float32-states", "big-endian-noise", "int64-events", "fortran-states",
            "fortran-actions", "short-noise", "short-states", "roster-without-an-object"])
    def test_unreadable_episode_rejected(self, tmp_path, edit):
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        store.append(expert_episode("e0", seed=0))
        files = {name: (tmp_path / "s" / name).read_bytes() for name in os.listdir(root)}
        ep = expert_episode("bad", seed=1)
        with pytest.raises(StoreError, match=r"episode 'bad': its \w+ are"):
            store.append(replace(ep, **edit(ep)))
        assert {name: (tmp_path / "s" / name).read_bytes() for name in os.listdir(root)} == files
        assert len(store) == 1 and len(EpisodeStore(root)) == 1
        store.append(ep)
        assert EpisodeStore(root).read("bad").states.tobytes() == ep.states.tobytes()

    @pytest.mark.parametrize("edit", [
        {"seed": 1.5}, {"outcome": 1}, {"eid": 7},
        {"roster": ((0, "bowl", (np.float64(0.11), 0.085)),)},
        {"instruction": Instruction(TaskSpec("put_in", 1, 0), Perturbation(sigma_w=np.float64(0.1)))},
        {"instruction": Instruction(TaskSpec("push_to", 1, region=[0.5, 0.5]), Perturbation())},
        {"roster": ((0, "bowl", [0.11, 0.085]),)},
    ], ids=["float-seed", "int-outcome", "int-id", "numpy-size", "numpy-perturb", "list-region",
            "list-size"])
    def test_unreadable_metadata_rejected(self, tmp_path, edit):
        """Metadata that a reopened store would not read back the same: a
        value JSON would change, or a list where reads give a tuple."""
        root = str(tmp_path / "s")
        store = EpisodeStore(root)
        store.append(expert_episode("e0", seed=0))
        committed = manifest_bytes(root)
        ep = expert_episode("bad", seed=1)
        if "roster" in edit:  # states as wide as the one-object roster
            edit = {**edit, "states": np.ascontiguousarray(ep.states[:, :11])}
        with pytest.raises(StoreError, match=r"manifest\.jsonl: line 2 needs"):
            store.append(replace(ep, **edit))
        assert manifest_bytes(root) == committed and store.ids() == ["e0"]


class TestWindows:
    def _store_with_lengths(self, tmp_path, monkeypatch, lengths):
        store = EpisodeStore(str(tmp_path / "s"))
        for i, n in enumerate(lengths):
            instr = Instruction(TaskSpec("put_in", 1, 0), Perturbation(sigma_w=0.2, sigma_g=0.1))
            ep = execute(budgeted_env(monkeypatch, n), instr, Rng(i))
            # pad/trim to exactly n steps by construction is not guaranteed; skip short ones
            store.append(replace(ep, eid=f"e{i}", source="play"))
        return store

    def test_window_counts(self, tmp_path, monkeypatch):
        store = self._store_with_lengths(tmp_path, monkeypatch, [30])
        ep = store.read(store.ids()[0])
        n = ep.n_frames
        ws = windows(store, 5, 5)
        assert len(ws) == (n - 5) // 5 + 1 if n >= 5 else 0

    def test_short_episode_yields_nothing(self, tmp_path, monkeypatch):
        store = EpisodeStore(str(tmp_path / "s"))
        ep = execute(budgeted_env(monkeypatch, 3), expert_instruction(TaskSpec("put_in", 1, 0)), Rng(1))
        store.append(replace(ep, eid="e1", source="play"))  # 4 frames
        assert windows(store, 5, 1) == []

    def test_stride_one_covers_every_position(self, tmp_path, monkeypatch):
        store = self._store_with_lengths(tmp_path, monkeypatch, [20])
        ep = store.read(store.ids()[0])
        ws = windows(store, 5, 1)
        starts = {w.start for w in ws}
        assert starts == set(range(ep.n_frames - 5 + 1))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_is_rejected(self, tmp_path, monkeypatch, stride):
        store = self._store_with_lengths(tmp_path, monkeypatch, [10])
        with pytest.raises(ValueError, match=f"stride must be at least 1, got {stride}"):
            windows(store, 5, stride)

    def test_miss_windows_labeled(self, tmp_path):
        store = EpisodeStore(str(tmp_path / "s"))
        scene = default_scene()
        for i in range(20):
            rng = Rng(100 + i)
            env = Env(scene, seed=rng.spawn_seed())
            instr = Instruction(TaskSpec("put_in", 1, 0), Perturbation(sigma_g=0.09))
            ep = execute(env, instr, rng)
            store.append(replace(ep, eid=f"e{i}", source="play"))
        ws = windows(store, 5, 1)
        miss_eps = set()
        for eid in store.ids():
            ep = store.read(eid)
            for j, e in enumerate(events_of(ep)):
                if e.kind == EventKind.GRASP_MISS:
                    miss_eps.add((eid, j))
        labeled = {w.episode_id for w in ws if w.mode == BehaviorMode.MISSED_GRASP}
        # every episode with a miss has at least one miss-labeled window
        assert {eid for eid, _ in miss_eps} <= labeled | set()


def window_digest(ws):
    rows = [(w.episode_id, w.start, w.length, w.mode.value) for w in ws]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def seeded_play_store(tmp_path_factory):
    store = EpisodeStore(str(tmp_path_factory.mktemp("play")))
    collect(default_scene(), ProposerConfig(), 30, Rng(21), store)
    return store


class TestWindowEnumerator:
    # windows of the seeded store as enumerated before the window loops of
    # build_dataset and build_benchmark were folded into store.windows
    GOLDEN = {
        None: (33, "09530b6e2fa7fb7cba28ed08cebfa34a7d9055fda984ba9beed459f8c4f563c4"),
        3: (85, "41d4e2997b3d2e4301ba07ad88f98626fe617b0df2cf3036e3f03ea695edf0d0"),
    }

    @pytest.mark.parametrize("stride", [None, 3])
    def test_windows_and_order_pinned(self, seeded_play_store, stride):
        ws = windows(seeded_play_store, 12, stride)
        assert (len(ws), window_digest(ws)) == self.GOLDEN[stride]

    def test_unknown_id_in_ids_raises(self, seeded_play_store):
        real = seeded_play_store.ids()[0]
        with pytest.raises(StoreError, match=rf"unknown episode id 'nope' in "
                                             rf"{re.escape(seeded_play_store.root)}"):
            windows(seeded_play_store, 12, ids=["nope", real])

    def test_ids_filter_keeps_store_order(self, seeded_play_store):
        ids = seeded_play_store.ids()
        subset = ids[::3][::-1]
        keep = set(subset)
        assert windows(seeded_play_store, 12, 3, ids=subset) == \
            [w for w in windows(seeded_play_store, 12, 3) if w.episode_id in keep]

    def test_build_dataset_reads_each_episode_once(self, seeded_play_store):
        """In the order in which the windows first name it."""
        wins = windows(seeded_play_store, WmConfig().window_len)[::-1]
        store = EpisodeStore(seeded_play_store.root)
        read = []
        store_read = store.read
        store.read = lambda eid: read.append(eid) or store_read(eid)
        build_dataset(store, WmConfig(), wins=wins)
        assert read == list(dict.fromkeys(w.episode_id for w in wins))

    def test_build_dataset_of_no_windows_names_the_store(self, seeded_play_store):
        with pytest.raises(worldmodel.TrainingError, match=re.escape(seeded_play_store.root)):
            build_dataset(seeded_play_store, WmConfig(), [])

    def test_build_dataset_refuses_windows_of_another_length(self, seeded_play_store):
        """A 12-frame window for a model of 5-frame windows is named, with
        the store, before any episode is read; it is not cut to its first
        5 frames."""
        cfg = WmConfig(history=3, chunk=2)
        long = windows(seeded_play_store, 12)
        wins = windows(seeded_play_store, cfg.window_len)[:2] + long
        store = EpisodeStore(seeded_play_store.root)
        read = []
        store_read = store.read
        store.read = lambda eid: read.append(eid) or store_read(eid)
        with pytest.raises(worldmodel.TrainingError,
                           match=re.escape(f"{store.root}: {long[0]} is not 5 frames long")):
            build_dataset(store, cfg, wins)
        assert read == []

    @pytest.mark.parametrize("block", [20, 64])
    def test_build_dataset_blocks_keep_each_window_bits(self, seeded_play_store, monkeypatch,
                                                        block):
        """Small blocks cut the windows of the store into many: at 20 frames
        most episodes are a block of their own, at 64 a block holds several.
        The arrays keep the bytes of the default block size and of encoding
        each window alone with `encode_state` and `encode_action`, and each
        block is one `encode_states` call over whole episodes."""
        cfg = WmConfig()
        H, C = cfg.history, cfg.chunk
        wins = windows(seeded_play_store, cfg.window_len, 3)
        wins = wins[::2] + wins[1::2]  # an episode's windows are not all adjacent rows
        default = build_dataset(seeded_play_store, cfg, wins)
        encode, calls = statecodec.encode_states, []
        monkeypatch.setattr(statecodec, "encode_states",
                            lambda *arrays: calls.append(len(arrays[0])) or encode(*arrays))
        monkeypatch.setattr(worldmodel, "BLOCK_FRAMES", block)
        small = build_dataset(seeded_play_store, cfg, wins)

        conds, targets = [], []
        for w in wins:
            view = seeded_play_store.read(w.episode_id)
            states = [statecodec.encode_state(s)
                      for s in view.states_at(slice(w.start, w.start + H + C))]
            actions = [statecodec.encode_action(Action(*a))
                       for a in view.actions[w.start:w.start + H - 1 + C]]
            conds.append(np.concatenate(states[:H] + actions))
            targets.append(np.concatenate(states[H:]))
        for ds in (default, small):
            assert ds.conds.tobytes() == np.array(conds).tobytes()
            assert ds.targets.tobytes() == np.array(targets).tobytes()

        frames = [seeded_play_store.read(eid).n_frames
                  for eid in dict.fromkeys(w.episode_id for w in wins)]
        blocks, n = [], 0  # whole episodes, as many as fit
        for f in frames:
            if n and n + f > block:
                blocks.append(n)
                n = 0
            n += f
        assert calls == blocks + [n]
        assert len(calls) > 1
        # at 20 an episode longer than a block is one alone; at 64 blocks hold several
        assert max(calls) > block if block == 20 else len(calls) < len(frames)

    def test_build_benchmark_reads_only_held_out(self, seeded_play_store, monkeypatch):
        monkeypatch.setattr(bench, "MIN_CLIP_FRACTION", 0.0)
        _, held = split(seeded_play_store, 0.25, Rng(5))
        store = EpisodeStore(seeded_play_store.root)
        read = []
        store_read = store.read
        store.read = lambda eid: read.append(eid) or store_read(eid)
        bm = bench.build_benchmark({"play": store}, {"play": held}, 2, Rng(1),
                                   history=7, chunk=5, stride=3)
        assert bm.clips and read
        assert set(read) <= set(held)

    def test_oracle_replay_scores_the_ideal(self, seeded_play_store, monkeypatch):
        monkeypatch.setattr(bench, "MIN_CLIP_FRACTION", 0.0)
        _, held = split(seeded_play_store, 0.25, Rng(5))
        bm = bench.build_benchmark({"play": seeded_play_store}, {"play": held}, 2, Rng(1),
                                   history=7, chunk=5, stride=3)
        report = bench.run_replay(bm, "oracle", Embedder.create(0), scene=default_scene())
        ideal = {"mse": 0.0, "ssim": 1.0, "lpips_proxy": 0.0}
        assert bm.clips and len(report.rows) == len(bm.clips)
        for scores in (*report.rows, report.overall):
            assert {k: scores[k] for k in ideal} == ideal


class TestSplit:
    def test_fraction_and_disjoint(self, tmp_path, monkeypatch):
        store = EpisodeStore(str(tmp_path / "s"))
        env = budgeted_env(monkeypatch, 5)
        for i in range(100):
            ep = execute(env, expert_instruction(TaskSpec("put_near", 1, 2)), Rng(i))
            store.append(replace(ep, eid=f"e{i}", source="play"))
        train, held = split(store, 0.2, Rng(3))
        assert len(train) == 80 and len(held) == 20
        assert not set(train) & set(held)
        train2, held2 = split(store, 0.2, Rng(3))
        assert train == train2 and held == held2


class Stub(NamedTuple):
    """What `blocks` reads of an episode: its roster."""
    eid: str
    roster: tuple


def grouped(sizes, limit, rosters=None):
    """The eids, block by block, that `blocks` groups stubs e0, e1, ... of
    the given sizes (and rosters, one roster by default) into."""
    rosters = rosters or [()] * len(sizes)
    items = [(Stub(f"e{k}", r), n) for k, (n, r) in enumerate(zip(sizes, rosters))]
    return [[ep.eid for ep, _ in block] for block in blocks(items, limit)]


class TestBlocks:
    def test_a_block_closes_at_the_limit(self):
        assert grouped([3, 4, 2, 5, 1], 7) == [["e0", "e1"], ["e2", "e3"], ["e4"]]
        assert grouped([3, 4, 1], 8) == [["e0", "e1", "e2"]]

    def test_a_roster_change_closes_a_block(self):
        a, b = ((1, "cube", (0.1,)),), ((2, "towel", (0.2, 0.3)),)
        assert grouped([1] * 5, 100, [a, a, b, b, a]) == [["e0", "e1"], ["e2", "e3"], ["e4"]]

    def test_an_oversized_episode_is_a_block_of_its_own(self):
        assert grouped([2, 9, 3], 5) == [["e0"], ["e1"], ["e2"]]
        assert grouped([9, 1, 1], 5) == [["e0"], ["e1", "e2"]]

    def test_no_items_no_blocks(self):
        assert grouped([], 5) == []

    def test_items_are_pulled_once_in_order_as_their_block_is_built(self):
        """When a block is handed out, the items pulled are those of the
        blocks so far and at most the one that opens the next block."""
        pulled = []

        def items():
            for k, n in enumerate([3, 4, 2, 5, 1, 6]):
                pulled.append(f"e{k}")
                yield Stub(f"e{k}", ()), n

        handed = []
        for block in blocks(items(), 7):
            handed += [ep.eid for ep, _ in block]
            assert pulled[:len(handed)] == handed
            assert len(pulled) <= len(handed) + 1
        assert pulled == handed == [f"e{k}" for k in range(6)]
