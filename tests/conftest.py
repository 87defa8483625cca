"""Shared fixtures: a tiny diffusion policy and world model, trained briefly
at fixed seeds, whose closed-loop rollouts end in more than one behaviour
mode."""

import hashlib

import pytest

from playwm import policies, store, worldmodel
from playwm.dynamics import Event, EventKind
from playwm.playsys import ProposerConfig, collect
from playwm.rng import Rng
from playwm.scene import default_scene
from playwm.tasks import TaskSpec

TASK = TaskSpec("put_in", 1, 0)


def events_of(episode):
    """The events of an episode's steps, decoded from its event rows."""
    return [Event(EventKind(kind), tuple(o for o in oids if o >= 0))
            for kind, *oids in episode.event_rows.tolist()]


def content_digest(st):
    """sha256 over each read episode of a store, in store order: the repr of
    its metadata, then the bytes of its four arrays. It pins what reads
    return whatever layout the files hold."""
    h = hashlib.sha256()
    for eid in st.ids():
        ep = st.read(eid)
        h.update(repr((ep.eid, ep.source, ep.instruction, ep.outcome, ep.seed,
                       ep.roster)).encode())
        for rows in (ep.states, ep.actions, ep.event_rows, ep.noise):
            h.update(rows.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="session")
def trained(tmp_path_factory):
    """(scene, policy, world model): BC on six noisy task demos, the world
    model on eight play episodes."""
    scene = default_scene()
    play = store.EpisodeStore(str(tmp_path_factory.mktemp("loop-play")))
    collect(scene, ProposerConfig(), 8, Rng(41), play)
    demo = store.EpisodeStore(str(tmp_path_factory.mktemp("loop-demo")))
    policies.collect_task_demos(scene, TASK, 6, 0.3, Rng(42), demo)
    wm_cfg = worldmodel.WmConfig(hidden=32, depth=2, batch=16, denoise_steps=25, warmup=3)
    wm = worldmodel.create_worldmodel(scene, wm_cfg, Rng(60))
    wins = store.windows(play, wm_cfg.window_len)
    worldmodel.train(wm, worldmodel.build_dataset(play, wm_cfg, wins), 100, Rng(61))
    policy = policies.create_policy(scene, policies.PolicyConfig(hidden=32, depth=2, batch=16,
                                                                 denoise_steps=25), Rng(62))
    policies.train_bc(policy, demo, 2000, Rng(63))
    return scene, policy, wm
