"""Goldens of the simulator and the play loop: the manifests of seeded
collections under each proposer config, and a digest of `dynamics.step`
over seeded random (state, action, u) triples that reach every rule. Any
change to the step, the skills, the proposer or the episode records that
is meant to keep its outputs bit for bit keeps these digests. The content
digests of the same collections pin what reads return, so a change of the
store's file layout moves only the manifest hashes."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from conftest import content_digest

from playwm import dynamics
from playwm.dynamics import A_MAX, Action, EventKind
from playwm.playsys import ProposerConfig, bench_config, collect, expert_config
from playwm.rng import Rng
from playwm.scene import default_scene, jittered_state
from playwm.store import EpisodeStore
from playwm.tasks import infer_transition_event

# name -> (proposer, episodes, reset_each, seed, manifest sha256 of layout 3)
COLLECTIONS = {
    "play": (ProposerConfig, 200, False, 31,
             "abbd380420230c70318adf4a5916d8a8b9e94502e53b606be65a56b98aa5e375"),
    "demo": (expert_config, 30, True, 32,
             "ec0bc000216a597509907b2d3c006b2a96962000e3e599bd5e743a10a828e659"),
    "bench": (bench_config, 60, False, 33,
              "6ce31b2d05c89f6ded07641bafc952a1acdee673d377aa8081af86c1c1563175"),
}

STEP_TRIPLES = 5000
GOLDEN_STEP = "bf61cf972817d74cf73ccfcafdfd52769d9f0c6cc59e60f1db068dd8c0c737a7"


# name -> content_digest of the collection's store
CONTENT = {
    "play": "650d9f59bbfa1fe6a708fa27a17e2895efe1dd3991ef8912dea152612dde8e79",
    "demo": "05c221aff2e3b45bc1539b1dcabb9a7a67e9fe4a2fa388b955ceaea9efe49780",
    "bench": "85a774d77868d58933675c1861d0ba9db966a836dba15677faa0fa8c860ea25d",
}


@pytest.fixture(scope="module", params=sorted(COLLECTIONS))
def collection(request, tmp_path_factory):
    """(name, store) of one seeded collection."""
    name = request.param
    proposer, episodes, reset_each, seed, _ = COLLECTIONS[name]
    store = EpisodeStore(str(tmp_path_factory.mktemp(name)))
    collect(default_scene(), proposer(), episodes, Rng(seed), store, source=name,
            reset_each=reset_each)
    assert len(store) == episodes
    return name, store


def test_collect_manifest_pinned(collection):
    name, store = collection
    assert store.manifest_hash() == COLLECTIONS[name][-1]


def test_collect_content_pinned(collection):
    name, store = collection
    assert content_digest(store) == CONTENT[name]


def random_state(rng: Rng):
    """A jittered scene with its gripper near an object, and at random a
    held object, a stack, a folded towel, a fated grasp or an object past
    the tape margin."""
    s = jittered_state(default_scene(), rng, jitter=0.1)
    objs = s.objects
    rigids = [o for o in objs if o.kind in ("disk", "rect")]
    for o in objs:
        if rng.uniform() < 0.08:  # near or past an edge
            o.x = rng.uniform() * 0.12 if rng.uniform() < 0.5 else 1.0 - rng.uniform() * 0.12
        if o.kind == "towel2link":
            o.fold_angle = rng.uniform() * np.pi
    if rng.uniform() < 0.35:  # a stack of two, or three
        k = rng.randint(len(rigids))
        base, top = rigids[k], rigids[(k + 1 + rng.randint(len(rigids) - 1)) % len(rigids)]
        top.x, top.y = base.x + rng.gauss() * 0.02, base.y + rng.gauss() * 0.02
        top.z_level = base.z_level + 1
        if rng.uniform() < 0.3:
            third = next(o for o in rigids if o is not base and o is not top)
            third.x, third.y, third.z_level = top.x, top.y, top.z_level + 1
    g = s.gripper
    near = objs[rng.randint(len(objs))]
    gx, gy = near.towel_free_end() if near.kind == "towel2link" else (near.x, near.y)
    g.x = min(max(gx + rng.gauss() * 0.03, 0.0), 1.0)
    g.y = min(max(gy + rng.gauss() * 0.03, 0.0), 1.0)
    g.z = rng.randint(2)
    g.aperture = rng.uniform()
    if rng.uniform() < 0.4 and near.kind != "bowl":
        g.held = near.oid
        if near.kind != "towel2link":
            if rng.uniform() < 0.5:  # over another rigid, to stack on or topple off
                base = next(o for o in rigids if o is not near)
                g.x, g.y = base.x + rng.gauss() * 0.025, base.y + rng.gauss() * 0.025
            near.x, near.y, near.z_level = g.x, g.y, 0
        s.slip_fated = rng.uniform() < 0.4
    return s


def random_action(rng: Rng) -> Action:
    """An action with |dx|, |dy| past A_MAX at times, dz among 0.4, -0.0, 1.0
    and others, dg past [-1, 1] at times, and numpy-float or int fields."""
    dx, dy = rng.gauss() * 0.06, rng.gauss() * 0.06
    dz = (0.4, -0.0, 1.0, -1.0, 0.0, -0.6, rng.gauss())[rng.randint(7)]
    dg = rng.gauss() * 0.9
    form = rng.randint(5)
    if form == 1:
        dx, dg = np.float64(dx), np.float64(dg)
    elif form == 2:
        dz = np.float64(dz)
    elif form == 3:
        dz, dg = int(round(dz)), int(round(dg))
    elif form == 4:
        dy = int(dy > 0)
    return Action(dx, dy, dz, dg)


def state_repr(s) -> str:
    """Every field of a state, with its type, as repr writes it."""
    g = s.gripper
    return repr(((g.x, g.y, g.z, g.aperture, g.held), s.slip_fated,
                 [(o.oid, o.kind, o.x, o.y, o.theta, o.size, o.z_level, o.fold_angle)
                  for o in s.objects]))


def test_step_digest_pinned():
    """Half the inputs continue from the last output, so grasps, carries,
    slips and releases follow each other; the rest are fresh states."""
    rng = Rng(2024)
    h = hashlib.sha256()
    kinds, held_towel, stacked, out = set(), False, False, False
    wide = numpy_field = False
    state = random_state(rng)
    for _ in range(STEP_TRIPLES):
        if rng.uniform() < 0.5:
            state = random_state(rng)
        action = random_action(rng)
        u = rng.uniform() if rng.uniform() < 0.8 else rng.uniform() * 0.1
        before = state_repr(state)
        nxt, event = dynamics.step(state, action, u)
        assert state_repr(state) == before  # step is pure
        h.update(f"{state_repr(nxt)}|{int(event.kind)}|{event.oids!r}\n".encode())
        kinds.add(event.kind)
        towel = next(o.oid for o in nxt.objects if o.kind == "towel2link")
        held_towel |= nxt.gripper.held == towel
        stacked |= any(o.z_level > 0 for o in nxt.objects)
        out |= bool(dynamics.out_of_bounds_ids(nxt))
        wide |= abs(action.dx) > A_MAX
        numpy_field |= isinstance(action.dx, np.floating)
        state = nxt
    assert kinds == set(EventKind)
    assert held_towel and stacked and out and wide and numpy_field
    assert h.hexdigest() == GOLDEN_STEP


# name -> (proposer, seed, digest of the (simulator kind, inferred kind) count table)
LABELLED = {
    "play": (ProposerConfig, 11,
             "d4e2e5cb3116eb711ae9ae556a4a799c38fd16958887e3bbbf91d2fc5c4feccb"),
    "bench": (bench_config, 12,
              "a5c6370bad3d0ad6ebc4425cf20bcd2c58a01f0e0f995b16516caed9df2d9627"),
}
EXACT_KINDS = (EventKind.GRASP_SUCCESS, EventKind.GRASP_MISS, EventKind.SLIP_DROP)


@pytest.mark.parametrize("name", sorted(LABELLED))
def test_labeller_against_the_simulator(name, tmp_path):
    """The imagined rollouts' labeller, `infer_transition_event`, on every
    transition of 60 collected episodes, against the kind the simulator
    stored. Grasps, misses and slips are labelled exactly, both ways; the
    whole count table is pinned, so a change to the rules shows which kinds
    it moves. At this digest the labeller never infers STACK_TOPPLE, misses
    some FOLD_CHANGE steps and swaps some slides and collisions."""
    proposer, seed, want = LABELLED[name]
    store = EpisodeStore(str(tmp_path))
    collect(default_scene(), proposer(), 60, Rng(seed), store)
    table = Counter()
    for eid in store.ids():
        view = store.read(eid)
        states = view.states_at(slice(None))
        for t, (row, kind) in enumerate(zip(view.actions.tolist(),
                                            view.event_rows[:, 0].tolist())):
            table[EventKind(kind), infer_transition_event(states[t], Action(*row),
                                                          states[t + 1])] += 1
    wrong = {pair: n for pair, n in table.items()
             if pair[0] != pair[1] and set(pair) & set(EXACT_KINDS)}
    assert not wrong and all(table[k, k] for k in EXACT_KINDS), wrong
    rows = sorted((sim.name, inferred.name, n) for (sim, inferred), n in table.items())
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == want, rows
