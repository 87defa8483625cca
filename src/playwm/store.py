"""Episode persistence: one states-only blob per episode plus an append-only
JSONL manifest.

Blob layout, version 2 (little-endian throughout):

    magic   4 bytes  b"PWEP"
    version u32      2
    meta_len u32     length of the UTF-8 JSON metadata block
    meta    bytes    id, source, instruction, outcome, seed, counts
    states  (n_frames, 6 + 5*n_objects) f8   raw state rows
    actions (n_steps, 4) f8                  sanitized (dx, dy, dz, dg)
    events  (n_steps, 3) i4                  kind, oid0, oid1 (-1 if absent)
    noise   (n_steps,) f8                    per-step uniform draws

n_frames = n_steps + 1 (initial state included). A state row is
[gx, gy, gz, aperture, held_id, slip_fated] followed by
[x, y, theta, z_level, fold_angle] per object in roster order. Frames are
not stored: `render.render_frames` reproduces them bit-exactly from the
state arrays, so readers render only the frames they consume. Version 1
blobs, which also held 64x64 frames, are not readable; reading one raises
StoreError naming the file and its version.

Reading: `read` returns an `EpisodeView`, read-only arrays over the blob's
states, actions, events and noise plus the metadata (instruction and object
roster). Objects are built only on demand: `view.state(t)` builds one
`EnvState`, `view.events(a, b)` decodes one slice into `Event`s, and
`view.state_arrays(a, b)` splits a run of state rows into gripper, held and
object arrays, which `statecodec.encode_states` encodes and, with
`view.roster`, `render.render_frames` draws at once. Only this module knows
the row layout. `Episode`, the object-list record, is the write side:
`collect` builds it and `append` takes it.

Durability: `append` writes the blob to a temp file and renames it into
place, then writes the episode's manifest line (carrying the blob's sha256)
in append mode, flushes and fsyncs it; earlier lines are never rewritten.
A crash can leave a torn final line, which opening the store drops,
truncating the file back to the last complete line. A bad line anywhere
else raises StoreError naming the manifest and the line number. Every
`read` re-hashes the blob against its manifest record and checks its magic,
version and size.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .dynamics import Action, Event, EventKind
from .scene import EnvState, GripperState, ObjectState
from .skills import Instruction, Perturbation
from .tasks import BehaviorMode, TaskSpec, classify_clip

MAGIC = b"PWEP"
VERSION = 2
HEADER_BYTES = 12  # magic, version, meta_len


@dataclass
class Episode:
    eid: str
    source: str            # play | demo | human_play_sim | policy_rollout
    instruction: Instruction
    outcome: bool
    seed: int
    states: list[EnvState]
    actions: list[Action]
    events: list[Event]
    noise: list[float]

    @property
    def n_steps(self) -> int:
        return len(self.actions)

    @property
    def n_frames(self) -> int:
        return len(self.states)

    def validate(self) -> None:
        if not self.states:
            raise ValueError("episode has no states")
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("states must be one longer than actions")
        if len(self.events) != len(self.actions) or len(self.noise) != len(self.actions):
            raise ValueError("events/noise must align with actions")


@dataclass(frozen=True)
class EpisodeView:
    """A stored episode as read-only arrays over its blob (layout above)."""
    eid: str
    source: str
    instruction: Instruction
    outcome: bool
    seed: int
    objects: list[dict]     # roster metadata in row order: id, kind, size
    states: np.ndarray      # (n_frames, 6 + 5 * n_objects) raw state rows
    actions: np.ndarray     # (n_steps, 4)
    event_rows: np.ndarray  # (n_steps, 3) kind, oid0, oid1 (-1 if absent)
    noise: np.ndarray       # (n_steps,)

    @property
    def n_steps(self) -> int:
        return self.actions.shape[0]

    @property
    def n_frames(self) -> int:
        return self.states.shape[0]

    @property
    def roster(self) -> list[tuple]:
        """Each object's (oid, kind, size) in row order, as `render.render_frames`
        takes them."""
        return [(o["id"], o["kind"], tuple(o["size"])) for o in self.objects]

    def state(self, t: int) -> EnvState:
        """The state at frame t, built from its row."""
        return _state_from_row(self.states[t], self.objects, t)

    def state_arrays(self, start: int = 0, stop: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Frames start..stop-1 (all frames by default) as arrays: gripper
        (T, 4) x, y, z, aperture; held (T, n) bool, whether the gripper
        holds each roster object; objects (T, n, 5) x, y, theta, z_level,
        fold_angle. The `statecodec.encode_states` inputs."""
        rows = self.states[start:stop]
        roster = np.array([o["id"] for o in self.objects], dtype=np.float64)
        held = rows[:, 4:5] == roster
        return rows[:, :4], held, rows[:, 6:].reshape(len(rows), len(self.objects), 5)

    def events(self, start: int = 0, stop: int | None = None) -> list[Event]:
        """The events of steps start..stop-1 (all steps by default), decoded."""
        return [Event(EventKind(kind), tuple(o for o in oids if o >= 0))
                for kind, *oids in self.event_rows[start:stop].tolist()]


@dataclass(frozen=True)
class ClipWindow:
    episode_id: str
    start: int
    length: int
    mode: BehaviorMode


class StoreError(RuntimeError):
    pass


class EpisodeStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "episodes"), exist_ok=True)
        self._manifest_path = os.path.join(root, "manifest.jsonl")
        self._index: dict[str, dict] = {}
        if os.path.exists(self._manifest_path):
            self._load_manifest()

    def _load_manifest(self) -> None:
        """Index every manifest line; drop a torn final line from the file."""
        with open(self._manifest_path, "rb") as fh:
            data = fh.read()
        *lines, tail = data.split(b"\n")  # a non-empty tail lacks its newline
        good_end = 0
        for lineno, line in enumerate(lines, start=1):
            try:
                rec = json.loads(line)
                eid = rec["id"]
            except (ValueError, KeyError, TypeError):
                if lineno == len(lines) and not tail:
                    break
                raise StoreError(f"{self._manifest_path}: line {lineno} is not a manifest "
                                 f"record") from None
            if eid in self._index:
                raise StoreError(f"{self._manifest_path}: line {lineno} repeats id {eid!r}")
            self._index[eid] = rec
            good_end += len(line) + 1
        if good_end < len(data):
            with open(self._manifest_path, "r+b") as fh:
                fh.truncate(good_end)
                os.fsync(fh.fileno())

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[str]:
        return list(self._index.keys())

    def meta(self, eid: str) -> dict:
        rec = self._index.get(eid)
        if rec is None:
            raise StoreError(f"unknown episode id {eid!r} in {self.root}")
        return rec

    def append(self, episode: Episode) -> str:
        episode.validate()
        if episode.eid in self._index:
            raise StoreError(f"duplicate episode id {episode.eid!r}")
        blob = _pack(episode)
        rel = os.path.join("episodes", f"{episode.eid}.bin")
        path = os.path.join(self.root, rel)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
        rec = {
            "id": episode.eid,
            "file": rel,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "source": episode.source,
            "verb": episode.instruction.task.verb,
            "outcome": episode.outcome,
            "n_steps": episode.n_steps,
            "seed": episode.seed,
        }
        with open(self._manifest_path, "ab") as fh:
            fh.write((json.dumps(rec, sort_keys=True) + "\n").encode())
            fh.flush()
            os.fsync(fh.fileno())
        self._index[episode.eid] = rec
        return episode.eid

    def _blob(self, eid: str) -> tuple[str, bytes, bool]:
        """(path, bytes, whether the bytes match the manifest's sha256)."""
        rec = self.meta(eid)
        path = os.path.join(self.root, rec["file"])
        with open(path, "rb") as fh:
            blob = fh.read()
        return path, blob, hashlib.sha256(blob).hexdigest() == rec["sha256"]

    def read(self, eid: str) -> EpisodeView:
        path, blob, intact = self._blob(eid)
        if not intact:
            raise StoreError(f"{path}: sha256 does not match the manifest record")
        return _unpack(blob, path)

    def verify(self, eid: str) -> bool:
        return self._blob(eid)[2]

    def manifest_hash(self) -> str:
        with open(self._manifest_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def episodes(self):
        for eid in self.ids():
            yield self.read(eid)


def windows(store: EpisodeStore, W: int, stride: int | None = None,
            ids: list[str] | None = None) -> list[ClipWindow]:
    """All maximal windows of W frames at the given stride, mode-labeled, in
    store order; only episodes listed in `ids` are read when it is given."""
    if W < 2:
        raise ValueError("window length must be at least 2")
    stride = W if stride is None else stride
    keep = None if ids is None else set(ids)
    out: list[ClipWindow] = []
    for eid in store.ids():
        if keep is not None and eid not in keep:
            continue
        view = store.read(eid)
        task = view.instruction.task
        for start in range(0, view.n_frames - W + 1, stride):
            end = start + W - 1
            mode = classify_clip(view.events(start, end), task, view.state(end))
            out.append(ClipWindow(eid, start, W, mode))
    return out


def split(store: EpisodeStore, held_out_fraction: float, rng) -> tuple[list[str], list[str]]:
    """Episode-granularity split; windows never straddle the partition."""
    if not 0.0 < held_out_fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    ids = store.ids()
    rng.shuffle(ids)
    k = int(round(len(ids) * held_out_fraction))
    held = sorted(ids[:k])
    train = sorted(ids[k:])
    return train, held


# -- binary packing ---------------------------------------------------------

def _state_row(s: EnvState) -> list[float]:
    g = s.gripper
    row = [g.x, g.y, float(g.z), g.aperture,
           float(g.held) if g.held is not None else -1.0,
           1.0 if s.slip_fated else 0.0]
    for o in s.objects:
        row.extend([o.x, o.y, o.theta, float(o.z_level), o.fold_angle])
    return row


def _state_from_row(row: np.ndarray, objects: list[dict], step_index: int) -> EnvState:
    g = GripperState(x=row[0], y=row[1], z=int(row[2]), aperture=row[3],
                     held=int(row[4]) if row[4] >= 0 else None)
    objs = []
    for i, om in enumerate(objects):
        x, y, theta, z, fold = row[6 + 5 * i:11 + 5 * i]
        objs.append(ObjectState(om["id"], om["kind"], x, y, theta,
                                tuple(om["size"]), int(z), fold))
    return EnvState(gripper=g, objects=objs, step_index=step_index,
                    slip_fated=bool(row[5] > 0.5))


def _pack(ep: Episode) -> bytes:
    task = ep.instruction.task
    perturb = ep.instruction.perturb
    meta = {
        "id": ep.eid,
        "source": ep.source,
        "outcome": ep.outcome,
        "seed": ep.seed,
        "n_steps": ep.n_steps,
        "objects": [{"id": o.oid, "kind": o.kind, "size": list(o.size)}
                    for o in ep.states[0].objects],
        "task": {"verb": task.verb, "subject": task.subject, "target": task.target,
                 "region": list(task.region) if task.region else None},
        "perturb": {"sigma_w": perturb.sigma_w, "sigma_g": perturb.sigma_g,
                    "speed_mult": perturb.speed_mult, "synonym": perturb.synonym},
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    chunks = [MAGIC,
              np.array([VERSION, len(meta_bytes)], dtype="<u4").tobytes(),
              meta_bytes]
    states = np.array([_state_row(s) for s in ep.states], dtype="<f8")
    actions = np.array([[a.dx, a.dy, a.dz, a.dg] for a in ep.actions], dtype="<f8").reshape(ep.n_steps, 4)
    events = np.full((ep.n_steps, 3), -1, dtype="<i4")
    for i, e in enumerate(ep.events):
        events[i, 0] = int(e.kind)
        for j, oid in enumerate(e.oids[:2]):
            events[i, 1 + j] = oid
    noise = np.asarray(ep.noise, dtype="<f8")
    chunks += [states.tobytes(), actions.tobytes(), events.tobytes(), noise.tobytes()]
    return b"".join(chunks)


def _unpack(blob: bytes, path: str) -> EpisodeView:
    if len(blob) < HEADER_BYTES or blob[:4] != MAGIC:
        raise StoreError(f"{path}: bad magic; not an episode blob")
    version, meta_len = (int(v) for v in np.frombuffer(blob[4:HEADER_BYTES], dtype="<u4"))
    if version != VERSION:
        raise StoreError(f"{path}: blob version {version} is not readable "
                         f"(this store reads version {VERSION})")
    off = HEADER_BYTES + meta_len
    meta = json.loads(blob[HEADER_BYTES:off].decode())
    n_steps = meta["n_steps"]
    n_frames = n_steps + 1
    n_obj = len(meta["objects"])
    row_w = 6 + 5 * n_obj
    size = off + 8 * (n_frames * row_w + n_steps * 4 + n_steps) + 4 * n_steps * 3
    if len(blob) != size:
        raise StoreError(f"{path}: blob holds {len(blob)} bytes, its header implies {size}")

    states = np.frombuffer(blob, dtype="<f8", count=n_frames * row_w, offset=off).reshape(n_frames, row_w)
    off += states.nbytes
    actions = np.frombuffer(blob, dtype="<f8", count=n_steps * 4, offset=off).reshape(n_steps, 4)
    off += actions.nbytes
    event_rows = np.frombuffer(blob, dtype="<i4", count=n_steps * 3, offset=off).reshape(n_steps, 3)
    off += event_rows.nbytes
    noise = np.frombuffer(blob, dtype="<f8", count=n_steps, offset=off)
    task = meta["task"]
    instr = Instruction(
        TaskSpec(task["verb"], task["subject"], task["target"],
                 tuple(task["region"]) if task["region"] else None),
        Perturbation(**meta["perturb"]),
    )
    return EpisodeView(eid=meta["id"], source=meta["source"], instruction=instr,
                       outcome=meta["outcome"], seed=meta["seed"], objects=meta["objects"],
                       states=states, actions=actions, event_rows=event_rows, noise=noise)
