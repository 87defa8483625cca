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
not stored: `render.render` reproduces them bit-exactly from the states, so
readers render only the frames they consume. Version 1 blobs, which also
held 64x64 frames, are not readable; reading one raises StoreError naming
the file and its version.

Durability: `append` writes the blob to a temp file and renames it into
place, then writes the episode's manifest line (carrying the blob's sha256)
in append mode, flushes and fsyncs it; earlier lines are never rewritten.
A crash can leave a torn final line, which opening the store drops,
truncating the file back to the last complete line. A bad line anywhere
else raises StoreError naming the manifest and the line number. `read`
re-hashes every blob against its manifest record.
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

    def read(self, eid: str) -> Episode:
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
        ep = store.read(eid)
        n = ep.n_frames
        for start in range(0, n - W + 1, stride):
            mode = classify_clip(ep.events[start:start + W - 1], ep.instruction.task,
                                 ep.states[start + W - 1])
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


def _state_from_row(row: np.ndarray, meta: dict, step_index: int) -> EnvState:
    g = GripperState(x=row[0], y=row[1], z=int(row[2]), aperture=row[3],
                     held=int(row[4]) if row[4] >= 0 else None)
    objs = []
    for i, om in enumerate(meta["objects"]):
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


def _unpack(blob: bytes, path: str) -> Episode:
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

    states_arr = np.frombuffer(blob, dtype="<f8", count=n_frames * row_w, offset=off).reshape(n_frames, row_w)
    off += states_arr.nbytes
    actions_arr = np.frombuffer(blob, dtype="<f8", count=n_steps * 4, offset=off).reshape(n_steps, 4)
    off += actions_arr.nbytes
    events_arr = np.frombuffer(blob, dtype="<i4", count=n_steps * 3, offset=off).reshape(n_steps, 3)
    off += events_arr.nbytes
    noise_arr = np.frombuffer(blob, dtype="<f8", count=n_steps, offset=off)

    states = [_state_from_row(states_arr[i], meta, i) for i in range(n_frames)]
    actions = [Action(*actions_arr[i]) for i in range(n_steps)]
    events = []
    for i in range(n_steps):
        kind = EventKind(int(events_arr[i, 0]))
        oids = tuple(int(v) for v in events_arr[i, 1:] if v >= 0)
        events.append(Event(kind, oids))
    task = meta["task"]
    instr = Instruction(
        TaskSpec(task["verb"], task["subject"], task["target"],
                 tuple(task["region"]) if task["region"] else None),
        Perturbation(**meta["perturb"]),
    )
    return Episode(eid=meta["id"], source=meta["source"], instruction=instr,
                   outcome=meta["outcome"], seed=meta["seed"], states=states,
                   actions=actions, events=events, noise=list(noise_arr))
