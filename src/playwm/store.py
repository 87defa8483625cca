"""Episode persistence: one append-only segment of states-only blobs plus an
append-only JSONL manifest.

Layout: a store's root holds exactly two files. `episodes.bin`, the segment,
is every episode's blob back to back in manifest order. `manifest.jsonl`
has one line per episode: its id, the blob's length (`bytes`) and sha256,
and the fields readers filter on. An episode's offset in the segment is the
sum of the `bytes` of the lines before it, so no offset is stored.

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
StoreError naming the segment, the episode and its version. Neither is a
store of the earlier layout, one blob file per episode under `episodes/`:
its manifest lines carry `file` instead of `bytes`, and opening it raises
StoreError naming the manifest and the line.

Records: `Episode` is the one episode record, read-only arrays of the
blob's states, actions, events and noise plus the metadata (instruction and
`scene.roster`). `record` builds it from a run's `EnvState`, `Action` and
`Event` lists, adding held-id and slip columns to `statecodec.state_arrays`;
`append` writes its arrays and `read` returns it over the blob's bytes.
`episode.state_arrays(frames)` gives the arrays that `encode_states` and
`render_frames` take; `episode.states_at(frames)` builds `EnvState`s from
them. `windows` labels each clip from its event kinds and the task
predicate at its last frame, built in one `states_at` call per episode;
`episode_windows` does the same for one episode already read.
Only this module knows the row layout.

Durability: `append` creates no file once the store holds an episode. It
writes the blob with one `pwrite` at the segment's committed end, then
writes the episode's manifest line with one unbuffered `write` in append
mode and fsyncs it; that fsync is the commit point, and earlier bytes of
either file are never rewritten. An append that raises before its line is
written leaves no record: its blob bytes lie past the committed end, and
the next append overwrites them. One that raises while writing its line,
or writes only part of it, truncates the manifest back to its committed
length, so a retry of the same episode succeeds. A store has one writer.

Recovery: opening a store indexes the manifest. A crash can leave a torn
final line, which is dropped, truncating the file back to the last complete
line; a bad line anywhere else raises StoreError naming the manifest and the
line number. So does a line, the final one too, whose `id` is not a
string, `bytes` not a nonnegative integer, `sha256` not 64 lowercase hex
digits or `outcome` not a bool: reads, `verify` and curation take these
fields from it. The segment is then checked against the sum of `bytes`: a
longer one (the blob of an append that never committed) is truncated back
to it, and a shorter one raises StoreError naming the segment and both byte
counts. The segment is not fsynced, so blob bytes a crash lost show there
or, on `read`, as a sha256 mismatch.

Reads: every `read` takes its record with one `pread` and checks its
length, sha256, magic, version and size, whether or not the store has read
that episode before. The JSON metadata block is parsed only on the first
read of an id through a store object; the parsed fields (id, source,
instruction, outcome, seed, n_steps, roster) are kept per store and reused
by later reads of that id, which then cost the checks and four array views.
That is sound because the store is append-only and a blob that passes its
sha256 check holds the bytes it held at the first parse. The kept fields
hold no blob bytes and no `Episode`, and episodes of one roster share one
roster tuple.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import statecodec
from .dynamics import Action, Event
from .scene import EnvState, roster
from .skills import Instruction, Perturbation
from .tasks import BehaviorMode, TaskSpec, check_success, classify_clip

MAGIC = b"PWEP"
VERSION = 2
HEADER = struct.Struct("<4sII")  # magic, version, meta_len
_F8 = np.dtype("<f8")
_I4 = np.dtype("<i4")
_SHA256 = re.compile("[0-9a-f]{64}")
_JSON = json.JSONEncoder(sort_keys=True)  # what json.dumps(..., sort_keys=True) builds per call


@dataclass(frozen=True)
class Episode:
    """One episode as read-only arrays in the blob's row layout (above):
    what `record` builds, `append` writes and `read` returns."""
    eid: str
    source: str
    instruction: Instruction
    outcome: bool
    seed: int
    roster: tuple           # each object's (oid, kind, size), in row order
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

    def state_arrays(self, frames=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The `statecodec.state_arrays` of the frames that `frames`, a slice
        or an array of frame indices, selects (all frames by default)."""
        rows = self.states[frames]
        oids = np.array([oid for oid, _, _ in self.roster], dtype=np.float64)
        return rows[:, :4], rows[:, 4:5] == oids, rows[:, 6:].reshape(len(rows), len(oids), 5)

    def states_at(self, frames) -> list[EnvState]:
        """The states built from the rows that `frames`, a slice or index array, selects."""
        return statecodec.build_states(*self.state_arrays(frames), self.states[frames, 5] > 0.5,
                                       self.roster)


@dataclass(frozen=True)
class ClipWindow:
    episode_id: str
    start: int
    length: int
    mode: BehaviorMode


class StoreError(RuntimeError):
    pass


class _Meta(NamedTuple):
    """A blob's parsed metadata block, as `read` keeps it per episode."""
    eid: str
    source: str
    instruction: Instruction
    outcome: bool
    seed: int
    roster: tuple
    n_steps: int


class EpisodeStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._manifest_path = os.path.join(root, "manifest.jsonl")
        self._segment_path = os.path.join(root, "episodes.bin")
        self._index: dict[str, dict] = {}
        self._offset: dict[str, int] = {}  # each episode's blob offset in the segment
        self._parsed: dict[str, _Meta] = {}  # metadata of each episode read so far
        self._rosters: dict[tuple, tuple] = {}  # one shared tuple per roster
        self._tasks: dict[TaskSpec, TaskSpec] = {}  # one shared TaskSpec per task
        self._manifest_bytes = 0  # committed lengths of the two files
        self._segment_bytes = 0
        if os.path.exists(self._manifest_path):
            self._load_manifest()
        self._check_segment()

    def _load_manifest(self) -> None:
        """Index every manifest line; drop a torn final line from the file."""
        with open(self._manifest_path, "rb") as fh:
            data = fh.read()
        *lines, tail = data.split(b"\n")  # a non-empty tail lacks its newline
        for lineno, line in enumerate(lines, start=1):
            try:
                rec = json.loads(line)
                eid = rec["id"]
            except (ValueError, KeyError, TypeError):
                if lineno == len(lines) and not tail:
                    break
                raise StoreError(f"{self._manifest_path}: line {lineno} is not a manifest "
                                 f"record") from None
            nbytes = rec.get("bytes")
            if type(nbytes) is not int or nbytes < 0:
                raise StoreError(f"{self._manifest_path}: line {lineno} gives no blob length "
                                 f"('bytes'); stores of one file per episode are not readable")
            sha = rec.get("sha256")
            if type(eid) is not str or type(sha) is not str or not _SHA256.fullmatch(sha) \
                    or type(rec.get("outcome")) is not bool:
                raise StoreError(f"{self._manifest_path}: line {lineno} needs a string id, a "
                                 f"sha256 of 64 lowercase hex digits and a bool outcome")
            if eid in self._index:
                raise StoreError(f"{self._manifest_path}: line {lineno} repeats id {eid!r}")
            self._index[eid] = rec
            self._offset[eid] = self._segment_bytes
            self._segment_bytes += nbytes
            self._manifest_bytes += len(line) + 1
        if self._manifest_bytes < len(data):
            _truncate(self._manifest_path, self._manifest_bytes)

    def _check_segment(self) -> None:
        """Trim blob bytes past the committed end; a short segment raises."""
        try:
            size = os.path.getsize(self._segment_path)
        except FileNotFoundError:
            size = 0
        if size < self._segment_bytes:
            raise StoreError(f"{self._segment_path}: segment holds {size} bytes, its manifest "
                             f"records {self._segment_bytes}")
        if size > self._segment_bytes:
            _truncate(self._segment_path, self._segment_bytes)

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
        if episode.eid in self._index:
            raise StoreError(f"duplicate episode id {episode.eid!r}")
        blob = _pack(episode)
        rec = {
            "id": episode.eid,
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "source": episode.source,
            "verb": episode.instruction.task.verb,
            "outcome": episode.outcome,
            "n_steps": episode.n_steps,
            "seed": episode.seed,
        }
        line = (_JSON.encode(rec) + "\n").encode()
        fd = os.open(self._segment_path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = os.pwrite(fd, blob, self._segment_bytes)
        finally:
            os.close(fd)
        if written != len(blob):
            raise StoreError(f"{self._segment_path}: wrote {written} of episode "
                             f"{episode.eid!r}'s {len(blob)} bytes")
        try:
            fd = os.open(self._manifest_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                written = os.write(fd, line)
                if written != len(line):
                    raise StoreError(f"{self._manifest_path}: wrote {written} of episode "
                                     f"{episode.eid!r}'s {len(line)}-byte line")
                os.fsync(fd)
            finally:
                os.close(fd)
        except BaseException:
            if os.path.exists(self._manifest_path):
                os.truncate(self._manifest_path, self._manifest_bytes)
            raise
        self._index[episode.eid] = rec
        self._offset[episode.eid] = self._segment_bytes
        self._segment_bytes += len(blob)
        self._manifest_bytes += len(line)
        return episode.eid

    def _blob(self, eid: str) -> tuple[bytes, str | None]:
        """The episode's bytes and, if they do not match its manifest record,
        what is wrong with them."""
        rec = self.meta(eid)
        fd = os.open(self._segment_path, os.O_RDONLY)
        try:
            blob = os.pread(fd, rec["bytes"], self._offset[eid])
        finally:
            os.close(fd)
        if len(blob) != rec["bytes"]:
            return blob, f"holds {len(blob)} of the {rec['bytes']} bytes its manifest records"
        if hashlib.sha256(blob).hexdigest() != rec["sha256"]:
            return blob, "sha256 does not match the manifest record"
        return blob, None

    def read(self, eid: str) -> Episode:
        blob, fault = self._blob(eid)
        where = f"{self._segment_path}: episode {eid!r}"
        if fault is not None:
            raise StoreError(f"{where} {fault}")
        if len(blob) < HEADER.size or blob[:4] != MAGIC:
            raise StoreError(f"{where}: bad magic; not an episode blob")
        _, version, meta_len = HEADER.unpack_from(blob)
        if version != VERSION:
            raise StoreError(f"{where}: blob version {version} is not readable "
                             f"(this store reads version {VERSION})")
        off = HEADER.size + meta_len
        meta = self._parsed.get(eid)
        if meta is None:
            meta = self._parse(blob[HEADER.size:off])
        states, actions, event_rows, noise = _rows(blob, off, meta.n_steps,
                                                   len(meta.roster), where)
        self._parsed[eid] = meta
        return Episode(meta.eid, meta.source, meta.instruction, meta.outcome, meta.seed,
                       meta.roster, states, actions, event_rows, noise)

    def _parse(self, block: bytes) -> _Meta:
        """The fields of one JSON metadata block; its source, task and
        roster are shared with earlier episodes that have the same."""
        meta = json.loads(block)
        objs = tuple((o["id"], o["kind"], tuple(o["size"])) for o in meta["objects"])
        t = meta["task"]
        task = TaskSpec(t["verb"], t["subject"], t["target"],
                        tuple(t["region"]) if t["region"] else None)
        instr = Instruction(self._tasks.setdefault(task, task), Perturbation(**meta["perturb"]))
        return _Meta(meta["id"], sys.intern(meta["source"]), instr, meta["outcome"], meta["seed"],
                     self._rosters.setdefault(objs, objs), meta["n_steps"])

    def verify(self, eid: str) -> bool:
        return self._blob(eid)[1] is None

    def manifest_hash(self) -> str:
        with open(self._manifest_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def _truncate(path: str, size: int) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(size)
        os.fsync(fh.fileno())


def windows(store: EpisodeStore, W: int, stride: int | None = None,
            ids: list[str] | None = None) -> list[ClipWindow]:
    """All maximal windows of W frames at the given stride, mode-labeled, in
    store order; only episodes listed in `ids` are read when it is given.

    A window's label is `classify_clip` of the kinds of its W-1 steps and
    the task predicate at its last frame."""
    stride = W if stride is None else stride
    _check_window(W, stride)
    keep = None if ids is None else set(ids)
    return [w for eid in store.ids() if keep is None or eid in keep
            for w in episode_windows(store.read(eid), W, stride)]


def episode_windows(view: Episode, W: int, stride: int) -> list[ClipWindow]:
    """The windows that `windows` enumerates and labels in one read episode."""
    _check_window(W, stride)
    task = view.instruction.task
    kinds = view.event_rows[:, 0].tolist()
    ends = view.states_at(slice(W - 1, None, stride))
    return [ClipWindow(view.eid, start, W,
                       classify_clip(kinds[start:start + W - 1], task, check_success(last, task)))
            for start, last in zip(range(0, view.n_frames - W + 1, stride), ends)]


def _check_window(W: int, stride: int) -> None:
    if W < 2:
        raise ValueError("window length must be at least 2")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")


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


# -- rows and blobs ---------------------------------------------------------

def record(eid: str, source: str, instruction: Instruction, outcome: bool, seed: int,
           states: list[EnvState], actions: list[Action], events: list[Event],
           noise: list[float]) -> Episode:
    """The episode of one run: its states, the initial one included, and
    each step's action, event and noise draw, as rows of the blob layout."""
    if not states:
        raise ValueError("episode has no states")
    if len(states) != len(actions) + 1:
        raise ValueError("states must be one longer than actions")
    if len(events) != len(actions) or len(noise) != len(actions):
        raise ValueError("events/noise must align with actions")
    n_steps, n_frames = len(actions), len(states)
    gripper, _, objects = statecodec.state_arrays(states)
    held_slip, action_rows, event_rows = [], [], []  # each flat, row after row
    for s in states:
        held_slip += (-1 if s.gripper.held is None else s.gripper.held, s.slip_fated)
    for a, e in zip(actions, events):
        action_rows += (a.dx, a.dy, a.dz, a.dg)
        event_rows += (e.kind, *e.oids, -1, -1)[:3]  # the first two ids, -1 for none
    episode = Episode(
        eid=eid, source=source, instruction=instruction, outcome=outcome, seed=seed,
        roster=roster(states[0].objects),
        states=np.concatenate([gripper, np.fromiter(held_slip, _F8, 2 * n_frames).reshape(-1, 2),
                               objects.reshape(n_frames, -1)], axis=1, dtype=_F8),
        actions=np.fromiter(action_rows, _F8, 4 * n_steps).reshape(n_steps, 4),
        event_rows=np.fromiter(event_rows, _I4, 3 * n_steps).reshape(n_steps, 3),
        noise=np.array(noise, dtype=_F8),
    )
    for rows in (episode.states, episode.actions, episode.event_rows, episode.noise):
        rows.flags.writeable = False
    return episode


def _pack(ep: Episode) -> bytes:
    task = ep.instruction.task
    perturb = ep.instruction.perturb
    meta = {
        "id": ep.eid,
        "source": ep.source,
        "outcome": ep.outcome,
        "seed": ep.seed,
        "n_steps": ep.n_steps,
        "objects": [{"id": oid, "kind": kind, "size": list(size)}
                    for oid, kind, size in ep.roster],
        "task": {"verb": task.verb, "subject": task.subject, "target": task.target,
                 "region": list(task.region) if task.region else None},
        "perturb": {"sigma_w": perturb.sigma_w, "sigma_g": perturb.sigma_g,
                    "speed_mult": perturb.speed_mult, "synonym": perturb.synonym},
    }
    meta_bytes = _JSON.encode(meta).encode()
    return b"".join([HEADER.pack(MAGIC, VERSION, len(meta_bytes)), meta_bytes,
                     ep.states.tobytes(), ep.actions.tobytes(), ep.event_rows.tobytes(),
                     ep.noise.tobytes()])


def _rows(blob: bytes, off: int, n_steps: int, n_obj: int, where: str
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only views of a blob's states, actions, event and noise rows,
    which start at `off`; a blob of any other size raises StoreError."""
    n_frames = n_steps + 1
    row_w = 6 + 5 * n_obj
    size = off + 8 * (n_frames * row_w + n_steps * 4 + n_steps) + 4 * n_steps * 3
    if len(blob) != size:
        raise StoreError(f"{where}: blob holds {len(blob)} bytes, its header implies {size}")
    states = np.ndarray((n_frames, row_w), _F8, blob, off)
    off += states.nbytes
    actions = np.ndarray((n_steps, 4), _F8, blob, off)
    off += actions.nbytes
    event_rows = np.ndarray((n_steps, 3), _I4, blob, off)
    off += event_rows.nbytes
    return states, actions, event_rows, np.ndarray((n_steps,), _F8, blob, off)
