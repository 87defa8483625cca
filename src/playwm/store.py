"""Episode persistence, layout 3: one append-only segment of bare array
blobs plus an append-only JSONL manifest, the one record of each episode's
metadata. A store's root holds exactly these two files.

`manifest.jsonl` has one line per episode: `layout` (3), its id, its blob's
length (`bytes`) and sha256, its source, outcome, seed and n_steps, its
roster (`objects`, each object's [id, kind, size] in row order), its task
and its perturbation. `episodes.bin`, the segment, is the blobs back to
back in manifest order, so an episode's offset is the sum of the `bytes`
of the lines before it. A blob is the episode's four arrays, little-endian:

    states  (n_steps + 1, 6 + 5*n_objects) f8   raw state rows, initial state first
    actions (n_steps, 4) f8                     sanitized (dx, dy, dz, dg)
    events  (n_steps, 3) i4                     kind, oid0, oid1 (-1 if absent)
    noise   (n_steps,) f8                       per-step uniform draws

A state row is [gx, gy, gz, aperture, held_id, slip_fated] followed by
[x, y, theta, z_level, fold_angle] per object in roster order. Frames are
not stored: `render.render_frames` reproduces them bit-exactly from the
state arrays. Only this module knows the row layout.

Records: `Episode` is the one episode record, read-only arrays of the
blob's rows plus the metadata. `record` builds it from a run's `EnvState`,
`Action` and `Event` lists; `append` writes it and `read` returns it over
the blob's bytes. `episode.state_arrays(frames)` gives the arrays that
`encode_states` and `render_frames` take; `episode.states_at(frames)`
builds `EnvState`s from them. `windows` labels each clip from its event
kinds and the task predicate at its last frame; `episode_windows` does the
same for one episode already read. `blocks` is the one rule by which
readers batch episodes for vectorized work: whole consecutive episodes of
one roster, as many as fit a frame budget, each read only when its block
is built.

Index: each manifest line is indexed once into an `Entry`: the blob's
offset, length and sha256 and the ready-built instruction, roster, outcome,
source, seed and n_steps. Opening a store builds each entry from the line
it parses, after checking the line's layout and field types and that
`bytes` is the length its n_steps and object count imply; a line that
fails raises StoreError naming the manifest and the line. Stores of
earlier layouts carry no `layout`, so opening one raises for line 1.
`append` builds the entry from the episode it writes. Before it writes a
byte, it checks the line the same way, with tuples where JSON has lists,
so the episode reads back the same from a reopened store, and it checks
that the arrays are C-contiguous rows of the layout's dtypes and of the
shapes its n_steps and roster imply, which fixes `bytes`.

Durability: `append` writes the blob with one `pwrite` at the segment's
committed end, then the manifest line with one unbuffered `write` in
append mode, and fsyncs it: that fsync is the commit point, and earlier
bytes of either file are never rewritten. An append that raises before its
line is written leaves no record (the next append overwrites its blob
bytes); one that raises while writing its line truncates the manifest back
to its committed length. A store has one writer.

Recovery: on open, a torn final manifest line is dropped and truncated
away; any other line that is not a JSON record with an id raises
StoreError. A segment longer than the sum of `bytes` (an append that never
committed) is truncated back to it; a shorter one raises StoreError naming
the segment and both byte counts. The segment is not fsynced, so blob
bytes a crash lost show there or, on `read`, as a sha256 mismatch.

Reads: every `read` takes the blob with one `pread`, checks its length and
sha256 against the entry, and returns four array views over it with the
entry's metadata. It parses nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import statecodec
from .dynamics import Action, Event
from .scene import EnvState, roster
from .skills import Instruction, Perturbation
from .tasks import VERBS, BehaviorMode, TaskSpec, check_success, classify_clip

LAYOUT = 3
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


class Entry(NamedTuple):
    """One episode as the store indexes its manifest line."""
    offset: int  # of its blob in the segment
    nbytes: int
    sha256: str
    source: str
    instruction: Instruction
    outcome: bool
    seed: int
    n_steps: int
    roster: tuple


class EpisodeStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._manifest_path = os.path.join(root, "manifest.jsonl")
        self._segment_path = os.path.join(root, "episodes.bin")
        self._index: dict[str, Entry] = {}
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
            entry = _entry(rec, self._segment_bytes, f"{self._manifest_path}: line {lineno}")
            if eid in self._index:
                raise StoreError(f"{self._manifest_path}: line {lineno} repeats id {eid!r}")
            self._index[eid] = entry
            self._segment_bytes += entry.nbytes
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

    def meta(self, eid: str) -> Entry:
        entry = self._index.get(eid)
        if entry is None:
            raise StoreError(f"unknown episode id {eid!r} in {self.root}")
        return entry

    def append(self, episode: Episode) -> str:
        if episode.eid in self._index:
            raise StoreError(f"duplicate episode id {episode.eid!r}")
        _check_rows(episode)
        blob = b"".join((episode.states, episode.actions, episode.event_rows, episode.noise))
        rec = {
            "layout": LAYOUT,
            "id": episode.eid,
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
            "source": episode.source,
            "outcome": episode.outcome,
            "seed": episode.seed,
            "n_steps": episode.n_steps,
            "objects": episode.roster,
            "task": vars(episode.instruction.task),
            "perturb": vars(episode.instruction.perturb),
        }
        fault = _fault(rec, tuple)  # the arrays' shapes, so `bytes`, are checked above
        if fault is not None:
            raise StoreError(f"{self._manifest_path}: line {len(self._index) + 1} {fault}")
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
        self._index[episode.eid] = Entry(self._segment_bytes, len(blob), rec["sha256"],
                                         episode.source, episode.instruction, episode.outcome,
                                         episode.seed, episode.n_steps, episode.roster)
        self._segment_bytes += len(blob)
        self._manifest_bytes += len(line)
        return episode.eid

    def _blob(self, eid: str) -> tuple[Entry, bytes, str | None]:
        """The episode's entry, its bytes and, if they do not match the
        entry, what is wrong with them."""
        entry = self.meta(eid)
        fd = os.open(self._segment_path, os.O_RDONLY)
        try:
            blob = os.pread(fd, entry.nbytes, entry.offset)
        finally:
            os.close(fd)
        if len(blob) != entry.nbytes:
            return entry, blob, f"holds {len(blob)} of the {entry.nbytes} bytes its manifest records"
        if hashlib.sha256(blob).hexdigest() != entry.sha256:
            return entry, blob, "sha256 does not match the manifest record"
        return entry, blob, None

    def read(self, eid: str) -> Episode:
        entry, blob, fault = self._blob(eid)
        if fault is not None:
            raise StoreError(f"{self._segment_path}: episode {eid!r} {fault}")
        n = entry.n_steps
        states = np.ndarray((n + 1, 6 + 5 * len(entry.roster)), _F8, blob)
        actions = np.ndarray((n, 4), _F8, blob, states.nbytes)
        event_rows = np.ndarray((n, 3), _I4, blob, states.nbytes + actions.nbytes)
        noise = np.ndarray((n,), _F8, blob, len(blob) - 8 * n)
        return Episode(eid, entry.source, entry.instruction, entry.outcome, entry.seed,
                       entry.roster, states, actions, event_rows, noise)

    def verify(self, eid: str) -> bool:
        return self._blob(eid)[2] is None

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
    store order; only episodes listed in `ids` are read when it is given,
    and an id the store does not hold raises StoreError.

    A window's label is `classify_clip` of the kinds of its W-1 steps and
    the task predicate at its last frame."""
    stride = W if stride is None else stride
    _check_window(W, stride)
    keep = None if ids is None else {eid: store.meta(eid) for eid in ids}  # meta raises
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


def blocks(items: Iterable[tuple[Episode, int]],
           limit: int) -> Iterator[list[tuple[Episode, int]]]:
    """Lists of consecutive (episode, n) pairs of `items`, pulled one at a
    time: the episodes of a list share one roster and their n sum to at
    most `limit`, except that an episode whose n alone is over it forms a
    list of its own."""
    block, n = [], 0
    for episode, k in items:
        if block and (n + k > limit or episode.roster != block[0][0].roster):
            yield block
            block, n = [], 0
        block.append((episode, k))
        n += k
    if block:
        yield block


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
    state_rows, action_rows, event_rows = [], [], []  # each flat, row after row
    for s in states:
        g = s.gripper
        state_rows += (g.x, g.y, g.z, g.aperture, -1 if g.held is None else g.held, s.slip_fated)
        for o in s.objects:
            state_rows += (o.x, o.y, o.theta, o.z_level, o.fold_angle)
    for a, e in zip(actions, events):
        action_rows += (a.dx, a.dy, a.dz, a.dg)
        event_rows += (e.kind, *e.oids, -1, -1)[:3]  # the first two ids, -1 for none
    episode = Episode(
        eid=eid, source=source, instruction=instruction, outcome=outcome, seed=seed,
        roster=roster(states[0].objects),
        states=np.fromiter(state_rows, _F8, len(state_rows)).reshape(n_frames, -1),
        actions=np.fromiter(action_rows, _F8, 4 * n_steps).reshape(n_steps, 4),
        event_rows=np.fromiter(event_rows, _I4, 3 * n_steps).reshape(n_steps, 3),
        noise=np.array(noise, dtype=_F8),
    )
    for rows in (episode.states, episode.actions, episode.event_rows, episode.noise):
        rows.flags.writeable = False
    return episode


def _check_rows(ep: Episode) -> None:
    """Raise StoreError unless the episode's arrays are C-contiguous rows of
    the blob layout's dtypes and of the shapes its steps and roster imply."""
    n, width = ep.n_steps, 6 + 5 * len(ep.roster)
    for name, dtype, shape in (("states", _F8, (n + 1, width)), ("actions", _F8, (n, 4)),
                               ("event_rows", _I4, (n, 3)), ("noise", _F8, (n,))):
        rows = getattr(ep, name)
        if rows.dtype != dtype or rows.shape != shape or not rows.flags.c_contiguous:
            raise StoreError(f"episode {ep.eid!r}: its {name} are {rows.dtype.str} "
                             f"{rows.shape}, contiguous={rows.flags.c_contiguous}; a blob "
                             f"holds C-contiguous {dtype.str} {shape}")


_TASK = {f.name for f in fields(TaskSpec)}
_PERTURB = {f.name for f in fields(Perturbation)}
_NUMBER = {int, float}
_TYPES = {"id": str, "bytes": int, "sha256": str, "source": str, "outcome": bool, "seed": int,
          "n_steps": int, "task": dict, "perturb": dict}  # of a manifest line's fields


def _fault(rec: dict, seq: type) -> str | None:
    """What a reader could not use in a manifest line, or None. `seq` is the
    type of the line's arrays: list as parsed, tuple as `append` builds the
    line from an episode, so that an appended episode reads back the same."""
    layout = rec.get("layout")
    if type(layout) is not int or layout != LAYOUT:
        return (f"has layout {layout!r}; this store reads layout {LAYOUT} only, and stores "
                f"of earlier layouts are not readable")
    for key, kind in _TYPES.items():
        if type(rec.get(key)) is not kind:
            return f"needs {kind.__name__} in {key!r}, not {rec.get(key)!r}"
    for key in ("bytes", "n_steps"):
        if rec[key] < 0:
            return f"needs a nonnegative integer in {key!r}, not {rec[key]!r}"
    if not _SHA256.fullmatch(rec["sha256"]):
        return f"needs 64 lowercase hex digits in 'sha256', not {rec['sha256']!r}"
    objects, t, p = rec.get("objects"), rec["task"], rec["perturb"]
    if type(objects) is not seq or not all(
            type(o) is seq and len(o) == 3 and type(o[0]) is int and type(o[1]) is str
            and type(o[2]) is seq and {*map(type, o[2])} <= _NUMBER for o in objects):
        return f"needs a {seq.__name__} of [id, kind, size] in 'objects', not {objects!r}"
    region = t.get("region")
    if t.keys() != _TASK or t["verb"] not in VERBS or type(t["subject"]) is not int \
            or t["target"] is not None and type(t["target"]) is not int \
            or region is not None and (type(region) is not seq or len(region) != 2
                                       or not {*map(type, region)} <= _NUMBER):
        return f"needs a task's fields in 'task', not {t!r}"
    if p.keys() != _PERTURB or type(p["synonym"]) is not int \
            or not {type(p["sigma_w"]), type(p["sigma_g"]), type(p["speed_mult"])} <= _NUMBER:
        return f"needs a perturbation's fields in 'perturb', not {p!r}"
    return None


def _entry(rec: dict, offset: int, where: str) -> Entry:
    """The entry of a parsed manifest line whose blob starts at `offset`; a
    line that readers could not use raises StoreError naming it (`where`)."""
    fault = _fault(rec, list)
    if fault is not None:
        raise StoreError(f"{where} {fault}")
    n_steps, objects, t = rec["n_steps"], rec["objects"], rec["task"]
    nbytes = 8 * ((n_steps + 1) * (6 + 5 * len(objects)) + 5 * n_steps) + 12 * n_steps
    if rec["bytes"] != nbytes:
        raise StoreError(f"{where} gives {rec['bytes']} bytes; a blob of {n_steps} steps of "
                         f"{len(objects)} objects holds {nbytes}")
    task = TaskSpec(t["verb"], t["subject"], t["target"],
                    None if t["region"] is None else tuple(t["region"]))
    return Entry(offset, nbytes, rec["sha256"], rec["source"],
                 Instruction(task, Perturbation(**rec["perturb"])), rec["outcome"], rec["seed"],
                 n_steps, tuple((oid, kind, tuple(size)) for oid, kind, size in objects))
