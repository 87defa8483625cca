"""Shared checkpoint container for every trained network.

Layout: magic "PWCK", version u32, header-length u32, JSON header, then raw
float64 parameter blobs in the order listed by the header. Pure function of
its contents, no timestamps, so equal-seed runs write identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import numpy as np

MAGIC = b"PWCK"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


@contextmanager
def header_builds(path: str):
    """CheckpointError naming path for header fields that do not build: an
    unknown config key, an unknown or missing scene key, an unknown object
    kind, a bad value."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: checkpoint header does not build ({exc})") from None


def count(value) -> int:
    """value, a step count read from a header; ValueError unless it is a nonnegative int."""
    if type(value) is not int or value < 0:
        raise ValueError(f"a count must be a nonnegative int, got {value!r}")
    return value


def save_checkpoint(path: str, kind: str, header: dict, params: dict[str, np.ndarray]) -> None:
    names = sorted(params)
    head = {
        "kind": kind,
        "header": header,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    head_bytes = json.dumps(head, sort_keys=True).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([VERSION, len(head_bytes)], dtype="<u4").tobytes())
        fh.write(head_bytes)
        for n in names:
            fh.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path: str, kind: str,
                    fields: tuple[str, ...]) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, params) of a `kind` checkpoint; a file that does not hold
    exactly what its header lists raises CheckpointError naming the path,
    and so does one not of `kind` or whose header lacks one of `fields`."""
    if not os.path.exists(path):
        raise CheckpointError(f"missing checkpoint: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CheckpointError(f"not a checkpoint file: {path}")
    version, head_len = (int(v) for v in np.frombuffer(blob[4:12], dtype="<u4"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version} "
                              f"(this code reads version {VERSION})")
    off = 12 + head_len
    try:
        head = json.loads(blob[12:off].decode())
        found, header = head["kind"], head["header"]
        specs = [(spec["name"], tuple(int(d) for d in spec["shape"])) for spec in head["params"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint header ({exc})") from None
    if found != kind:
        raise CheckpointError(f"{path}: checkpoint kind {found!r} is not {kind!r}")
    missing = [name for name in fields if name not in header]
    if missing:
        raise CheckpointError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    size = off + 8 * sum(math.prod(shape) for _, shape in specs)
    if len(blob) != size:
        raise CheckpointError(f"{path}: checkpoint holds {len(blob)} bytes, "
                              f"its header implies {size}")
    params: dict[str, np.ndarray] = {}
    for name, shape in specs:
        arr = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=off).reshape(shape)
        params[name] = arr.copy()
        off += arr.nbytes
    return header, params
