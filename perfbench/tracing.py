"""Per-layer spans installed from outside the package.

Each traced function of a `playwm` module is replaced by a wrapper that
times the call and adds it to a per-name aggregate (calls, total time, time
covered by child spans, batch rows). Nothing in `src/` is edited: the
wrapper replaces the module attribute, the class attribute for methods, and
every by-name reference to the same function object in the other loaded
`playwm` modules, because `from .x import f` binds the original function
into the importing module and a wrapper installed only in `x` would miss
those calls.

Self time is a span's duration minus the time covered by its child spans;
the code is single-threaded, so child spans of one parent never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _lead_rows(x) -> int:
    arr = getattr(x, "value", x)  # autodiff Var inputs carry their array in .value
    arr = np.asarray(arr)
    return int(arr.shape[0]) if arr.ndim > 1 else 1


def _forward_rows(args, kwargs) -> int:
    return _lead_rows(args[1] if len(args) > 1 else kwargs["x"])


def _ddpm_rows(args, kwargs) -> int:
    batch = args[4] if len(args) > 4 else kwargs.get("batch")
    if batch is not None:
        return int(batch)
    return _lead_rows(args[2] if len(args) > 2 else kwargs["cond"])


def _ddim_rows(args, kwargs) -> int:
    return _lead_rows(args[4] if len(args) > 4 else kwargs["w0"])


def _predict_rows(args, kwargs) -> int:
    hist = np.asarray(args[1] if len(args) > 1 else kwargs["hist_states"])
    return int(hist.shape[0]) if hist.ndim == 3 else 1


# (module, attribute path, rows counter or None). Stage functions come first
# so that the layers below them report self time net of their children.
LAYERS = (
    ("playsys", "collect", None),
    ("curation", "fit_success_centroids", None),
    ("worldmodel", "train", None),
    ("policies", "train_bc", None),
    ("progress", "train_progress", None),
    ("bench", "build_benchmark", None),
    ("bench", "run_replay", None),
    ("bench", "measure_imagined", None),
    ("bench", "measure_real", None),
    ("dsrl", "finetune", None),
    ("dynamics", "step", None),
    ("render", "render", None),
    ("rng", "Rng.uniform", None),
    ("rng", "Rng.normal", None),
    ("scene", "EnvState.copy", None),
    ("skills", "SkillController.action", None),
    ("playsys", "propose", None),
    ("store", "EpisodeStore.append", None),
    ("store", "EpisodeStore.read", None),
    ("store", "windows", None),
    ("curation", "embed_store_windows", None),
    ("curation", "kmeans", None),
    ("curation", "build_ranks", None),
    ("worldmodel", "build_dataset", None),
    ("statecodec", "encode_state", None),
    ("statecodec", "decode_state", None),
    ("curation", "sample_batch", None),
    ("diffusion", "diffusion_loss", None),
    ("autodiff", "backward", None),
    ("optim", "Adam.step", None),
    ("optim", "clip_grad_norm", None),
    ("checkpoint", "save_checkpoint", None),
    ("checkpoint", "load_checkpoint", None),
    ("nets", "forward", _forward_rows),
    ("diffusion", "ddpm_sample", _ddpm_rows),
    ("diffusion", "ddim_sample", _ddim_rows),
    ("worldmodel", "predict_chunk", _predict_rows),
    ("worldmodel", "RolloutBackend.step_chunk", None),
    ("policies", "act", None),
    ("metrics", "ssim", None),
    ("metrics", "lpips_proxy", None),
    ("dsrl", "update", None),
    ("progress", "ProgressModel.__call__", None),
)

APPEND = "store.EpisodeStore.append"
READ = "store.EpisodeStore.read"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    """In-memory span aggregates for one traced section."""

    def __init__(self):
        self.stats = {span_name(m, p): [0, 0.0, 0.0, 0] for m, p, _ in LAYERS}
        self.append_times: dict[str, list[float]] = {}  # store root -> per-call seconds
        self.episodes_read: set[tuple[str, str]] = set()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, rows):
        stats = self.stats[name]
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += children[0]
                if rows is not None:
                    stats[3] += rows(args, kwargs)
                if name == APPEND:
                    tracer.append_times.setdefault(args[0].root, []).append(dt)
                elif name == READ:
                    eid = args[1] if len(args) > 1 else kwargs["eid"]
                    tracer.episodes_read.add((args[0].root, eid))

        return span

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("playwm.") and mod is not None}
        for module, path, rows in LAYERS:
            owner = modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            wrapper = self._wrap(span_name(module, path), original, rows)
            self._set(owner, attr, wrapper)
            if cls:
                continue
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for module, path, rows in LAYERS:
            name = span_name(module, path)
            calls, total, children, nrows = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (total - children, "s")
            if rows is not None:
                out[f"{name}.rows"] = (nrows, "count")
        out["store.append.growth"] = (self._append_growth(), "ratio")
        reads = self.stats[READ][0]
        distinct = len(self.episodes_read)
        out["store.read.per_episode"] = (reads / distinct if distinct else 0.0, "ratio")
        return out

    def _append_growth(self) -> float:
        """Mean append time of the last tenth over the first tenth, on the
        store that took the most appends (0 when nothing was appended)."""
        if not self.append_times:
            return 0.0
        times = max(self.append_times.values(), key=len)
        k = max(1, len(times) // 10)
        return (sum(times[-k:]) / k) / (sum(times[:k]) / k)
