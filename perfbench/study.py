"""The pipeline stages the workloads are built from.

A `Study` holds one seeded run of the paper's pipeline: play collection,
curation, training and imagined evaluation. Each stage calls the public
`playwm` functions through their modules (so that tracing wrappers, which
replace module attributes, see every call), records throughput samples in
`samples`, and counts every public call as one attempted operation.

A sample is one call's (work, start, end), its times read from the
benchmark's clock (`yardstick.now`). The workloads interleave their stages
so that each metric's samples spread over the whole run; on a host with shared
cores the speed changes in stretches of seconds, and samples taken at one
moment would all share its speed.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import os
import zlib
from dataclasses import dataclass, field

from playwm import (bench, curation, diffusion, dsrl, nets, playsys, policies, progress,
                    store, worldmodel)
from playwm.rng import Rng
from playwm.scene import default_scene
from playwm.tasks import TaskSpec
from yardstick import now

# Errors a public call may raise on bad numbers or too little data; each one
# counts as a failed operation instead of ending the run.
COUNTED_ERRORS = (bench.BenchmarkError, diffusion.SamplingError,
                  worldmodel.TrainingError, FloatingPointError)

EVAL_TASK = TaskSpec("put_in", 1, 0)
HELD_OUT = 0.2          # play-episode share kept out of training for the replay benchmark
SUCCESS_CLUSTERS = 8
BENCH_STRIDE = 3


class Skip(Exception):
    """A stage stops after one of its operations failed."""


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def call(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except COUNTED_ERRORS as exc:
            self.fail(what, f"{type(exc).__name__}: {exc}")
            raise Skip(what) from exc

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, detail)

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {detail}")


@dataclass(frozen=True)
class CollectSize:
    play: int
    demo: int
    bench: int


@dataclass(frozen=True)
class TrainSize:
    wm_steps: int         # per pass; the world model and policy keep training
    bc_steps: int
    progress_steps: int   # per pass; each pass trains a fresh progress model


class Study:
    """One seeded pipeline run under `root`; stages fill in its products."""

    def __init__(self, root: str, seed: int, ops: Ops):
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.seed = seed
        self.ops = ops
        self.broken = False
        self.scene = default_scene()
        self.wm_cfg = worldmodel.WmConfig()
        self.eval_cfg = bench.EvalStudyConfig(task=EVAL_TASK, replan=self.wm_cfg.chunk)
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self.digests: dict[str, object] = {}
        self.stores: dict[str, store.EpisodeStore] = {}
        self.store_bytes = 0
        self.embedder = curation.Embedder.create(self.rng("embedder").spawn_seed())

    def fork(self, name: str) -> "Study":
        """A study that shares this one's products and writes under `name`."""
        twin = copy.copy(self)
        twin.root = self.path(name)
        os.makedirs(twin.root, exist_ok=True)
        twin.samples = {}
        twin.digests = dict(self.digests)
        twin.stores = dict(self.stores)
        return twin

    def run(self, stages) -> None:
        """Run stages in order; after a failed operation the rest are skipped."""
        for stage in stages:
            if self.broken:
                self.ops.fail(stage.func.__name__, "skipped after an earlier failure")
                continue
            try:
                stage(self)
            except Skip:
                self.broken = True

    def rng(self, name: str) -> Rng:
        """A stream that depends only on the workload seed and the name."""
        return Rng((self.seed << 32) ^ zlib.crc32(name.encode()))

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    def measure(self, rate: str, what: str, fn, *args, work=None, **kwargs):
        """Call fn as one operation and add (work, start, end) to the samples
        of `rate`; `work` is the amount done, or a function of the result giving it."""
        t0 = now()
        out = self.ops.call(what, fn, *args, **kwargs)
        t1 = now()
        self.samples.setdefault(rate, []).append((work(out) if callable(work) else work, t0, t1))
        return out

    # -- collection: write phase ------------------------------------------

    def collect(self, size: CollectSize, part: int = 0, parts: int = 1) -> None:
        """Part `part` of `parts` of the play episodes, expert demos and
        rare-mode source episodes, with frames, appended to this study's
        stores (a kind with no episodes gets no store). `collect` numbers
        episodes from 0 in each call, so each part tags its episodes with its
        own source name."""
        plans = (
            ("play", playsys.ProposerConfig(), size.play, False),
            ("demo", playsys.expert_config(), size.demo, True),
            ("bench", playsys.bench_config(), size.bench, False),
        )
        steps = [0]
        t0 = now()
        for name, proposer, episodes, reset_each in plans:
            count = _share(episodes, part, parts)
            if count == 0:
                continue
            st = self.stores.get(name) or store.EpisodeStore(self.path(name))
            self.stores[name] = st
            st.append = functools.partial(_counted_append, st.append, steps)
            try:
                self.ops.call(f"collect {name}", playsys.collect, self.scene, proposer, count,
                              self.rng(f"collect.{name}.{part}"), st,
                              source=f"{name}-{part}", reset_each=reset_each)
            finally:
                del st.append
        self.samples.setdefault("collect_steps_per_s", []).append(
            (steps[0], t0, now()))
        self.store_bytes = sum(_tree_bytes(st.root) for st in self.stores.values())
        self.digests["collect_steps"] = self.digests.get("collect_steps", 0) + steps[0]

    # -- curation: read phase ---------------------------------------------

    def curate(self) -> None:
        """Split, label, embed, rank and assemble the world-model windows."""
        ops, play = self.ops, self.stores["play"]
        W = self.wm_cfg.window_len
        t0 = now()
        train_ids, self.held_play = ops.call("store.split", store.split, play, HELD_OUT,
                                             self.rng("split"))
        keep = set(train_ids)
        wins = [w for w in ops.call("store.windows", store.windows, play, W)
                if w.episode_id in keep]
        embs = ops.call("curation.embed_store_windows", curation.embed_store_windows,
                        play, wins, self.embedder)
        centroids = ops.call("curation.fit_success_centroids", curation.fit_success_centroids,
                             self.stores["demo"], self.embedder, SUCCESS_CLUSTERS,
                             self.rng("kmeans"), window_len=W)
        self.index = ops.call("curation.build_ranks", curation.build_ranks,
                              curation.distances_to_success(centroids, embs), wins=wins)
        self.dataset = ops.call("worldmodel.build_dataset", worldmodel.build_dataset,
                                play, self.wm_cfg, wins=wins)
        self.samples.setdefault("curate_windows_per_s", []).append(
            (len(wins), t0, now()))
        self.digests["curate_windows"] = len(wins)
        self.digests["rank_counts"] = [len(m) for m in self.index.members]

    # -- training ---------------------------------------------------------

    def train_pass(self, size: TrainSize, n: int) -> None:
        """Pass `n` of training: the world model with curriculum sampling and
        the BC policy (both fresh at pass 0), and a fresh progress model."""
        demo = self.stores["demo"]
        if n == 0:
            self.wm = worldmodel.create_worldmodel(self.scene, self.wm_cfg,
                                                   self.rng("wm.init"))
            self.policy = policies.create_policy(self.scene, policies.PolicyConfig(),
                                                 self.rng("policy.init"))
        trace = self.measure("wm_train_steps_per_s", "worldmodel.train", worldmodel.train,
                             self.wm, self.dataset, size.wm_steps, self.rng(f"wm.train{n}"),
                             curriculum=(self.index, curation.AnnealSchedule()),
                             work=size.wm_steps)
        self.ops.check("world-model losses finite", _finite(trace))
        trace = self.measure("bc_train_steps_per_s", "policies.train_bc", policies.train_bc,
                             self.policy, demo, size.bc_steps, self.rng(f"policy.train{n}"),
                             work=size.bc_steps)
        self.ops.check("policy losses finite", _finite(trace))
        # patience past the step budget: every requested step runs, so the
        # rate counts work actually done
        self.progress = self.measure("progress_train_steps_per_s", "progress.train_progress",
                                     progress.train_progress, demo, self.scene,
                                     self.rng(f"progress.train{n}"), steps=size.progress_steps,
                                     patience=size.progress_steps + 1,
                                     work=size.progress_steps)

    def save_models(self) -> None:
        """Save and reload each trained model once through `checkpoint`."""
        self.wm = self._round_trip("worldmodel", self.wm, worldmodel.save_worldmodel,
                                   worldmodel.load_worldmodel, lambda m: m.param_hash())
        self.policy = self._round_trip("policy", self.policy, policies.save_policy,
                                       policies.load_policy, lambda m: m.param_hash())
        self.progress = self._round_trip("progress", self.progress, progress.save_progress,
                                         progress.load_progress, lambda m: m.net.param_hash())

    def _round_trip(self, kind: str, model, save, load, digest):
        path = self.path(f"{kind}.ckpt")
        self.ops.call(f"save {kind}", save, model, path)
        loaded = self.ops.call(f"load {kind}", load, path)
        before, after = digest(model), digest(loaded)
        self.ops.check(f"{kind} checkpoint round trip", before == after,
                       f"param_hash {before[:12]} became {after[:12]}")
        self.digests[f"{kind}_param_hash"] = after
        return loaded

    # -- imagined evaluation ----------------------------------------------

    def replay_bench(self, clips_per_mode: int) -> None:
        """Draw the replay benchmark from held-out clips and check that the
        oracle scores the ideal on it."""
        srcs = {"play": self.stores["play"], "bench": self.stores["bench"]}
        # the rare-mode store never trains anything, so all of it is held out
        held = {"play": self.held_play, "bench": srcs["bench"].ids()}
        self.bm = self.ops.call("bench.build_benchmark", bench.build_benchmark, srcs, held,
                                clips_per_mode, self.rng("replay.clips"),
                                history=self.wm_cfg.history, chunk=self.wm_cfg.chunk,
                                stride=BENCH_STRIDE)
        oracle = self.ops.call("replay oracle", bench.run_replay, self.bm, "oracle",
                               self.embedder, scene=self.scene)
        ideal = {"mse": 0.0, "ssim": 1.0, "lpips_proxy": 0.0}
        self.ops.check("oracle replay ideal",
                       all(oracle.overall[k] == v for k, v in ideal.items()),
                       str(oracle.overall))

    def replay(self, i: int = 0) -> None:
        """Score the world model's predicted frames on every benchmark clip;
        `i` numbers the calls of one round."""
        report = self.measure("replay_clips_per_s", "replay model", bench.run_replay, self.bm,
                              self.wm, self.embedder, self.rng(f"replay.model{i}"),
                              work=len(self.bm.clips))
        self.digests["replay_overall"] = report.overall
        self.digests["replay_clips"] = len(self.bm.clips)

    def imagined(self) -> None:
        """Lockstep imagined evaluation of `n_wm` rollouts in the world model;
        the work is the control steps of rollouts that had not yet succeeded."""
        with _counting_calls(bench, "infer_transition_event") as steps:
            self.measure("imagined_steps_per_s", "bench.measure_imagined",
                         bench.measure_imagined, self.policy, self.wm, self.eval_cfg,
                         self.rng("eval.imagined"), work=lambda _: steps[0])

    def real(self, i: int = 0) -> None:
        """Real evaluation of `n_real` rollouts; `i` numbers the calls of one round."""
        with _counting_calls(bench.Env, "step") as steps:
            self.measure("real_steps_per_s", "bench.measure_real", bench.measure_real,
                         self.policy, self.scene, self.eval_cfg, self.rng(f"eval.real{i}"),
                         work=lambda _: steps[0])

    def finetune(self, updates: int, batch: int = dsrl.DsrlConfig.batch, **overrides) -> None:
        """DSRL fine-tuning in the world model, then an actor round trip. The
        `DsrlConfig` defaults hold, but the warm-up is cut to `batch` imagined
        steps: the fewest that fill one minibatch, so updates start at once."""
        C = self.wm_cfg.chunk
        dcfg = dsrl.DsrlConfig(batch=batch, initial_rollout_steps=batch * C, replan=C,
                               **overrides)
        backend = worldmodel.RolloutBackend(self.wm, self.rng("dsrl.backend"))
        st, _, _ = self.measure("dsrl_steps_per_s", "dsrl.finetune", dsrl.finetune, backend,
                                self.policy, self.progress, self.scene, EVAL_TASK, dcfg,
                                self.rng("dsrl.finetune"), total_updates=updates,
                                work=lambda out: out[0].buffer.size * dcfg.replan)
        path = self.path("actor.ckpt")
        self.ops.call("save actor", dsrl.save_actor, st, path)
        header, params = self.ops.call("load actor", dsrl.load_actor_params, path)
        loaded = nets.Mlp(widths=header["widths"], activation="relu", params=params)
        self.ops.check("actor checkpoint round trip",
                       loaded.param_hash() == st.actor.param_hash())
        self.digests["dsrl_actor_param_hash"] = loaded.param_hash()

    # -- output checks ----------------------------------------------------

    def verify_stores(self) -> None:
        """Re-hash every stored episode against its manifest entry."""
        for name, st in sorted(self.stores.items()):
            for eid in st.ids():
                self.ops.check(f"store.verify {name}/{eid}", st.verify(eid))
            self.digests[f"{name}_manifest_hash"] = st.manifest_hash()


def _share(total: int, part: int, parts: int) -> int:
    return round(total * (part + 1) / parts) - round(total * part / parts)


def _counted_append(append, steps: list, episode):
    out = append(episode)
    steps[0] += episode.n_steps
    return out


@contextlib.contextmanager
def _counting_calls(owner, attr: str):
    """Count calls to `owner.attr` (a function or a method) while active."""
    original = owner.__dict__[attr]
    count = [0]

    @functools.wraps(original)
    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        yield count
    finally:
        setattr(owner, attr, original)


def _finite(trace) -> bool:
    return bool(trace) and all(math.isfinite(loss) for _, loss in trace)


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)
