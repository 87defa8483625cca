"""playwm benchmark: one seeded workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload {play,train,imagine} --seed N \
        --seconds 12 --trace {0,1}

Run it from a checkout that holds `src/playwm`; the package is imported from
there. Times are CPU seconds scaled to the reference host's speed by
`yardstick.py`. With `--trace 0` the last line carries the end-to-end
metrics; with `--trace 1` the timed section runs once plainly, then the
set-up and the timed section run again under the per-layer spans of
`tracing.py`, and the last line carries the per-layer metrics. The line before
it is a record of the run: environment, seeded output digests, every sample,
the clock's readings, operation counts and any failures. See README.md for the
workloads.
"""

import os

# One BLAS thread: the host has two shared cores, and a threaded OpenBLAS
# would make the matmul-heavy layers contend with each other and other jobs.
# No transparent huge pages for numpy arrays: whether the kernel can back an
# array with them varies from run to run, and peak memory varied by 40 MB.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(PINNED)

import ctypes  # noqa: E402

# glibc raises its mmap threshold whenever it frees a mapped block, so whether
# a large zeroed array (such as the DSRL replay buffer's 27 MB state arrays)
# is mapped lazily or taken from the heap and zeroed, so resident, depended on
# what the run had freed before: peak memory moved by 44 MB between seeds. Map
# every block of 4 MiB or more; keep the trim threshold at the 64 MiB that
# glibc's own adjustment would reach. The setting is recorded with the run.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
try:
    _libc = ctypes.CDLL(None)
    MALLOC_PINNED = bool(_libc.mallopt(M_MMAP_THRESHOLD, 4 << 20) and
                         _libc.mallopt(M_TRIM_THRESHOLD, 64 << 20))
except (OSError, AttributeError):  # not glibc
    MALLOC_PINNED = False

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

REFERENCE_SECONDS = 12   # the timed stages are sized to take about this long in all
ROUNDS = 3               # each round sets up once; setup_s is the median
COLLECT_PARTS = 6        # play's collection runs in parts, two a round

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "collect_steps_per_s": "1/s",
    "curate_windows_per_s": "1/s",
    "store_mb": "MB",
    "wm_train_steps_per_s": "1/s",
    "bc_train_steps_per_s": "1/s",
    "progress_train_steps_per_s": "1/s",
    "replay_clips_per_s": "1/s",
    "imagined_steps_per_s": "1/s",
    "real_steps_per_s": "1/s",
    "dsrl_steps_per_s": "1/s",
}


@dataclass(frozen=True)
class Workload:
    setup: tuple   # stages run at the start of every round; setup_s is the median
    timed: tuple   # per round, the stages timed into wall_s
    probe: tuple = ()    # per round, stages of the other workloads run between timed ones
    fresh: bool = False  # the timed stages build on each other, not on the set-up


def workload(name: str, seconds: int) -> Workload:
    from study import CollectSize, Study, TrainSize

    f = seconds / REFERENCE_SECONDS

    def scaled(small, full):
        """`full` at the reference duration, scaled by duration, never below `small`."""
        if isinstance(small, int):
            return max(small, round(f * full))
        return type(small)(*(max(s, round(f * v)) for s, v in zip(vars(small).values(),
                                                                   vars(full).values())))

    def stage(method, **kwargs):
        return functools.partial(method, **kwargs)

    def training(size: TrainSize, passes: int) -> tuple:
        return tuple(stage(Study.train_pass, size=size, n=n) for n in range(passes)) + \
            (stage(Study.save_models),)

    brief_train = TrainSize(wm_steps=10, bc_steps=10, progress_steps=150)

    def fixture(collect: CollectSize, train: bool = True) -> tuple:
        stages = (stage(Study.collect, size=collect), stage(Study.curate))
        return stages + training(brief_train, 3) if train else stages

    # enough held-out clips for 3 per mode at every seed tried
    small = CollectSize(play=80, demo=30, bench=80)

    def evaluation(clips_per_mode: int, **dsrl) -> tuple:
        """Replay, imagined, real and DSRL evaluation, calls of one kind apart."""
        return (stage(Study.replay_bench, clips_per_mode=clips_per_mode),
                stage(Study.replay, i=0), stage(Study.real, i=0), stage(Study.imagined),
                stage(Study.real, i=1), stage(Study.replay, i=1), stage(Study.finetune, **dsrl),
                stage(Study.real, i=2))

    # The probe runs each evaluation stage once or twice a round. DSRL runs
    # at batch 16 in it: at the default 64 each call needs 64 imagined steps
    # before its first update, 2.7 s on the reference host against 0.85 s.
    probe = (stage(Study.replay_bench, clips_per_mode=3), stage(Study.replay, i=0),
             stage(Study.real, i=0), stage(Study.imagined), stage(Study.real, i=1),
             stage(Study.finetune, updates=20, batch=16, eval_rollouts=2))
    # more curation passes over the set-up's stores, for the workloads whose
    # set-up is their only other curation
    curation = (stage(Study.curate),)

    if name == "play":
        # a write phase into empty play and demo stores that grow past 1000
        # episodes, in two parts a round, each round ending with a read pass
        # over the stores as they are
        size = scaled(CollectSize(play=80, demo=30, bench=0), CollectSize(1000, 60, 0))
        parts = tuple(stage(Study.collect, size=size, part=k, parts=COLLECT_PARTS)
                      for k in range(COLLECT_PARTS))
        read = (stage(Study.curate),)
        return Workload(setup=fixture(small),
                        timed=(parts[0:2] + read, parts[2:4] + read, parts[4:6] + read),
                        probe=probe, fresh=True)
    if name == "train":
        timed = training(scaled(brief_train, TrainSize(60, 80, 600)), 2)
        half = len(probe) // 2
        return Workload(setup=fixture(small, train=False), timed=(timed,) * ROUNDS,
                        probe=curation + probe[:half] + curation + probe[half:])
    if name == "imagine":
        # enough held-out clips for 6 per mode at every seed tried
        timed = evaluation(scaled(3, 6), updates=scaled(10, 30))
        return Workload(setup=fixture(CollectSize(play=120, demo=30, bench=100)),
                        timed=(timed,) * ROUNDS, probe=curation * 2)
    raise ValueError(f"unknown workload {name!r}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: str):
    from study import Ops, Study
    from yardstick import REFERENCE_S, Yardstick, now

    plan = workload(name, seconds)
    ops = Ops()
    # Each round sets up, then runs its timed stages with the probe stages
    # spread evenly between them, so that every metric is sampled across the
    # whole run. A
    # traced run, or one of fewer seconds than rounds, makes one round that
    # holds every round's timed stages. A traced run has no probe; it sets up
    # and runs that round again under the spans.
    one = trace or seconds < ROUNDS
    rounds = [sum(plan.timed, ())] if one else list(plan.timed)
    probe = () if trace else plan.probe
    setups, walls = [], []  # (start, end) of each set-up and timed stage
    home, other = {}, {}  # samples of the timed stages; of set-ups and probes
    chain = None
    with Yardstick() as clock:
        for r, stages in enumerate(rounds):
            t0 = now()
            setup = Study(os.path.join(work, f"setup{r}"), seed, ops)
            setup.samples = other
            setup.run(plan.setup)
            setups.append((t0, now()))
            if plan.fresh:
                chain = chain or Study(os.path.join(work, "timed"), seed, ops)
                timed, host = chain, setup
            else:
                timed = host = setup.fork("timed")
            for i, stage in enumerate(stages):
                timed.samples = home
                t0 = now()
                timed.run([stage])
                walls.append((t0, now()))
                host.samples = other
                host.run(probe[i * len(probe) // len(stages):
                               (i + 1) * len(probe) // len(stages)])
    final = timed
    collected = chain or setup
    if trace:
        from tracing import Tracer

        with Tracer() as tracer:
            traced_setup = Study(os.path.join(work, "traced-setup"), seed, ops)
            traced_setup.run(plan.setup)
            final = Study(os.path.join(work, "traced"), seed, ops) if plan.fresh \
                else traced_setup.fork("traced")
            t0 = now()
            final.run(rounds[0])
            traced_wall_s = now() - t0

    # a metric sampled in timed stages ignores samples of set-ups and probes;
    # each sample becomes (work, reference seconds, CPU seconds)
    samples = {metric: [(w, clock.seconds(t0, t1), clock.raw_seconds(t0, t1)) for w, t0, t1 in s]
               for metric, s in {**other, **home}.items()}
    samples["setup_s"] = [(1, clock.seconds(*s), clock.raw_seconds(*s)) for s in setups]
    samples["wall_s"] = [(1, clock.seconds(*w), clock.raw_seconds(*w)) for w in walls]
    if trace:
        metrics = tracer.metrics()
        # bytes of every store collected inside the traced section
        metrics["store.bytes"] = (traced_setup.store_bytes +
                                  (final.store_bytes if plan.fresh else 0), "bytes")
        untraced = sum(raw for _, _, raw in samples["wall_s"])
        metrics["trace_overhead_frac"] = (traced_wall_s / untraced - 1.0, "ratio")
    else:
        # all the work of a metric's samples over all their time
        values = {metric: sum(s[0] for s in ss) / sum(s[1] for s in ss)
                  for metric, ss in samples.items()}
        values["setup_s"] = statistics.median(s[1] for s in samples["setup_s"])
        values["wall_s"] = sum(s[1] for s in samples["wall_s"])
        values["store_mb"] = collected.store_bytes / 1e6
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # a stage that stopped on a failed operation leaves its rates at 0
        metrics = {k: (values.get(k, 0.0), unit) for k, unit in END_TO_END.items()}
    # with fresh timed stages the set-up's stores are separate and checked too
    checked = [setup] + [timed] * plan.fresh
    if trace:
        checked += [traced_setup] + [final] * plan.fresh
    for study in checked:
        study.verify_stores()
    digests = {"setup": setup.digests, "timed": final.digests}
    speed = {"readings": len(clock.durations), "reference_s": REFERENCE_S,
             "median_reading_s": statistics.median(clock.durations) if clock.durations else None,
             "scale_quartiles": statistics.quantiles(clock.scales, n=4)
             if len(clock.scales) > 1 else clock.scales * 3}
    return metrics, samples, digests, ops, speed


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {
        "pinned": {var: os.environ.get(var) for var in PINNED},
        "malloc_thresholds_pinned": MALLOC_PINNED,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "revision": revision,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("play", "train", "imagine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    if not os.path.isfile(os.path.join(SRC, "playwm", "__init__.py")):
        print(f"error: no playwm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import playwm

    if os.path.dirname(os.path.dirname(os.path.abspath(playwm.__file__))) != SRC:
        print(f"error: playwm imported from {playwm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        metrics, samples, digests, ops, speed = run_workload(args.workload, args.seed, args.seconds,
                                                      bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "digests": digests,
        "samples": samples,
        "speed": speed,
        "fail_frac": ops.failed / ops.attempted,
        "errors": ops.errors[:20],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
