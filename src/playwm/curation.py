"""Curriculum machinery over play data.

Windows are embedded with a frozen sign projection of four evenly spaced
frames, the stand-in for a pretrained image encoder: the embedder's
(4096, 32) matrix has i.i.d. entries +-1/sqrt(32), drawn from its seed with
the package RNG, so it is reproducible and (in expectation) preserves
pairwise distances of the projected frames. The store keeps no frames: each
episode is read once as an array view, and only its windows' sampled state
rows are taken from it, four a window in window order (a frame that windows
share once for each; no caller's windows overlap). Those rows are rendered
and projected in `store.blocks`, one rasterizer call and one product a
block: whole consecutive episodes of one roster, at most BLOCK_FRAMES
sampled frames a block unless one episode alone samples more. Stored
episodes never change, so each embedder keeps, in memory for its life, a
memo of the rows it has embedded (about 1 KB a window), keyed by the
episode's manifest sha256 and roster and the window's start and length: a
window it has seen is neither rendered nor projected again, though its
episode is still read, and so its sha256 checked, once a call. A row's bits
do not depend on the other rows of its product, so a hit has the bits a
render would give. Success
centroids, a (k, dim) array, come from k-means over demo-success windows,
each success demo read once for both its windows and their embeddings;
each play window gets a distance-to-success (min Euclidean distance to any
centroid) and a rank from equal-mass quantile thresholds.
The index keeps only each rank's window rows. Training samples ranks from
an annealed distribution that starts concentrated on the near-success ranks
(P_INIT) and spreads toward the long tail (P_FINAL) over each training run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .render import FRAME_SIZE, render_frames
from .rng import Rng
from .store import (ClipWindow, Episode, EpisodeStore, blocks, episode_windows,
                    windows as store_windows)

EMBED_DIM = 32
FRAME_PIXELS = FRAME_SIZE * FRAME_SIZE
SAMPLED_FRAMES = 4
BLOCK_FRAMES = 256     # sampled frames of whole episodes rendered and projected per call
MIN_PRODUCT_ROWS = 16  # zero rows pad a smaller block's projection to this many
KMEANS_ITERS = 100     # Lloyd iterations at most
KMEANS_TOL = 1e-6      # Lloyd stops once no centroid moves this far
RANKS = 5              # curriculum ranks, nearest to success first
P_INIT = (0.5, 0.3, 0.1, 0.05, 0.05)   # rank distribution at a run's first step
P_FINAL = (0.1, 0.2, 0.2, 0.25, 0.25)  # the one it anneals toward
PAIRWISE_CAP = 2000    # mean_pairwise_distance reads at most this many points


@dataclass(frozen=True)
class Embedder:
    """The sign projection, and the memo of the window rows it has embedded:
    each window's (dim,) row, about 1 KB, by its episode's manifest
    (sha256, roster) and then its (start, length). The memo lives as long as
    the embedder, in memory only; a hit skips the window's rendering and
    projection, not its episode's read and sha256 check."""
    matrix: np.ndarray  # (FRAME_PIXELS, EMBED_DIM) entries +-1/sqrt(EMBED_DIM), read-only

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})

    @property
    def dim(self) -> int:
        return EMBED_DIM * SAMPLED_FRAMES

    @staticmethod
    def create(seed: int) -> "Embedder":
        u = Rng(seed).uniform_array((FRAME_PIXELS, EMBED_DIM))
        matrix = np.where(u <= 0.5, 1.0, -1.0) / np.sqrt(EMBED_DIM)
        matrix.setflags(write=False)
        return Embedder(matrix)

    def embed_frames(self, frames: np.ndarray) -> np.ndarray:
        """The (k, EMBED_DIM) projections of k frames (one frame is one row),
        from one product of at least MIN_PRODUCT_ROWS rows."""
        flat = np.asarray(frames, dtype=np.float64).reshape(-1, FRAME_PIXELS)
        k = len(flat)
        if k < MIN_PRODUCT_ROWS:
            # A product of 7 rows or fewer takes OpenBLAS's small-matrix kernel,
            # which rounds differently; from 8 rows on, each row has the bits it
            # has in any taller product, so zero rows keep them.
            flat = np.concatenate([flat, np.zeros((MIN_PRODUCT_ROWS - k, FRAME_PIXELS))])
        return (flat @ self.matrix)[:k]


def window_sample_indices(W: int) -> tuple[int, int, int, int]:
    return (0, (W - 1) // 3, 2 * (W - 1) // 3, W - 1)


def embed_store_windows(store: EpisodeStore, wins: list[ClipWindow],
                        embedder: Embedder) -> np.ndarray:
    """Embed every window, reading each episode once, so each episode's
    sha256 is checked on every call. The four sampled frames of each window
    not in the embedder's memo are rendered and projected in window order (a
    frame that windows share once for each; no caller's windows overlap), in
    the `store.blocks` of BLOCK_FRAMES sampled frames: episodes are not
    split. The rows of memo hits are copied from the memo."""
    return _embed_windows(store, store.read, wins, embedder)


def _embed_windows(store: EpisodeStore, read: Callable[[str], Episode],
                   wins: list[ClipWindow], embedder: Embedder) -> np.ndarray:
    """`embed_store_windows`, taking each episode from read(eid) once."""
    memo = {}  # each episode's rows in the embedder's memo, by (start, length)
    for eid in dict.fromkeys(w.episode_id for w in wins):
        entry = store.meta(eid)
        memo[eid] = embedder._memo.setdefault((entry.sha256, entry.roster), {})
    todo: dict[str, list[ClipWindow]] = {eid: [] for eid in memo}  # windows missing from it
    for w in wins:
        if (w.start, w.length) not in memo[w.episode_id]:
            todo[w.episode_id].append(w)
    sampled = {eid: [w.start + j for w in ws for j in window_sample_indices(w.length)]
               for eid, ws in todo.items()}  # each episode's missed frames, in window order

    def views():  # every episode is read, so its sha256 is checked, even if all its windows hit
        for eid, ts in sampled.items():
            view = read(eid)
            if ts:
                yield view, len(ts)

    for block in blocks(views(), BLOCK_FRAMES):
        missed = [w for view, _ in block for w in todo[view.eid]]
        gripper, _, objects = (np.concatenate(part) for part in
                               zip(*(view.state_arrays(sampled[view.eid]) for view, _ in block)))
        rows = embedder.embed_frames(
            render_frames(gripper, objects, block[0][0].roster)).reshape(len(missed), -1)
        for w, row in zip(missed, rows):
            memo[w.episode_id][w.start, w.length] = row
    return np.array([memo[w.episode_id][w.start, w.length] for w in wins]).reshape(-1, embedder.dim)


# -- k-means ------------------------------------------------------------------

def kmeans(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    """The (k, dim) centroids of Lloyd's algorithm with k-means++ seeding
    and farthest-point reseeding of empty clusters. k must be at least 1
    and at most the number of points."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    # One draw before seeding, never used: every curation and training
    # golden was made with the stream it leaves.
    rng.next_u64()
    centroids = _kmeanspp_init(points, k, rng)
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        d2 = _sq_dists(points, centroids)
        assign = d2.argmin(axis=1)
        new = centroids.copy()
        for j in range(k):
            members = points[assign == j]
            if members.shape[0] == 0:
                per_point = d2[np.arange(n), assign]
                new[j] = points[per_point.argmax()]
            else:
                new[j] = members.mean(axis=0)
        shift = float(np.sqrt(((new - centroids) ** 2).sum(axis=1)).max())
        centroids = new
        if shift < KMEANS_TOL:
            break
    return centroids


def _kmeanspp_init(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = points.shape[0]
    centroids = [points[rng.randint(n)]]
    for _ in range(1, k):
        d2 = _sq_dists(points, np.stack(centroids)).min(axis=1)
        total = float(d2.sum())
        if total <= 0.0:
            centroids.append(points[rng.randint(n)])
            continue
        u = rng.uniform() * total
        idx = int(np.searchsorted(np.cumsum(d2), u))
        centroids.append(points[min(idx, n - 1)])
    return np.stack(centroids)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def fit_success_centroids(demo_store: EpisodeStore, embedder: Embedder, k: int,
                          rng: Rng, window_len: int) -> np.ndarray:
    """The (k, dim) k-means centroids of the embeddings of the demo store's
    success-episode windows of window_len frames, the length of the play
    windows measured against them."""
    views = {eid: demo_store.read(eid) for eid in demo_store.ids()
             if demo_store.meta(eid).outcome}
    wins = [w for view in views.values() for w in episode_windows(view, window_len, window_len)]
    if len(wins) < k:
        raise ValueError(f"only {len(wins)} success windows, need at least {k}")
    return kmeans(_embed_windows(demo_store, views.__getitem__, wins, embedder), k, rng)


def distances_to_success(centroids: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """Each embedding's Euclidean distance to its nearest centroid."""
    return np.sqrt(_sq_dists(np.asarray(embeddings, dtype=np.float64),
                             centroids).min(axis=1))


# -- ranks and annealed sampling ---------------------------------------------

@dataclass
class CurriculumIndex:
    windows: list[ClipWindow]
    members: list[np.ndarray]       # window rows of each rank, nearest rank first


def build_ranks(distances: np.ndarray, wins: list[ClipWindow]) -> CurriculumIndex:
    """Partition the windows `wins`, one per distance, into RANKS equal-mass
    ranks at empirical distance quantiles.

    Thresholds are the sorted values at index ceil(f*N) (0-based) for the
    fractions f = k/RANKS, k = 1..RANKS-1; a distance exactly equal to a
    threshold falls in the higher rank (half-open bins).
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.size
    if n < RANKS:
        raise ValueError(f"need at least {RANKS} distances, got {n}")
    if len(wins) != n:
        raise ValueError(f"{len(wins)} windows for {n} distances")
    sorted_d = np.sort(distances)
    thresholds = np.array([sorted_d[min(int(np.ceil(k / RANKS * n)), n - 1)]
                           for k in range(1, RANKS)])
    ranks = np.searchsorted(thresholds, distances, side="right") + 1
    members = [np.flatnonzero(ranks == r) for r in range(1, RANKS + 1)]
    return CurriculumIndex(windows=wins, members=members)


def check_rank_distribution(name: str, p: tuple) -> None:
    """Fail by name on a distribution that is not positive over the RANKS ranks."""
    if len(p) != RANKS:
        raise ValueError(f"{name} must hold one probability per rank ({RANKS}), got {len(p)}")
    if abs(sum(p) - 1.0) > 1e-9:
        raise ValueError(f"rank distributions must sum to 1: {name} sums to {sum(p)}")
    if any(x <= 0.0 for x in p):
        raise ValueError(f"{name} holds a negative probability or a zero: {p}")


check_rank_distribution("P_INIT", P_INIT)
check_rank_distribution("P_FINAL", P_FINAL)


@dataclass(frozen=True)
class AnnealSchedule:
    """Rank sampling annealed from P_INIT to P_FINAL over each run's steps."""
    update_period: int = 500        # paper-scale preset uses 5000

    def __post_init__(self):
        if self.update_period < 1:
            raise ValueError(f"update_period must be at least 1, got {self.update_period}")


def rank_distribution(schedule: AnnealSchedule, step: int, total: int) -> np.ndarray:
    """P_INIT annealed toward P_FINAL over total steps, frozen within each update period."""
    if step < 0 or total < 1:
        raise ValueError(f"need step >= 0 and total >= 1, got step {step} of {total}")
    u = schedule.update_period
    lam = min(1.0, (step // u) * u / total)
    return (1.0 - lam) * np.asarray(P_INIT) + lam * np.asarray(P_FINAL)


def effective_rank_distribution(index: CurriculumIndex, schedule: AnnealSchedule,
                                step: int, total: int) -> np.ndarray:
    """Schedule distribution with empty-rank mass pushed onto nonempty ranks."""
    p = rank_distribution(schedule, step, total)
    sizes = np.array([len(m) for m in index.members])
    if sizes.sum() == 0:
        raise ValueError("all ranks are empty")
    p = np.where(sizes > 0, p, 0.0)
    return p / p.sum()


def sample_batch(index: CurriculumIndex, schedule: AnnealSchedule, step: int, total: int,
                 batch_size: int, rng: Rng) -> np.ndarray:
    """Window rows drawn rank-first (annealed over total steps), then uniformly within rank."""
    p = effective_rank_distribution(index, schedule, step, total)
    cum = np.cumsum(p)
    u = rng.uniform_array(batch_size)
    rank_idx = np.searchsorted(cum, u, side="left").clip(0, len(p) - 1)
    out = np.empty(batch_size, dtype=np.int64)
    for r in range(len(p)):
        take = rank_idx == r
        cnt = int(take.sum())
        if cnt == 0:
            continue
        pool = index.members[r]
        picks = rng.randint_array(cnt, len(pool))
        out[take] = pool[picks]
    return out


# -- coverage report ----------------------------------------------------------

def pca_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points' coordinates along their top-2 principal directions, and
    those directions as the columns of a (dim, 2) array; each direction's
    sign is arbitrary."""
    x = np.asarray(points, dtype=np.float64)
    centered = x - x.mean(axis=0)
    _, vecs = np.linalg.eigh(centered.T @ centered)  # eigenvalues ascending
    V = vecs[:, [-1, -2]]
    return centered @ V, V


def convex_hull_area(points_2d: np.ndarray) -> float:
    """Andrew monotone chain hull, then the shoelace formula."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points_2d})
    if len(pts) < 3:
        return 0.0

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return 0.0
    area = 0.0
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def mean_pairwise_distance(points: np.ndarray) -> float:
    x = np.asarray(points, dtype=np.float64)[:PAIRWISE_CAP]
    n = x.shape[0]
    if n < 2:
        return 0.0
    d2 = _sq_dists(x, x)
    total = np.sqrt(d2[np.triu_indices(n, k=1)]).sum()
    return float(total / (n * (n - 1) / 2))


@dataclass
class CoverageReport:
    rows: list[dict]                 # source, window id, pc1, pc2, mode
    hull_area: dict[str, float]
    mean_pairwise: dict[str, float]
    mode_counts: dict[str, dict[str, int]]


def coverage_report(stores: dict[str, EpisodeStore], embedder: Embedder,
                    window_len: int) -> CoverageReport:
    """Project every store's windows, which tile its episodes, into one shared 2D PCA
    and compare spread: each store's hull area in that plane, mean pairwise embedding
    distance and mode counts. ValueError names a store with fewer than 2 windows."""
    wins, embs = {}, {}
    for source, store in stores.items():
        wins[source] = store_windows(store, window_len)
        if len(wins[source]) < 2:
            raise ValueError(f"store {source!r} has fewer than 2 windows")
        embs[source] = embed_store_windows(store, wins[source], embedder)
    coords, _ = pca_2d(np.vstack(list(embs.values())))
    split = np.split(coords, np.cumsum([len(ws) for ws in wins.values()])[:-1])
    rows = [{"source": source, "episode": w.episode_id, "start": w.start,
             "pc1": float(pc1), "pc2": float(pc2), "mode": w.mode.value}
            for (source, ws), sub in zip(wins.items(), split) for w, (pc1, pc2) in zip(ws, sub)]
    hull = {source: convex_hull_area(sub) for source, sub in zip(wins, split)}
    pair = {source: mean_pairwise_distance(e) for source, e in embs.items()}
    modes = {source: Counter(w.mode.value for w in ws) for source, ws in wins.items()}
    return CoverageReport(rows=rows, hull_area=hull, mean_pairwise=pair, mode_counts=modes)
