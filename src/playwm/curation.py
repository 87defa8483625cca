"""Curriculum machinery over play data.

Windows are embedded with a frozen sign projection of four evenly spaced
frames. The store keeps no frames: each episode is read once as an array
view, and the sampled state rows of consecutive episodes are rendered from
arrays and projected in blocks of at most BLOCK_FRAMES frames, one
rasterizer call and one product a block.
Success centroids come from k-means over demo-success windows; each
play window gets a distance-to-success (min Euclidean distance to any
centroid) and a rank from equal-mass quantile thresholds. Training samples
ranks from an annealed distribution that starts concentrated on the
near-success ranks and spreads toward the long tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .projection import Projection, random_projection
from .render import FRAME_SIZE, render_frames
from .rng import Rng
from .store import ClipWindow, EpisodeStore

EMBED_DIM = 32
FRAME_PIXELS = FRAME_SIZE * FRAME_SIZE
SAMPLED_FRAMES = 4
BLOCK_FRAMES = 256     # sampled frames rendered and projected per call
MIN_PRODUCT_ROWS = 16  # zero rows pad a smaller block's projection to this many


@dataclass(frozen=True)
class Embedder:
    projection: Projection

    @property
    def dim(self) -> int:
        return self.projection.out_dim * SAMPLED_FRAMES

    @staticmethod
    def create(seed: int, out_dim: int = EMBED_DIM) -> "Embedder":
        return Embedder(random_projection(seed, FRAME_PIXELS, out_dim))

    def embed_frame(self, frame: np.ndarray) -> np.ndarray:
        flat = np.asarray(frame, dtype=np.float64).reshape(-1, FRAME_PIXELS)
        return self.projection.apply(flat)


def window_sample_indices(W: int) -> tuple[int, int, int, int]:
    return (0, (W - 1) // 3, 2 * (W - 1) // 3, W - 1)


def embed_store_windows(store: EpisodeStore, wins: list[ClipWindow],
                        embedder: Embedder) -> np.ndarray:
    """Embed every window, reading each episode once. Each sampled frame is
    rendered and projected once, in blocks of at most BLOCK_FRAMES frames."""
    by_ep: dict[str, list[int]] = {}
    for i, w in enumerate(wins):
        by_ep.setdefault(w.episode_id, []).append(i)
    sampled: dict[str, list[int]] = {}  # each episode's sampled frames, ascending
    picks = np.empty((len(wins), SAMPLED_FRAMES), dtype=np.int64)  # rows of `embedded`
    n_rows = 0
    for eid, rows in by_ep.items():
        idx = {i: [wins[i].start + j for j in window_sample_indices(wins[i].length)]
               for i in rows}
        sampled[eid] = sorted({t for ts in idx.values() for t in ts})
        row_of = {t: n_rows + k for k, t in enumerate(sampled[eid])}
        for i, ts in idx.items():
            picks[i] = [row_of[t] for t in ts]
        n_rows += len(sampled[eid])
    embedded = np.empty((n_rows, embedder.projection.out_dim))
    done = 0
    for roster, gripper, objects in _sampled_blocks(store, sampled):
        k = len(gripper)
        embedded[done:done + k] = _project(embedder, render_frames(gripper, objects, roster))
        done += k
    return embedded[picks].reshape(len(wins), embedder.dim)


def _project(embedder: Embedder, frames: np.ndarray) -> np.ndarray:
    """The projections of k frames, from one product of at least
    MIN_PRODUCT_ROWS rows."""
    k = len(frames)
    flat = frames.reshape(k, FRAME_PIXELS)
    if k < MIN_PRODUCT_ROWS:
        # A product of 7 rows or fewer takes OpenBLAS's small-matrix kernel,
        # which rounds differently; from 8 rows on, each row has the bits it
        # has in any taller product, so zero rows keep them.
        flat = np.concatenate([flat, np.zeros((MIN_PRODUCT_ROWS - k, FRAME_PIXELS))])
    return embedder.projection.apply(flat)[:k]


def _sampled_blocks(store: EpisodeStore, sampled: dict[str, list[int]]):
    """(roster, gripper, objects) blocks of the `render_frames` inputs of
    every sampled frame, in order: at most BLOCK_FRAMES frames each, from
    consecutive episodes with one object roster."""
    roster, parts, n = None, [], 0
    for eid, ts in sampled.items():
        view = store.read(eid)
        if parts and view.roster != roster:
            yield roster, *_stack(parts)
            parts, n = [], 0
        roster = view.roster
        gripper, _, objects = view.state_arrays()
        while ts:
            take, ts = ts[:BLOCK_FRAMES - n], ts[BLOCK_FRAMES - n:]
            parts.append((gripper[take], objects[take]))
            n += len(take)
            if n == BLOCK_FRAMES:
                yield roster, *_stack(parts)
                parts, n = [], 0
    if parts:
        yield roster, *_stack(parts)


def _stack(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    return np.concatenate([g for g, _ in parts]), np.concatenate([o for _, o in parts])


# -- k-means ------------------------------------------------------------------

@dataclass
class ClusterModel:
    centroids: np.ndarray
    inertia: float
    seed: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def kmeans(points: np.ndarray, k: int, rng: Rng, max_iters: int = 100,
           tol: float = 1e-6) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding and farthest-point reseeding."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    seed_record = rng.next_u64() & 0x7FFFFFFF
    centroids = _kmeanspp_init(points, k, rng)
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
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
        if shift < tol:
            break
    d2 = _sq_dists(points, centroids)
    inertia = float(d2.min(axis=1).sum())
    return ClusterModel(centroids=centroids, inertia=inertia, seed=seed_record)


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
                          rng: Rng, window_len: int = 12) -> ClusterModel:
    """Cluster embeddings of success-episode windows from the demo store."""
    from .store import windows as store_windows

    wins = [w for w in store_windows(demo_store, window_len)
            if demo_store.meta(w.episode_id)["outcome"]]
    if len(wins) < k:
        raise ValueError(f"only {len(wins)} success windows, need at least {k}")
    embs = embed_store_windows(demo_store, wins, embedder)
    return kmeans(embs, k, rng)


def distances_to_success(model: ClusterModel, embeddings: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_dists(np.asarray(embeddings, dtype=np.float64),
                             model.centroids).min(axis=1))


# -- ranks and annealed sampling ---------------------------------------------

@dataclass
class CurriculumIndex:
    windows: list[ClipWindow]
    distances: np.ndarray
    thresholds: np.ndarray          # delta_0 .. delta_R, delta_0=0, delta_R=inf
    ranks: np.ndarray               # 1-based rank per window
    members: list[np.ndarray] = field(default_factory=list)  # window rows per rank

    @property
    def R(self) -> int:
        return len(self.thresholds) - 1


def build_ranks(distances: np.ndarray, R: int = 5,
                fractions: tuple = (0.2, 0.4, 0.6, 0.8),
                wins: list[ClipWindow] | None = None) -> CurriculumIndex:
    """Partition windows into R ranks at empirical distance quantiles.

    Thresholds are the sorted values at index ceil(f*N) (0-based); a distance
    exactly equal to a threshold falls in the higher rank (half-open bins).
    """
    distances = np.asarray(distances, dtype=np.float64)
    n = distances.size
    if R < 2:
        raise ValueError("need at least 2 ranks")
    if n < R:
        raise ValueError(f"need at least {R} distances, got {n}")
    if len(fractions) != R - 1:
        raise ValueError("need R-1 quantile fractions")
    sorted_d = np.sort(distances)
    cuts = [sorted_d[min(int(np.ceil(f * n)), n - 1)] for f in fractions]
    thresholds = np.array([0.0] + cuts + [np.inf])
    ranks = np.searchsorted(thresholds[1:-1], distances, side="right") + 1
    members = [np.flatnonzero(ranks == r) for r in range(1, R + 1)]
    return CurriculumIndex(windows=wins or [], distances=distances,
                           thresholds=thresholds, ranks=ranks, members=members)


@dataclass(frozen=True)
class AnnealSchedule:
    p_init: tuple = (0.5, 0.3, 0.1, 0.05, 0.05)
    p_final: tuple = (0.1, 0.2, 0.2, 0.25, 0.25)
    update_period: int = 500        # paper-scale preset uses 5000
    total_steps: int = 2500

    def __post_init__(self):
        for p in (self.p_init, self.p_final):
            if abs(sum(p) - 1.0) > 1e-9:
                raise ValueError("rank distributions must sum to 1")
        if len(self.p_init) != len(self.p_final):
            raise ValueError("distributions must have equal length")


def rank_distribution(schedule: AnnealSchedule, step: int) -> np.ndarray:
    """Piecewise-constant interpolation, frozen within each update period."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    u = schedule.update_period
    lam = min(1.0, (step // u) * u / schedule.total_steps)
    p0 = np.asarray(schedule.p_init)
    p1 = np.asarray(schedule.p_final)
    return (1.0 - lam) * p0 + lam * p1


def effective_rank_distribution(index: CurriculumIndex, schedule: AnnealSchedule,
                                step: int) -> np.ndarray:
    """Schedule distribution with empty-rank mass pushed onto nonempty ranks."""
    p = rank_distribution(schedule, step)
    sizes = np.array([len(m) for m in index.members])
    if sizes.sum() == 0:
        raise ValueError("all ranks are empty")
    p = np.where(sizes > 0, p, 0.0)
    total = p.sum()
    if total <= 0.0:
        p = (sizes > 0).astype(np.float64)
        total = p.sum()
    return p / total


def sample_batch(index: CurriculumIndex, schedule: AnnealSchedule, step: int,
                 batch_size: int, rng: Rng) -> np.ndarray:
    """Window rows drawn rank-first (annealed), then uniformly within rank."""
    p = effective_rank_distribution(index, schedule, step)
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

def pca_2d(points: np.ndarray, iters: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 principal directions by power iteration, re-orthogonalized."""
    x = np.asarray(points, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / max(1, x.shape[0] - 1)
    dims = cov.shape[0]

    def ortho(v, comps):
        for prev in comps:
            v = v - (v @ prev) * prev
        return v

    comps: list[np.ndarray] = []
    for _ in range(2):
        v = ortho(np.ones(dims) / np.sqrt(dims), comps)
        if np.linalg.norm(v) < 1e-9:  # fixed start happened to align; pick a basis vector
            best = max(range(dims),
                       key=lambda k: np.linalg.norm(ortho(np.eye(dims)[k], comps)))
            v = ortho(np.eye(dims)[best], comps)
        v = v / np.linalg.norm(v)
        for _ in range(iters):
            nv = ortho(cov @ v, comps)
            norm = np.linalg.norm(nv)
            if norm < 1e-15:
                break  # no variance left in this subspace; keep the current axis
            v = nv / norm
        comps.append(v)
    V = np.stack(comps, axis=1)
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


def mean_pairwise_distance(points: np.ndarray, cap: int = 2000) -> float:
    x = np.asarray(points, dtype=np.float64)
    if x.shape[0] > cap:
        x = x[:cap]
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

    def to_csv(self) -> str:
        lines = ["source,episode,start,pc1,pc2,mode"]
        for r in self.rows:
            lines.append(f"{r['source']},{r['episode']},{r['start']},"
                         f"{r['pc1']:.6f},{r['pc2']:.6f},{r['mode']}")
        return "\n".join(lines) + "\n"


def coverage_report(stores: dict[str, EpisodeStore], embedder: Embedder,
                    window_len: int = 12, stride: int | None = None) -> CoverageReport:
    """Project every store's windows into a shared 2D PCA and compare spread."""
    from .store import windows as store_windows

    all_embs = []
    tagged = []
    for source, store in stores.items():
        wins = store_windows(store, window_len, stride)
        if len(wins) < 2:
            raise ValueError(f"store {source!r} has fewer than 2 windows")
        embs = embed_store_windows(store, wins, embedder)
        all_embs.append(embs)
        tagged.extend((source, w) for w in wins)
    stacked = np.vstack(all_embs)
    coords, _ = pca_2d(stacked)

    rows = []
    hull: dict[str, float] = {}
    pair: dict[str, float] = {}
    modes: dict[str, dict[str, int]] = {}
    offset = 0
    for (source, store), embs in zip(stores.items(), all_embs):
        n = embs.shape[0]
        sub = coords[offset:offset + n]
        src_rows = tagged[offset:offset + n]
        hull[source] = convex_hull_area(sub)
        pair[source] = mean_pairwise_distance(embs)
        counts: dict[str, int] = {}
        for (src, w), (pc1, pc2) in zip(src_rows, sub):
            counts[w.mode.value] = counts.get(w.mode.value, 0) + 1
            rows.append({"source": src, "episode": w.episode_id, "start": w.start,
                         "pc1": float(pc1), "pc2": float(pc2), "mode": w.mode.value})
        modes[source] = counts
        offset += n
    return CoverageReport(rows=rows, hull_area=hull, mean_pairwise=pair,
                          mode_counts=modes)
