"""Person detection and tracking over the frame stream.

Density clustering of the 3D point cloud yields each frame's detections;
it runs on a chunk of consecutive frames at a time, with exactly the
per-frame results. Per frame, minimum-cost assignment then associates
detections to live tracks, and a constant-velocity Kalman filter in the
x-y plane carries each track's position. Tracks confirm after a run of
consecutive hits and die after a run of consecutive misses. A track keeps
no points, only each frame's torso Doppler summary (see `track_row`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .config import DbscanConfig, PipelineConfig, TrackerConfig
from .pointcloud import Session

NOISE = -1
_FORBIDDEN = 1e12  # cost surrogate for pairs outside the gate
# track_frames clusters consecutive frames holding at most CHUNK_POINTS points
# in one dbscan call, except that a frame of more than DENSE_FRAME_POINTS
# points shares its call only with empty frames. Measured on the benchmark's
# seed-1 sessions on a 2-vCPU host: a one-walk clinic session (95 frames,
# 720 points) is one call in place of 3.4 with a 256-point cap, and
# track_frames takes 0.7x the time; letting the dense home frames (122-347
# points) share 2048-point stacks too made track_frames 1.15-1.5x slower.
CHUNK_POINTS = 2048
DENSE_FRAME_POINTS = 128


@dataclass(frozen=True, eq=False)
class Detection:
    """One clustered object in a frame: its member points as (k, 4) rows
    x, y, z, s, their centroid in x-y, and the index of its frame in the
    stack that `dbscan` clustered."""

    centroid_x: float
    centroid_y: float
    points: np.ndarray
    frame: int = 0


@dataclass(frozen=True, eq=False)
class Track:
    """A confirmed track as columns, one row per frame it was matched in:
    the frame time, the filtered position, the size of the detection
    assigned that frame and that detection's torso Doppler summary (see
    `track_row`), column 0 for approach and column 1 for recede."""

    track_id: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    n_points: np.ndarray
    torso_mean: np.ndarray  # (n, 2)
    torso_count: np.ndarray  # (n, 2)

    @classmethod
    def from_rows(cls, track_id: int, rows: list[tuple]) -> Track:
        """The track of `track_row` rows, in time order."""
        t, x, y, n, mean_a, count_a, mean_r, count_r = zip(*rows)
        return cls(track_id, np.array(t), np.array(x), np.array(y), np.array(n),
                   np.column_stack([mean_a, mean_r]), np.column_stack([count_a, count_r]))

    def __len__(self) -> int:
        return len(self.t)


def _mean(values: list[float]) -> float:
    """math.fsum(values) / len(values), 0.0 for no values."""
    return math.fsum(values) / len(values) if values else 0.0


def track_row(t: float, x: float, y: float, points: np.ndarray, z_torso: float) -> tuple:
    """One `Track` row: t, x, y, the number of (k, 4) points, then the mean
    and count of the torso Dopplers for approach and for recede.

    A point is torso when |z| <= z_torso; its Doppler counts for approach
    when negative and for recede when positive.
    """
    torso = points[:, 3][np.abs(points[:, 2]) <= z_torso].tolist()
    approach = [s for s in torso if s < 0]
    recede = [s for s in torso if s > 0]
    return (t, x, y, len(points), _mean(approach), len(approach), _mean(recede), len(recede))


def dbscan_labels(
    xyz: np.ndarray, eps: float, min_pts: int, offsets: np.ndarray | None = None
) -> np.ndarray:
    """Density-cluster points in 3D; return a label per point (-1 = noise).

    Core points have at least min_pts neighbors, themselves included; two
    points are neighbors when dx*dx + dy*dy + dz*dz <= eps*eps. Clusters are
    the connected components of core points; border points join the cluster
    of their nearest core point, ties broken by lower point index, which
    makes the labeling independent of input order up to renaming. Cluster
    ids are assigned in order of each cluster's smallest core index.

    With `offsets`, the rows are a stack of frames: frame k owns rows
    `offsets[k]:offsets[k + 1]`, and rows of different frames are never
    neighbors. Each frame's labels are then the ones it gets alone plus the
    number of clusters in the frames before it.

    Neighbor pairs (i, j) come from a `scipy.spatial.cKDTree` with i < j,
    the order `_component_roots` takes its core-core edges in; it drops each
    edge once its ends share a root. Each core point's component root is
    the smallest core index in its component, so numbering the roots in
    index order gives the cluster ids. When two or more stacked frames hold
    points, each point gets a 4th coordinate, its frame's rank among the
    non-empty frames times max(2 * eps, 1): within a frame it adds exactly
    0 to the squared distance, across frames at least max(4 * eps * eps, 1),
    which no eps, however small, rounds to 0. cKDTree raises ValueError
    when that coordinate or the squared extent of the stack overflows.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    n = len(xyz)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels

    xyz = np.asarray(xyz, dtype=float)
    coords = xyz
    if offsets is not None:
        sizes = np.diff(offsets)
        if np.count_nonzero(sizes) > 1:
            rank = np.repeat((sizes > 0).cumsum() - 1, sizes)
            coords = np.column_stack([xyz, rank * max(2.0 * eps, 1.0)])
    # Contiguous columns with i < j, as query_pairs yields them.
    i, j = cKDTree(coords).query_pairs(eps, output_type="ndarray").T.copy()
    core = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1 >= min_pts
    core_i, core_j = core[i], core[j]
    both = core_i & core_j
    root = _component_roots(n, i[both], j[both])
    ids = np.cumsum(core & (root == np.arange(n))) - 1
    labels[core] = ids[root[core]]

    # Border points: nearest core neighbor, ties to the lower core index.
    border = np.concatenate([i[core_j & ~core_i], j[core_i & ~core_j]])
    near = np.concatenate([j[core_j & ~core_i], i[core_i & ~core_j]])
    d = xyz[border] - xyz[near]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    order = np.lexsort((near, d2, border))
    border, near = border[order], near[order]
    _, first = np.unique(border, return_index=True)
    labels[border[first]] = labels[near[first]]
    return labels


def _component_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node index in each node's connected component over n nodes.

    The edges are (a[k], b[k]) with a[k] < b[k]. Min-label hooking plus
    pointer jumping: the first round points each b at its smallest a. Each
    round then flattens every node's root pointer, replaces each edge by the
    edge between its ends' roots, drops the edges whose ends agree (roots
    only merge, so they agree from then on) and links the larger root of
    each remaining edge to the smaller, until no edge is left.
    """
    root = np.arange(n)
    np.minimum.at(root, b, a)
    while True:
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        a, b = root[a], root[b]
        differ = a != b
        if not differ.any():
            return root
        a, b = a[differ], b[differ]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))


def dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    min_cluster_size: int = 1,
    offsets: np.ndarray | None = None,
) -> list[Detection]:
    """Cluster (k, 4) points into detections.

    The points are one frame, or with `offsets` a stack of frames as in
    `dbscan_labels`, and each detection records its frame's index in the
    stack. Noise points are discarded; clusters with fewer than
    min_cluster_size points are dropped as pets/clutter. Detections are
    returned in (frame, cluster label) order with centroids over member
    (x, y), the same as one call per frame.
    """
    labels = dbscan_labels(points[:, :3], eps, min_pts, offsets)
    # Clustered rows grouped by label, after the noise; the sort is stable,
    # so each cluster's rows keep their input order. Cluster c's members are
    # members[starts[c]:ends[c]].
    counts = np.bincount(labels + 1, minlength=1)  # noise, then each cluster's size
    sizes = counts[1:]
    if not len(sizes):
        return []
    rows = np.argsort(labels, kind="stable")[counts[0]:]
    members = points[rows]
    ends = sizes.cumsum()
    starts = ends - sizes
    # np.mean sums pairwise, so a centroid's bits depend on its cluster's
    # size. One reduction along contiguous rows (np.take gives C order) per
    # size gives the same bits for every cluster of that size.
    xy = members[:, :2].T.copy()
    sums = np.empty((2, len(sizes)))
    for size in set(sizes.tolist()):
        which = np.flatnonzero(sizes == size)
        sums[:, which] = np.add.reduce(np.take(xy, starts[which, None] + np.arange(size), axis=1),
                                       axis=-1)
    cx, cy = (sums / sizes).tolist()
    frames = ([0] * len(sizes) if offsets is None
              else (np.searchsorted(offsets, rows[starts], side="right") - 1).tolist())
    return [
        Detection(centroid_x=x, centroid_y=y, points=members[a:b], frame=f)
        for x, y, a, b, f, size in zip(cx, cy, starts.tolist(), ends.tolist(), frames,
                                       sizes.tolist())
        if size >= min_cluster_size
    ]


def merge_close_detections(
    detections: list[Detection], merge_radius: float
) -> list[Detection]:
    """Fuse detections whose centroids sit within merge_radius of each other.

    A person sometimes splits into two density clusters (sparse elevation
    coverage); two real people are never that close, so single-link merging
    of near-coincident centroids repairs the split before association.
    """
    n = len(detections)
    close = [
        (i, j)
        for i, a in enumerate(detections)
        for j, b in enumerate(detections[i + 1 :], start=i + 1)
        if math.hypot(a.centroid_x - b.centroid_x, a.centroid_y - b.centroid_y) <= merge_radius
    ]
    if not close:
        return detections

    root = _component_roots(n, *np.array(close).T)
    merged = []
    for r in np.unique(root):
        members = np.flatnonzero(root == r)
        if len(members) == 1:
            merged.append(detections[members[0]])
            continue
        points = np.concatenate([detections[i].points for i in members])
        cx = math.fsum(points[:, 0].tolist()) / len(points)
        cy = math.fsum(points[:, 1].tolist()) / len(points)
        merged.append(
            Detection(centroid_x=cx, centroid_y=cy, points=points,
                      frame=detections[members[0]].frame)
        )
    return merged


def min_cost_assignment(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Minimum-total-cost one-to-one assignment on an arbitrary cost matrix.

    Returns the matched (row, col) pairs and their total cost. Rectangular
    matrices match min(rows, cols) pairs.

    scipy.optimize (about 11 MB) loads on the first call. `associate` calls
    this only for a frame with tracks and detections to assign and more
    than one of either, so a session that only ever tracks one person
    never loads it.
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if cost.size == 0:
        return [], 0.0
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].sum())


def associate(
    predicted: list[tuple[float, float]],
    detections: list[Detection],
    gate: float,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Assign detections to predicted track positions.

    Cost is Euclidean distance; pairs farther than the gate are forbidden.
    Returns (matches, unmatched_track_indices, unmatched_detection_indices).
    """
    n, m = len(predicted), len(detections)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    if n == m == 1:  # the assignment is (0, 0); it matches within the gate
        (px, py), det = predicted[0], detections[0]
        if math.hypot(px - det.centroid_x, py - det.centroid_y) <= gate:
            return [(0, 0)], [], []
        return [], [0], [0]
    cost = np.empty((n, m), dtype=float)
    for i, (px, py) in enumerate(predicted):
        for j, det in enumerate(detections):
            cost[i, j] = math.hypot(px - det.centroid_x, py - det.centroid_y)
    gated = np.where(cost > gate, _FORBIDDEN, cost)
    pairs, _ = min_cost_assignment(gated)
    matches = [(i, j) for i, j in pairs if cost[i, j] <= gate]
    matched_tracks = {i for i, _ in matches}
    matched_dets = {j for _, j in matches}
    unmatched_tracks = [i for i in range(n) if i not in matched_tracks]
    unmatched_dets = [j for j in range(m) if j not in matched_dets]
    return matches, unmatched_tracks, unmatched_dets


class KalmanCV:
    """Constant-velocity Kalman filter over state (x, y, vx, vy).

    Process noise is the white-acceleration model scaled by sigma_a; the
    measurement is the detection centroid with isotropic noise sigma_m.
    F and Q are block-diagonal per axis, R is isotropic and the initial
    covariance is diagonal, so both axes share one symmetric (position,
    velocity) covariance [[pp, pv], [pv, vv]] and the cross-axis terms stay
    zero: the filter runs in closed form on plain floats.
    """

    def __init__(
        self,
        x: float,
        y: float,
        sigma_a: float,
        sigma_m: float,
        v0_sigma: float = 1.5,
    ):
        self.x, self.y, self.vx, self.vy = float(x), float(y), 0.0, 0.0
        self.q = sigma_a**2
        self.r = sigma_m**2
        self.pp, self.pv, self.vv = self.r, 0.0, v0_sigma**2

    def predict(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.x += dt * self.vx
        self.y += dt * self.vy
        # F P F^T + q g g^T with F = [[1, dt], [0, 1]] and g = (dt^2/2, dt).
        g = 0.5 * dt * dt
        pv = self.pv + dt * self.vv
        self.pp += dt * (self.pv + pv) + self.q * g * g
        self.pv = pv + self.q * g * dt
        self.vv += self.q * dt * dt

    def update(self, zx: float, zy: float) -> None:
        pp, pv, r = self.pp, self.pv, self.r
        s = pp + r
        kp, kv = pp / s, pv / s
        ex, ey = zx - self.x, zy - self.y
        self.x += kp * ex
        self.y += kp * ey
        self.vx += kv * ex
        self.vy += kv * ey
        # Joseph form (I - K H) P (I - K H)^T + K r K^T keeps the covariance
        # positive-definite; c is the (velocity, position) entry of (I - K H) P.
        a, c = 1.0 - kp, pv - kv * pp
        self.pp = a * a * pp + r * kp * kp
        self.pv = a * c + r * kp * kv
        self.vv += -kv * pv - kv * c + r * kv * kv


@dataclass
class _LiveTrack:
    kf: KalmanCV
    track_id: int
    rows: list[tuple]
    consecutive_hits: int = 1
    consecutive_misses: int = 0
    ever_confirmed: bool = False


def _stacks(sizes: list[int]) -> Iterator[tuple[int, int]]:
    """(start, stop) frame ranges that cover frames of the given sizes in order.

    A stack takes frames while it holds at most CHUNK_POINTS points, but a
    frame of more than DENSE_FRAME_POINTS points shares its stack only with
    empty frames: the stack closes before it if it already holds points, and
    after it at the next non-empty frame.
    """
    start = held = 0
    held_dense = False
    for k, size in enumerate(sizes):
        if not size:
            continue
        if held and (held_dense or size > DENSE_FRAME_POINTS or held + size > CHUNK_POINTS):
            yield start, k
            start, held = k, 0
        held += size
        held_dense = size > DENSE_FRAME_POINTS
    if sizes:
        yield start, len(sizes)


def _frame_detections(
    session: Session, db: DbscanConfig
) -> Iterator[tuple[float, list[Detection]]]:
    """(t, detections) for each frame of the session, in time order.

    One `dbscan` call clusters a stack of consecutive frames (see `_stacks`):
    sparse frames share a tree, since fewer calls pay off on them, while a
    dense frame keeps its own, since stacking dense frames slows the neighbor
    search more than it saves in calls. The stacked tree's squared extent
    stays finite (see `dbscan_labels`): a session's coordinates and the
    config's eps are at most MAX_COORD_M.
    """
    times, points, offsets = session.times.tolist(), session.points, session.offsets
    firsts = offsets.tolist()
    for start, stop in _stacks(np.diff(offsets).tolist()):
        a, b = firsts[start], firsts[stop]
        found = dbscan(points[a:b], db.eps, db.min_pts, db.min_cluster_size,
                       offsets=offsets[start : stop + 1] - a)
        by_frame = [[] for _ in range(stop - start)]
        for det in found:
            by_frame[det.frame].append(det)
        yield from zip(times[start:stop], by_frame)


def track_frames(session: Session, cfg: PipelineConfig | None = None) -> list[Track]:
    """Run detection + association + filtering over a whole session.

    Returns every track that reached confirmed status, ordered by track id.
    Deterministic for a given (session, cfg).
    """
    cfg = cfg or PipelineConfig()
    db: DbscanConfig = cfg.dbscan
    tk: TrackerConfig = cfg.tracker
    z_torso = cfg.gait.z_torso

    live: list[_LiveTrack] = []
    finished: list[Track] = []
    next_id = 0
    prev_t: float | None = None

    for t, detections in _frame_detections(session, db):
        dt = None if prev_t is None else t - prev_t
        prev_t = t
        if dt is not None:
            for lt in live:
                lt.kf.predict(dt)

        detections = merge_close_detections(detections, db.merge_radius)
        predicted = [(lt.kf.x, lt.kf.y) for lt in live]
        matches, unmatched_tracks, unmatched_dets = associate(
            predicted, detections, tk.gate
        )

        for ti, dj in matches:
            lt = live[ti]
            det = detections[dj]
            lt.kf.update(det.centroid_x, det.centroid_y)
            lt.rows.append(track_row(t, lt.kf.x, lt.kf.y, det.points, z_torso))
            lt.consecutive_hits += 1
            lt.consecutive_misses = 0
            if not lt.ever_confirmed and lt.consecutive_hits >= tk.confirm_hits:
                lt.ever_confirmed = True

        still_live = [live[i] for i, _ in matches]
        for ti in unmatched_tracks:
            lt = live[ti]
            lt.consecutive_misses += 1
            lt.consecutive_hits = 0
            if lt.consecutive_misses < tk.kill_misses:
                still_live.append(lt)
            elif lt.ever_confirmed:
                finished.append(Track.from_rows(lt.track_id, lt.rows))
        still_live.sort(key=lambda lt: lt.track_id)
        live = still_live

        for dj in unmatched_dets:
            det = detections[dj]
            kf = KalmanCV(det.centroid_x, det.centroid_y, tk.sigma_a, tk.sigma_m)
            row = track_row(t, kf.x, kf.y, det.points, z_torso)
            live.append(_LiveTrack(kf=kf, track_id=next_id, rows=[row],
                                   ever_confirmed=tk.confirm_hits <= 1))
            next_id += 1

    finished.extend(Track.from_rows(lt.track_id, lt.rows) for lt in live if lt.ever_confirmed)
    finished.sort(key=lambda tr: tr.track_id)
    return finished
