"""Person detection and tracking over the frame stream.

Density clustering of the 3D point cloud yields each frame's detections;
it runs on a chunk of consecutive frames at a time, with exactly the
per-frame results. Per frame, minimum-cost assignment then associates
detections to live tracks, and a constant-velocity Kalman filter in the
x-y plane carries each track's position. Tracks confirm after a run of
consecutive hits and die after a run of consecutive misses.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .config import DbscanConfig, PipelineConfig, TrackerConfig
from .pointcloud import Session

NOISE = -1
_FORBIDDEN = 1e12  # cost surrogate for pairs outside the gate
# track_frames clusters consecutive frames holding at most this many points
# in one dbscan call. Fewer calls pay off on sparse frames; larger stacks slow
# the neighbor search on dense ones (measured in ROADMAP.md, item 2).
CHUNK_POINTS = 256


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
class TrackState:
    """Filtered position at time t plus the (k, 4) rows x, y, z, s of the
    detection assigned that frame."""

    t: float
    x: float
    y: float
    points: np.ndarray


@dataclass
class Track:
    track_id: int
    states: list[TrackState] = field(default_factory=list)

    @property
    def t_start(self) -> float:
        return self.states[0].t

    @property
    def t_end(self) -> float:
        return self.states[-1].t


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
    points, each point gets a 4th coordinate, 2 * eps times its frame's
    rank among the non-empty frames: within a frame it adds exactly 0 to
    the squared distance, across frames at least 4 * eps * eps. cKDTree
    raises ValueError when that coordinate or the squared extent of the
    stack overflows.
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
            coords = np.column_stack([xyz, rank * 2.0 * eps])
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
    # Row indices grouped by label, noise first; the sort is stable, so each
    # cluster's rows keep their input order. bounds[c]:bounds[c + 1] of rows
    # are cluster c's.
    rows = np.argsort(labels, kind="stable")
    bounds = np.bincount(labels + 1).cumsum().tolist()
    firsts = [0] if offsets is None else offsets.tolist()  # each frame's first row
    detections = []
    for a, b in zip(bounds, bounds[1:]):
        if b - a < min_cluster_size:
            continue
        members = points[rows[a:b]]
        detections.append(
            Detection(
                centroid_x=float(np.mean(members[:, 0])),
                centroid_y=float(np.mean(members[:, 1])),
                points=members,
                frame=bisect.bisect_right(firsts, rows[a]) - 1,
            )
        )
    return detections


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
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if cost.size == 0:
        return [], 0.0
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

    @property
    def state(self) -> np.ndarray:
        return np.array([self.x, self.y, self.vx, self.vy])

    @state.setter
    def state(self, value) -> None:
        self.x, self.y, self.vx, self.vy = map(float, value)

    @property
    def cov(self) -> np.ndarray:
        """The 4x4 covariance over (x, y, vx, vy)."""
        return np.kron([[self.pp, self.pv], [self.pv, self.vv]], np.eye(2))

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
    track: Track
    consecutive_hits: int = 1
    consecutive_misses: int = 0
    ever_confirmed: bool = False


def _frame_detections(
    session: Session, db: DbscanConfig
) -> Iterator[tuple[float, list[Detection]]]:
    """(t, detections) for each frame of the session, in time order.

    One `dbscan` call clusters a chunk of consecutive frames that together
    hold at most CHUNK_POINTS points; a frame that holds more stands alone,
    since stacking dense frames slows the neighbor search more than it
    saves in calls. The stacked tree's squared extent must stay finite (see
    `dbscan_labels`), so a huge eps or huge coordinates fall back to one
    non-empty frame per chunk.
    """
    times, points, offsets = session.times.tolist(), session.points, session.offsets
    # The stacked tree's squared extent is at most 13 * bound**2: the rank
    # column's span plus three axes of width 2 * max |coordinate|.
    bound = max(2.0 * db.eps * CHUNK_POINTS, float(np.abs(points[:, :3]).max(initial=0.0)))
    limit = CHUNK_POINTS if math.isfinite(16.0 * bound * bound) else 1
    firsts = offsets.tolist()
    start = 0
    while start < len(times):
        stop = max(start + 1, bisect.bisect_right(firsts, firsts[start] + limit) - 1)
        a, b = firsts[start], firsts[stop]
        found = dbscan(points[a:b], db.eps, db.min_pts, db.min_cluster_size,
                       offsets=offsets[start : stop + 1] - a)
        by_frame = [[] for _ in range(stop - start)]
        for det in found:
            by_frame[det.frame].append(det)
        yield from zip(times[start:stop], by_frame)
        start = stop


def track_frames(session: Session, cfg: PipelineConfig | None = None) -> list[Track]:
    """Run detection + association + filtering over a whole session.

    Returns every track that reached confirmed status, ordered by track id.
    Deterministic for a given (session, cfg).
    """
    cfg = cfg or PipelineConfig()
    db: DbscanConfig = cfg.dbscan
    tk: TrackerConfig = cfg.tracker

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
            lt.track.states.append(
                TrackState(t=t, x=lt.kf.x, y=lt.kf.y, points=det.points)
            )
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
                finished.append(lt.track)
        still_live.sort(key=lambda lt: lt.track.track_id)
        live = still_live

        for dj in unmatched_dets:
            det = detections[dj]
            kf = KalmanCV(det.centroid_x, det.centroid_y, tk.sigma_a, tk.sigma_m)
            track = Track(track_id=next_id)
            track.states.append(
                TrackState(t=t, x=kf.x, y=kf.y, points=det.points)
            )
            live.append(
                _LiveTrack(kf=kf, track=track, ever_confirmed=tk.confirm_hits <= 1)
            )
            next_id += 1

    finished.extend(lt.track for lt in live if lt.ever_confirmed)
    finished.sort(key=lambda tr: tr.track_id)
    return finished
