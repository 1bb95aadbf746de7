"""Person detection and tracking over the frame stream.

Per frame: density clustering of the 3D point cloud yields detections,
minimum-cost assignment associates detections to live tracks, and a
constant-velocity Kalman filter in the x-y plane carries each track's
position. Tracks confirm after a run of consecutive hits and die after a
run of consecutive misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .config import DbscanConfig, PipelineConfig, TrackerConfig
from .pointcloud import Session, point_array

NOISE = -1
_FORBIDDEN = 1e12  # cost surrogate for pairs outside the gate


class _WithPoints:
    """Dataclass base: `points` held as (k, 4) rows x, y, z, s, compared by value."""

    def __post_init__(self):
        object.__setattr__(self, "points", point_array(self.points))

    def __eq__(self, other):
        return type(other) is type(self) and all(
            map(np.array_equal, vars(self).values(), vars(other).values())
        )


@dataclass(frozen=True, eq=False)
class Detection(_WithPoints):
    """One clustered object in a frame: centroid of its member points."""

    t: float
    centroid_x: float
    centroid_y: float
    points: np.ndarray


@dataclass(frozen=True, eq=False)
class TrackState(_WithPoints):
    """Filtered position at time t plus the point subset assigned that frame."""

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


def dbscan_labels(xyz: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density-cluster points in 3D; return a label per point (-1 = noise).

    Core points have at least min_pts neighbors, themselves included; two
    points are neighbors when dx*dx + dy*dy + dz*dz <= eps*eps. Clusters are
    the connected components of core points; border points join the cluster
    of their nearest core point, ties broken by lower point index, which
    makes the labeling independent of input order up to renaming. Cluster
    ids are assigned in order of each cluster's smallest core index.

    Neighbor pairs come from a `scipy.spatial.cKDTree`; each core point's
    component root is the smallest core index in its component, so ranking
    the roots gives the cluster ids.
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
    pairs = cKDTree(xyz).query_pairs(eps, output_type="ndarray")
    core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_pts
    i, j = pairs[:, 0], pairs[:, 1]
    core_i, core_j = core[i], core[j]
    root = _component_roots(n, pairs[core_i & core_j])
    labels[core] = np.unique(root[core], return_inverse=True)[1]

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


def _component_roots(n: int, pairs: np.ndarray) -> np.ndarray:
    """Smallest node index in each node's connected component over n nodes.

    Min-label hooking of component roots plus pointer jumping: every round
    links the roots at the two ends of each edge to the smaller of them,
    then flattens each node's root pointer, until all edges agree.
    """
    root = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        np.minimum.at(root, ra, rb)
        np.minimum.at(root, rb, ra)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    min_cluster_size: int = 1,
    t: float = 0.0,
) -> list[Detection]:
    """Cluster a frame's (k, 4) points into detections.

    Noise points are discarded; clusters with fewer than min_cluster_size
    points are dropped as pets/clutter. Detections are returned in cluster
    label order with centroids over member (x, y).
    """
    points = point_array(points)
    labels = dbscan_labels(points[:, :3], eps, min_pts)
    detections = []
    for cid in range(labels.max(initial=NOISE) + 1):
        members = points[labels == cid]
        if len(members) < min_cluster_size:
            continue
        detections.append(
            Detection(
                t=t,
                centroid_x=float(np.mean(members[:, 0])),
                centroid_y=float(np.mean(members[:, 1])),
                points=members,
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

    root = _component_roots(n, np.array(close))
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
            Detection(
                t=detections[members[0]].t, centroid_x=cx, centroid_y=cy, points=points
            )
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

    for t, points in session.frame_points():
        dt = None if prev_t is None else t - prev_t
        prev_t = t
        if dt is not None:
            for lt in live:
                lt.kf.predict(dt)

        detections = dbscan(points, db.eps, db.min_pts, db.min_cluster_size, t=t)
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
