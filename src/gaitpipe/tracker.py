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

from .config import DbscanConfig, PipelineConfig, TrackerConfig
from .pointcloud import Session

NOISE = -1
# Cost surrogate for pairs outside the gate, far above any total of in-gate
# costs: the config bounds the gate to pointcloud.MAX_COORD_M (1e3 m).
_FORBIDDEN = 1e12
# track_frames clusters consecutive frames holding at most CHUNK_POINTS points
# in one dbscan call, except that a frame of more than DENSE_FRAME_POINTS
# points shares its call only with empty frames. Measured on the benchmark's
# seed-1 sessions on a 2-vCPU host, when the frames of a call shared one
# tree: a one-walk clinic session (95 frames, 720 points) is one call in
# place of 3.4 with a 256-point cap, and track_frames takes 0.7x the time;
# letting the dense home frames (122-347 points) share 2048-point stacks too
# made track_frames 1.15-1.5x slower.
CHUNK_POINTS = 2048
DENSE_FRAME_POINTS = 128
# dbscan_labels builds each cKDTree with this layout. Tree build plus
# query_pairs, summed over the benchmark's seed-1 and seed-2 stacks (best of
# 11-21 runs per stack, 2-vCPU host), against scipy's default (leafsize 16,
# balanced, compact): home_dense one-frame stacks of 122-347 points
# 167-204 -> 140-166 us a stack. Against this layout, leafsize 128 was as
# fast, and leafsize 32, compact nodes or balanced trees were slower.
TREE_LAYOUT = {"leafsize": 64, "balanced_tree": False, "compact_nodes": False}
# dbscan_labels compares all pairs of a frame of at most ALL_PAIRS_POINTS
# points, and builds a tree for each larger frame. Microseconds per frame,
# best of 7, all pairs / a tree per frame, with equal pair sets, on
# 2048-point stacks of equal frames of person-like normal blobs (sd 0.25 m
# in x-y, 0.4 m in z), eps 0.4 m, 2-vCPU host:
#    8 points:  0.7 / 16.0      40 points:  27.9 / 23.1
#   16 points:  4.1 / 17.1      48 points:  37.9 / 25.1
#   24 points:  9.4 / 18.7      64 points:  80.6 / 44.0
#   32 points: 18.7 / 20.4     128 points: 357.6 / 96.9
ALL_PAIRS_POINTS = 32


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

    Neighbor pairs (i, j) come by frame size: the pairs of every frame of
    at most ALL_PAIRS_POINTS points come from one numpy pass that compares
    each of its rows with every later row of the frame, and each larger
    frame gets its own 3D `scipy.spatial.cKDTree` built with TREE_LAYOUT.
    scipy.spatial (about 35 MB with the scipy.special it imports) loads at
    the first such frame. Both searches evaluate the squared distance in
    the order above. The pairs form an (m, 2) array with i < j, in no
    particular order. One `np.bincount` over it counts every point's
    neighbors. `_component_roots` takes the core-core pairs as edges, and
    each core point's component root is the smallest core index in its
    component, so numbering the roots in index order gives the cluster ids.
    When every point is core, as on a dense frame of people, the roots over
    all pairs give the labels and there is no border point to place;
    otherwise the border pass sorts its own candidates.

    Coordinates must be finite. A squared distance that overflows makes no
    pair in the numpy pass, and a tree raises ValueError when its frame's
    squared extent overflows; a session's coordinates and the config's eps
    are at most pointcloud.MAX_COORD_M, far from either.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    n = len(xyz)
    if n == 0:
        return np.full(0, NOISE, dtype=int)

    xyz = np.asarray(xyz, dtype=float)
    if not np.isfinite(xyz).all():
        raise ValueError("coordinates must be finite")
    sizes = np.array([n]) if offsets is None else np.diff(offsets)
    pairs = _neighbor_pairs(xyz, float(eps), sizes)
    i, j = pairs.T
    core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_pts
    if core.all():
        root = _component_roots(n, i, j)
        return (np.cumsum(root == np.arange(n)) - 1)[root]
    core_i, core_j = core[i], core[j]
    both = core_i & core_j
    root = _component_roots(n, i[both], j[both])
    ids = np.cumsum(core & (root == np.arange(n))) - 1
    labels = np.full(n, NOISE, dtype=int)
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


def _neighbor_pairs(xyz: np.ndarray, eps: float, sizes: np.ndarray) -> np.ndarray:
    """(m, 2) neighbor pairs (i, j), i < j, within each frame of a stack
    whose frames hold the given numbers of rows (see `dbscan_labels`)."""
    parts = []
    start = 0
    small = False  # a frame of 2 to ALL_PAIRS_POINTS points
    for size in sizes.tolist():
        if size > ALL_PAIRS_POINTS:
            from scipy.spatial import cKDTree

            pairs = cKDTree(xyz[start : start + size], **TREE_LAYOUT).query_pairs(
                eps, output_type="ndarray")
            if start:
                pairs += start
            parts.append(pairs)
        elif size > 1:
            small = True
        start += size
    if small:
        # Row r of a small frame pairs with the later[r] rows after it in its
        # frame, a row of a larger frame with none. Its candidates sit at
        # positions first[r]:first[r] + later[r].
        rows = np.arange(len(xyz))
        stop = np.repeat(np.where(sizes <= ALL_PAIRS_POINTS, np.cumsum(sizes), 0), sizes)
        later = np.maximum(stop - rows - 1, 0)
        first = np.cumsum(later) - later
        i = np.repeat(rows, later)
        j = np.arange(len(i)) - np.repeat(first - rows - 1, later)
        x, y, z = xyz.T
        with np.errstate(over="ignore"):  # an overflow to inf is no neighbor
            dx, dy, dz = x[i] - x[j], y[i] - y[j], z[i] - z[j]
            near = dx * dx + dy * dy + dz * dz <= eps * eps
        parts.append(np.column_stack([i[near], j[near]]))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.intp)


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
    # A component's root is its smallest index, its one node with
    # root[r] == r: the roots in ascending order, as from np.unique, but
    # without the numpy.ma import that np.unique makes.
    for r in np.flatnonzero(root == np.arange(n)):
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
    this only when a track has two detections within its gate or a
    detection lies within the gate of two tracks, so a session without
    such a contention never loads it.
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

    Cost is Euclidean distance; pairs farther than the gate are forbidden,
    and the matches are the minimum-cost assignment among those that use
    the most in-gate pairs. When no track has two detections within the
    gate and no detection is within the gate of two tracks, the in-gate
    pairs are that assignment: dropping one pays a forbidden cost far above
    any gate the config allows. Only a contention calls the solver.
    Returns (matches, unmatched_track_indices, unmatched_detection_indices),
    matches in track order.
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
    inside = cost <= gate
    if inside.sum(axis=0).max() <= 1 and inside.sum(axis=1).max() <= 1:
        rows, cols = np.nonzero(inside)
        matches = list(zip(rows.tolist(), cols.tolist()))
    else:
        pairs, _ = min_cost_assignment(np.where(cost > gate, _FORBIDDEN, cost))
        matches = [(i, j) for i, j in pairs if inside[i, j]]
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
    sparse frames share a call, since fewer calls pay off on them, while a
    dense frame keeps its own.
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
