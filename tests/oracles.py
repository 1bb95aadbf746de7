"""Independent reference implementations the library is tested against.

These deliberately take the dumbest correct route (full distance
matrices, explicit permutation enumeration, textbook ANOVA sums) so they
share no code or algorithmic structure with the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import f as f_dist

from gaitpipe.pointcloud import MAX_COORD_M, MAX_DOPPLER_MS


def naive_dbscan(xyz: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """O(n^2) reference DBSCAN with the same rules as the library: two points
    are neighbors when dx*dx + dy*dy + dz*dz <= eps*eps, and border points
    attach to their nearest core point, ties to lower index."""
    n = len(xyz)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    diff = xyz[:, None, :] - xyz[None, :, :]
    d2 = diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1] + diff[..., 2] * diff[..., 2]
    adjacency = d2 <= eps * eps
    core = adjacency.sum(axis=1) >= min_pts

    # Union-find over core points connected within eps.
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        if not core[i]:
            continue
        for j in range(i + 1, n):
            if core[j] and adjacency[i, j]:
                parent[find(j)] = find(i)

    roots = {}
    order = []
    for i in range(n):
        if core[i]:
            r = find(i)
            if r not in roots:
                roots[r] = None
                order.append(r)
    for cid, r in enumerate(order):
        roots[r] = cid
    for i in range(n):
        if core[i]:
            labels[i] = roots[find(i)]

    for i in range(n):
        if core[i]:
            continue
        best_j = -1
        best_d = math.inf
        for j in range(n):
            if core[j] and adjacency[i, j] and (d2[i, j] < best_d):
                best_d = d2[i, j]
                best_j = j
        if best_j >= 0:
            labels[i] = labels[best_j]
    return labels


def union_find_roots(n: int, edges) -> np.ndarray:
    """Smallest node index in each node's connected component: textbook
    union-find over the (a, b) edge list, then the minimum of each set."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in edges:
        parent[find(a)] = find(b)
    smallest = {}
    for i in range(n):
        smallest.setdefault(find(i), i)
    return np.array([smallest[find(i)] for i in range(n)], dtype=int)


def reference_frame_points(frame_pts: list) -> tuple:
    """The session reader's per-point rule, one Python call per point.

    frame_pts holds each frame line's parsed `pts` value, frame k on file
    line k + 2 (after the header). Returns ("reject", line, message) for the
    first bad line, else ("accept", kept points per frame, number dropped).
    An entry is rejected unless it is a 4-element list of JSON numbers:
    ints or floats, not true/false or strings, which float() would also
    take. It is then dropped when non-finite, when |x|, |y| or |z| exceeds
    MAX_COORD_M, when |s| exceeds MAX_DOPPLER_MS, or when y < 0. Integers
    past the float range are rejected as non-numeric (float() raises
    OverflowError).
    """
    kept, dropped = [], 0
    for line, pts in enumerate(frame_pts, start=2):
        if not isinstance(pts, list):
            return ("reject", line, "'pts' must be an array")
        frame = []
        for raw in pts:
            if not isinstance(raw, list) or len(raw) != 4:
                return ("reject", line,
                        f"point must be a 4-element [x, y, z, s] array, got {raw!r}")
            try:
                if any(type(v) not in (int, float) for v in raw):
                    raise TypeError
                x, y, z, s = (float(v) for v in raw)
            except (TypeError, OverflowError):
                return ("reject", line, f"non-numeric point entry {raw!r}")
            if (not all(math.isfinite(v) for v in (x, y, z, s)) or y < 0
                    or max(abs(x), abs(y), abs(z)) > MAX_COORD_M or abs(s) > MAX_DOPPLER_MS):
                dropped += 1
            else:
                frame.append((x, y, z, s))
        kept.append(frame)
    return ("accept", kept, dropped)


def reference_torso_speeds(
    frames: list[list[tuple[float, float, float, float]]], z_torso: float, sign: int
) -> list[tuple[float, int] | None]:
    """Per-point torso gate: (|mean qualifying Doppler|, count) per frame,
    None where no point has |z| <= z_torso and Doppler of the given sign."""
    out = []
    for points in frames:
        speeds = [s for _, _, z, s in points if -z_torso <= z <= z_torso and sign * s > 0]
        out.append((abs(math.fsum(speeds) / len(speeds)), len(speeds)) if speeds else None)
    return out


def per_state_torso_speed(
    rows, z_torso: float, sign: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Torso-speed columns (times, speeds, xs, ys) of (t, x, y, points) rows,
    one numpy mask per row's (k, 4) points: a row for each with a point of
    |z| <= z_torso whose Doppler has the given sign of travel (negative for
    approach), its speed |fsum of those Dopplers| / count."""
    out = []
    for t, x, y, points in rows:
        points = np.asarray(points, dtype=float).reshape(-1, 4)
        s = points[:, 3]
        speeds = s[(np.abs(points[:, 2]) <= z_torso) & (sign * s > 0)].tolist()
        if speeds:
            out.append((t, abs(math.fsum(speeds) / len(speeds)), x, y))
    return tuple(np.array(out, dtype=float).reshape(-1, 4).T)


def per_sample_peaks(
    t: np.ndarray, v: np.ndarray, nms_window: float, min_peak_gap: float
) -> list[float]:
    """The peak rules with two binary searches and one window slice per
    sample, then greedy acceptance by descending speed (ties to the earlier
    sample), with the same nanosecond slack as the library."""
    n = len(t)
    if n == 0:
        return []
    half = nms_window / 2.0
    slack = 1e-9
    candidates = []
    for i in range(n):
        if t[i] - t[0] < half - slack or t[-1] - t[i] < half - slack:
            continue  # window not fully covered by the series
        lo = np.searchsorted(t, t[i] - half - slack, side="left")
        hi = np.searchsorted(t, t[i] + half + slack, side="right")
        window = v[lo:hi]
        if len(window) <= 1:
            continue
        others = np.concatenate([window[: i - lo], window[i - lo + 1 :]])
        if len(others) and v[i] > others.max():
            candidates.append(i)
    accepted: list[int] = []
    for i in sorted(candidates, key=lambda i: (-v[i], t[i])):
        if all(abs(t[i] - t[j]) >= min_peak_gap - slack for j in accepted):
            accepted.append(i)
    accepted.sort(key=lambda i: t[i])
    return [float(t[i]) for i in accepted]


def canonical_labels(labels: np.ndarray) -> list[int]:
    """Rename cluster ids by order of first appearance so labelings compare."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        if lab == -1:
            out.append(-1)
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


def brute_force_assignment(cost: np.ndarray) -> float:
    """Minimum total cost over every one-to-one assignment, by enumeration."""
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    rows, cols = cost.shape
    best = math.inf
    for perm in itertools.permutations(range(cols), rows):
        total = sum(cost[i, perm[i]] for i in range(rows))
        best = min(best, total)
    return best


def kalman_state(kf) -> np.ndarray:
    """A closed-form filter's state (x, y, vx, vy) as an array."""
    return np.array([kf.x, kf.y, kf.vx, kf.vy])


def set_kalman_state(kf, value) -> None:
    """Overwrite a closed-form filter's state (x, y, vx, vy)."""
    kf.x, kf.y, kf.vx, kf.vy = map(float, value)


def kalman_cov(kf) -> np.ndarray:
    """A closed-form filter's 4x4 covariance over (x, y, vx, vy), from its
    per-axis (position, velocity) entries pp, pv and vv."""
    return np.kron([[kf.pp, kf.pv], [kf.pv, kf.vv]], np.eye(2))


class MatrixKalmanCV:
    """Constant-velocity Kalman filter in full 4x4 matrix algebra over state
    (x, y, vx, vy): F, Q, H and R built as matrices, the gain through an
    explicit inverse of S, and the Joseph-form covariance update."""

    def __init__(self, x, y, sigma_a, sigma_m, v0_sigma=1.5):
        self.sigma_a = sigma_a
        self.R = sigma_m**2 * np.eye(2)
        self.state = np.array([x, y, 0.0, 0.0], dtype=float)
        self.cov = np.diag([sigma_m**2, sigma_m**2, v0_sigma**2, v0_sigma**2])

    def predict(self, dt):
        F = np.eye(4)
        F[0, 2] = F[1, 3] = dt
        g = np.array([[0.5 * dt * dt, 0], [0, 0.5 * dt * dt], [dt, 0], [0, dt]])
        Q = self.sigma_a**2 * (g @ g.T)
        self.state = F @ self.state
        self.cov = F @ self.cov @ F.T + Q
        self.cov = 0.5 * (self.cov + self.cov.T)

    def update(self, zx, zy):
        H = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
        innovation = np.array([zx, zy], dtype=float) - H @ self.state
        S = H @ self.cov @ H.T + self.R
        K = self.cov @ H.T @ np.linalg.inv(S)
        self.state = self.state + K @ innovation
        ikh = np.eye(4) - K @ H
        self.cov = ikh @ self.cov @ ikh.T + K @ self.R @ K.T
        self.cov = 0.5 * (self.cov + self.cov.T)


def anova_mean_squares(values: np.ndarray) -> tuple[float, float, float]:
    """(MSR, MSC, MSE) from explicit two-way ANOVA sums of squares."""
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    grand = sum(values[i][j] for i in range(n) for j in range(k)) / (n * k)
    row_means = [sum(values[i][j] for j in range(k)) / k for i in range(n)]
    col_means = [sum(values[i][j] for i in range(n)) / n for j in range(k)]
    ssr = k * sum((rm - grand) ** 2 for rm in row_means)
    ssc = n * sum((cm - grand) ** 2 for cm in col_means)
    sst = sum((values[i][j] - grand) ** 2 for i in range(n) for j in range(k))
    sse = sst - ssr - ssc
    msr = ssr / (n - 1)
    msc = ssc / (k - 1)
    mse = sse / ((n - 1) * (k - 1))
    return msr, msc, mse


def anova_icc2k(values: np.ndarray) -> float:
    n, _ = np.asarray(values).shape
    msr, msc, mse = anova_mean_squares(values)
    return (msr - mse) / (msr + (msc - mse) / n)


def anova_icc3k(values: np.ndarray) -> float:
    msr, _, mse = anova_mean_squares(values)
    return (msr - mse) / msr


def icc_ci_mcgraw_wong(
    msr: float, msc: float, mse: float, n: int, k: int, confidence: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Confidence intervals of ICC(A,k) and ICC(C,k) from the mean squares,
    after McGraw & Wong (1996), with F quantiles from scipy.stats.f.ppf.

    ICC(A,k): the single-measure ICC(A,1) interval with Satterthwaite's
    degrees of freedom, stepped up by Spearman-Brown; both bounds NaN when
    either is not finite. ICC(C,k): the exact F interval.
    """
    q = 1 - (1 - confidence) / 2
    with np.errstate(all="ignore"):
        rho = (msr - mse) / (msr + (k - 1) * mse + k * (msc - mse) / n)
        a = k * rho / (n * (1 - rho))
        b = 1 + k * rho * (n - 1) / (n * (1 - rho))
        v = (a * msc + b * mse) ** 2 / (
            (a * msc) ** 2 / (k - 1) + (b * mse) ** 2 / ((n - 1) * (k - 1))
        )
        f_low, f_up = f_dist.ppf(q, n - 1, v), f_dist.ppf(q, v, n - 1)
        c = k * msc + (k * n - k - n) * mse
        low1 = n * (msr - f_low * mse) / (f_low * c + n * msr)
        up1 = n * (f_up * msr - mse) / (c + n * f_up * msr)
        low, up = (k * r / (1 + (k - 1) * r) for r in (low1, up1))
    if not (math.isfinite(low) and math.isfinite(up)):
        low = up = math.nan
    f_obs = msr / mse
    df_e = (n - 1) * (k - 1)
    consistency = (
        1 - f_dist.ppf(q, n - 1, df_e) / f_obs,
        1 - 1 / (f_obs * f_dist.ppf(q, df_e, n - 1)),
    )
    return (low, up), consistency


def radial_angle_by_vectors(
    start: tuple[float, float], end: tuple[float, float]
) -> float:
    """Angle (degrees) between the chord and the line of sight, measured at
    the endpoint farther from the origin, via normalized dot product."""
    s = np.asarray(start, dtype=float)
    e = np.asarray(end, dtype=float)
    if np.hypot(*s) >= np.hypot(*e):
        far, near = s, e
    else:
        far, near = e, s
    chord = near - far
    toward_origin = -far
    cosang = (chord @ toward_origin) / (
        np.linalg.norm(chord) * np.linalg.norm(toward_origin)
    )
    return math.degrees(math.acos(min(1.0, max(-1.0, float(cosang)))))


def point_to_chord_distance(
    p: tuple[float, float], a: tuple[float, float], b: tuple[float, float]
) -> float:
    """Distance from p to the segment ab: the projection's parameter from
    one `@` dot product, clamped to [0, 1], then np.hypot of the offset."""
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    u = min(1.0, max(0.0, float((p - a) @ ab) / denom))
    return float(np.hypot(*(p - (a + u * ab))))


def per_vertex_rdp(polyline, epsilon: float) -> tuple[list[int], list[tuple[int, int, list]]]:
    """Ramer-Douglas-Peucker with one `point_to_chord_distance` call per
    interior vertex and a strict `>` scan for the farthest, so the first of
    equal maxima wins. Returns the kept indices and, for each interval
    (lo, hi) it split or tested, its interior vertices' distances."""
    pts = np.asarray(polyline, dtype=float)
    keep = {0, len(pts) - 1}
    intervals = []
    stack = [(0, len(pts) - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        dists = [point_to_chord_distance(pts[i], pts[lo], pts[hi]) for i in range(lo + 1, hi)]
        intervals.append((lo, hi, dists))
        best_d, best_i = -1.0, -1
        for i, d in enumerate(dists, start=lo + 1):
            if d > best_d:
                best_d, best_i = d, i
        if best_d > epsilon:
            keep.add(best_i)
            stack.append((lo, best_i))
            stack.append((best_i, hi))
    return sorted(keep), intervals


def brute_force_peaks(
    t: np.ndarray, v: np.ndarray, window: float, min_gap: float
) -> list[float]:
    """Literal restatement of the peak rules, all-pairs comparisons.

    Boundary comparisons carry the same nanosecond float-dust slack the
    contract specifies.
    """
    n = len(t)
    half = window / 2
    slack = 1e-9
    cands = []
    for i in range(n):
        if t[i] - t[0] < half - slack or t[-1] - t[i] < half - slack:
            continue
        others = [j for j in range(n) if j != i and abs(t[j] - t[i]) <= half + slack]
        if others and all(v[i] > v[j] for j in others):
            cands.append(i)
    accepted: list[int] = []
    for i in sorted(cands, key=lambda i: (-v[i], t[i])):
        if all(abs(t[i] - t[j]) >= min_gap - slack for j in accepted):
            accepted.append(i)
    return [float(t[i]) for i in sorted(accepted, key=lambda i: t[i])]
