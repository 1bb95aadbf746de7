import dataclasses
import math

import numpy as np
import pytest

import gaitpipe.tracker
from gaitpipe.cli import main
from gaitpipe.config import DbscanConfig, PipelineConfig
from gaitpipe.pointcloud import Session, write_session
from gaitpipe.simulator import WalkerSpec, SceneSpec, make_scenario, simulate
from gaitpipe.tracker import (
    Detection,
    _component_roots,
    KalmanCV,
    associate,
    dbscan,
    dbscan_labels,
    merge_close_detections,
    min_cost_assignment,
    track_frames,
)

from oracles import (
    MatrixKalmanCV,
    brute_force_assignment,
    canonical_labels,
    naive_dbscan,
    union_find_roots,
)


def pts(*xy, z=0.0, s=-1.0):
    """(k, 4) rows x, y, z, s from (x, y) pairs."""
    return np.array([(x, y, z, s) for x, y in xy], dtype=float).reshape(-1, 4)


# ------------------------------------------------------------------ dbscan


def test_dbscan_empty():
    assert dbscan(np.empty((0, 4)), eps=0.5, min_pts=4) == []


def test_dbscan_two_well_separated_groups():
    rng = np.random.default_rng(0)
    points = pts(*(
        (cx + rng.normal(0, 0.1), 2.0 + rng.normal(0, 0.1)) for cx in (0.0, 3.0) for _ in range(10)
    ))
    dets = dbscan(points, eps=0.5, min_pts=4)
    assert len(dets) == 2
    centroids = sorted(d.centroid_x for d in dets)
    assert abs(centroids[0] - 0.0) < 0.2
    assert abs(centroids[1] - 3.0) < 0.2


def test_dbscan_centroid_is_mean():
    points = pts((0.0, 1.0), (0.2, 1.0), (0.1, 1.2))
    dets = dbscan(points, eps=0.5, min_pts=2)
    assert len(dets) == 1
    assert dets[0].centroid_x == pytest.approx(0.1)
    assert dets[0].centroid_y == pytest.approx(1.0 + 0.2 / 3)


def test_dbscan_min_cluster_size_drops_pets():
    points = pts((0.0, 1.0), (0.1, 1.0), (0.05, 1.1))
    assert dbscan(points, eps=0.5, min_pts=3, min_cluster_size=5) == []
    assert len(dbscan(points, eps=0.5, min_pts=3, min_cluster_size=3)) == 1


def random_frame(rng, n):
    return rng.uniform([-4, 0, -1.2], [4, 8, 0.6], size=(n, 3))


def test_dbscan_matches_naive_reference():
    # Raw ids, not renamed ones: ids ordered by smallest core index set the
    # detection order and so the track ids.
    rng = np.random.default_rng(11)
    frames = [random_frame(rng, int(rng.integers(0, 120))) for _ in range(60)]
    # Dense frames: one person-sized blob of hundreds of points.
    frames += [rng.normal([0.0, 3.0, -0.3], 0.25, size=(n, 3)) for n in (600, 800, 1000)]
    for xyz in frames:
        eps = float(rng.uniform(0.2, 0.8))
        min_pts = int(rng.integers(1, 6))
        assert np.array_equal(dbscan_labels(xyz, eps, min_pts), naive_dbscan(xyz, eps, min_pts))
    # 0.1 m lattices put many pairs at exactly eps, where the squared-distance
    # rule and a square-root comparison can disagree.
    for _ in range(40):
        xyz = rng.integers(0, 20, size=(int(rng.integers(20, 80)), 3)) * 0.1
        assert np.array_equal(dbscan_labels(xyz, 0.5, 3), naive_dbscan(xyz, 0.5, 3))


def test_dense_touching_walkers_match_naive_reference():
    # Two walkers with 10x points per group, as in dense home recordings,
    # pass each other 0.5 m apart: their clouds are two clusters apart and
    # one while they touch. A min_pts above the default leaves border
    # points at the edges of the clouds.
    def dense(walker):
        return dataclasses.replace(
            walker,
            points_torso=walker.points_torso * 10,
            points_arms=walker.points_arms * 10,
            points_legs=walker.points_legs * 10,
        )

    walkers = (
        dense(WalkerSpec("a", ((-0.25, 4.5), (-0.25, 1.5)), start_time=0.5)),
        dense(WalkerSpec("b", ((0.25, 1.5), (0.25, 4.5)), start_time=0.5)),
    )
    session, _ = simulate(
        SceneSpec(name="pass", site="home", duration=3.5, seed=5, walkers=walkers)
    )
    eps = DbscanConfig().eps
    clusters, borders = set(), 0
    for min_pts in (DbscanConfig().min_pts, 25):
        for frame in session.frames:
            xyz = frame.points[:, :3]
            labels = dbscan_labels(xyz, eps, min_pts)
            assert np.array_equal(labels, naive_dbscan(xyz, eps, min_pts))
            d2 = ((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=-1)
            core = (d2 <= eps * eps).sum(axis=1) >= min_pts
            clusters.add(int(labels.max(initial=-1)) + 1)
            borders += int(np.count_nonzero(~core & (labels >= 0)))
    assert {1, 2} <= clusters
    assert borders > 0


def component_cases():
    """(n, a, b) edge lists with a < b for `_component_roots`."""
    rng = np.random.default_rng(29)
    for _ in range(60):  # random graphs, sparse to dense
        n = int(rng.integers(1, 60))
        ends = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        ends = np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1)
        yield n, ends[:, 0], ends[:, 1]
    n = 200
    down = np.arange(n - 2, -1, -1)  # a path listed from the top index down
    yield n, down, down + 1
    yield n, np.arange(n - 1), np.full(n - 1, n - 1)  # a star on the largest index
    nodes = rng.permutation(n)  # disjoint cliques over shuffled nodes
    cliques = [nodes[k : k + 7] for k in range(0, n, 7)]
    pairs = np.array([(u, v) for c in cliques for u in c for v in c if u < v])
    yield n, pairs[:, 0], pairs[:, 1]
    twice = np.concatenate([pairs, pairs[::-1]])  # duplicate edges
    yield n, twice[:, 0], twice[:, 1]
    for n in (0, 5):  # no edges
        yield n, np.empty(0, dtype=int), np.empty(0, dtype=int)


def test_component_roots_match_union_find():
    for n, a, b in component_cases():
        # The oracle gives each node the smallest index of its component.
        root = _component_roots(n, a, b)
        assert np.array_equal(root, union_find_roots(n, zip(a.tolist(), b.tolist())))


def test_dbscan_order_independent():
    rng = np.random.default_rng(3)
    xyz = random_frame(rng, 80)
    base = dbscan_labels(xyz, 0.5, 3)
    perm = rng.permutation(len(xyz))
    permuted = dbscan_labels(xyz[perm], 0.5, 3)
    # Mapping back through the permutation must agree up to relabeling.
    unpermuted = np.empty_like(permuted)
    unpermuted[perm] = permuted
    assert canonical_labels(base) == canonical_labels(unpermuted)


def random_stack(rng):
    """Frames of a stack as (k, 3) arrays: empty and 1-point frames, random
    clouds, a frame repeating the one before it (static clutter), and
    integer grids, where eps = 1.0 puts many pairs exactly at eps."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return np.empty((0, 3))
    if kind == 1:
        return random_frame(rng, 1)
    if kind == 2:
        return random_frame(rng, int(rng.integers(2, 40)))
    if kind == 3:
        return rng.normal([0.0, 3.0, -0.3], 0.3, size=(int(rng.integers(5, 30)), 3))
    return rng.integers(0, 4, size=(int(rng.integers(2, 30)), 3)).astype(float)


def stacks():
    """Seeded (frames, eps, min_pts) cases for the stacked-frame tests."""
    rng = np.random.default_rng(17)
    for trial in range(120):
        frames = [random_stack(rng) for _ in range(int(rng.integers(1, 12)))]
        for k in range(1, len(frames)):
            if rng.random() < 0.2:
                frames[k] = frames[k - 1].copy()
        eps = 1.0 if trial % 3 == 0 else float(rng.uniform(0.2, 0.8))
        yield frames, eps, int(rng.integers(1, 6))


def test_stacked_labels_match_naive_per_frame():
    for frames, eps, min_pts in stacks():
        offsets = np.cumsum([0] + [len(f) for f in frames])
        labels = dbscan_labels(np.concatenate(frames), eps, min_pts, offsets)
        before = 0  # clusters in the frames before this one
        for k, xyz in enumerate(frames):
            ref = naive_dbscan(xyz, eps, min_pts)
            got = labels[offsets[k] : offsets[k + 1]]
            assert np.array_equal(got, np.where(ref >= 0, ref + before, ref))
            before += ref.max(initial=-1) + 1


def test_stacked_dbscan_matches_per_frame_calls():
    rng = np.random.default_rng(23)
    for frames, eps, min_pts in stacks():
        rows = [np.column_stack([f, rng.uniform(-2, 2, len(f))]) for f in frames]
        offsets = np.cumsum([0] + [len(r) for r in rows])
        min_size = int(rng.integers(1, 4))
        got = dbscan(np.concatenate(rows), eps, min_pts, min_size, offsets=offsets)
        want = [(k, d) for k, r in enumerate(rows) for d in dbscan(r, eps, min_pts, min_size)]
        assert len(got) == len(want)
        for g, (k, w) in zip(got, want):
            assert g.frame == k
            assert (g.centroid_x, g.centroid_y) == (w.centroid_x, w.centroid_y)
            assert np.array_equal(g.points, w.points)


def test_merge_close_detections():
    a = Detection(0.0, 2.0, pts((0.0, 2.0)))
    b = Detection(0.05, 2.1, pts((0.05, 2.1)))
    c = Detection(3.0, 2.0, pts((3.0, 2.0)))
    merged = merge_close_detections([a, b, c], merge_radius=0.4)
    assert len(merged) == 2
    assert len(merged[0].points) == 2
    assert merged[0].centroid_x == pytest.approx(0.025)
    assert merged[1] is c


# --------------------------------------------------------------- associate


def test_associate_single_pair_within_gate():
    det = Detection(0.0, 3.1, pts((0.0, 3.1)))
    matches, un_tr, un_det = associate([(0.0, 3.0)], [det], gate=1.0)
    assert matches == [(0, 0)]
    assert un_tr == [] and un_det == []


def test_associate_no_tracks():
    dets = [Detection(float(i), 2.0, pts((i, 2.0))) for i in range(3)]
    matches, un_tr, un_det = associate([], dets, gate=1.0)
    assert matches == [] and un_tr == [] and un_det == [0, 1, 2]


def test_associate_gate_forbids():
    det = Detection(0.0, 5.0, pts((0.0, 5.0)))
    matches, un_tr, un_det = associate([(0.0, 3.0)], [det], gate=1.0)
    assert matches == [] and un_tr == [0] and un_det == [0]


def test_associate_prefers_total_cost():
    # Greedy nearest-first would pair (t0, d0) at 0.4 and leave t1 at 1.4;
    # the optimal assignment crosses them for total 0.5 + 0.6.
    dets = [
        Detection(0.0, 1.4, pts((0, 1.4))),
        Detection(0.0, 0.4, pts((0, 0.4))),
    ]
    matches, _, _ = associate([(0.0, 1.0), (0.0, 0.0)], dets, gate=2.0)
    assert sorted(matches) == [(0, 0), (1, 1)]


def test_associate_one_to_one_gate_is_inclusive():
    # The 1x1 case skips the solver; with a second, far detection the same
    # pair goes through it. Both must match exactly up to the gate.
    rng = np.random.default_rng(8)
    far = Detection(1e3, 1e3, pts((1e3, 1e3)))
    for _ in range(200):
        px, py, cx, cy = (float(v) for v in rng.uniform(-5, 5, 4))
        det = Detection(cx, cy, pts((cx, cy)))
        d = math.hypot(px - cx, py - cy)
        for gate, matched in ((d, True), (float(np.nextafter(d, -np.inf)), False)):
            one = associate([(px, py)], [det], gate)
            general = associate([(px, py)], [det, far], gate)
            assert one == (([(0, 0)], [], []) if matched else ([], [0], [0]))
            assert general == (([(0, 0)], [], [1]) if matched else ([], [0], [0, 1]))


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, size=(n, m))
        _, total = min_cost_assignment(cost)
        assert total == pytest.approx(brute_force_assignment(cost), abs=1e-12)


# ------------------------------------------------------------------ kalman


def test_kalman_fixed_point():
    kf = KalmanCV(1.0, 2.0, sigma_a=2.0, sigma_m=0.15)
    for _ in range(60):
        kf.predict(0.1)
        kf.update(1.0, 2.0)
    assert kf.x == pytest.approx(1.0, abs=1e-3)
    assert kf.y == pytest.approx(2.0, abs=1e-3)


def test_kalman_prediction_only_advances_by_velocity():
    kf = KalmanCV(0.0, 0.0, sigma_a=2.0, sigma_m=0.15)
    kf.state = np.array([1.0, 2.0, 0.5, -0.25])
    kf.predict(0.2)
    assert kf.x == pytest.approx(1.0 + 0.5 * 0.2, abs=1e-12)
    assert kf.y == pytest.approx(2.0 - 0.25 * 0.2, abs=1e-12)


def test_kalman_covariance_stays_symmetric_positive():
    rng = np.random.default_rng(2)
    kf = KalmanCV(0.0, 5.0, sigma_a=2.0, sigma_m=0.15)
    for k in range(50):
        kf.predict(0.1)
        if k % 3:
            kf.update(float(rng.normal(0, 0.2)), 5.0 - 0.1 * k)
        assert np.allclose(kf.cov, kf.cov.T)
        assert np.all(np.linalg.eigvalsh(kf.cov) > 0)


def test_kalman_beats_raw_measurements_on_cv_motion():
    # Constant-velocity truth with noisy detections: after burn-in the
    # filtered positions must be closer to truth than the noise floor.
    rng = np.random.default_rng(9)
    sigma_m = 0.15
    kf = None
    errs = []
    for k in range(80):
        t = 0.1 * k
        true = np.array([0.2 * t, 6.0 - 1.0 * t])
        z = true + rng.normal(0, sigma_m, size=2)
        if kf is None:
            kf = KalmanCV(z[0], z[1], sigma_a=2.0, sigma_m=sigma_m)
        else:
            kf.predict(0.1)
            kf.update(z[0], z[1])
        if k >= 20:
            errs.append(math.hypot(kf.x - true[0], kf.y - true[1]))
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse < sigma_m


def test_kalman_tracks_noiseless_cv_exactly():
    kf = KalmanCV(0.0, 6.0, sigma_a=2.0, sigma_m=0.15)
    errs = []
    for k in range(1, 60):
        t = 0.1 * k
        true = (0.3 * t, 6.0 - 1.1 * t)
        kf.predict(0.1)
        kf.update(true[0], true[1])
        if k >= 20:
            errs.append(math.hypot(kf.x - true[0], kf.y - true[1]))
    assert float(np.sqrt(np.mean(np.square(errs)))) < 0.01


def test_kalman_matches_matrix_reference():
    # 200 random runs: random frame intervals, noise levels, missed
    # detections and state overwrites, closed form against 4x4 algebra.
    rng = np.random.default_rng(12)
    for _ in range(200):
        x0, y0 = rng.uniform(-5, 5), rng.uniform(0, 8)
        sigmas = (rng.uniform(0.1, 5.0), rng.uniform(0.02, 0.5))
        v0_sigma = rng.uniform(0.1, 3.0)
        kf = KalmanCV(x0, y0, *sigmas, v0_sigma=v0_sigma)
        ref = MatrixKalmanCV(x0, y0, *sigmas, v0_sigma=v0_sigma)
        for _ in range(100):
            if rng.random() < 0.05:
                state = np.concatenate([rng.uniform(-5, 8, 2), rng.uniform(-2, 2, 2)])
                kf.state = state
                ref.state = state.copy()
            dt = rng.uniform(0.02, 0.5)
            kf.predict(dt)
            ref.predict(dt)
            if rng.random() < 0.7:
                zx, zy = (float(v) for v in rng.uniform(-5, 8, 2))
                kf.update(zx, zy)
                ref.update(zx, zy)
            assert np.max(np.abs(kf.state - ref.state)) <= 1e-12
            assert np.max(np.abs(kf.cov - ref.cov)) <= 1e-12


# ------------------------------------------------------------ track_frames


def empty_session():
    return Session(frame_rate=10.0, site="home", room_label="r", device_id="d")


def test_track_frames_empty_session():
    assert track_frames(empty_session(), PipelineConfig()) == []


@pytest.fixture(scope="module")
def single_walker():
    scene = make_scenario("clinic_control", seed=3, n_walks=1)
    session, truth = simulate(scene)
    return scene, session, truth


def test_single_walker_single_confirmed_track(single_walker):
    _, session, truth = single_walker
    tracks = track_frames(session, PipelineConfig())
    assert len(tracks) == 1
    walker = truth.walkers[0]
    walk_duration = walker.t_end - walker.t_start
    covered = tracks[0].t_end - tracks[0].t_start
    assert covered >= 0.9 * walk_duration


def test_track_state_times_strictly_increase(single_walker):
    _, session, _ = single_walker
    for track in track_frames(session, PipelineConfig()):
        times = [s.t for s in track.states]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_track_points_subset_of_frame(single_walker):
    _, session, _ = single_walker
    frames_by_t = {f.t: set(map(tuple, f.points.tolist())) for f in session.frames}
    for track in track_frames(session, PipelineConfig()):
        for state in track.states:
            assert set(map(tuple, state.points.tolist())) <= frames_by_t[state.t]


def test_tracker_deterministic(single_walker):
    _, session, _ = single_walker
    a = track_frames(session, PipelineConfig())
    b = track_frames(session, PipelineConfig())
    def rows(tracks):
        return [(tr.track_id, s.t, s.x, s.y, s.points.tolist()) for tr in tracks for s in tr.states]

    assert rows(a) == rows(b)


def test_track_frames_detects_chunks_of_frames(monkeypatch):
    # A counting wrapper as the benchmark's tracer installs it: it reads the
    # points of each call and each detection.
    session, _ = simulate(make_scenario("clinic_control", seed=7))
    calls = []

    def counting(*args, **kwargs):
        found = dbscan(*args, **kwargs)
        calls.append((len(args[0]), [len(d.points) for d in found]))
        return found

    monkeypatch.setattr(gaitpipe.tracker, "dbscan", counting)
    track_frames(session, PipelineConfig())
    assert len(calls) < len(session.times) / 10
    assert sum(n for n, _ in calls) == len(session.points)


def per_frame_dbscan(points, eps, min_pts, min_cluster_size=1, offsets=None):
    """`dbscan` on a stack of frames, one call per frame."""
    return [
        dataclasses.replace(d, frame=k)
        for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:]))
        for d in dbscan(points[a:b], eps, min_pts, min_cluster_size)
    ]


@pytest.mark.parametrize("eps", ["1e153", "1e308"])
def test_huge_eps_gives_the_per_frame_bundle(tmp_path, monkeypatch, eps):
    # 1e308 overflows the stacked frames' rank column itself, 1e153 only its
    # square; either way each chunk holds one non-empty frame.
    session, _ = simulate(make_scenario("home_radial", seed=104))
    write_session(session, tmp_path / "s.session.jsonl")
    (tmp_path / "c.toml").write_text(f"[dbscan]\neps = {eps}\n")

    def process(out):
        assert main(["process", "--input", str(tmp_path / "s.session.jsonl"),
                     "--config", str(tmp_path / "c.toml"), "--out", str(tmp_path / out)]) == 0
        return {p.relative_to(tmp_path / out): p.read_bytes()
                for p in sorted((tmp_path / out).rglob("*")) if p.is_file()}

    chunked = process("chunked")
    monkeypatch.setattr(gaitpipe.tracker, "dbscan", per_frame_dbscan)
    assert chunked == process("per_frame")


def test_huge_coordinate_alone_in_its_frame():
    # A finite point at 1e200 is noise alone in its frame; stacked with the
    # next frame it would overflow the tree's squared extent.
    blob = pts((0.0, 2.0), (0.1, 2.0), (0.0, 2.1), (0.1, 2.1), (0.05, 2.05))
    frames = [(float(t), pts((1e200, 1.0)) if t == 1 else blob) for t in range(1, 6)]
    session = Session(frame_rate=1.0, site="home", room_label="r", device_id="d", frames=frames)
    (track,) = track_frames(session, PipelineConfig())
    assert [s.t for s in track.states] == [2.0, 3.0, 4.0, 5.0]


def test_two_separated_walkers_no_identity_swap():
    walkers = (
        WalkerSpec(walker_id="a", path=((0.0, 6.0), (0.0, 1.5)), start_time=1.0),
        WalkerSpec(
            walker_id="b",
            path=((2.5, 1.5), (2.5, 6.0)),
            base_speed=0.9,
            start_time=1.2,
        ),
    )
    scene = SceneSpec(
        name="two", site="home", duration=9.0, seed=21, walkers=walkers
    )
    session, truth = simulate(scene)
    tracks = track_frames(session, PipelineConfig())
    assert len(tracks) == 2

    def truth_xy(walker, t):
        sample = min(walker.samples, key=lambda s: abs(s.t - t))
        return np.array([sample.x, sample.y])

    # Each track must stay near exactly one walker for its whole life.
    for track in tracks:
        dists = {
            w.walker_id: max(
                math.hypot(*(np.array([s.x, s.y]) - truth_xy(w, s.t)))
                for s in track.states
            )
            for w in truth.walkers
            if w.t_start <= track.t_start <= w.t_end
        }
        assert min(dists.values()) < 0.5
