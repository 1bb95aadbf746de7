import math

import numpy as np
import pytest

from gaitpipe.config import PipelineConfig
from gaitpipe.pointcloud import RadarPoint
from gaitpipe.simulator import WalkerSpec, SceneSpec, make_scenario, simulate
from gaitpipe.tracker import (
    Detection,
    KalmanCV,
    associate,
    dbscan,
    dbscan_labels,
    merge_close_detections,
    min_cost_assignment,
    track_frames,
)

from oracles import MatrixKalmanCV, brute_force_assignment, canonical_labels, naive_dbscan


def pt(x, y, z=0.0, s=-1.0):
    return RadarPoint(x, y, z, s)


# ------------------------------------------------------------------ dbscan


def test_dbscan_empty():
    assert dbscan([], eps=0.5, min_pts=4) == []


def test_dbscan_two_well_separated_groups():
    rng = np.random.default_rng(0)
    points = []
    for cx in (0.0, 3.0):
        for _ in range(10):
            points.append(pt(cx + rng.normal(0, 0.1), 2.0 + rng.normal(0, 0.1)))
    dets = dbscan(points, eps=0.5, min_pts=4)
    assert len(dets) == 2
    centroids = sorted(d.centroid_x for d in dets)
    assert abs(centroids[0] - 0.0) < 0.2
    assert abs(centroids[1] - 3.0) < 0.2


def test_dbscan_centroid_is_mean():
    points = [pt(0.0, 1.0), pt(0.2, 1.0), pt(0.1, 1.2)]
    dets = dbscan(points, eps=0.5, min_pts=2)
    assert len(dets) == 1
    assert dets[0].centroid_x == pytest.approx(0.1)
    assert dets[0].centroid_y == pytest.approx(1.0 + 0.2 / 3)


def test_dbscan_min_cluster_size_drops_pets():
    points = [pt(0.0, 1.0), pt(0.1, 1.0), pt(0.05, 1.1)]
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


def test_merge_close_detections():
    a = Detection(0.0, 0.0, 2.0, (pt(0.0, 2.0),))
    b = Detection(0.0, 0.05, 2.1, (pt(0.05, 2.1),))
    c = Detection(0.0, 3.0, 2.0, (pt(3.0, 2.0),))
    merged = merge_close_detections([a, b, c], merge_radius=0.4)
    assert len(merged) == 2
    assert len(merged[0].points) == 2
    assert merged[0].centroid_x == pytest.approx(0.025)
    assert merged[1] is c


# --------------------------------------------------------------- associate


def test_associate_single_pair_within_gate():
    det = Detection(0.0, 0.0, 3.1, (pt(0.0, 3.1),))
    matches, un_tr, un_det = associate([(0.0, 3.0)], [det], gate=1.0)
    assert matches == [(0, 0)]
    assert un_tr == [] and un_det == []


def test_associate_no_tracks():
    dets = [Detection(0.0, float(i), 2.0, (pt(i, 2.0),)) for i in range(3)]
    matches, un_tr, un_det = associate([], dets, gate=1.0)
    assert matches == [] and un_tr == [] and un_det == [0, 1, 2]


def test_associate_gate_forbids():
    det = Detection(0.0, 0.0, 5.0, (pt(0.0, 5.0),))
    matches, un_tr, un_det = associate([(0.0, 3.0)], [det], gate=1.0)
    assert matches == [] and un_tr == [0] and un_det == [0]


def test_associate_prefers_total_cost():
    # Greedy nearest-first would pair (t0, d0) at 0.4 and leave t1 at 1.4;
    # the optimal assignment crosses them for total 0.5 + 0.6.
    dets = [
        Detection(0.0, 0.0, 1.4, (pt(0, 1.4),)),
        Detection(0.0, 0.0, 0.4, (pt(0, 0.4),)),
    ]
    matches, _, _ = associate([(0.0, 1.0), (0.0, 0.0)], dets, gate=2.0)
    assert sorted(matches) == [(0, 0), (1, 1)]


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
    from gaitpipe.pointcloud import Session

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
    frames_by_t = {f.t: set(f.points) for f in session.frames}
    for track in track_frames(session, PipelineConfig()):
        for state in track.states:
            assert set(map(tuple, state.points.tolist())) <= frames_by_t[state.t]


def test_tracker_deterministic(single_walker):
    _, session, _ = single_walker
    a = track_frames(session, PipelineConfig())
    b = track_frames(session, PipelineConfig())
    assert [(t.track_id, t.states) for t in a] == [(t.track_id, t.states) for t in b]


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
