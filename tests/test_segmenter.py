import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaitpipe.segmenter import (
    LinearSegment,
    WalkEntry,
    WalkLog,
    classify,
    match_clinic_walks,
    rdp_decimate,
    read_walklog,
    segment_geometry,
    split_track,
    write_walklog,
)
from gaitpipe.tracker import Track, TrackState

from oracles import point_to_chord_distance, radial_angle_by_vectors


def make_track(xy, t0=0.0, dt=0.1, track_id=0):
    states = [
        TrackState(t=t0 + i * dt, x=float(x), y=float(y), points=np.empty((0, 4)))
        for i, (x, y) in enumerate(xy)
    ]
    track = Track(track_id=track_id)
    track.states = states
    return track


def make_segment(start, end, track_id=0, seg_index=0):
    seg = LinearSegment(
        parent_track=track_id,
        seg_index=seg_index,
        states=(
            TrackState(t=0.0, x=start[0], y=start[1], points=np.empty((0, 4))),
            TrackState(t=1.0, x=end[0], y=end[1], points=np.empty((0, 4))),
        ),
    )
    seg.r_start, seg.r_end, seg.length, seg.angle_deg = segment_geometry(start, end)
    return seg


# --------------------------------------------------------------------- rdp


def test_rdp_collinear():
    assert rdp_decimate([(0, 0), (0, 1), (0, 2)], 0.5) == [0, 2]


def test_rdp_corner_kept():
    assert rdp_decimate([(0, 0), (0, 2), (2, 2)], 0.5) == [0, 1, 2]


def test_rdp_degenerate_input():
    with pytest.raises(ValueError):
        rdp_decimate([(0, 0)], 0.5)
    with pytest.raises(ValueError):
        rdp_decimate([(0, 0), (1, 1)], 0.0)


def test_rdp_endpoints_always_kept():
    rng = np.random.default_rng(0)
    poly = rng.uniform(-5, 5, size=(40, 2))
    kept = rdp_decimate(poly, 1.0)
    assert kept[0] == 0 and kept[-1] == len(poly) - 1


def assert_rdp_within_eps(poly, eps):
    kept = rdp_decimate(poly, eps)
    for a, b in zip(kept, kept[1:]):
        for i in range(a + 1, b):
            assert point_to_chord_distance(poly[i], poly[a], poly[b]) <= eps + 1e-12


def test_rdp_removed_points_within_eps_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        poly = rng.uniform(-6, 6, size=(n, 2))
        eps = float(rng.uniform(0.05, 1.5))
        assert_rdp_within_eps(poly, eps)


@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
        min_size=2,
        max_size=30,
    ),
    st.floats(0.01, 2.0),
)
def test_rdp_property(points, eps):
    assert_rdp_within_eps(np.array(points, dtype=float), eps)


# ------------------------------------------------------------- split_track


def test_split_straight_track_single_segment():
    track = make_track([(0.0, 6.0 - 0.1 * i) for i in range(30)])
    segments = split_track(track, 0.5)
    assert len(segments) == 1
    assert segments[0].length == pytest.approx(2.9)


def test_split_three_corner_track_four_segments():
    # One track with 3 interior corners and small jitter below epsilon.
    rng = np.random.default_rng(1)
    waypoints = [(0.0, 6.0), (0.0, 3.0), (2.0, 3.0), (2.0, 5.0), (4.0, 5.0)]
    xy = []
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        n = 12
        for i in range(n):
            u = i / n
            xy.append(
                (
                    x0 + u * (x1 - x0) + rng.normal(0, 0.03),
                    y0 + u * (y1 - y0) + rng.normal(0, 0.03),
                )
            )
    xy.append(waypoints[-1])
    segments = split_track(make_track(xy), 0.5)
    assert len(segments) == 4


def test_split_segments_share_boundary_and_cover():
    track = make_track([(0.0, 6.0), (0.0, 4.0), (0.0, 2.0), (2.0, 2.0), (4.0, 2.0)])
    segments = split_track(track, 0.5)
    assert segments[0].states[-1] == segments[1].states[0]
    total_states = sum(len(s.states) for s in segments)
    assert total_states == len(track.states) + len(segments) - 1
    assert segments[0].states[0] == track.states[0]
    assert segments[-1].states[-1] == track.states[-1]


def test_split_too_short_track():
    track = make_track([(0.0, 1.0)])
    assert split_track(track, 0.5) == []


# ---------------------------------------------------------------- geometry


def test_geometry_boresight_segment():
    r0, r1, d, ang = segment_geometry((0.0, 2.0), (0.0, 5.0))
    assert (r0, r1, d) == (2.0, 5.0, 3.0)
    assert ang == pytest.approx(0.0, abs=1e-12)


def test_geometry_hand_case():
    # Law of cosines at the farther endpoint: arccos((13 + 9 - 4) / (2*3*sqrt(13))).
    r0, r1, d, ang = segment_geometry((0.0, 2.0), (3.0, 2.0))
    assert r0 == 2.0
    assert r1 == pytest.approx(math.sqrt(13.0))
    assert d == 3.0
    expected = math.degrees(math.acos(3.0 / math.sqrt(13.0)))
    assert ang == pytest.approx(expected, abs=1e-12)
    assert ang == pytest.approx(33.69006752597979, abs=1e-9)


def test_geometry_degenerate():
    *_, d, ang = segment_geometry((1.0, 1.0), (1.0, 1.0))
    assert d == 0.0 and ang is None


def test_geometry_matches_vector_oracle():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 2000:
        start = tuple(rng.uniform([-6, 0.1], [6, 8]))
        end = tuple(rng.uniform([-6, 0.1], [6, 8]))
        *_, d, ang = segment_geometry(start, end)
        if d < 1e-6:
            continue
        expected = radial_angle_by_vectors(start, end)
        if min(abs(expected), abs(180 - expected)) < 1e-3:
            continue  # near-collinear: arccos conditioning dominates both routes
        assert ang == pytest.approx(expected, abs=1e-9)
        checked += 1


def test_geometry_rotation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(500):
        start = rng.uniform([-5, 0.5], [5, 7])
        end = rng.uniform([-5, 0.5], [5, 7])
        *_, d, ang = segment_geometry(tuple(start), tuple(end))
        if d < 1e-6 or ang is None or min(ang, 180 - ang) < 1e-3:
            continue
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        *_, d2, ang2 = segment_geometry(tuple(rot @ start), tuple(rot @ end))
        assert d2 == pytest.approx(d, abs=1e-9)
        assert ang2 == pytest.approx(ang, abs=1e-9)


# ---------------------------------------------------------------- classify


def test_classify_thresholds():
    assert classify(make_segment((0.3, 4.5), (0.2, 2.0)), 2.0, 15.0)
    seg = make_segment((0.0, 4.0), (0.0, 2.1))  # 1.9 m, aligned
    assert seg.length == pytest.approx(1.9)
    assert not classify(seg, 2.0, 15.0)
    seg = make_segment((0.0, 6.0), (1.6, 2.4))  # long but misaligned
    assert seg.angle_deg > 15.0
    assert not classify(seg, 2.0, 15.0)


def test_classify_degenerate_invalid():
    assert not classify(make_segment((1.0, 1.0), (1.0, 1.0)), 2.0, 15.0)


@given(
    st.floats(0.1, 10.0),
    st.floats(0.0, 180.0),
    st.floats(0.1, 5.0),
    st.floats(1.0, 90.0),
)
def test_classify_monotone(length, angle, min_length, max_angle):
    seg = LinearSegment(parent_track=0, seg_index=0, states=())
    seg.length, seg.angle_deg = length, angle
    base = classify(seg, min_length, max_angle)
    longer = LinearSegment(parent_track=0, seg_index=0, states=())
    longer.length, longer.angle_deg = length * 2, angle
    straighter = LinearSegment(parent_track=0, seg_index=0, states=())
    straighter.length, straighter.angle_deg = length, angle / 2
    if base:
        assert classify(longer, min_length, max_angle)
        assert classify(straighter, min_length, max_angle)


# ---------------------------------------------------------- clinic matching


def walkway_segment(t0, track_id=0, seg_index=0, x_off=0.0):
    xy = [(x_off, 6.0 - 0.1 * i) for i in range(41)]  # 6.0 -> 2.0
    seg = LinearSegment(
        parent_track=track_id,
        seg_index=seg_index,
        states=tuple(
            TrackState(t=t0 + 0.1 * i, x=x, y=y, points=np.empty((0, 4)))
            for i, (x, y) in enumerate(xy)
        ),
    )
    seg.r_start, seg.r_end, seg.length, seg.angle_deg = segment_geometry(
        seg.first_xy, seg.last_xy
    )
    seg.valid = classify(seg, 2.0, 15.0)
    return seg


def test_match_single_walk():
    log = WalkLog(entries=(WalkEntry("P1", 0, "control", 2.0),))
    seg = walkway_segment(2.0)
    result = match_clinic_walks([seg], log, tol=1.0)
    assert len(result.matches) == 1
    assert result.matches[0][0].walk_index == 0
    assert result.unmatched == ()


def test_match_offset_track_excluded():
    log = WalkLog(entries=(WalkEntry("P1", 0, "control", 2.0),))
    assistant = walkway_segment(2.0, track_id=1, x_off=1.5)
    result = match_clinic_walks([assistant], log, tol=1.0)
    assert result.matches == ()
    assert len(result.unmatched) == 1


def test_match_two_walks_by_time():
    log = WalkLog(
        entries=(
            WalkEntry("P1", 0, "control", 2.0),
            WalkEntry("P1", 1, "control", 32.0),
        )
    )
    seg_a = walkway_segment(2.2, track_id=0)
    seg_b = walkway_segment(31.8, track_id=1)
    result = match_clinic_walks([seg_b, seg_a], log, tol=1.0)
    assert len(result.matches) == 2
    pairs = {entry.walk_index: seg.parent_track for entry, seg in result.matches}
    assert pairs == {0: 0, 1: 1}


def test_match_nearest_in_time_disambiguates():
    log = WalkLog(entries=(WalkEntry("P1", 0, "control", 10.0),))
    near = walkway_segment(9.0, track_id=0)
    far = walkway_segment(20.0, track_id=1)
    result = match_clinic_walks([far, near], log, tol=1.0)
    assert result.matches[0][1].parent_track == 0


def test_walklog_duplicate_start_times_rejected():
    with pytest.raises(ValueError):
        WalkLog(
            entries=(
                WalkEntry("P1", 0, "control", 2.0),
                WalkEntry("P1", 1, "fast", 2.0),
            )
        )


def test_walklog_round_trip(tmp_path):
    log = WalkLog(
        entries=(
            WalkEntry("P1", 0, "control", 2.0, 0.55),
            WalkEntry("P1", 1, "dual_task", 40.0, None),
        )
    )
    path = tmp_path / "log.walklog.json"
    write_walklog(log, path)
    assert read_walklog(path) == log
