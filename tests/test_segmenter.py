import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaitpipe.segmenter import (
    _chord_distances,
    LinearSegment,
    WALKLOG_FORMAT,
    WALKLOG_VERSION,
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

import builders
from builders import whole_segment
from oracles import per_vertex_rdp, point_to_chord_distance, radial_angle_by_vectors


def make_track(xy, t0=0.0, dt=0.1, track_id=0):
    return builders.make_track(
        [(t0 + i * dt, float(x), float(y), ()) for i, (x, y) in enumerate(xy)], track_id=track_id
    )


def make_segment(start, end, track_id=0, seg_index=0):
    return whole_segment(make_track([start, end], dt=1.0, track_id=track_id), seg_index)


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


@st.composite
def rdp_cases(draw):
    """(polyline, epsilon): a random walk at a scale from 1e-3 to 1e3, also
    closed into a loop or with repeated vertices; a run along an axis whose
    off-axis vertices tie at the farthest distance; vertices exactly epsilon
    from their chord; or 2 and 3 vertices. Some come as lists of tuples."""
    kind = draw(st.sampled_from(["walk", "loop", "repeats", "ties", "at_epsilon", "short"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 3))
    eps = scale * draw(st.floats(0.05, 5.0))
    n = draw(st.integers(2, 3) if kind == "short" else st.integers(3, 60))
    poly = np.cumsum(rng.normal(0.0, scale, (n, 2)), axis=0)
    if kind == "loop":
        poly[-1] = poly[0]
    elif kind == "repeats":
        poly = poly[np.sort(rng.integers(0, n, n + draw(st.integers(1, 20))))]
    elif kind in ("ties", "at_epsilon"):
        # Dyadic values, so the distances off the chord are exact: on a
        # chord along an axis the ties are exact, and |y| == eps is eps.
        eps = 2.0 ** draw(st.integers(-10, 10))
        off = eps * (2.0 if kind == "ties" else 1.0)
        y = rng.choice([0.0, off, -off, 0.5 * off], n)
        y[0] = y[-1] = 0.0
        poly = np.column_stack([np.arange(n) * eps, y])
        if draw(st.booleans()):
            poly = poly[:, ::-1]
    if draw(st.booleans()):
        poly = [tuple(v) for v in poly.tolist()]
    return poly, eps


@settings(max_examples=300)
@given(rdp_cases())
def test_rdp_matches_per_vertex_oracle(case):
    # Equal kept indices, and every distance the one-vertex form takes in
    # an interval has the same bits in the array pass.
    poly, eps = case
    kept, intervals = per_vertex_rdp(poly, eps)
    assert rdp_decimate(poly, eps) == kept
    pts = np.asarray(poly, dtype=float)
    for lo, hi, dists in intervals:
        got = _chord_distances(pts[lo + 1 : hi], pts[lo], pts[hi])
        assert got.tobytes() == np.array(dists).tobytes(), (lo, hi)


def test_rdp_keeps_the_first_of_tied_vertices():
    # Vertices 3 and 4 are both 1 from the chord. Keeping vertex 3 puts
    # vertex 2 0.63 from the chord 0-3, so it is kept too; keeping vertex 4
    # would leave every other vertex within 0.5 of its chord.
    assert rdp_decimate([(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 0)], 0.5) == [0, 2, 3, 5]


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
    assert all(seg.track is track for seg in segments)
    assert segments[0].hi == segments[1].lo
    total_rows = sum(seg.hi - seg.lo + 1 for seg in segments)
    assert total_rows == len(track) + len(segments) - 1
    assert segments[0].lo == 0
    assert segments[-1].hi == len(track) - 1


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
    track = make_track([(0.0, 1.0), (0.0, 2.0)])
    seg = LinearSegment(track=track, seg_index=0, lo=0, hi=1)
    seg.length, seg.angle_deg = length, angle
    base = classify(seg, min_length, max_angle)
    longer = LinearSegment(track=track, seg_index=0, lo=0, hi=1)
    longer.length, longer.angle_deg = length * 2, angle
    straighter = LinearSegment(track=track, seg_index=0, lo=0, hi=1)
    straighter.length, straighter.angle_deg = length, angle / 2
    if base:
        assert classify(longer, min_length, max_angle)
        assert classify(straighter, min_length, max_angle)


# ---------------------------------------------------------- clinic matching


def walkway_segment(t0, track_id=0, seg_index=0, x_off=0.0):
    xy = [(x_off, 6.0 - 0.1 * i) for i in range(41)]  # 6.0 -> 2.0
    seg = whole_segment(make_track(xy, t0=t0, track_id=track_id), seg_index)
    seg.valid = classify(seg, 2.0, 15.0)
    return seg


def test_match_single_walk():
    log = WalkLog(entries=(WalkEntry("P1", 0, "control", 2.0),))
    seg = walkway_segment(2.0)
    assert match_clinic_walks([seg], log, tol=1.0) == [(log.entries[0], seg)]


def test_match_offset_track_excluded():
    log = WalkLog(entries=(WalkEntry("P1", 0, "control", 2.0),))
    assistant = walkway_segment(2.0, track_id=1, x_off=1.5)
    assert match_clinic_walks([assistant], log, tol=1.0) == [(log.entries[0], None)]


def test_match_two_walks_by_time():
    log = WalkLog(
        entries=(
            WalkEntry("P1", 0, "control", 2.0),
            WalkEntry("P1", 1, "control", 32.0),
        )
    )
    seg_a = walkway_segment(2.2, track_id=0)
    seg_b = walkway_segment(31.8, track_id=1)
    pairs = match_clinic_walks([seg_b, seg_a], log, tol=1.0)
    assert [(entry.walk_index, seg.parent_track) for entry, seg in pairs] == [(0, 0), (1, 1)]


def test_match_nearest_in_time_disambiguates():
    log = WalkLog(entries=(WalkEntry("P1", 0, "control", 10.0),))
    near = walkway_segment(9.0, track_id=0)
    far = walkway_segment(20.0, track_id=1)
    [(entry, seg)] = match_clinic_walks([far, near], log, tol=1.0)
    assert seg is near


def test_match_pairs_every_walk_in_start_order():
    # One pair per logged walk, in order of start time, participant and index;
    # a walk left without a candidate pairs with None.
    log = WalkLog(
        entries=(
            WalkEntry("P2", 0, "fast", 500.0),
            WalkEntry("P1", 0, "control", 2.0),
            WalkEntry("P1", 1, "control", 32.0),
        )
    )
    seg_a = walkway_segment(2.2, track_id=0)
    seg_b = walkway_segment(31.8, track_id=1)
    pairs = match_clinic_walks([seg_b, seg_a], log, tol=1.0)
    assert pairs == [(log.entries[1], seg_a), (log.entries[2], seg_b), (log.entries[0], None)]


_GOOD_ENTRY = {"participant": "P1", "walk_index": 0, "walk_type": "control", "t_start": 1.0}


@pytest.mark.parametrize(
    "field,value",
    [
        ("walk_index", [0]), ("walk_index", 2.7), ("walk_index", True), ("walk_index", "0"),
        ("walk_type", "jog"), ("walk_type", None), ("walk_type", 3),
        ("t_start", None), ("t_start", True), ("t_start", "1.0"), ("t_start", 10**400),
        ("reference_step_length", False), ("reference_step_length", "0.5"),
        ("reference_step_length", [0.5]),
    ],
)
def test_walk_entry_rejects_what_the_reader_rejects(tmp_path, field, value):
    bad = {**_GOOD_ENTRY, field: value}
    path = tmp_path / "bad.walklog.json"
    path.write_text(json.dumps({"format": WALKLOG_FORMAT, "version": WALKLOG_VERSION,
                                "entries": [bad]}))
    with pytest.raises(ValueError, match=f"^entry 0: '{field}'"):
        read_walklog(path)
    with pytest.raises(ValueError, match=f"^'{field}'"):
        WalkEntry(**bad)


def test_walk_entry_participant_must_be_a_string():
    # Built in code, a participant 7 beside "P1" broke the sort in matching.
    with pytest.raises(ValueError, match="^'participant' must be a string, got 7$"):
        WalkEntry(7, 0, "control", 1.0)


@pytest.mark.parametrize(
    "field,value",
    [("g_s", "far"), ("g_s", None), ("g_s", 6.0), ("g_e", [1.0]), ("g_e", [0.0, 2.0, 1.0]),
     ("g_e", [True, 2.0]), ("g_s", ["0", 6.0]), ("g_s", {"x": 0.0, "y": 6.0})],
)
def test_walklog_rejects_the_walkway_the_reader_rejects(tmp_path, field, value):
    path = tmp_path / "bad.walklog.json"
    path.write_text(json.dumps({"format": WALKLOG_FORMAT, "version": WALKLOG_VERSION,
                                "entries": [_GOOD_ENTRY], field: value}))
    with pytest.raises(ValueError, match=f"^'{field}'"):
        read_walklog(path)
    with pytest.raises(ValueError, match=f"^'{field}'"):
        WalkLog(entries=(WalkEntry(**_GOOD_ENTRY),), **{field: value})


def test_walklog_reader_stores_numbers_as_floats(tmp_path):
    # JSON integers read as floats and a participant as its str(), in a file
    # as in code; keys the log does not know are ignored.
    path = tmp_path / "ints.walklog.json"
    path.write_text(json.dumps({
        "format": WALKLOG_FORMAT, "version": WALKLOG_VERSION, "g_s": [0, 6], "g_e": [0, 2],
        "entries": [{"participant": 7, "walk_index": 0, "walk_type": "fast", "t_start": 3,
                     "reference_step_length": 1, "note": "x"}],
    }))
    log = read_walklog(path)
    assert log == WalkLog((WalkEntry("7", 0, "fast", 3, 1),), g_s=[0, 6], g_e=(0, 2))
    entry = log.entries[0]
    assert [type(v) for v in (entry.t_start, entry.reference_step_length, *log.g_s, *log.g_e)] \
        == [float] * 6


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
