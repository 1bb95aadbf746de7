import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gaitpipe.pointcloud import (
    BATCH_POINTS,
    MAX_COORD_M,
    MAX_DOPPLER_MS,
    MAX_TIME_S,
    NonMonotonicTimeError,
    Session,
    SessionFormatError,
    atomic_write_text,
    build_session,
    read_session,
    write_session,
)

from oracles import reference_frame_points

HEADER = (
    '{"format":"gaitpipe-frames","version":1,"frame_rate":10.0,'
    '"site":"home","room":"kitchen","device":"A1"}'
)


def same_frames(a, b):
    """The two sessions hold equal frame times and points."""
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("times", "points", "offsets"))


def write_lines(tmp_path, *lines):
    path = tmp_path / "session.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_two_frames(tmp_path):
    path = write_lines(
        tmp_path,
        HEADER,
        '{"t":0.100000,"pts":[[0.1,3.0,0.0,-1.0]]}',
        '{"t":0.200000,"pts":[]}',
    )
    session = read_session(path)
    assert len(session.frames) == 2
    assert session.frame_rate == 10.0
    assert session.site == "home"
    assert session.room_label == "kitchen"
    assert session.device_id == "A1"
    assert session.frames[0].points.tolist() == [[0.1, 3.0, 0.0, -1.0]]
    assert session.frames[1].points.shape == (0, 4)
    # Each frame is a read-only view of the session's point column.
    first = session.frames[0].points
    assert np.shares_memory(first, session.points) and not first.flags.writeable


def test_missing_field_names_line(tmp_path):
    path = write_lines(tmp_path, HEADER, '{"t":0.1,"pts":[[0.1,3.0,-1.0]]}')
    with pytest.raises(SessionFormatError) as excinfo:
        read_session(path)
    assert "line 2" in str(excinfo.value)
    assert excinfo.value.line == 2


def test_non_monotonic_time(tmp_path):
    path = write_lines(
        tmp_path,
        HEADER,
        '{"t":0.1,"pts":[]}',
        '{"t":0.1,"pts":[]}',
    )
    with pytest.raises(NonMonotonicTimeError):
        read_session(path)


def test_frame_times_bounded(tmp_path):
    # Up to MAX_TIME_S is a time; past it, or not finite, the line is malformed.
    assert MAX_TIME_S == 1e10
    session = read_session(write_lines(tmp_path, HEADER, '{"t":0,"pts":[]}',
                                       '{"t":1e10,"pts":[]}'))
    assert session.times.tolist() == [0.0, MAX_TIME_S]
    for t in ("10000000000.000002", "1e300", "1e999", "-1e-300", "NaN"):
        path = write_lines(tmp_path, HEADER, '{"t":1,"pts":[]}', f'{{"t":{t},"pts":[]}}')
        with pytest.raises(SessionFormatError) as excinfo:
            read_session(path)
        assert excinfo.value.line == 3 and "t must be in [0, 1e+10] s" in str(excinfo.value)


def test_invalid_json_and_missing_header(tmp_path):
    path = write_lines(tmp_path, HEADER, "{not json")
    with pytest.raises(SessionFormatError) as excinfo:
        read_session(path)
    assert excinfo.value.line == 2

    path2 = write_lines(tmp_path, '{"t":0.1,"pts":[]}')
    with pytest.raises(SessionFormatError):
        read_session(path2)

    path3 = tmp_path / "empty.jsonl"
    path3.write_text("")
    with pytest.raises(SessionFormatError):
        read_session(path3)

    # Header values a Session rejects are format errors on the header line,
    # here line 2 after a blank line.
    bad_values = [("site", "garden"), ("frame_rate", 0), ("frame_rate", float("nan")),
                  ("frame_rate", float("inf")),
                  ("frame_rate", "fast"), ("frame_rate", "10"), ("frame_rate", True),
                  ("version", True)]
    # The room names an output file, so a path in it is a format error.
    bad_values += [("room", room) for room in
                   ("", ".", "..", "a/b", "q/../../escaped", "a\\b", "a\0b")]
    for key, value in bad_values:
        header = json.dumps({**json.loads(HEADER), key: value})
        path4 = write_lines(tmp_path, "", header, '{"t":0.1,"pts":[]}')
        with pytest.raises(SessionFormatError) as excinfo:
            read_session(path4)
        assert excinfo.value.line == 2 and key in str(excinfo.value)


def test_behind_sensor_and_nonfinite_points_dropped(tmp_path):
    path = write_lines(
        tmp_path,
        HEADER,
        '{"t":0.1,"pts":[[0.0,-0.5,0.0,1.0],[0.0,NaN,0.0,1.0],[0.2,2.0,0.1,0.5]]}',
    )
    session = read_session(path)
    assert session.dropped_points == 2
    assert session.frames[0].points.tolist() == [[0.2, 2.0, 0.1, 0.5]]


def test_points_beyond_max_coord_dropped(tmp_path):
    # Up to MAX_COORD_M on each axis and MAX_DOPPLER_MS in Doppler is kept;
    # past it, on any of them, is dropped.
    path = write_lines(
        tmp_path,
        HEADER,
        '{"t":0.1,"pts":[[-1000,1000,1000,-1000],[1000.5,1,0,1],[0,1000.5,0,1],'
        '[0,1,-1e200,1],[0,1,0,Infinity],[0,1,0,1000.5],[0,1,0,-1e300]]}',
    )
    session = read_session(path)
    assert MAX_COORD_M == MAX_DOPPLER_MS == 1000.0
    assert session.dropped_points == 6
    assert session.frames[0].points.tolist() == [[-1000.0, 1000.0, 1000.0, -1000.0]]


def test_session_built_in_code_drops_points_as_the_reader_does():
    far, fast = (1e200, 2.0, 0.0, 1.0), (0.5, 2.0, 0.0, 1e308)
    kept = (0.5, 2.0, 0.0, MAX_DOPPLER_MS)
    frames = [(0.1, np.array([far, kept])), (0.2, np.array([fast])), (0.3, np.array([kept]))]
    session = Session(frame_rate=10.0, site="home", room_label="r", device_id="d", frames=frames)
    assert session.dropped_points == 2
    assert session.offsets.tolist() == [0, 1, 1, 2]
    assert session.points.tolist() == [list(kept)] * 2


def test_point_order_preserved(tmp_path):
    pts = [[float(i), 1.0, 0.0, -1.0] for i in range(5)]
    path = write_lines(tmp_path, HEADER, json.dumps({"t": 0.1, "pts": pts}))
    session = read_session(path)
    assert session.frames[0].points[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_empty_session_round_trip(tmp_path):
    session = Session(frame_rate=10.0, site="home", room_label="den", device_id="B2")
    out = tmp_path / "empty.session.jsonl"
    write_session(session, out)
    assert len(out.read_text().strip().splitlines()) == 1  # header only
    back = read_session(out)
    assert back.frames == ()
    assert back.points.shape == (0, 4) and back.offsets.tolist() == [0]
    assert back.room_label == "den"


def test_single_frame_single_line(tmp_path):
    session = build_session(10.0, "home", "den", "B2", [(0.1, [(0.1, 2.0, 0.0, -1.0)])])
    out = tmp_path / "one.session.jsonl"
    write_session(session, out)
    assert len(out.read_text().strip().splitlines()) == 2


def test_round_trip_exact(tmp_path):
    # Quantized values reproduce bit for bit through the 6-decimal format.
    frames = [
        (0.0, [(0.123456, 3.000001, -0.1, -1.25)]),
        (0.1, [(1.5, 2.25, 0.125, 0.333333), (-0.000001, 0.0, 0.0, 9.999999)]),
    ]
    session = build_session(10.0, "clinic", "walkway", "A1", frames)
    out = tmp_path / "rt.session.jsonl"
    write_session(session, out)
    back = read_session(out)
    assert same_frames(back, session)
    assert (back.frame_rate, back.site, back.room_label, back.device_id) == (
        session.frame_rate,
        session.site,
        session.room_label,
        session.device_id,
    )


def test_round_trip_simulator_output(tmp_path):
    from gaitpipe.simulator import make_scenario, simulate

    session, _ = simulate(make_scenario("home_radial", seed=5))
    out = tmp_path / "sim.session.jsonl"
    write_session(session, out)
    back = read_session(out)
    assert same_frames(back, session)


def test_session_validation():
    for frame_rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="frame_rate"):
            Session(frame_rate=frame_rate, site="home", room_label="x", device_id="y")
    with pytest.raises(ValueError):
        Session(frame_rate=10.0, site="garden", room_label="x", device_id="y")
    # A device of 5 would read back as "5"; a room of 5 was a TypeError.
    with pytest.raises(ValueError, match="device must be a string"):
        Session(10.0, "home", "r", 5)
    with pytest.raises(ValueError, match="room must be a string"):
        Session(10.0, "home", 5, "d")


# "heatmap_" + room + ".csv" of 255 UTF-8 bytes, the most a file name holds,
# and of 256.
_ROOM_AT_NAME_MAX = "é" * 121 + "a"
_ROOMS = ["", ".", "..", "a/b", "q/../../escaped", "a\\b", "a\0b", "/", _ROOM_AT_NAME_MAX,
          _ROOM_AT_NAME_MAX + "a", "kitchen", "living room", "..a", "é"]


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    frame_rate=st.sampled_from([0.0, -10.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 10.0,
                                10, True, np.float32(10.0)]) | st.floats(),
    site=st.sampled_from(["clinic", "home", "garden", "", "Home"]),
    room=st.sampled_from(_ROOMS + [5, None, b"r"]) | st.text(max_size=12),
    device=st.sampled_from(["d", "", 5, 5.0, None, True, b"d", ["d"]]) | st.text(max_size=12),
)
def test_any_session_that_builds_reads_back(tmp_path, frame_rate, site, room, device):
    # A session built in code obeys the metadata rule of the file reader, so
    # it either fails to build or reads back as written.
    try:
        session = build_session(frame_rate, site, room, device, [(0.5, [(0.1, 2.0, 0.0, -1.0)])])
    except ValueError:
        return
    path = tmp_path / "meta.session.jsonl"
    write_session(session, path)
    back = read_session(path)
    assert (back.frame_rate, back.site, back.room_label, back.device_id) == (
        frame_rate, site, room, device)
    assert same_frames(back, session)


def test_random_sessions_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(10):
        frames = []
        t = 0.0
        for _ in range(rng.integers(0, 8)):
            t += float(rng.uniform(0.05, 0.3))
            pts = [
                (
                    float(rng.uniform(-8, 8)),
                    float(rng.uniform(0, 9)),
                    float(rng.uniform(-1.3, 1.0)),
                    float(rng.uniform(-3, 3)),
                )
                for _ in range(rng.integers(0, 12))
            ]
            frames.append((t, pts))
        session = build_session(10.0, "home", "r", "d", frames)
        out = tmp_path / f"r{trial}.jsonl"
        write_session(session, out)
        assert same_frames(read_session(out), session)


_NUMBERS = st.one_of(
    st.floats(-5, 5),
    st.integers(-3, 3),
    st.sampled_from([float("nan"), float("inf"), -0.0, 2**63, 2**64 - 1]),
)
_SCALARS = st.one_of(
    st.floats(),  # NaN, infinities and negative y included
    st.integers(-(2**70), 2**70),
    st.just(10**400),
    st.booleans(),
    st.none(),
    st.sampled_from(["1.5", " -2 ", "nan", "inf", "1e3", "1_0", "abc", ""]),
)
_NUMERIC_PTS = st.lists(st.lists(_NUMBERS, min_size=4, max_size=4), max_size=8)
# One value of a numeric point swapped for any scalar (a null, a numeric
# string, ...), drawn twice as often as a list of the wrong length, a nested
# list or a bare scalar.
_ONE_ODD_VALUE = st.tuples(
    st.lists(_NUMBERS, min_size=4, max_size=4), st.integers(0, 3), _SCALARS
).map(lambda a: a[0][: a[1]] + [a[2]] + a[0][a[1] + 1 :])
_ODD_ENTRY = st.integers(0, 4).flatmap(lambda k: (
    _ONE_ODD_VALUE,
    _ONE_ODD_VALUE,
    st.lists(_SCALARS, max_size=6),
    st.lists(st.lists(_NUMBERS, max_size=4), min_size=4, max_size=4),
    _SCALARS,
)[k])


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    frame_pts=st.lists(_NUMERIC_PTS, min_size=1, max_size=4),
    odd=_ODD_ENTRY,
    line=st.integers(0, 3),
    pos=st.integers(0, 8),
    as_pts=st.integers(0, 9),
)
def test_reader_matches_per_point_rule(tmp_path, frame_pts, odd, line, pos, as_pts):
    # Plainly numeric frames with one odd entry, which now and then stands
    # in for a whole line's `pts`.
    line %= len(frame_pts)
    if as_pts == 0:
        frame_pts[line] = odd
    else:
        frame_pts[line].insert(pos, odd)
    lines = [HEADER] + [
        json.dumps({"t": 0.1 * (k + 1), "pts": pts}) for k, pts in enumerate(frame_pts)
    ]
    path = write_lines(tmp_path, *lines)
    expected = reference_frame_points([json.loads(text)["pts"] for text in lines[1:]])
    try:
        session = read_session(path)  # anything but SessionFormatError fails the test
    except SessionFormatError as exc:
        assert expected[0] == "reject"
        assert (exc.line, str(exc)) == (expected[1], f"line {expected[1]}: {expected[2]}")
        return
    assert expected[0] == "accept"
    _, kept, dropped = expected
    assert session.dropped_points == dropped
    # repr tells -0.0 from 0.0, so the values must match bit for bit.
    assert repr([[tuple(p) for p in f.points.tolist()] for f in session.frames]) == repr(kept)


# Frame lines that the reader cannot take in a batch as they stand, yet
# which hold valid points: an "e" sends a line point by point, and the int
# columns make a batch's np.asarray give ints, uint64 or objects.
ODD_VALID = [
    "[1.5e0,2.0,0.1,-1.0],[0.25,1E1,0,2]",
    "[1,36893488147419103232,0,1]",  # past int64; dropped, y > MAX_COORD_M
    "[18446744073709551615,1,0,-1],[-1,1,0,1]",
    "[-1,2,0,1],[3,4,0,-1]",
    "[0.5,-0.5,0,1],[0.5,NaN,0,1]",  # dropped: y < 0, NaN
]
# Frame lines whose second point is malformed.
MALFORMED = [
    '[0.1,2,0,1],["1.5",2.0,0.0,1.0]',  # a quoted number
    "[0.1,2,0,1],[1.0,2.0,0.0]",  # ragged
    "[0.1,2,0,1],[null,2.0,0.0,1.0]",
    "[0.1,2,0,1],[1," + "9" * 400 + ",0,1]",  # an int past the float range
    "[0.1,2,0,1],[true,1,0,1]",
]


def batch_lines(rng, n_frames):
    """Fixed-point frame lines of 0-15 points, 0.1 s apart: 7.5 per frame on
    average, so about 270 frames cross BATCH_POINTS."""
    lines = []
    for k in range(n_frames):
        n = int(rng.integers(0, 16))
        pts = rng.uniform([-4, 0, -1.2, -3], [4, 8, 0.6, 3], size=(n, 4))
        text = ",".join("[{:.6f},{:.6f},{:.6f},{:.6f}]".format(*p) for p in pts)
        lines.append(f'{{"t":{0.1 * (k + 1):.6f},"pts":[{text}]}}')
    return lines


def flush_frame(lines):
    """Index of the frame line whose points take the total to BATCH_POINTS."""
    total = np.cumsum([len(json.loads(line)["pts"]) for line in lines])
    return int(np.searchsorted(total, BATCH_POINTS))


def with_pts(lines, k, pts_text):
    t = json.loads(lines[k])["t"]
    return lines[:k] + [f'{{"t":{t:.6f},"pts":[{pts_text}]}}'] + lines[k + 1 :]


def reference_columns(lines):
    """The reference's verdict on frame lines, accepted columns as a Session's."""
    verdict = reference_frame_points([json.loads(line)["pts"] for line in lines])
    if verdict[0] == "reject":
        return verdict
    _, kept, dropped = verdict
    return ("accept", np.array([json.loads(line)["t"] for line in lines], dtype=float),
            np.array([p for frame in kept for p in frame], dtype=float).reshape(-1, 4),
            np.cumsum([0] + [len(frame) for frame in kept]), dropped)


def test_batched_columns_match_per_line_reference(tmp_path):
    rng = np.random.default_rng(15)
    for trial in range(12):
        lines = batch_lines(rng, int(rng.integers(350, 600)))
        flush = flush_frame(lines)
        assert flush + 1 < len(lines)
        # Odd lines on both sides of the first flush and at random frames.
        spots = [flush - 1, flush, flush + 1, *rng.integers(0, len(lines), 3)]
        for k in spots[: 2 + trial % 5]:
            lines = with_pts(lines, int(k), ODD_VALID[int(rng.integers(len(ODD_VALID)))])
        session = read_session(write_lines(tmp_path, HEADER, *lines))
        _, times, points, offsets, dropped = reference_columns(lines)
        assert session.times.tobytes() == times.tobytes()
        assert session.points.tobytes() == points.tobytes()
        assert session.offsets.tolist() == offsets.tolist()
        assert session.dropped_points == dropped


def test_batched_reader_names_each_malformed_line(tmp_path):
    rng = np.random.default_rng(16)
    lines = batch_lines(rng, 400)
    flush = flush_frame(lines)
    assert flush + 1 < len(lines)
    for bad in MALFORMED:
        for k in (3, flush - 1, flush, flush + 1, len(lines) - 1):
            # A valid odd line in the same batch, before the bad one.
            mixed = with_pts(with_pts(lines, k, bad), max(k - 2, 0), ODD_VALID[k % 5])
            expected = reference_columns(mixed)
            assert expected[0] == "reject" and expected[1] == k + 2
            with pytest.raises(SessionFormatError) as excinfo:
                read_session(write_lines(tmp_path, HEADER, *mixed))
            assert (excinfo.value.line, str(excinfo.value)) == (
                k + 2, f"line {k + 2}: {expected[2]}")
            # A later line that fails on its own does not hide the bad point.
            later = mixed[: k + 1] + ["{not json"] + mixed[k + 1 :]
            with pytest.raises(SessionFormatError) as excinfo:
                read_session(write_lines(tmp_path, HEADER, *later))
            assert excinfo.value.line == k + 2
            # An earlier one does.
            with pytest.raises(NonMonotonicTimeError) as excinfo:
                read_session(write_lines(tmp_path, HEADER, mixed[0], *mixed))
            assert excinfo.value.line == 3


def test_atomic_write_failure_leaves_the_old_file_and_no_temp_file(tmp_path):
    # A lone surrogate cannot be encoded as UTF-8: the write fails after the
    # temp file is made, which is then removed; the old bytes stay in place.
    path = tmp_path / "report.json"
    path.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\ud800")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
