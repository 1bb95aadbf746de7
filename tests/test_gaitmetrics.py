import dataclasses
import math

import numpy as np
import pytest

from gaitpipe.config import GaitConfig, PipelineConfig
from gaitpipe.gaitmetrics import (
    APPROACH,
    RECEDE,
    TorsoSpeedSeries,
    analyze_segment,
    detect_peaks,
    direction_sign,
    measure_steps,
    torso_speed,
)
from gaitpipe.pointcloud import Session
from gaitpipe.segmenter import classify, split_track
from gaitpipe.simulator import SCENARIO_NAMES, SceneSpec, WalkerSpec, make_scenario, simulate
from gaitpipe.tracker import track_frames

from builders import dense_home_session, make_track, points_by_row, spy_rows, whole_segment
from oracles import (
    brute_force_peaks,
    per_sample_peaks,
    per_state_torso_speed,
    reference_torso_speeds,
)


def segment_from_rows(rows, z_torso=0.25):
    """A valid segment over every (t, x, y, points) row."""
    seg = whole_segment(make_track(rows, z_torso))
    seg.valid = True
    return seg


def approach_segment(point_lists):
    # Walks from y=5 toward the radar; r_end < r_start so sign is APPROACH.
    return segment_from_rows(
        [(0.1 * i, 0.1, 5.0 - 0.1 * i, pts) for i, pts in enumerate(point_lists)]
    )


def mk_series(times, speeds):
    times = np.asarray(times, dtype=float)
    return TorsoSpeedSeries(
        times=times,
        speeds=np.asarray(speeds, dtype=float),
        xs=np.zeros_like(times),
        ys=5.0 - times,
    )


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, as do NaN payloads."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def series_from_segment(seg, speed=1.0):
    """Every row a sample at the given speed, at its tracked position."""
    track = seg.track
    return TorsoSpeedSeries(
        times=track.t.copy(),
        speeds=np.full(len(track), speed),
        xs=track.x.copy(),
        ys=track.y.copy(),
    )


# -------------------------------------------------------------- torso gate


def test_gate_application():
    pts = np.array([
        (0.1, 3.0, 0.10, -1.2),   # kept
        (0.1, 3.0, 0.30, -1.2),   # z above the band
        (0.1, 3.0, 0.00, +0.4),   # wrong Doppler sign for approach
        (0.1, 3.0, -0.25, -0.8),  # kept, band edge inclusive
    ])
    seg = approach_segment([pts, pts])
    series = torso_speed(seg)
    assert len(series) == 2
    assert series.speeds[0] == pytest.approx(1.0)  # |(-1.2 + -0.8)/2|


def test_gate_matches_per_point_reference():
    rng = np.random.default_rng(4)
    for _ in range(40):
        frames = [
            [
                (0.0, 3.0, float(z), float(s))
                # Band edges and zero Doppler are drawn as often as the rest.
                for z, s in zip(
                    rng.choice([-0.25, 0.25, 0.0, *rng.uniform(-0.6, 0.6, 5)], size=n),
                    rng.choice([0.0, *rng.normal(-0.5, 1.0, 5)], size=n),
                )
            ]
            for n in rng.integers(0, 12, size=8)
        ]
        series = torso_speed(approach_segment(frames))
        expected = reference_torso_speeds(frames, 0.25, APPROACH)
        assert series.speeds.tolist() == [e[0] for e in expected if e is not None]
        assert series.times.tolist() == [
            0.1 * i for i, e in enumerate(expected) if e is not None
        ]


def test_constant_speed_mean():
    pts = [(0.0, 3.0, 0.0, -1.0)] * 4
    seg = approach_segment([pts] * 5)
    series = torso_speed(seg)
    assert series.speeds.tolist() == [1.0] * 5


def test_direction_sign_by_radial_distance():
    toward = approach_segment([[(0, 3, 0, -1)]] * 2)
    assert direction_sign(toward) == APPROACH
    away = segment_from_rows([
        (0.0, 0.0, 2.0, [(0, 2, 0, 1.0)]),
        (0.1, 0.0, 2.5, [(0, 2.5, 0, 1.0)]),
    ])
    assert direction_sign(away) == RECEDE
    series = torso_speed(away)
    assert series.speeds[0] == pytest.approx(1.0)


def test_empty_samples_omitted_and_empty_series():
    good = [(0.0, 3.0, 0.0, -1.0)]
    bad = [(0.0, 3.0, 0.9, -1.0)]  # outside z band
    seg = approach_segment([good, bad, good])
    series = torso_speed(seg)
    assert len(series) == 2  # middle sample omitted
    empty = torso_speed(approach_segment([bad, bad]))
    assert len(empty) == 0
    assert detect_peaks(empty, 0.4, 0.3) == []


def test_torso_speed_matches_per_state_loop():
    rng = np.random.default_rng(8)
    for trial in range(80):
        step = -0.1 if trial % 2 else 0.1  # approach, then recede
        # Band edges, signed zeros and the wrong Doppler sign are drawn often;
        # every fifth segment has no torso point at all.
        z_set = [-0.25, 0.25, 0.0, -0.3, 0.3, *rng.uniform(-0.6, 0.6, 3)]
        if trial % 5 == 0:
            z_set = [0.9, -0.9]
        rows = []
        for i in range(int(rng.integers(1, 30))):
            k = int(rng.integers(0, 10))
            points = np.column_stack([
                rng.uniform(-1, 1, k), np.full(k, 3.0),
                rng.choice(z_set, size=k), rng.choice([0.0, -0.0, *rng.normal(0, 1.2, 4)], size=k),
            ])
            t = round(0.1 * i + float(rng.uniform(0, 0.05)), 6)
            rows.append((t, float(rng.uniform(-1, 1)), 3.0 + step * i, points))
        z_torso = 0.25 if trial % 3 else float(rng.uniform(0.05, 0.5))
        seg = segment_from_rows(rows, z_torso)
        got = torso_speed(seg)
        want = per_state_torso_speed(rows, z_torso, -1 if seg.r_end < seg.r_start else 1)
        assert all(map(same_bits, (got.times, got.speeds, got.xs, got.ys), want))
        if trial % 5 == 0:
            assert len(got) == 0


@pytest.mark.parametrize("scenario", [*SCENARIO_NAMES, "dense home_radial"])
def test_torso_speed_matches_point_oracle_on_tracks(monkeypatch, scenario):
    # The points of each row as `track_frames` saw them, through the
    # per-point oracle, for either direction of travel on every segment.
    session = (dense_home_session() if scenario.startswith("dense")
               else simulate(make_scenario(scenario, seed=1))[0])
    cfg = PipelineConfig()
    calls = spy_rows(monkeypatch)
    tracks = track_frames(session, cfg)
    recorded = points_by_row(calls)
    samples = {APPROACH: 0, RECEDE: 0}
    for seg in (s for tr in tracks for s in split_track(tr, cfg.segmenter.rdp_epsilon)):
        track = seg.track
        rows = [(t, x, y, recorded[t, x, y]) for t, x, y in zip(
            *(column[seg.lo : seg.hi + 1].tolist() for column in (track.t, track.x, track.y))
        )]
        for sign, (r_start, r_end) in ((APPROACH, (1.0, 0.0)), (RECEDE, (0.0, 1.0))):
            turned = dataclasses.replace(seg, r_start=r_start, r_end=r_end)
            assert direction_sign(turned) == sign
            got = torso_speed(turned)
            want = per_state_torso_speed(rows, cfg.gait.z_torso, sign)
            assert all(map(same_bits, (got.times, got.speeds, got.xs, got.ys), want))
            samples[sign] += len(got)
    assert samples[APPROACH] and samples[RECEDE]


# ------------------------------------------------------------ detect_peaks


def test_monotone_series_no_peaks():
    t = np.arange(0, 3, 0.1)
    assert detect_peaks(mk_series(t, 0.5 * t), 0.4, 0.3) == []


def test_sin_series_five_peaks():
    # Crest-on-sample variant of the closed-form case: period 0.6 s with
    # crests at 0.2 + 0.6k; frozen from the brute-force oracle.
    t = np.array([k / 10 for k in range(31)])
    v = np.sin(2 * math.pi * (t - 0.05) / 0.6)
    series = mk_series(t, v)
    peaks = detect_peaks(series, 0.4, 0.3)
    assert peaks == pytest.approx([0.2, 0.8, 1.4, 2.0, 2.6])
    assert peaks == pytest.approx(brute_force_peaks(t, v, 0.4, 0.3))
    gaps = np.diff(peaks)
    assert np.all(np.abs(gaps - 0.6) <= 0.05)


def test_close_candidates_larger_wins():
    # Two local maxima 0.2 s apart: only the larger survives the min gap.
    t = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    v = np.array([0.0, 0.1, 0.8, 0.2, 1.0, 0.1, 0.0, 0.05, 0.0])
    peaks = detect_peaks(mk_series(t, v), 0.4, 0.3)
    assert peaks == [0.4]


def test_tie_broken_by_earlier_time():
    t = np.arange(0.0, 1.3, 0.1)
    v = np.array([0.0, 0.2, 0.9, 0.2, 0.0, 0.1, 0.0, 0.2, 0.9, 0.2, 0.0, 0.1, 0.0])
    peaks = detect_peaks(mk_series(t, v), 0.4, 0.85)
    # Both crests are 0.9; only one survives the 0.85 s gap: the earlier.
    assert peaks == [pytest.approx(0.2)]


def test_peaks_match_oracle_on_random_series():
    rng = np.random.default_rng(31)
    for _ in range(80):
        n = int(rng.integers(3, 50))
        t = np.cumsum(rng.uniform(0.05, 0.25, size=n))
        v = rng.uniform(0, 2, size=n)
        window = float(rng.uniform(0.2, 0.8))
        gap = window / 2 + float(rng.uniform(0.01, 0.5))
        ours = detect_peaks(mk_series(t, v), window, gap)
        assert ours == pytest.approx(brute_force_peaks(t, v, window, gap))


def test_peaks_match_per_sample_loop():
    rng = np.random.default_rng(12)
    cases = [([], []), ([0.3], [1.0]), ([0.3], [0.0])]  # empty and one-sample series
    for _ in range(300):
        n = int(rng.integers(2, 40))
        # Uneven spacing: frame steps, dropped samples and long gaps.
        t = np.round(np.cumsum(rng.choice([0.05, 0.1, 0.1, 0.2, 0.3, 0.7], size=n)), 6)
        # Ties and plateaus: speeds from a few levels, or runs of one value.
        levels = rng.choice([0.0, 0.5, 1.0, 1.5], size=n)
        v = levels if rng.random() < 0.5 else np.repeat(levels, 3)[:n]
        cases.append((t, v + (0 if rng.random() < 0.7 else rng.uniform(0, 0.01, n))))
    for t, v in cases:
        t, v = np.asarray(t, dtype=float), np.asarray(v, dtype=float)
        span = float(t[-1] - t[0]) if len(t) else 1.0
        # Windows that reach exactly to either edge from some sample, and ones
        # wider than the series.
        edges = [2 * float(t[k] - t[0]) for k in range(1, min(len(t), 4))]
        edges += [2 * float(t[-1] - t[-k]) for k in range(2, min(len(t), 4))]
        for window in [0.4, float(rng.uniform(0.05, 1.2)), 2.5 * span, *edges]:
            if window <= 0:
                continue
            for gap in (window / 2 + 0.01, window / 2 + float(rng.uniform(0, 1))):
                got = detect_peaks(mk_series(t, v), window, gap)
                assert got == per_sample_peaks(t, v, window, gap)
                assert all(type(p) is float for p in got)


# ----------------------------------------------------------- measure_steps


def test_single_peak_no_steps():
    seg = approach_segment([[(0, 3, 0, -1)]] * 10)
    series = torso_speed(seg)
    result = measure_steps(seg, series, [0.5], GaitConfig())
    assert result.steps == ()
    assert result.avg_step_length is None
    assert result.n_peaks == 1


def test_two_peaks_direct_distance():
    seg = segment_from_rows([
        (round(0.1 * i, 6), 0.0, 5.0 - 0.1 * i, [(0, 5 - 0.1 * i, 0, -1.0)])
        for i in range(20)
    ])
    series = torso_speed(seg)
    result = measure_steps(seg, series, [1.0, 1.6], GaitConfig())
    assert len(result.steps) == 1
    step = result.steps[0]
    assert step.step_length == pytest.approx(0.6, abs=1e-9)
    assert step.step_time == pytest.approx(0.6, abs=1e-9)
    assert result.avg_step_length is None  # a single step is not enough


def test_outlier_rejection():
    seg = segment_from_rows([(round(0.1 * i, 6), 0.0, 8.0 - 0.2 * i, ()) for i in range(40)])
    series = series_from_segment(seg)
    # Peak pair 6 samples apart covers 1.2 m: over the 1 m cap, dropped.
    result = measure_steps(seg, series, [0.5, 1.1, 1.7, 2.0], GaitConfig())
    assert all(s.step_length <= 1.0 for s in result.steps)
    assert len(result.steps) == 1  # only the 0.3 s / 0.6 m pair survives
    # A 3.5 s gap exceeds the 3 s step-time cap even when short enough.
    slow_seg = segment_from_rows([(round(0.5 * i, 6), 0.0, 4.0 - 0.05 * i, ()) for i in range(9)])
    slow_series = series_from_segment(slow_seg)
    result2 = measure_steps(slow_seg, slow_series, [0.5, 4.0], GaitConfig())
    assert result2.steps == ()


def test_step_length_is_hypot_of_peak_samples():
    # Jittered positions at uneven times: each kept step's length is
    # math.hypot of the two peak samples' tracked positions, bit for bit.
    rng = np.random.default_rng(12)
    t = np.cumsum(rng.uniform(0.05, 0.15, size=30))
    seg = segment_from_rows([
        (float(ti), float(x), float(y), ())
        for ti, x, y in zip(t, rng.normal(0.0, 0.05, 30), 6.0 - 0.1 * np.arange(30))
    ])
    x, y = seg.track.x.tolist(), seg.track.y.tolist()
    picks = [2, 7, 11, 16, 23]
    result = measure_steps(seg, series_from_segment(seg), [float(t[i]) for i in picks], GaitConfig())
    expected = [math.hypot(x[a] - x[b], y[a] - y[b]) for a, b in zip(picks, picks[1:])]
    assert len(result.steps) == len(expected)
    assert [s.step_length for s in result.steps] == expected


def test_avg_present_iff_two_steps():
    seg = segment_from_rows([(round(0.1 * i, 6), 0.0, 6.0 - 0.06 * i, ()) for i in range(40)])
    series = series_from_segment(seg)
    result = measure_steps(seg, series, [0.5, 1.0, 1.5], GaitConfig())
    assert len(result.steps) == 2
    assert result.avg_step_length == pytest.approx(
        np.mean([s.step_length for s in result.steps])
    )
    for s in result.steps:
        assert 0.3 <= s.step_time <= 3.0
        assert 0 < s.step_length <= 1.0


# ------------------------------------------------- simulator-backed checks


@pytest.fixture(scope="module")
def radial_scene():
    scene = make_scenario("clinic_control", seed=17, n_walks=1)
    session, truth = simulate(scene)
    cfg = PipelineConfig()
    tracks = track_frames(session, cfg)
    segs = [s for t in tracks for s in split_track(t, 0.5)]
    seg = max(segs, key=lambda s: s.length)
    seg.valid = classify(seg, 2.0, 15.0)
    return scene, session, truth, seg


def test_series_correlates_with_true_speed(radial_scene):
    _, _, truth, seg = radial_scene
    series = torso_speed(seg)
    walker = truth.walkers[0]
    true_t = np.array([s.t for s in walker.samples])
    true_v = np.array([s.speed for s in walker.samples])
    est_t = series.times
    est_v = series.speeds
    ref = np.interp(est_t, true_t, true_v)
    corr = np.corrcoef(est_v, ref)[0, 1]
    assert corr >= 0.9


def test_measured_step_length_near_truth(radial_scene):
    _, _, truth, seg = radial_scene
    result = analyze_segment(seg, GaitConfig())
    true_len = truth.walkers[0].true_step_length
    assert result.avg_step_length is not None
    assert abs(result.avg_step_length - true_len) / true_len < 0.10


def test_dropping_arms_changes_little():
    # The sign gate absorbs counter-phase arm returns: removing them moves
    # the average step length by under 5%.
    def run(points_arms):
        walker = WalkerSpec(
            walker_id="w",
            path=((0.2, 6.0), (0.2, 1.4)),
            start_time=1.0,
            points_arms=points_arms,
        )
        scene = SceneSpec(name="arm", site="home", duration=9.0, seed=77, walkers=(walker,))
        session, _ = simulate(scene)
        cfg = PipelineConfig()
        tracks = track_frames(session, cfg)
        segs = [s for t in tracks for s in split_track(t, 0.5)]
        seg = max(segs, key=lambda s: s.length)
        return analyze_segment(seg, GaitConfig()).avg_step_length

    with_arms = run(4)
    without_arms = run(0)
    assert with_arms is not None and without_arms is not None
    assert abs(with_arms - without_arms) / without_arms < 0.05


def test_mirror_symmetry_exact(radial_scene):
    _, session, _, _ = radial_scene
    mirrored = Session(
        frame_rate=session.frame_rate,
        site=session.site,
        room_label=session.room_label,
        device_id=session.device_id,
        frames=[(t, pts * (-1, 1, 1, 1)) for t, pts in session.frames],
    )
    cfg = PipelineConfig()

    def walk_lengths(sess):
        tracks = track_frames(sess, cfg)
        out = []
        for track in tracks:
            for seg in split_track(track, 0.5):
                seg.valid = classify(seg, 2.0, 15.0)
                if seg.valid:
                    result = analyze_segment(seg, GaitConfig())
                    if result.avg_step_length is not None:
                        out.append(result.avg_step_length)
        return out

    original = walk_lengths(session)
    flipped = walk_lengths(mirrored)
    assert original and original == pytest.approx(flipped, abs=1e-9)

