import math

import numpy as np
import pytest

from gaitpipe.pointcloud import write_session
from gaitpipe.simulator import (
    MIN_STEP_PERIOD,
    SCENARIO_NAMES,
    PetSpec,
    SceneSpec,
    WalkerSpec,
    _WalkKinematics,
    make_scenario,
    read_truth_header,
    simulate,
    write_truth,
)

RADIAL = WalkerSpec(walker_id="w", path=((0.0, 6.0), (0.0, 1.5)), start_time=1.0)


def radial_scene(seed=0, **overrides):
    walker = WalkerSpec(**{**RADIAL.__dict__, **overrides})
    return SceneSpec(name="t", site="home", duration=9.0, seed=seed, walkers=(walker,))


def test_seed_determinism_byte_identical(tmp_path):
    for run in ("a", "b"):
        session, truth = simulate(radial_scene(seed=9))
        write_session(session, tmp_path / f"{run}.session.jsonl")
        write_truth(truth, tmp_path / f"{run}.truth.jsonl")
    assert (tmp_path / "a.session.jsonl").read_bytes() == (
        tmp_path / "b.session.jsonl"
    ).read_bytes()
    assert (tmp_path / "a.truth.jsonl").read_bytes() == (
        tmp_path / "b.truth.jsonl"
    ).read_bytes()


def test_different_seeds_differ():
    s1, _ = simulate(radial_scene(seed=1))
    s2, _ = simulate(radial_scene(seed=2))
    assert not all(np.array_equal(getattr(s1, k), getattr(s2, k))
                   for k in ("times", "points", "offsets"))


def test_constant_speed_when_no_oscillation():
    scene = radial_scene(seed=4, speed_amp=0.0, noise_doppler=0.02)
    session, truth = simulate(scene)
    walker = truth.walkers[0]
    # Mid-walk frames: reported torso Doppler magnitude stays near v0.
    mid = [s for s in walker.samples if walker.t_start + 1.5 < s.t < walker.t_end - 1.5]
    assert mid
    for sample in mid:
        assert sample.speed == pytest.approx(1.0, abs=1e-6)
    mid_times = {s.t for s in mid}
    speeds = [
        abs(s)
        for f in session.frames
        if f.t in mid_times
        for _, _, z, s in f.points.tolist()
        if abs(z) <= 0.2
    ]
    assert np.mean(speeds) == pytest.approx(1.0, abs=0.05)


def test_truth_step_length_and_event_count():
    scene = radial_scene(seed=5, base_speed=1.0, step_period=0.55)
    _, truth = simulate(scene)
    walker = truth.walkers[0]
    assert walker.true_step_length == pytest.approx(0.55)
    # Crests occur once per period from the first at T/2 until the walk ends.
    kin = _WalkKinematics(scene.walkers[0])
    expected = 1 + math.floor((kin.tau_end - 0.55 / 2) / 0.55)
    assert len(walker.step_times) == expected
    gaps = np.diff(walker.step_times)
    assert np.allclose(gaps, 0.55, atol=1e-9)


def test_distance_between_interior_crests_is_exact():
    spec = WalkerSpec(
        walker_id="w",
        path=((0.0, 7.5), (0.0, 1.0)),
        base_speed=1.1,
        step_period=0.6,
        start_time=0.0,
    )
    kin = _WalkKinematics(spec)
    interior = [
        t
        for t in kin.step_times
        if kin.t_ramp + 1e-9 < t - spec.start_time
        and t - spec.start_time + spec.step_period < kin.tau1
    ]
    assert len(interior) >= 3
    for t in interior:
        s0, _ = kin.arc_state(t)
        s1, _ = kin.arc_state(t + spec.step_period)
        assert s1 - s0 == pytest.approx(1.1 * 0.6, abs=1e-9)


def test_boresight_doppler_matches_true_speed():
    scene = radial_scene(seed=6, noise_doppler=0.1, points_torso=10, dropout=0.0)
    session, truth = simulate(scene)
    walker = truth.walkers[0]
    speed_by_t = {s.t: s.speed for s in walker.samples}
    errors = []
    for frame in session.frames:
        true_v = speed_by_t.get(frame.t)
        if true_v is None or true_v < 0.5:
            continue
        torso = [s for _, _, z, s in frame.points.tolist() if abs(z) <= 0.2 and s < 0]
        if len(torso) < 6:
            continue
        errors.append(abs(abs(np.mean(torso)) - true_v) - 0.1 / math.sqrt(len(torso)))
    assert errors
    # Allow the sampling slack of a 4-sigma tail on top of sigma/sqrt(n).
    assert np.mean([e < 4 * 0.1 / math.sqrt(6) for e in errors]) > 0.95


def test_walker_spec_validation():
    with pytest.raises(ValueError):
        WalkerSpec(walker_id="w", path=((0, 0),))
    with pytest.raises(ValueError):
        WalkerSpec(walker_id="w", path=((0, 5), (0, 1)), base_speed=0.2, speed_amp=0.3)
    with pytest.raises(ValueError):
        WalkerSpec(walker_id="w", path=((0, 5), (0, 1)), base_speed=1.6, step_period=0.7)
    with pytest.raises(ValueError):
        SceneSpec(name="x", site="home", duration=0.0, seed=1)
    # A negative period never reaches the first speed crest; 0 and NaN
    # would fail only later, inside the kinematics; 1e-3 would hold a
    # thousand step events per second of walk.
    path = ((0, 5), (0, 1))
    for value in (0.0, -1.0, math.nan, 1e-3, MIN_STEP_PERIOD * (1 - 2**-52)):
        with pytest.raises(ValueError, match="step_period must be at least 0.1 s"):
            WalkerSpec(walker_id="w", path=path, step_period=value)
    for value in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and positive"):
            SceneSpec(name="x", site="home", duration=value, seed=1)
        with pytest.raises(ValueError, match="must be finite and positive"):
            SceneSpec(name="x", site="home", duration=9.0, seed=1, frame_rate=value)
    # A NaN start time would reach the truth file as bare NaN; a NaN noise,
    # dropout or waypoint would simulate a session of 0 points, a negative
    # noise would fail inside numpy, a negative point count would pass.
    bad = [("start_time", v) for v in (math.nan, math.inf, -1.0)]
    bad += [("noise_doppler", v) for v in (math.nan, math.inf, -1.0)]
    bad += [("dropout", v) for v in (math.nan, -0.1, 1.5)]
    bad += [(key, v) for key in ("points_torso", "points_arms", "points_legs")
            for v in (-3, math.inf, 2.5)]
    bad += [("path", ((0, math.nan), (0, 1))), ("path", ((0, 5), (0, 1), (math.inf, 2)))]
    for key, value in bad:
        with pytest.raises(ValueError, match=key.split("_")[0]):
            WalkerSpec(**{"walker_id": "w", "path": path, key: value})
    for center in ((math.nan, 2.0), (2.0, math.inf)):
        with pytest.raises(ValueError, match="center"):
            PetSpec(center=center)


def test_scene_frame_count_must_be_finite():
    # A frame count that overflows is refused when the spec is built, not
    # by simulate's int(). 1.7e308 fps over 1e-308 s is 2 frames; a
    # walker's step times then overflow only past the last frame.
    for duration, frame_rate in ((9.0, 1e308), (1e300, 1e10), (1.7e308, 1.1)):
        with pytest.raises(ValueError, match="duration x frame_rate must be finite"):
            SceneSpec(name="x", site="home", duration=duration, seed=1, frame_rate=frame_rate)
    walker = WalkerSpec(walker_id="w", path=((0, 5), (0, 1)))
    scene = SceneSpec(name="x", site="home", duration=1e-308, seed=1, frame_rate=1.7e308,
                      walkers=(walker,))
    session, _ = simulate(scene)
    assert len(session.frames) == 2


def test_ramp_time_rule():
    # Reaching cruise takes longer the faster the walk, never less than
    # half a step; the kinematics take the spec's rule.
    slow = WalkerSpec(walker_id="w", path=((0, 5), (0, 1)), base_speed=0.5, step_period=1.5)
    fast = WalkerSpec(walker_id="w", path=((0, 5), (0, 1)), base_speed=1.8, step_period=0.5)
    assert slow.ramp_time == 0.75 == _WalkKinematics(slow).t_ramp
    assert fast.ramp_time == 1.0 == _WalkKinematics(fast).t_ramp
    WalkerSpec(walker_id="w", path=((0, 5), (0, 1)), step_period=MIN_STEP_PERIOD)


def test_path_too_short_rejected_by_spec():
    # 4 m at 3 m/s: the two ramps alone cover about 5 m.
    with pytest.raises(ValueError, match="path too short for the ramp profile"):
        WalkerSpec(walker_id="w", path=((0, 6), (0, 2)), base_speed=3.0, step_period=0.3)
    # Just over the 1.5 * base_speed * ramp_time that the ramps and the
    # shortest cruise take.
    WalkerSpec(walker_id="w", path=((0, 6), (0, 6 - 1.5 * 3.0 * (3.0 / 1.8) - 1e-6)),
               base_speed=3.0, step_period=0.3)


def test_scenario_library_presets():
    library = {name: make_scenario(name) for name in SCENARIO_NAMES}
    assert len(library) == len(SCENARIO_NAMES) > 0
    for name, scene in library.items():
        session, truth = simulate(scene)
        assert len(session.frames) > 0
        assert truth.walkers
        if scene.site == "clinic":
            assert scene.walklog is not None
            assert scene.walklog.g_s == (0.0, 6.03)
            assert scene.walklog.g_e == (0.0, 2.03)
        else:
            assert scene.walklog is None


def test_make_scenario_unknown_name():
    with pytest.raises(KeyError):
        make_scenario("lunar_stroll")


def test_truth_header_round_trip(tmp_path):
    scene = make_scenario("clinic_control", seed=12, n_walks=1)
    _, truth = simulate(scene)
    path = tmp_path / "x.truth.jsonl"
    write_truth(truth, path)
    header = read_truth_header(path)
    assert header["seed"] == 12
    walker = header["walkers"][0]
    assert walker["true_step_length"] == pytest.approx(0.55)
    assert walker["t_start"] == 2.0


def test_pet_points_low_and_few():
    scene = SceneSpec(
        name="p",
        site="home",
        duration=4.0,
        seed=3,
        walkers=(RADIAL,),
        pets=(PetSpec(center=(2.0, 2.5)),),
    )
    session, _ = simulate(scene)
    pet_pts = [
        (x, y, z, s)
        for f in session.frames
        for x, y, z, s in f.points.tolist()
        if z < -0.8 and math.hypot(x - 2.0, y - 2.5) < 1.2
    ]
    assert pet_pts
    assert all(z <= -0.8 for _, _, z, _ in pet_pts)
