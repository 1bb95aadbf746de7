import json
from itertools import pairwise

import pytest
from hypothesis import example, given, settings, strategies as st

from builders import make_track
from gaitpipe.cli import main
from gaitpipe.config import PipelineConfig
from gaitpipe.pipeline import _suppressed, process_session
from gaitpipe.pointcloud import read_session
from gaitpipe.segmenter import LinearSegment, read_walklog
from gaitpipe.simulator import make_scenario, simulate
from oracles import overlaps_other_track


CFG = PipelineConfig()


def run_preset(name, seed=None, **kwargs):
    scene = make_scenario(name, seed=seed, **kwargs)
    session, truth = simulate(scene)
    result = process_session(session, CFG, scene.walklog)
    return scene, truth, result


def test_walklog_selects_clinic_mode():
    # With its walk log a session gives one record per logged walk; without
    # one the same session gives home records, which carry no walk index.
    scene = make_scenario("clinic_control")
    session, _ = simulate(scene)
    clinic = process_session(session, CFG, scene.walklog)
    assert [w["walk_index"] for w in clinic.walks] == [e.walk_index for e in scene.walklog.entries]
    home = process_session(session, CFG)
    assert home.walks and all("walk_index" not in w for w in home.walks)


def test_home_radial_measures_both_passes():
    _, truth, result = run_preset("home_radial")
    valid = [s for s in result.segments if s.valid]
    assert len(valid) >= 1
    measured = [w for w in result.walks if w["avg_step_len_m"] is not None]
    assert len(measured) == 2
    directions = {w["direction"] for w in measured}
    assert directions == {"approach", "recede"}
    true_len = truth.walkers[0].true_step_length
    for w in measured:
        assert abs(w["avg_step_len_m"] - true_len) / true_len < 0.10


def test_home_perpendicular_yields_nothing():
    _, _, result = run_preset("home_perpendicular")
    assert all(not s.valid for s in result.segments)
    assert result.walks == []


def test_home_l_shape_mixed_validity():
    _, truth, result = run_preset("home_L_shape")
    flags = [s.valid for s in result.segments]
    assert any(flags) and not all(flags)
    measured = [w for w in result.walks if w["avg_step_len_m"] is not None]
    assert len(measured) == 1
    true_len = truth.walkers[0].true_step_length
    assert abs(measured[0]["avg_step_len_m"] - true_len) / true_len < 0.12


def test_l_shape_corner_near_truth():
    scene, _, result = run_preset("home_L_shape")
    corner = scene.walkers[0].path[1]
    radial = [s for s in result.segments if s.valid]
    assert radial
    end_x, end_y = radial[0].last_xy
    assert ((end_x - corner[0]) ** 2 + (end_y - corner[1]) ** 2) ** 0.5 < 0.3


def test_two_residents_suppressed():
    _, _, result = run_preset("two_residents")
    assert result.suppressed_segments >= 1
    assert result.walks == []


def test_pet_not_tracked():
    scene, _, result = run_preset("home_with_pet")
    # Two walking passes produce two tracks; the pet never confirms.
    assert len(result.tracks) == 2
    assert len([w for w in result.walks if w["avg_step_len_m"] is not None]) == 2


def test_clinic_control_matches_and_measures():
    scene, truth, result = run_preset("clinic_control", n_walks=2)
    assert len(result.walks) == 2
    for w in result.walks:
        assert w["matched"] is True
        assert w["walk_type"] == "control"
        assert w["avg_step_len_m"] is not None
        assert abs(w["avg_step_len_m"] - w["reference_step_length"]) / w["reference_step_length"] < 0.10


def test_clinic_assistant_not_matched():
    _, _, result = run_preset("clinic_with_assistant")
    assert len(result.walks) == 1
    assert result.walks[0]["matched"] is True
    assert result.walks[0]["track_id"] is not None


def test_clinic_unmatched_walk_reported():
    from gaitpipe.segmenter import WalkEntry, WalkLog

    scene = make_scenario("clinic_control", n_walks=1)
    session, _ = simulate(scene)
    log = WalkLog(
        entries=scene.walklog.entries
        + (WalkEntry("P01", 9, "obstacle", 500.0, 0.5),),
        g_s=scene.walklog.g_s,
        g_e=scene.walklog.g_e,
    )
    result = process_session(session, CFG, log)
    by_index = {w["walk_index"]: w for w in result.walks}
    assert by_index[9]["matched"] is False
    assert by_index[9]["avg_step_len_m"] is None
    assert by_index[0]["matched"] is True


def test_walk_record_dict_schema():
    _, _, result = run_preset("clinic_control", n_walks=1)
    record = result.walks[0]
    assert set(record) == {
        "track_id",
        "seg_index",
        "t_start",
        "direction",
        "n_peaks",
        "steps",
        "avg_step_len_m",
        "walk_index",
        "walk_type",
        "matched",
        "reference_step_length",
    }
    assert all(set(s) == {"len_m", "time_s"} for s in record["steps"])

    _, _, home = run_preset("home_radial")
    home_record = home.walks[0]
    assert "walk_index" not in home_record
    assert set(home_record) == {
        "track_id",
        "seg_index",
        "t_start",
        "direction",
        "n_peaks",
        "steps",
        "avg_step_len_m",
    }


@st.composite
def track_layouts(draw):
    """(first, last, cuts) per track: rows at the integer times first to
    last, split into segments at the interior times `cuts`. Lifetimes on a
    small integer grid often touch at an endpoint or repeat exactly."""
    layout = []
    for _ in range(draw(st.integers(0, 8))):
        first = draw(st.integers(0, 12))
        last = draw(st.integers(first + 1, first + 6))
        cuts = draw(st.sets(st.integers(first, last), max_size=3)) - {first, last}
        layout.append((first, last, tuple(sorted(cuts))))
    return layout


@settings(max_examples=200, deadline=None)
@given(track_layouts())
@example([])  # no tracks
@example([(0, 3, ()), (0, 3, (1, 2))])  # equal lifetimes, one split into three segments
@example([(0, 3, (1,)), (3, 6, (4, 5))])  # touching endpoints
@example([(0, 6, (2, 4)), (7, 9, ())])  # one track's segments only: none suppressed
def test_suppression_sweep_matches_pairwise_oracle(layout):
    tracks = [make_track([(float(t), 0.0, float(t), []) for t in range(first, last + 1)],
                         track_id=k)
              for k, (first, last, _) in enumerate(layout)]
    segments = [
        LinearSegment(track, seg_index, lo - first, hi - first)
        for track, (first, last, cuts) in zip(tracks, layout)
        for seg_index, (lo, hi) in enumerate(pairwise((first, *cuts, last)))
    ]
    assert _suppressed(segments, tracks).tolist() == [
        overlaps_other_track(seg, tracks) for seg in segments
    ]


@pytest.mark.parametrize("scenario, mode, walks", [
    ("clinic_control", "clinic", ["--n-walks", "2"]),
    ("home_radial", "home", []),
])
def test_library_walks_are_cli_records(tmp_path, scenario, mode, walks):
    assert main(["simulate", "--scenario", scenario, "--seed", "5", *walks,
                 "--out", str(tmp_path)]) == 0
    stem = tmp_path / f"{scenario}-5"
    assert main(["process", "--input", f"{stem}.session.jsonl", "--mode", mode,
                 "--out", str(tmp_path / "out")]) == 0
    walklog = read_walklog(f"{stem}.walklog.json") if mode == "clinic" else None
    result = process_session(read_session(f"{stem}.session.jsonl"), CFG, walklog)
    lines = (tmp_path / "out" / stem.name / "walks.jsonl").read_text().splitlines()
    assert lines and [json.dumps(w, sort_keys=True) for w in result.walks] == lines
