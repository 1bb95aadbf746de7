import configparser
import csv
import hashlib
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import gaitpipe
import gaitpipe.cli
from gaitpipe.cli import main
from gaitpipe.config import MAX_SIGMA, MIN_SIGMA_M, PipelineConfig
from gaitpipe.pointcloud import Session, write_session
from gaitpipe.simulator import make_scenario, simulate
from gaitpipe.stats import icc2k, icc3k

README = Path(__file__).resolve().parents[1] / "README.md"


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--scenario", "clinic_control", "--seed", "5",
                 "--n-walks", "2", "--out", str(out)]) == 0
    assert main(["simulate", "--scenario", "home_radial", "--seed", "6",
                 "--out", str(out)]) == 0
    return out


def test_simulate_outputs(sim_dir):
    names = {p.name for p in sim_dir.iterdir()}
    assert "clinic_control-5.session.jsonl" in names
    assert "clinic_control-5.truth.jsonl" in names
    assert "clinic_control-5.walklog.json" in names
    assert "home_radial-6.session.jsonl" in names
    assert "home_radial-6.walklog.json" not in names


def test_simulate_unknown_scenario(tmp_path):
    assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("period", ["0", "nan", "1e-3"])
def test_simulate_bad_step_period_exit_2(tmp_path, capsys, period):
    assert main(["simulate", "--scenario", "clinic_control", "--step-period", period,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "step_period must be at least 0.1 s" in err and "Traceback" not in err


@pytest.mark.parametrize("scenario,speed", [("clinic_control", "3"), ("home_L_shape", "3.2")])
def test_simulate_fast_gait_too_long_for_path_exit_2(tmp_path, capsys, scenario, speed):
    # At 3 m/s the ramps and a cruise need more than the preset's path: bad
    # flags, found while building the scene, before any file is written.
    assert main(["simulate", "--scenario", scenario, "--base-speed", speed,
                 "--step-period", "0.3", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "invalid scenario parameters: path too short for the ramp profile" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario,n_walks,message", [
    ("clinic_control", "0", "n_walks must be at least 1, got 0"),
    ("clinic_fast", "-3", "n_walks must be at least 1, got -3"),
    ("home_radial", "3", "n_walks applies to clinic presets only, not 'home_radial'"),
])
def test_simulate_bad_n_walks_exit_2(tmp_path, capsys, scenario, n_walks, message):
    assert main(["simulate", "--scenario", scenario, "--n-walks", n_walks,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_process_clinic_and_evaluate(sim_dir, tmp_path):
    out = tmp_path / "proc"
    code = main(
        [
            "process",
            "--input", str(sim_dir / "clinic_control-5.session.jsonl"),
            "--mode", "clinic",
            "--out", str(out),
            "--dump-tracks",
        ]
    )
    assert code == 0
    session_dir = out / "clinic_control-5"
    assert (session_dir / "walks.jsonl").exists()
    assert (session_dir / "segments.csv").exists()
    assert (session_dir / "tracks.jsonl").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["n_walks"] == 2
    assert report["n_measured"] == 2
    assert "walkway" in report["valid_track_pct"]["per_home"]

    eval_out = tmp_path / "eval"
    code = main(
        ["evaluate", "--results", str(out), "--truth", str(sim_dir), "--out", str(eval_out)]
    )
    assert code == 0
    eval_report = json.loads((eval_out / "report.json").read_text())
    assert eval_report["n_pairs"] == 2
    assert eval_report["error"]["overall"]["mean_pct"] < 10.0
    with open(eval_out / "error_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["walk_type"] == "all"
    assert (eval_out / "icc.json").exists()

    # A blank line between the two records gives the same report.
    walks = session_dir / "walks.jsonl"
    first, second = walks.read_text().splitlines(keepends=True)
    walks.write_text(first + "\n" + second)
    assert main(["evaluate", "--results", str(out), "--truth", str(sim_dir),
                 "--out", str(tmp_path / "blank")]) == 0
    assert (tmp_path / "blank" / "report.json").read_text() == (eval_out / "report.json").read_text()


def test_process_home_directory_mode(sim_dir, tmp_path):
    out = tmp_path / "home"
    code = main(
        ["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "home"
    assert report["n_measured"] == 2
    assert (out / "heatmap_living.csv").exists()


def test_process_clinic_without_walklog(sim_dir, tmp_path):
    # The sibling walklog is auto-discovered; moving the session away breaks it.
    session = sim_dir / "clinic_control-5.session.jsonl"
    lone = tmp_path / "lone.session.jsonl"
    lone.write_bytes(session.read_bytes())
    assert main(["process", "--input", str(lone), "--mode", "clinic",
                 "--out", str(tmp_path / "o")]) == 2


def test_walklog_flag_rejected(sim_dir, tmp_path, capsys):
    # A session's walk log is only ever the <stem>.walklog.json beside it.
    with pytest.raises(SystemExit) as exc:
        main(["process", "--input", str(sim_dir / "clinic_control-5.session.jsonl"),
              "--mode", "clinic", "--walklog", str(sim_dir / "clinic_control-5.walklog.json"),
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --walklog" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_clinic_batch_matches_each_session_to_its_own_walk_log(sim_dir, tmp_path):
    batch = tmp_path / "in"
    assert main(["simulate", "--scenario", "clinic_fast", "--seed", "9",
                 "--out", str(batch)]) == 0
    for name in ("session.jsonl", "walklog.json"):
        shutil.copy(sim_dir / f"clinic_control-5.{name}", batch)
    assert main(["process", "--input", str(batch), "--mode", "clinic",
                 "--out", str(tmp_path / "both")]) == 0
    for stem, walk_type, step in (("clinic_control-5", "control", 0.55),
                                  ("clinic_fast-9", "fast", 0.6525)):
        walks = (tmp_path / "both" / stem / "walks.jsonl").read_text()
        records = [json.loads(line) for line in walks.splitlines()]
        assert len(records) == 2
        assert {(r["walk_type"], r["reference_step_length"]) for r in records} == {
            (walk_type, step)}
        alone = tmp_path / stem
        assert main(["process", "--input", str(batch / f"{stem}.session.jsonl"),
                     "--mode", "clinic", "--out", str(alone)]) == 0
        assert (alone / stem / "walks.jsonl").read_text() == walks


def test_config_defaults_equivalence(sim_dir, tmp_path):
    # The README's config block is the documented copy of the defaults.
    readme = README.read_text(encoding="utf-8")
    block = readme.split("```toml\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.read_string(block)
    # A key left out of the block would silently fall back to its default.
    assert {name: sorted(parser[name]) for name in parser.sections()} == {
        name: sorted(section) for name, section in asdict(PipelineConfig()).items()
    }
    cfg_path = tmp_path / "defaults.toml"
    cfg_path.write_text(block)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    session = str(sim_dir / "home_radial-6.session.jsonl")
    assert main(["process", "--input", session, "--out", str(out_a)]) == 0
    assert main(["process", "--input", session, "--config", str(cfg_path),
                 "--out", str(out_b)]) == 0
    assert read_tree(out_a) == read_tree(out_b)
    config = json.loads((out_a / "report.json").read_text())["config"]
    assert sorted(config) == ["dbscan", "gait", "reporting", "segmenter", "tracker"]


def test_pipeline_section_rejected(sim_dir, tmp_path, capsys):
    # The frame rate lives only in each session header.
    cfg_path = tmp_path / "old.toml"
    cfg_path.write_text("[pipeline]\nframe_rate = 10.0\n")
    code = main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: config {str(cfg_path)!r}")
    assert "unknown section [pipeline]" in err


@pytest.mark.parametrize("line", ['distance_mode = "track_displacement"', 'peak_refine = "none"'])
def test_removed_gait_knobs_rejected(sim_dir, tmp_path, capsys, line):
    # One step rule: tracked-position distance between sample-time peaks.
    cfg_path = tmp_path / "old.toml"
    cfg_path.write_text(f"[gait]\n{line}\n")
    code = main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: config {str(cfg_path)!r}")
    assert f"unknown key [gait] {line.split()[0]}" in err


def test_nms_window_checked_against_each_session_header(tmp_path, capsys):
    # 0.15 s covers two frame intervals at 20 fps, not at 10 fps or 4 fps.
    cfg_path = tmp_path / "fast.toml"
    cfg_path.write_text("[gait]\nnms_window = 0.15\nmin_peak_gap = 0.1\n")
    session, _ = simulate(replace(make_scenario("home_radial", seed=6), frame_rate=20.0))
    fast = tmp_path / "fast.session.jsonl"
    write_session(session, fast)
    assert main(["process", "--input", str(fast), "--config", str(cfg_path),
                 "--out", str(tmp_path / "o20")]) == 0
    capsys.readouterr()

    slow = tmp_path / "slow.session.jsonl"
    slow.write_text('{"format":"gaitpipe-frames","version":1,"frame_rate":4.0,'
                    '"site":"home","room":"r","device":"d"}\n'
                    '{"t":0.0,"pts":[]}\n{"t":0.25,"pts":[]}\n')
    code = main(["process", "--input", str(slow), "--config", str(cfg_path),
                 "--out", str(tmp_path / "o4")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "slow.session.jsonl" in err and "4.0 fps" in err
    assert "Traceback" not in err


def test_bad_config_rejected(sim_dir, tmp_path, capsys):
    cfg_path = tmp_path / "bad.toml"
    cfg_path.write_text("[gait]\nmin_peak_gap = 0.2\nnms_window = 0.4\n")
    session = str(sim_dir / "home_radial-6.session.jsonl")
    assert main(["process", "--input", session, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 2
    cfg_path.write_text("[gait]\nunknown_knob = 1\n")
    assert main(["process", "--input", session, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o2")]) == 2
    # A '%' is text, not configparser interpolation syntax.
    cfg_path.write_text("[gait]\nz_torso = 5%\n")
    capsys.readouterr()
    assert main(["process", "--input", session, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o3")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {str(cfg_path)!r}") and "z_torso" in err
    # An infinite noise level would reach the Kalman filter as an exit-1 bug.
    cfg_path.write_text("[tracker]\nsigma_a = inf\n")
    assert main(["process", "--input", session, "--config", str(cfg_path),
                 "--out", str(tmp_path / "o4")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {str(cfg_path)!r}")
    assert "tracker.sigma_a must be finite and positive" in err


@pytest.mark.parametrize("key", ["sigma_a", "sigma_m"])
def test_noise_level_bounded(tmp_path, capsys, key):
    # At MAX_SIGMA the Kalman covariance stays finite across a gap of nearly
    # MAX_TIME_S, here 9.9e9 s in the middle of the first walk's track; past
    # it, sigma**2 could overflow, and process exits 2.
    sim, _ = simulate(make_scenario("home_radial", seed=6))
    frames = [(t + 9.9e9 * (t >= 4.0), pts) for t, pts in sim.frames]
    write_session(Session(sim.frame_rate, sim.site, sim.room_label, sim.device_id, frames),
                  tmp_path / "gap.session.jsonl")
    cfg_path = tmp_path / "c.toml"

    def process(value, out):
        cfg_path.write_text(f"[tracker]\n{key} = {value}\n")
        return main(["process", "--input", str(tmp_path / "gap.session.jsonl"), "--config",
                     str(cfg_path), "--out", str(tmp_path / out), "--dump-tracks"])

    assert process(MAX_SIGMA, "ok") == 0
    for artifact in (tmp_path / "ok").rglob("*"):
        if artifact.is_file():
            text = artifact.read_text()
            assert "NaN" not in text and "Infinity" not in text, artifact.name
    capsys.readouterr()
    assert process(1e300, "huge") == 2
    assert f"tracker.{key} must be at most" in capsys.readouterr().err


def test_tiny_noise_levels(tmp_path, capsys):
    # Both squares of 1e-300 underflow to 0, and the Kalman update divided
    # by an innovation variance of 0. At MIN_SIGMA_M the walk is tracked.
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "clinic_control", "--seed", "3",
                 "--out", str(sim)]) == 0
    cfg_path = tmp_path / "c.toml"

    def process(sigma_m, out):
        cfg_path.write_text(f"[tracker]\nsigma_a = 1e-300\nsigma_m = {sigma_m!r}\n")
        return main(["process", "--input", str(sim / "clinic_control-3.session.jsonl"),
                     "--config", str(cfg_path), "--out", str(tmp_path / out)])

    capsys.readouterr()
    assert process(1e-300, "tiny") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {str(cfg_path)!r}")
    assert "tracker.sigma_m must be at least 1e-150" in err and "Traceback" not in err
    assert process(MIN_SIGMA_M, "ok") == 0


@pytest.mark.filterwarnings("error")  # numpy's cast warning would fail the test
def test_heatmap_cell_bounded_per_room(tmp_path, capsys):
    # The grid's cell count is checked before the integer cast and before
    # allocating: 1e-300 would overflow the cast into a 1x1 grid, 1e-6
    # would ask for terabytes. Both are bad config, exit 2.
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "home_L_shape", "--seed", "4",
                 "--out", str(sim)]) == 0
    for cell in ("1e-300", "1e-6"):
        cfg_path = tmp_path / "tiny.toml"
        cfg_path.write_text(f"[reporting]\nheatmap_cell = {cell}\n")
        out = tmp_path / f"o{cell}"
        capsys.readouterr()
        code = main(["process", "--input", str(sim / "home_L_shape-4.session.jsonl"),
                     "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: reporting.heatmap_cell, room 'living'")
        assert "Traceback" not in err
        assert not (out / "heatmap_living.csv").exists()


def test_parameters_come_from_the_config_file(sim_dir, tmp_path):
    session = str(sim_dir / "home_radial-6.session.jsonl")
    cfg_path = tmp_path / "c.toml"

    def process(text, out):
        cfg_path.write_text(text)
        return main(["process", "--input", session, "--config", str(cfg_path),
                     "--out", str(tmp_path / out)])

    # An impossible alignment gate filters every segment out.
    assert process("[segmenter]\nmax_angle_deg = 0.001\n", "strict") == 0
    report = json.loads((tmp_path / "strict" / "report.json").read_text())
    assert report["n_walks"] == 0
    assert report["config"]["segmenter"]["max_angle_deg"] == 0.001

    assert process("[segmenter]\nrdp_epsilon = 0.8\nmin_length = 1.0\n"
                   "[gait]\nz_torso = 0.3\nmin_peak_gap = 0.35\n", "loose") == 0
    cfg = json.loads((tmp_path / "loose" / "report.json").read_text())["config"]
    assert cfg["segmenter"]["rdp_epsilon"] == 0.8
    assert cfg["segmenter"]["min_length"] == 1.0
    assert cfg["gait"]["z_torso"] == 0.3
    assert cfg["gait"]["min_peak_gap"] == 0.35

    assert process("[gait]\nmin_peak_gap = 0.1\n", "bad") == 2


def test_process_options(capsys):
    # Pipeline parameters have one source, the config file: no flag sets one.
    with pytest.raises(SystemExit) as exc:
        main(["process", "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--input", "--config", "--mode", "--out", "--jobs", "--dump-tracks"}


def test_parameter_flag_rejected(sim_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
              "--rdp-epsilon", "0.8", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rdp-epsilon 0.8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_artifacts_get_the_umask_mode(sim_dir, tmp_path, umask, mode):
    # Each artifact is renamed into place from a temp file made 0o600.
    out = tmp_path / "o"
    old = os.umask(umask)
    try:
        assert main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                     "--dump-tracks", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {str(p.relative_to(out)): stat.S_IMODE(p.stat().st_mode)
             for p in out.rglob("*") if p.is_file()}
    # Every artifact: one added outside BUNDLE_FILES would escape the sweep.
    names = [f"home_radial-6/{name}" for name in gaitpipe.cli.BUNDLE_FILES]
    assert modes == {name: mode for name in ["report.json", "heatmap_living.csv", *names]}


def test_rerun_without_dump_tracks_leaves_no_tracks(sim_dir, tmp_path):
    session = str(sim_dir / "home_radial-6.session.jsonl")
    out = tmp_path / "o"
    assert main(["process", "--input", session, "--dump-tracks", "--out", str(out)]) == 0
    assert (out / "home_radial-6" / "tracks.jsonl").is_file()
    assert main(["process", "--input", session, "--out", str(out)]) == 0
    assert main(["process", "--input", session, "--out", str(tmp_path / "fresh")]) == 0
    assert read_tree(out) == read_tree(tmp_path / "fresh")


@pytest.mark.parametrize("failure", ["input", "bug"])
def test_failed_rerun_leaves_no_earlier_bundle(sim_dir, tmp_path, capsys, monkeypatch, failure):
    inp = tmp_path / "in"
    inp.mkdir()
    for name in ("session.jsonl", "walklog.json"):
        shutil.copy(sim_dir / f"clinic_control-5.{name}", inp)
    session = inp / "clinic_control-5.session.jsonl"
    out = tmp_path / "o"
    args = ["process", "--input", str(session), "--mode", "clinic", "--dump-tracks",
            "--out", str(out)]
    assert main(args) == 0
    assert {p.name for p in (out / "clinic_control-5").iterdir()} == {
        "walks.jsonl", "segments.csv", "tracks.jsonl"}
    if failure == "input":
        with open(session, "a") as fh:
            fh.write("{bad\n")
    else:
        def broken(*args, **kwargs):
            raise ValueError("invariant violated")

        monkeypatch.setattr("gaitpipe.cli.process_session", broken)
    assert main(args) == {"input": 2, "bug": 1}[failure]
    # Nothing of the first run is left to be taken for this run's result.
    assert sorted(p.name for p in out.rglob("*") if p.is_file()) == ["report.json"]
    report = json.loads((out / "report.json").read_text())
    assert report["n_walks"] == 0 and "error" in report["sessions"]["clinic_control-5"]
    capsys.readouterr()
    assert main(["evaluate", "--results", str(out), "--truth", str(sim_dir),
                 "--out", str(tmp_path / "ev")]) == 2
    assert f"no walks.jsonl files under {out}" in capsys.readouterr().err


def test_rerun_keeps_only_its_own_rooms_heatmaps(sim_dir, tmp_path):
    out = tmp_path / "o"
    assert main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                 "--out", str(out)]) == 0
    assert (out / "heatmap_living.csv").is_file()
    assert main(["process", "--input", str(sim_dir / "clinic_control-5.session.jsonl"),
                 "--mode", "clinic", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("heatmap_*.csv")) == ["heatmap_walkway.csv"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_rerun_tree_equals_a_fresh_run(sim_dir, tmp_path, jobs):
    # Run A then run B into one --out leaves the tree run B leaves in an
    # empty one, whatever run A wrote there.
    living, walkway = (sim_dir / f"{stem}.session.jsonl" for stem in
                       ("home_radial-6", "clinic_control-5"))
    a, b = living.read_text(), walkway.read_text()
    cases = {  # name: (run A's sessions, its flags, run B's sessions)
        "b_dropped": ({"a": a, "b": b}, [], {"a": a}),
        "tracks_then_none": ({"a": a, "b": b}, ["--dump-tracks"], {"a": a, "b": b}),
        "b_fails": ({"a": a, "b": b}, [], {"a": a, "b": b + "{bad\n"}),
        "room_change": ({"a": a, "b": b}, [], {"a": b, "b": b}),
    }
    for case, (first, flags, second) in cases.items():
        runs = {}
        for run, sessions in (("A", first), ("B", second)):
            runs[run] = tmp_path / case / run
            runs[run].mkdir(parents=True)
            for stem, text in sessions.items():
                (runs[run] / f"{stem}.session.jsonl").write_text(text)
        out, fresh = tmp_path / case / "out", tmp_path / case / "fresh"
        assert main(["process", "--input", str(runs["A"]), *flags, "--jobs", jobs,
                     "--out", str(out)]) == 0
        codes = {main(["process", "--input", str(runs["B"]), "--jobs", jobs, "--out", str(o)])
                 for o in (out, fresh)}
        assert len(codes) == 1, case
        assert read_tree(out) == read_tree(fresh), case


def test_evaluate_counts_only_the_last_runs_sessions(sim_dir, tmp_path, capsys):
    inp = tmp_path / "in"
    inp.mkdir()
    for name in ("session.jsonl", "walklog.json", "truth.jsonl"):
        shutil.copy(sim_dir / f"clinic_control-5.{name}", inp)
    assert main(["simulate", "--scenario", "clinic_fast", "--seed", "9", "--n-walks", "2",
                 "--out", str(inp)]) == 0
    out = tmp_path / "o"
    args = ["process", "--input", str(inp), "--mode", "clinic", "--out", str(out)]
    assert main(args) == 0
    for path in inp.glob("clinic_fast-9.*"):
        path.unlink()
    assert main(args) == 0
    capsys.readouterr()
    assert main(["evaluate", "--results", str(out), "--truth", str(inp),
                 "--out", str(tmp_path / "ev")]) == 0
    assert capsys.readouterr().out.startswith("evaluated 2 measured walks (detection 2/2);")


def test_run_failing_at_the_heatmaps_leaves_no_report(sim_dir, tmp_path, capsys):
    session = str(sim_dir / "home_radial-6.session.jsonl")
    out = tmp_path / "o"
    assert main(["process", "--input", session, "--out", str(out)]) == 0
    cfg_path = tmp_path / "tiny.toml"
    cfg_path.write_text("[reporting]\nheatmap_cell = 1e-6\n")
    assert main(["process", "--input", session, "--config", str(cfg_path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: reporting.heatmap_cell, room 'living'")
    assert not (out / "report.json").exists()
    assert list(out.glob("heatmap_*.csv")) == []


def test_rerun_leaves_files_process_does_not_write(sim_dir, tmp_path):
    inp = tmp_path / "in"
    inp.mkdir()
    for stem in ("home_radial-6", "clinic_control-5"):
        shutil.copy(sim_dir / f"{stem}.session.jsonl", inp)
    out = tmp_path / "o"
    assert main(["process", "--input", str(inp), "--out", str(out)]) == 0
    foreign = {"notes.txt": b"root\n", "clinic_control-5/notes.txt": b"stem\n"}
    for name, data in foreign.items():
        (out / name).write_bytes(data)
    (out / "empty").mkdir()
    (inp / "clinic_control-5.session.jsonl").unlink()
    assert main(["process", "--input", str(inp), "--out", str(out)]) == 0
    assert main(["process", "--input", str(inp), "--out", str(tmp_path / "fresh")]) == 0
    assert read_tree(out) == {**read_tree(tmp_path / "fresh"), **foreign}
    assert (out / "empty").is_dir()


@pytest.mark.parametrize("name,message", [("missing", "input {} does not exist"),
                                          ("empty", "no session files found in {}")])
def test_process_input_without_session_files_exit_2(tmp_path, capsys, name, message):
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "a.truth.jsonl").write_text("{}\n")  # never taken for a session
    path = tmp_path / name
    assert main(["process", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path)}\n"
    assert not (tmp_path / "o").exists()


def test_directory_sessions_are_session_jsonl_files(sim_dir, tmp_path, capsys):
    # In a directory only *.session.jsonl files are sessions; a file named
    # on its own is one whatever its name.
    inp = tmp_path / "in"
    inp.mkdir()
    shutil.copy(sim_dir / "home_radial-6.session.jsonl", inp / "a.jsonl")
    assert main(["process", "--input", str(inp), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: no session files found in {inp}\n"
    assert not (tmp_path / "o").exists()
    out = tmp_path / "one"
    assert main(["process", "--input", str(inp / "a.jsonl"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["sessions"]) == ["a"] and report["n_measured"] == 2


def test_malformed_session_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.session.jsonl"
    header = ('{"format":"gaitpipe-frames","version":1,"frame_rate":10.0,'
              '"site":"home","room":"r","device":"d"}\n')
    # A frame without points, a frame time past the float range, and JSON
    # booleans and strings where numbers belong.
    for frame, field in (('{"t":0.1}', "'t'"), ('{"t":1%s,"pts":[]}' % ("0" * 400), "t 1"),
                         ('{"t":true,"pts":[]}', "t True"), ('{"t":"2.5","pts":[]}', "t '2.5'"),
                         ('{"t":0.1,"pts":[[true,2,0,0.5]]}', "entry [True, 2, 0, 0.5]"),
                         ('{"t":0.1,"pts":[[true,"2",0,0.5]]}', "entry [True, '2', 0, 0.5]")):
        bad.write_text(header + frame + "\n")
        assert main(["process", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "line 2" in err and field in err


_ENTRY = {"participant": "p1", "walk_index": 0, "walk_type": "control", "t_start": 1.0}


@pytest.mark.parametrize(
    "walklog,field",
    [
        ({"format": "gaitpipe-walklog", "entries": [{**_ENTRY, "t_start": None}]}, "t_start"),
        ({"format": "gaitpipe-walklog",
          "entries": [{k: v for k, v in _ENTRY.items() if k != "t_start"}]}, "t_start"),
        ([{"format": "gaitpipe-walklog"}], "not a walk log"),
        ({"format": "gaitpipe-walklog", "entries": {"0": _ENTRY}}, "entries"),
        ({"format": "gaitpipe-walklog", "entries": [{**_ENTRY, "walk_index": [0]}]}, "walk_index"),
        ({"format": "gaitpipe-walklog", "entries": [_ENTRY], "g_s": "far"}, "g_s"),
        ({"format": "gaitpipe-walklog", "entries": [3]}, "entry 0"),
        ("not json", "JSONDecodeError"),
        ({"format": "gaitpipe-walklog", "entries": [{**_ENTRY, "t_start": 10**400}]},
         "entry 0: 't_start'"),
        ({"format": "gaitpipe-walklog", "entries": [{**_ENTRY, "t_start": True}]},
         "entry 0: 't_start'"),
        ({"format": "gaitpipe-walklog", "entries": [{**_ENTRY, "walk_index": 2.7}]},
         "entry 0: 'walk_index'"),
        ({"format": "gaitpipe-walklog", "entries": [_ENTRY, {**_ENTRY, "walk_type": "jog"}]},
         "entry 1: 'walk_type'"),
    ],
    ids=["null_value", "missing_key", "top_level_list", "entries_not_list",
         "non_numeric_index", "bad_walkway", "entry_not_object", "not_json",
         "t_start_past_float_range", "t_start_bool", "fractional_index", "unknown_walk_type"],
)
def test_malformed_walklog_exit_2(sim_dir, tmp_path, capsys, walklog, field):
    session = tmp_path / "bad.session.jsonl"
    shutil.copy(sim_dir / "clinic_control-5.session.jsonl", session)
    path = tmp_path / "bad.walklog.json"
    path.write_text(walklog if isinstance(walklog, str) else json.dumps(walklog))
    code = main(["process", "--input", str(session), "--mode", "clinic",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(path) in err and field in err


def test_clinic_participants_sharing_a_walk_index(sim_dir, tmp_path):
    # P02's walk 0 starts after every segment is taken, so it is logged but
    # not matched; P01's walk 0 keeps its segment. The bytes are pinned.
    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(sim_dir / "clinic_control-5.session.jsonl", batch)
    log = json.loads((sim_dir / "clinic_control-5.walklog.json").read_text())
    log["entries"].append({**log["entries"][0], "participant": "P02", "t_start": 500.0})
    (batch / "clinic_control-5.walklog.json").write_text(json.dumps(log))
    out = tmp_path / "out"
    assert main(["process", "--input", str(batch), "--mode", "clinic", "--out", str(out)]) == 0
    walks = (out / "clinic_control-5" / "walks.jsonl").read_bytes()
    records = [json.loads(line) for line in walks.splitlines()]
    assert [(r["walk_index"], r["matched"]) for r in records] == [(0, False), (0, True), (1, True)]
    assert hashlib.sha256(walks).hexdigest() == (
        "46b845beef31b6a4aaa6499f13e174dfce8788dd8ed0d37290e7e9fb10dda9e8")


def test_session_frame_rate_too_low_for_nms_window_exit_2(tmp_path, capsys):
    # At 4 fps two frame intervals are 0.5 s, more than the default 0.4 s window.
    path = tmp_path / "slow.session.jsonl"
    path.write_text('{"format":"gaitpipe-frames","version":1,"frame_rate":4.0,'
                    '"site":"home","room":"r","device":"d"}\n'
                    '{"t":0.0,"pts":[]}\n{"t":0.25,"pts":[]}\n')
    code = main(["process", "--input", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "slow.session.jsonl" in err and "4.0 fps" in err


def test_value_error_inside_pipeline_exits_1(sim_dir, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("invariant violated")

    monkeypatch.setattr("gaitpipe.cli.process_session", broken)
    code = main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                 "--jobs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("internal error: ValueError")


def test_bug_outside_a_session_prints_traceback(sim_dir, tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr("gaitpipe.cli._collect_sessions", broken)
    code = main(["process", "--input", str(sim_dir), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("internal error: RuntimeError: invariant violated\nTraceback")


def _abc_sessions(sim_dir: Path, root: Path) -> Path:
    """Good sessions a and c around a session b whose line 2 is not JSON."""
    good = (sim_dir / "home_radial-6.session.jsonl").read_text().splitlines(keepends=True)
    root.mkdir()
    (root / "a.session.jsonl").write_text("".join(good))
    (root / "b.session.jsonl").write_text("".join([good[0], "{bad\n"] + good[2:]))
    (root / "c.session.jsonl").write_text("".join(good))
    return root


def test_bad_session_does_not_stop_batch(sim_dir, tmp_path, capsys):
    sessions = _abc_sessions(sim_dir, tmp_path / "in")
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        code = main(["process", "--input", str(sessions), "--jobs", jobs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: session ") and "b.session.jsonl" in err
        assert "line 2" in err and "Traceback" not in err
        trees.append(read_tree(out))
    assert trees[0] == trees[1]
    assert {name.split("/")[0] for name in trees[0]} == {"a", "c", "heatmap_living.csv",
                                                         "report.json"}

    report = json.loads(trees[0]["report.json"])
    failed = report["sessions"]["b"]
    assert failed["exit_code"] == 2 and "b.session.jsonl" in failed["error"]
    assert sorted(failed) == ["error", "exit_code", "file"]
    assert failed["file"] == str(sessions / "b.session.jsonl")
    # Totals count only the sessions that succeeded.
    one = report["sessions"]["a"]
    assert report["sessions"]["c"] == one
    assert report["n_walks"] == 2 * one["n_walks"]


def test_bug_in_batch_outranks_bad_input(sim_dir, tmp_path, capsys, monkeypatch):
    from gaitpipe import cli

    def broken_for_c(session, *args, **kwargs):
        calls.append(session)
        if len(calls) == 2:  # a, then c: b fails before it gets here
            raise ValueError("invariant violated")
        return real(session, *args, **kwargs)

    calls, real = [], cli.process_session
    monkeypatch.setattr("gaitpipe.cli.process_session", broken_for_c)
    out = tmp_path / "out"
    code = main(["process", "--input", str(_abc_sessions(sim_dir, tmp_path / "in")),
                 "--out", str(out)])
    text = capsys.readouterr().err
    err = text.splitlines()
    assert code == 1
    assert err[0].startswith("error: session ") and "b.session.jsonl" in err[0]
    assert err[1] == "internal error: ValueError: invariant violated"
    # The bug keeps its traceback on stderr, which names the raising function.
    assert "Traceback" in text and "broken_for_c" in text
    sessions = json.loads((out / "report.json").read_text())["sessions"]
    assert sessions["c"] == {"error": "ValueError: invariant violated", "exit_code": 1,
                             "file": str(tmp_path / "in" / "c.session.jsonl")}
    assert "n_walks" in sessions["a"]


def test_room_label_cannot_escape_out(tmp_path, capsys):
    rt = tmp_path / "rt2"
    rt.mkdir()
    path = rt / "heatmap_q.session.jsonl"
    path.write_text('{"format":"gaitpipe-frames","version":1,"frame_rate":10.0,'
                    '"site":"home","room":"q/../../escaped","device":"d"}\n'
                    '{"t":0.0,"pts":[]}\n')
    code = main(["process", "--input", str(path), "--out", str(rt / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and "room" in err
    outside = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                     if p.is_file() and rt / "out" not in p.parents)
    assert outside == ["rt2/heatmap_q.session.jsonl"]

    # A room too long for its heatmap's file name (over 255 bytes), or one
    # that no file name can encode (a lone surrogate), fails only its own
    # session: the batch still writes the rest and the report.
    batch = tmp_path / "batch"
    batch.mkdir()
    text = path.read_text()
    (batch / "long.session.jsonl").write_text(text.replace("q/../../escaped", "q" * 401))
    (batch / "odd.session.jsonl").write_text(text.replace("q/../../escaped", "q\\ud800"))
    (batch / "ok.session.jsonl").write_text(text.replace("q/../../escaped", "q"))
    code = main(["process", "--input", str(batch), "--out", str(batch / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(batch / "long.session.jsonl") in err and "line 1: room" in err
    assert str(batch / "odd.session.jsonl") in err
    sessions = json.loads((batch / "out" / "report.json").read_text())["sessions"]
    assert sessions["long"]["exit_code"] == 2 and sessions["odd"]["exit_code"] == 2
    assert "n_walks" in sessions["ok"]
    assert (batch / "out" / "heatmap_q.csv").is_file()


def test_session_stem_cannot_escape_out(sim_dir, tmp_path, capsys):
    # A stem of "..", "." or "" would put the bundle beside or above --out.
    batch = tmp_path / "batch"
    batch.mkdir()
    names = ["...session.jsonl", "..session.jsonl", ".session.jsonl", "ok.session.jsonl"]
    for name in names:
        shutil.copy(sim_dir / "home_radial-6.session.jsonl", batch / name)
    out = batch / "out"
    assert main(["process", "--input", str(batch), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(str(batch / name) in err for name in names[:3])
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                  if p.is_file() and out not in p.parents) == sorted(f"batch/{n}" for n in names)
    sessions = json.loads((out / "report.json").read_text())["sessions"]
    assert {stem: s.get("exit_code") for stem, s in sessions.items()} == {
        "..": 2, ".": 2, "": 2, "ok": None}


def test_session_stem_cannot_take_a_root_artifact_name(sim_dir, tmp_path, capsys):
    # A bundle directory named report.json or heatmap_<room>.csv would stand
    # where the run writes its report and that room's heatmap.
    batch = tmp_path / "batch"
    batch.mkdir()
    names = ["report.json.session.jsonl", "heatmap_living.csv.session.jsonl", "ok.session.jsonl"]
    for name in names:
        shutil.copy(sim_dir / "home_radial-6.session.jsonl", batch / name)
    out = tmp_path / "out"
    assert main(["process", "--input", str(batch), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(str(batch / name) in err for name in names[:2])
    sessions = json.loads((out / "report.json").read_text())["sessions"]
    assert {stem: s.get("exit_code") for stem, s in sessions.items()} == {
        "report.json": 2, "heatmap_living.csv": 2, "ok": None}
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
        "heatmap_living.csv", "ok", "ok/segments.csv", "ok/walks.jsonl", "report.json"]


def test_zero_walk_home_session_is_success(tmp_path):
    assert main(["simulate", "--scenario", "home_perpendicular", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "proc"
    code = main(["process", "--input",
                 str(tmp_path / "home_perpendicular-3.session.jsonl"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_walks"] == 0


def test_huge_coordinate_is_dropped_not_an_internal_error(tmp_path, capsys):
    # A finite 1e200 next to another point once overflowed the tracker's
    # squared distances; the reader now drops it as out of range.
    session = tmp_path / "far.session.jsonl"
    session.write_text(
        '{"format":"gaitpipe-frames","version":1,"frame_rate":10.0,'
        '"site":"home","room":"r","device":"d"}\n'
        '{"t":0.1,"pts":[[1e200,1,0,0.5],[0,1,0,0.5]]}\n'
    )
    out = tmp_path / "proc"
    assert main(["process", "--input", str(session), "--out", str(out)]) == 0
    assert "internal error" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["sessions"]["far"]["dropped_points"] == 1


def test_repeat_runs_byte_identical(tmp_path):
    trees = []
    for run in ("r1", "r2"):
        sim = tmp_path / run / "sim"
        proc = tmp_path / run / "proc"
        ev = tmp_path / run / "eval"
        assert main(["simulate", "--scenario", "clinic_control", "--seed", "11",
                     "--n-walks", "1", "--out", str(sim)]) == 0
        assert main(["process", "--input", str(sim), "--mode", "clinic",
                     "--out", str(proc)]) == 0
        assert main(["evaluate", "--results", str(proc), "--truth", str(sim),
                     "--out", str(ev)]) == 0
        trees.append(read_tree(tmp_path / run))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_2(sim_dir, tmp_path, capsys, jobs):
    assert main(["process", "--input", str(sim_dir), "--jobs", jobs,
                 "--out", str(tmp_path / "o")]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_jobs_capped_at_session_files(sim_dir, tmp_path, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(gaitpipe.cli, "ProcessPoolExecutor", RecordingPool)
    one = sim_dir / "home_radial-6.session.jsonl"
    assert main(["process", "--input", str(one), "--jobs", "100000000",
                 "--out", str(tmp_path / "one")]) == 0
    assert pools == []  # one file runs in the calling process
    assert main(["process", "--input", str(sim_dir), "--jobs", "100000000",
                 "--out", str(tmp_path / "all")]) == 0
    assert pools == [2]


def test_parallel_jobs_match_serial(sim_dir, tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["process", "--input", str(sim_dir), "--out", str(serial)]) == 0
    assert main(["process", "--input", str(sim_dir), "--jobs", "2",
                 "--out", str(parallel)]) == 0
    assert read_tree(serial) == read_tree(parallel)


def test_evaluate_reference_self_join(sim_dir, tmp_path):
    proc = tmp_path / "proc"
    assert main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                 "--out", str(proc)]) == 0
    walks = [
        json.loads(line)
        for line in (proc / "home_radial-6" / "walks.jsonl").read_text().splitlines()
    ]
    ref_csv = tmp_path / "ref.csv"
    with open(ref_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "reference_m"])
        for i, w in enumerate(walks):
            writer.writerow([f"home_radial-6/{i}", w["avg_step_len_m"]])
    ev = tmp_path / "ev"
    assert main(["evaluate", "--results", str(proc), "--reference", str(ref_csv),
                 "--out", str(ev)]) == 0
    report = json.loads((ev / "report.json").read_text())
    assert report["error"]["overall"]["mean_cm"] == 0.0

    # Missing join key: drop a row.
    with open(ref_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "reference_m"])
        writer.writerow(["home_radial-6/0", walks[0]["avg_step_len_m"]])
    assert main(["evaluate", "--results", str(proc), "--reference", str(ref_csv),
                 "--out", str(ev)]) == 2


def test_evaluate_requires_one_source(tmp_path):
    assert main(["evaluate", "--results", str(tmp_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("sessions", [[], ["s"]], ids=["empty", "session_without_walks"])
def test_evaluate_results_without_walks_exit_2(tmp_path, capsys, sessions):
    results = tmp_path / "results"
    results.mkdir()
    for stem in sessions:
        (results / stem).mkdir()
    assert main(["evaluate", "--results", str(results), "--truth", str(tmp_path),
                 "--out", str(tmp_path / "ev")]) == 2
    assert capsys.readouterr().err == f"error: no walks.jsonl files under {results}\n"
    assert not (tmp_path / "ev").exists()


def test_evaluate_missing_truth_file(sim_dir, tmp_path):
    proc = tmp_path / "proc"
    assert main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                 "--out", str(proc)]) == 0
    empty_truth = tmp_path / "no_truth"
    empty_truth.mkdir()
    assert main(["evaluate", "--results", str(proc), "--truth", str(empty_truth),
                 "--out", str(tmp_path / "ev")]) == 2


_TRUTH = '{"format": "gaitpipe-truth", "walkers": [%s]}'


@pytest.mark.parametrize(
    "header,field",
    [
        ("not json", "JSONDecodeError"),
        ('{"format": "other"}', "not a ground-truth file"),
        ("[1, 2]", "not a ground-truth file"),
        (_TRUTH % '{"t_end": 99.0, "true_step_length": 0.6}', "t_start"),
        (_TRUTH % '{"t_start": 0.0, "t_end": 99.0}', "true_step_length"),
        (_TRUTH % ('{"t_start": 0.0, "t_end": 99.0, "true_step_length": 1%s}' % ("0" * 400)),
         "walker 0: 'true_step_length'"),
        (_TRUTH % '{"t_start": 0.0, "t_end": 99.0, "true_step_length": true}',
         "walker 0: 'true_step_length'"),
    ],
    ids=["not_json", "other_format", "not_object", "walker_no_t_start", "walker_no_step_length",
         "step_length_past_float_range", "step_length_bool"],
)
def test_evaluate_malformed_truth_exit_2(sim_dir, tmp_path, capsys, header, field):
    proc = tmp_path / "proc"
    assert main(["process", "--input", str(sim_dir / "home_radial-6.session.jsonl"),
                 "--out", str(proc)]) == 0
    truth = tmp_path / "truth"
    truth.mkdir()
    path = truth / "home_radial-6.truth.jsonl"
    path.write_text(header + "\n")
    capsys.readouterr()
    code = main(["evaluate", "--results", str(proc), "--truth", str(truth),
                 "--out", str(tmp_path / "ev")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(path) in err and field in err


def _results_tree(root: Path, *records: dict) -> Path:
    (root / "results" / "s").mkdir(parents=True)
    lines = [json.dumps(r) if isinstance(r, dict) else r for r in records]
    (root / "results" / "s" / "walks.jsonl").write_text("\n".join(lines) + "\n")
    return root / "results"


_WALK = {"walk_type": "control", "t_start": 2.0, "avg_step_len_m": 0.55}


@pytest.mark.parametrize(
    "line,field",
    [("{bad", "invalid JSON"), ("[1]", "expected a JSON object"),
     (json.dumps({**_WALK, "avg_step_len_m": "far"}), "avg_step_len_m"),
     (json.dumps({**_WALK, "walk_type": ["control"]}), "walk_type"),
     (json.dumps({**_WALK, "avg_step_len_m": 10**400}), "avg_step_len_m"),
     (json.dumps({**_WALK, "avg_step_len_m": True}), "avg_step_len_m")],
    ids=["not_json", "not_object", "non_numeric_estimate", "walk_type_list",
         "estimate_past_float_range", "estimate_bool"],
)
def test_evaluate_malformed_walks_exit_2(tmp_path, capsys, line, field):
    results = _results_tree(tmp_path, _WALK, line)
    ref = tmp_path / "ref.csv"
    ref.write_text("key,reference_m\ns/0,0.55\ns/1,0.55\n")
    code = main(["evaluate", "--results", str(results), "--reference", str(ref),
                 "--out", str(tmp_path / "ev")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(results / "s" / "walks.jsonl") in err and "line 2" in err and field in err


def test_evaluate_with_no_measured_walk_reports_no_mean(tmp_path, capsys):
    # A walk without an estimate counts for detection only.
    results = _results_tree(tmp_path, {**_WALK, "avg_step_len_m": None})
    ref = tmp_path / "ref.csv"
    ref.write_text("key,reference_m\ns/0,0.55\n")
    out = tmp_path / "ev"
    assert main(["evaluate", "--results", str(results), "--reference", str(ref),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ("evaluated 0 measured walks (detection 0/1); "
                                       "no walk was measured, so no mean error\n")
    report = json.loads((out / "report.json").read_text())
    assert report["n_pairs"] == 0
    assert report["error"] == {"by_type": {}, "overall": {
        "n": 0, "mean_cm": None, "sd_cm": None, "mean_pct": None, "sd_pct": None}}
    assert (report["detection"]["detected"], report["detection"]["total"]) == (0, 1)
    assert (out / "error_table.csv").read_text() == (
        "walk_type,n,mean_cm,sd_cm,mean_pct,sd_pct\nall,0,,,,\n")
    assert not (out / "icc.json").exists()


def test_evaluate_rerun_with_one_measured_walk_removes_icc(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("key,reference_m\ns/0,0.55\ns/1,0.55\n")
    out = tmp_path / "ev"
    two = _results_tree(tmp_path / "two", _WALK, {**_WALK, "avg_step_len_m": 0.6})
    assert main(["evaluate", "--results", str(two), "--reference", str(ref),
                 "--out", str(out)]) == 0
    assert (out / "icc.json").is_file()
    one = _results_tree(tmp_path / "one", _WALK)
    assert main(["evaluate", "--results", str(one), "--reference", str(ref),
                 "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["n_pairs"] == 1
    assert not (out / "icc.json").exists()


def _evaluate_two_walks(tmp_path, source, first, second):
    """evaluate walks s/0 and s/1 with references `first` and `second` from `source`.

    Returns the exit code, the file named as the source, and the output
    directory.
    """
    walks = [_WALK, {**_WALK, "t_start": 20.0, "avg_step_len_m": 0.6}]
    if source == "walks":
        walks = [{**w, "reference_step_length": r} for w, r in zip(walks, (first, second))]
    results = _results_tree(tmp_path, *walks)
    truth = tmp_path / "truth"
    truth.mkdir()
    (truth / "s.truth.jsonl").write_text(json.dumps(
        {"format": "gaitpipe-truth",
         "walkers": [{"t_start": 2.0, "t_end": 9.0, "true_step_length": first},
                     {"t_start": 20.0, "t_end": 29.0, "true_step_length": second}]}) + "\n")
    ref = tmp_path / "ref.csv"
    ref.write_text(f"key,reference_m\ns/0,{first!r}\ns/1,{second!r}\n")
    named = {"truth": truth / "s.truth.jsonl", "reference": ref,
             "walks": results / "s" / "walks.jsonl"}[source]
    how = ["--reference", str(ref)] if source == "reference" else ["--truth", str(truth)]
    out = tmp_path / "ev"
    code = main(["evaluate", "--results", str(results), *how, "--out", str(out)])
    return code, named, out


@pytest.mark.parametrize("value", [0, -0.5])
@pytest.mark.parametrize("source", ["truth", "reference", "walks"])
def test_evaluate_non_positive_reference_exit_2(tmp_path, capsys, source, value):
    code, named, _ = _evaluate_two_walks(tmp_path, source, value, 0.55)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(named) in err and "s/0" in err


@pytest.mark.parametrize("first,second,walk", [(1e300, 2e300, "s/0"), (1e308, 1.7e308, "s/0"),
                                               (0.5, 1e300, "s/1"), (1e-310, 0.5, "s/0")])
@pytest.mark.parametrize("source", ["truth", "reference", "walks"])
def test_evaluate_reference_out_of_range_exit_2(tmp_path, capsys, source, first, second, walk):
    # Finite but huge (or tiny) references overflowed the errors and the ICC
    # into NaN and Infinity; now the first one out of range names its walk.
    code, named, out = _evaluate_two_walks(tmp_path, source, first, second)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(named) in err and f"walk {walk} " in err
    assert "not in [0.001, 1000] m" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["truth", "reference", "walks"])
def test_evaluate_references_at_the_bounds_stay_finite(tmp_path, capsys, source):
    code, _, out = _evaluate_two_walks(tmp_path, source, 1e-3, 1000.0)
    assert code == 0
    for name in ("report.json", "icc.json", "error_table.csv"):
        text = (out / name).read_text()
        assert "NaN" not in text and "Infinity" not in text and "inf" not in text, name
    assert capsys.readouterr().err == ""


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_evaluate_undefined_icc_is_null(tmp_path, capsys):
    # Estimates 0.55, 0.6 against references 0.6, 0.55: the ICC denominators
    # are 0, which raised ZeroDivisionError after report.json was written.
    code, _, out = _evaluate_two_walks(tmp_path, "reference", 0.6, 0.55)
    assert code == 0 and capsys.readouterr().err == ""
    icc = _strict_json((out / "icc.json").read_text())["est_vs_ref"]
    assert icc["icc3k"]["icc"] is None and icc["icc3k"]["ci95"] == [None, None]


@pytest.mark.parametrize("estimate", [1e300, -1.7e308, 1000.5])
def test_evaluate_huge_estimate_exit_2(tmp_path, capsys, estimate):
    results = _results_tree(tmp_path, _WALK, {**_WALK, "avg_step_len_m": estimate})
    ref = tmp_path / "ref.csv"
    ref.write_text("key,reference_m\ns/0,0.55\ns/1,0.55\n")
    code = main(["evaluate", "--results", str(results), "--reference", str(ref),
                 "--out", str(tmp_path / "ev")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(results / "s" / "walks.jsonl") in err and "walk s/1 " in err
    assert "beyond 1000 m" in err and not (tmp_path / "ev").exists()


@pytest.mark.parametrize(
    "text,field",
    [("id,ref\ns/0,0.55\n", "'key' and 'reference_m' columns"),
     ("key,reference_m\ns/0,far\n", "far"),
     ("key,reference_m\ns/0\n", "could not convert")],
    ids=["wrong_columns", "non_numeric", "short_row"],
)
def test_evaluate_malformed_reference_csv_exit_2(tmp_path, capsys, text, field):
    results = _results_tree(tmp_path, _WALK)
    ref = tmp_path / "ref.csv"
    ref.write_text(text)
    code = main(["evaluate", "--results", str(results), "--reference", str(ref),
                 "--out", str(tmp_path / "ev")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: reference csv") and str(ref) in err and field in err


def test_cli_import_leaves_out_scipy_stats():
    # F quantiles come from scipy.special; scipy.stats would add about
    # 20 MB and 0.4 s to every command's start-up.
    src = str(Path(gaitpipe.__file__).resolve().parents[1])
    probe = ("import sys, gaitpipe.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_process_loads_the_assignment_solver_only_for_two_people(sim_dir, tmp_path):
    # One person never makes an assignment bigger than 1x1, so a clinic
    # session runs without scipy.optimize (about 11 MB); two residents need it.
    assert main(["simulate", "--scenario", "two_residents", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    src = str(Path(gaitpipe.__file__).resolve().parents[1])
    probe = ("import sys\n"
             "from gaitpipe.cli import main\n"
             "seen = ['scipy.optimize' in sys.modules]\n"
             "for path, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
             "    code = main(['process', '--input', path, '--out', out])\n"
             "    seen.append((code, 'scipy.optimize' in sys.modules))\n"
             "print(seen)\n")
    argv = [str(sim_dir / "clinic_control-5.session.jsonl"), str(tmp_path / "clinic"),
            str(tmp_path / "two_residents-1.session.jsonl"), str(tmp_path / "home")]
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.splitlines()[-1] == "[False, (0, False), (0, True)]"


def test_icc_command(tmp_path, capsys):
    rng = np.random.default_rng(4)
    matrix = rng.normal(0.6, 0.1, size=(10, 2))
    csv_path = tmp_path / "matrix.csv"
    np.savetxt(csv_path, matrix, delimiter=",")
    out_path = tmp_path / "icc.json"
    assert main(["icc", "--matrix", str(csv_path), "--out", str(out_path)]) == 0
    result = json.loads(out_path.read_text())
    assert result["icc2k"]["icc"] == pytest.approx(icc2k(matrix).icc)
    assert result["icc3k"]["icc"] == pytest.approx(icc3k(matrix).icc)
    assert result["icc2k"]["n_subjects"] == 10

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["icc", "--matrix", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("huge", ["1e300", "1.7e308"])
def test_icc_huge_ratings_exit_2(tmp_path, capsys, huge):
    # These ratings are finite, but their squares overflowed to an ICC of NaN.
    path = tmp_path / "huge.csv"
    path.write_text(f"0.5,0.6\n-{huge},{huge}\n{huge},-{huge}\n")
    out = tmp_path / "icc.json"
    assert main(["icc", "--matrix", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: ratings matrix {str(path)!r}")
    assert "at most 1e+100 in magnitude; row 2 is" in captured.err
    assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


@pytest.mark.parametrize("rows,model", [
    pytest.param("1,2\n2,1\n", "icc2k", id="zero_icc2_denominator"),
    pytest.param("0.5,0.6\n0.6,0.5\n0.55,0.55\n", "icc3k", id="zero_msr"),
    pytest.param("0.368,-0.496\n0.370,-0.497\n0.370,-0.498\n", "icc2k", id="ci_not_finite"),
])
def test_icc_undefined_values_are_null(tmp_path, capsys, rows, model):
    path = tmp_path / "m.csv"
    path.write_text(rows)
    out = tmp_path / "icc.json"
    assert main(["icc", "--matrix", str(path), "--out", str(out)]) == 0
    printed = _strict_json(capsys.readouterr().out)
    assert _strict_json(out.read_text()) == printed
    assert printed[model]["ci95"] == [None, None]


def test_write_error_names_the_artifact(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0.5,0.6\n0.7,0.65\n0.4,0.5\n")
    out = tmp_path / "nodir" / "x.json"
    assert main(["icc", "--matrix", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2]") and repr(str(out)) in err and ".tmp-" not in err
