import configparser
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import gaitpipe
from gaitpipe.cli import main
from gaitpipe.config import PipelineConfig
from gaitpipe.pointcloud import write_session
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


@pytest.mark.parametrize("period", ["0", "nan"])
def test_simulate_bad_step_period_exit_2(tmp_path, capsys, period):
    assert main(["simulate", "--scenario", "clinic_control", "--step-period", period,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "step_period must be positive" in err and "Traceback" not in err


def test_process_clinic_and_evaluate(sim_dir, tmp_path):
    out = tmp_path / "proc"
    code = main(
        [
            "process",
            "--input", str(sim_dir / "clinic_control-5.session.jsonl"),
            "--mode", "clinic",
            "--walklog", str(sim_dir / "clinic_control-5.walklog.json"),
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


def test_parameter_override_flags(sim_dir, tmp_path):
    session = str(sim_dir / "home_radial-6.session.jsonl")
    out = tmp_path / "strict"
    # An impossible alignment gate filters every segment out.
    assert main(["process", "--input", session, "--max-angle-deg", "0.001",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_walks"] == 0
    assert report["config"]["segmenter"]["max_angle_deg"] == 0.001

    out2 = tmp_path / "loose"
    assert main(["process", "--input", session, "--rdp-epsilon", "0.8",
                 "--min-length", "1.0", "--z-torso", "0.3",
                 "--min-peak-gap", "0.35", "--out", str(out2)]) == 0
    cfg = json.loads((out2 / "report.json").read_text())["config"]
    assert cfg["segmenter"]["rdp_epsilon"] == 0.8
    assert cfg["segmenter"]["min_length"] == 1.0
    assert cfg["gait"]["z_torso"] == 0.3
    assert cfg["gait"]["min_peak_gap"] == 0.35

    # Overrides are validated like config files.
    assert main(["process", "--input", session, "--min-peak-gap", "0.1",
                 "--out", str(tmp_path / "bad")]) == 2


def test_malformed_session_exit_2(tmp_path):
    bad = tmp_path / "bad.session.jsonl"
    bad.write_text('{"format":"gaitpipe-frames","version":1,"frame_rate":10.0,'
                   '"site":"home","room":"r","device":"d"}\n{"t":0.1}\n')
    assert main(["process", "--input", str(bad), "--out", str(tmp_path / "o")]) == 2


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
    ],
    ids=["null_value", "missing_key", "top_level_list", "entries_not_list",
         "non_numeric_index", "bad_walkway", "entry_not_object", "not_json"],
)
def test_malformed_walklog_exit_2(sim_dir, tmp_path, capsys, walklog, field):
    path = tmp_path / "bad.walklog.json"
    path.write_text(walklog if isinstance(walklog, str) else json.dumps(walklog))
    code = main(["process", "--input", str(sim_dir / "clinic_control-5.session.jsonl"),
                 "--mode", "clinic", "--walklog", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(path) in err and field in err


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
    assert sorted(failed) == ["error", "exit_code"]
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
    assert sessions["c"] == {"error": "ValueError: invariant violated", "exit_code": 1}
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
    ],
    ids=["not_json", "other_format", "not_object", "walker_no_t_start", "walker_no_step_length"],
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
     (json.dumps({**_WALK, "walk_type": ["control"]}), "walk_type")],
    ids=["not_json", "not_object", "non_numeric_estimate", "walk_type_list"],
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


@pytest.mark.parametrize("value", [0, -0.5])
@pytest.mark.parametrize("source", ["truth", "reference", "walks"])
def test_evaluate_non_positive_reference_exit_2(tmp_path, capsys, source, value):
    record = {**_WALK, "reference_step_length": value} if source == "walks" else _WALK
    results = _results_tree(tmp_path, record)
    truth = tmp_path / "truth"
    truth.mkdir()
    (truth / "s.truth.jsonl").write_text(json.dumps(
        {"format": "gaitpipe-truth",
         "walkers": [{"t_start": 2.0, "t_end": 9.0, "true_step_length": value}]}) + "\n")
    ref = tmp_path / "ref.csv"
    ref.write_text(f"key,reference_m\ns/0,{value}\n")
    named = {"truth": truth / "s.truth.jsonl", "reference": ref,
             "walks": results / "s" / "walks.jsonl"}[source]
    how = ["--reference", str(ref)] if source == "reference" else ["--truth", str(truth)]
    code = main(["evaluate", "--results", str(results), *how, "--out", str(tmp_path / "ev")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(named) in err and "s/0" in err


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
