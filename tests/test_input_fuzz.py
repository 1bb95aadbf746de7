"""Fuzz the hand-edited inputs through `main`: session header, walk log,
config file and truth header, and the walks.jsonl line that `evaluate`
reads; then the magnitudes in frame lines.

Each case mutates a valid input: it drops a key, replaces a value with
null, a string, a list, true, a negative number, NaN or an integer past
the float range, truncates the text, or replaces it with text that is not
JSON. Whatever the mutation, the run must exit 0 or 2, never with a
traceback or an internal error, and an exit 2 must name the file. In those
cases the frames stay fixed and valid. `test_fuzz_frame_magnitudes` keeps
the frame lines' structure instead and varies their numbers: frame times
and their spacing, coordinates and Doppler at and past their bounds,
duplicated points, and frames of 0, 1 or `min_pts` points.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gaitpipe.cli import main
from gaitpipe.config import PipelineConfig
from gaitpipe.pointcloud import read_session

REPLACEMENTS = [None, "x", "", [1], True, -1, -1.0, math.nan, 10**400]
NOT_JSON = ["not json", "", "{", "[]", "null"]
FUZZ = settings(max_examples=60, deadline=None)


def _paths(obj, prefix=()):
    """Every key or index path into nested dicts and lists."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


@st.composite
def mutations(draw, obj, render=json.dumps):
    """Text of obj after one mutation."""
    kind = draw(st.sampled_from(["drop", "replace", "truncate", "not_json"]))
    if kind == "not_json":
        return draw(st.sampled_from(NOT_JSON))
    if kind == "truncate":
        text = render(obj)
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(_paths(obj)))
    mutated = copy.deepcopy(obj)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return render(mutated)


def _ini_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, list):
        return json.dumps(value)
    return repr(value)


def _ini(cfg: dict) -> str:
    lines = []
    for section, body in cfg.items():
        if isinstance(body, dict):
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {_ini_value(value)}" for key, value in body.items())
        else:
            lines.append(f"{section} = {_ini_value(body)}")
    return "\n".join(lines) + "\n"


def run_main(argv: list[str], named: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 2), text
    assert "Traceback" not in text and "internal error" not in text, text
    if code == 2:
        assert str(named) in text, text
    return code, text


def assert_strict_json(out: Path) -> None:
    """No artifact under `out` holds NaN or Infinity, which are not JSON."""
    for artifact in out.rglob("*"):
        if artifact.is_file():
            text = artifact.read_text()
            assert "NaN" not in text and "Infinity" not in text, artifact.name


def with_value(obj, path: tuple, value):
    """A copy of obj with `value` at the key or index path `path`."""
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def clinic(tmp_path_factory):
    """A one-walk clinic session, its walk log and truth, and a home-mode results tree."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["simulate", "--scenario", "clinic_control", "--seed", "5",
                 "--n-walks", "1", "--out", str(root)]) == 0
    assert main(["process", "--input", str(root / "clinic_control-5.session.jsonl"),
                 "--out", str(root / "results")]) == 0
    return root


def test_fuzz_session_header(clinic):
    header, frames = (clinic / "clinic_control-5.session.jsonl").read_text().split("\n", 1)

    @FUZZ
    @given(mutations(json.loads(header)))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.session.jsonl"
            path.write_text(text + "\n" + frames)
            run_main(["process", "--input", str(path), "--out", str(Path(tmp) / "o")], path)

    check()


def walklog_run(clinic: Path, tmp: Path, text: str) -> tuple[list[str], Path]:
    """`process` in clinic mode with `text` as the walk log beside the session."""
    shutil.copy(clinic / "clinic_control-5.session.jsonl", tmp / "w.session.jsonl")
    path = tmp / "w.walklog.json"
    path.write_text(text)
    return ["process", "--input", str(tmp / "w.session.jsonl"), "--mode", "clinic",
            "--out", str(tmp / "o")], path


def walks_run(clinic: Path, tmp: Path, text: str) -> tuple[list[str], Path]:
    """`evaluate --truth` over a results tree whose one walks.jsonl holds `text`."""
    path = tmp / "r" / "clinic_control-5" / "walks.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text(text + "\n")
    return ["evaluate", "--results", str(tmp / "r"), "--truth", str(clinic),
            "--out", str(tmp / "o")], path


def truth_run(clinic: Path, tmp: Path, text: str) -> tuple[list[str], Path]:
    """`evaluate --truth` over the home-mode results with `text` as the truth header."""
    samples = (clinic / "clinic_control-5.truth.jsonl").read_text().split("\n", 1)[1]
    path = tmp / "clinic_control-5.truth.jsonl"
    path.write_text(text + "\n" + samples)
    return ["evaluate", "--results", str(clinic / "results"), "--truth", str(tmp),
            "--out", str(tmp / "o")], path


def first_value(path: Path) -> dict:
    """The first JSON value in a file: a walk log, or a JSONL file's first line."""
    return json.JSONDecoder().raw_decode(path.read_text())[0]


def test_fuzz_walklog(clinic):
    walklog = json.loads((clinic / "clinic_control-5.walklog.json").read_text())

    @FUZZ
    # json.dumps writes NaN and Infinity, which Python's json reads back.
    @example(json.dumps(with_value(walklog, ("entries", 0, "reference_step_length"), math.nan)))
    @example(json.dumps(with_value(walklog, ("entries", 0, "t_start"), math.inf)))
    @given(mutations(walklog))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            run_main(*walklog_run(clinic, Path(tmp), text))
            assert_strict_json(Path(tmp) / "o")

    check()


def test_fuzz_walks_line(clinic):
    record = first_value(clinic / "results" / "clinic_control-5" / "walks.jsonl")

    @FUZZ
    @example(json.dumps(with_value(record, ("avg_step_len_m",), math.nan)))
    @given(mutations(record))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            run_main(*walks_run(clinic, Path(tmp), text))
            assert_strict_json(Path(tmp) / "o")

    check()


def test_fuzz_config(clinic):
    cfg = asdict(PipelineConfig())
    session = clinic / "clinic_control-5.session.jsonl"

    @FUZZ
    @given(mutations(cfg, render=_ini))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.toml"
            path.write_text(text)
            run_main(["process", "--input", str(session), "--config", str(path),
                      "--out", str(Path(tmp) / "o")], path)

    check()


def test_fuzz_truth_header(clinic):
    header = first_value(clinic / "clinic_control-5.truth.jsonl")

    @FUZZ
    @example(json.dumps(with_value(header, ("walkers", 0, "t_start"), math.nan)))
    @given(mutations(header))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            run_main(*truth_run(clinic, Path(tmp), text))
            assert_strict_json(Path(tmp) / "o")

    check()


@pytest.mark.parametrize("run, source, path, value", [
    (walklog_run, "clinic_control-5.walklog.json", ("entries", 0, "reference_step_length"),
     math.nan),
    (walklog_run, "clinic_control-5.walklog.json", ("entries", 0, "t_start"), math.inf),
    (walks_run, "results/clinic_control-5/walks.jsonl", ("avg_step_len_m",), math.nan),
    (truth_run, "clinic_control-5.truth.jsonl", ("walkers", 0, "t_start"), math.nan),
    (truth_run, "clinic_control-5.truth.jsonl", ("walkers", 0, "true_step_length"), -math.inf),
])
def test_non_finite_number_is_bad_input(clinic, tmp_path, run, source, path, value):
    # A number that Python's json reads as NaN or an infinity exits 2,
    # naming the field, where it once passed into the outputs or exited 1.
    text = json.dumps(with_value(first_value(clinic / source), path, value))
    code, err = run_main(*run(clinic, tmp_path, text))
    assert code == 2 and repr(path[-1]) in err and "finite" in err, err


# Frame times start at and step by these, from sub-nanosecond to past the
# float range; the reader bounds times at 1e10 s.
TIME_STARTS = [0.0, 1e-300, 0.1, 1e9, 1e10, 1.0000000001e10, 1e80, 1e300, 1.7976931348623157e308]
TIME_STEPS = [5e-324, 1e-9, 0.1, 10.0, 1e6, 1e9, 1e80, 1e299]
MIN_PTS = PipelineConfig().dbscan.min_pts
# Point fields at and just past their bounds: |x|, y, |z| <= 1000 m, y >= 0,
# every field finite. A float past the range reaches the file as 1e999.
EDGE_VALUES = {
    0: [1000.0, -1000.0, 1000.0000000001, -1e300, 0.0],
    1: [0.0, -0.0, -5e-324, 1000.0, 1000.0000000001, 1e300],
    2: [1000.0, -1000.0, -1000.0000000001, 1e300],
    3: [1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 5e-324, math.inf],
}


@st.composite
def frame_magnitudes(draw, frames):
    """Frame lines as (t, points): a window of the session's frames with
    new times, some fields set to edge values, and some frames cut to 0, 1
    or `min_pts` points or with their first point repeated."""
    start = draw(st.integers(0, len(frames) - 1))
    window = [pts for _, pts in frames[start : start + draw(st.integers(1, len(frames)))]]
    t0, dt = draw(st.sampled_from(TIME_STARTS)), draw(st.sampled_from(TIME_STEPS))
    for k in draw(st.lists(st.integers(0, len(window) - 1), max_size=8)):
        if window[k]:
            i = draw(st.integers(0, len(window[k]) - 1))
            field = draw(st.sampled_from(sorted(EDGE_VALUES)))
            point = list(window[k][i])
            point[field] = draw(st.sampled_from(EDGE_VALUES[field]))
            window[k] = window[k][:i] + [point] + window[k][i + 1 :]
    for k in draw(st.lists(st.integers(0, len(window) - 1), max_size=8)):
        how = draw(st.sampled_from(["cut", "repeat"]))
        if how == "cut":
            window[k] = window[k][: draw(st.sampled_from([0, 1, MIN_PTS]))]
        elif window[k]:
            window[k] = window[k] + [window[k][0]] * draw(st.integers(1, 20))
    return [(t0 + k * dt, pts) for k, pts in enumerate(window)]


def _frame_line(t: float, pts: list) -> str:
    # json.dumps writes inf as Infinity; 1e999 is the number a JSON file
    # can hold that reads back as inf.
    return json.dumps({"t": t, "pts": pts}).replace("Infinity", "1e999")


def test_fuzz_frame_magnitudes(clinic):
    path = clinic / "clinic_control-5.session.jsonl"
    header = path.read_text().split("\n", 1)[0]
    session = read_session(path)
    frames = [(f.t, f.points.tolist()) for f in session.frames]

    @FUZZ
    # The walk retimed to 1e300 + k * 1e299 s: finite, strictly increasing
    # times whose gaps overflow the Kalman covariance.
    @example([(1e300 + k * 1e299, pts) for k, (_, pts) in enumerate(frames)])
    @given(frame_magnitudes(frames))
    def check(lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.session.jsonl"
            path.write_text("\n".join([header] + [_frame_line(t, p) for t, p in lines]) + "\n")
            out = Path(tmp) / "o"
            run_main(["process", "--input", str(path), "--out", str(out), "--dump-tracks"], path)
            assert_strict_json(out)

    check()


@pytest.mark.parametrize("doppler", [-1e308, 1e308])
def test_huge_torso_doppler(clinic, doppler):
    # Four copies of a frame's first point moved to z = 0 with a Doppler
    # near the float maximum, in the non-empty frames 41-69 of the walk: their sum overflows, for the
    # approach (negative) and the recede (positive) torso summary alike.
    header, *lines = (clinic / "clinic_control-5.session.jsonl").read_text().splitlines()
    frames = [json.loads(line) for line in lines]
    for frame in frames[41:70]:
        if frame["pts"]:
            x, y, _, _ = frame["pts"][0]
            frame["pts"] += [[x, y, 0.0, doppler]] * 4
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.session.jsonl"
        path.write_text("\n".join([header] + [json.dumps(f) for f in frames]) + "\n")
        out = Path(tmp) / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["process", "--input", str(path), "--out", str(out), "--dump-tracks"])
        assert code == 0, err.getvalue()
        assert_strict_json(out)
