"""Fuzz the four hand-edited inputs through `main`: session header, walk log,
config file and truth header.

Each case mutates a valid input: it drops a key, replaces a value with
null, a string, a list, true, a negative number, NaN or an integer past
the float range, truncates the text, or replaces it with text that is not
JSON. Whatever the mutation, the run must exit 0 or 2, never with a
traceback or an internal error, and an exit 2 must name the file. Frames
stay fixed and valid, and apart from that one integer, mutations vary
structure and types rather than magnitudes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gaitpipe.cli import main
from gaitpipe.config import PipelineConfig

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


def run_main(argv: list[str], named: Path) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 2), text
    assert "Traceback" not in text and "internal error" not in text, text
    if code == 2:
        assert str(named) in text, text


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


def test_fuzz_walklog(clinic):
    walklog = json.loads((clinic / "clinic_control-5.walklog.json").read_text())
    session = clinic / "clinic_control-5.session.jsonl"

    @FUZZ
    @given(mutations(walklog))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.walklog.json"
            path.write_text(text)
            run_main(["process", "--input", str(session), "--mode", "clinic",
                      "--walklog", str(path), "--out", str(Path(tmp) / "o")], path)

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
    header, samples = (clinic / "clinic_control-5.truth.jsonl").read_text().split("\n", 1)

    @FUZZ
    @given(mutations(json.loads(header)))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clinic_control-5.truth.jsonl"
            path.write_text(text + "\n" + samples)
            run_main(["evaluate", "--results", str(clinic / "results"), "--truth", tmp,
                      "--out", str(Path(tmp) / "ev")], path)

    check()
