"""Command-line surface: simulate, process, evaluate, icc.

Exit codes: 0 success; 2 for a bad input file (named in the message, see
`_read`), config value or flag; 1 only for internal invariant
violations, which also print their traceback. All artifacts are written
atomically and contain no timestamps, so repeated runs over the same
inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig, load_config
from .pointcloud import MAX_COORD_M, atomic_write_text, json_float, read_session, write_session
from .segmenter import read_walklog, write_walklog
from .simulator import SCENARIO_NAMES, make_scenario, read_truth_header, simulate, write_truth
from .stats import (
    RatingsMatrix,
    detection_rate,
    error_table,
    heatmap_from_xy,
    icc2k,
    icc3k,
    valid_track_stats,
)
from .pipeline import MODES, process_session

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
# One session's artifacts in <out>/<stem>/; the last only with --dump-tracks.
BUNDLE_FILES = ("walks.jsonl", "segments.csv", "tracks.jsonl")
# The run's artifacts at the root of <out>, as fnmatch patterns.
ROOT_FILES = ("report.json", "heatmap_*.csv")


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


# The input's fault, not ours: exit code 2.
_INPUT_ERRORS = (InputError, ConfigError, OSError)


def _read(kind: str, path, reader):
    """Return reader(path); an unreadable or malformed file is an InputError naming it."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"{kind} {str(path)!r}: {type(exc).__name__}: {exc}") from None


def _json_dump(obj: dict, path: Path) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n")


# ---------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scene = make_scenario(
            args.scenario,
            seed=args.seed,
            base_speed=args.base_speed,
            step_period=args.step_period,
            n_walks=args.n_walks,
        )
    except KeyError:
        raise InputError(
            f"unknown scenario {args.scenario!r}; choose from {', '.join(SCENARIO_NAMES)}"
        ) from None
    except ValueError as exc:
        raise InputError(f"invalid scenario parameters: {exc}") from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{scene.name}-{scene.seed}"
    session, truth = simulate(scene)
    write_session(session, out / f"{stem}.session.jsonl")
    write_truth(truth, out / f"{stem}.truth.jsonl")
    if scene.walklog is not None:
        write_walklog(scene.walklog, out / f"{stem}.walklog.json")
    print(f"wrote {stem}.session.jsonl ({len(session.times)} frames) to {out}")
    return EXIT_OK


# ----------------------------------------------------------------- process


def _session_stem(path: Path) -> str:
    suffix = ".session.jsonl"
    return path.name[: -len(suffix)] if path.name.endswith(suffix) else path.stem


def _segments_csv(segments) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["track_id", "seg_index", "t_start", "t_end", "d_m", "theta_deg", "valid"])
    for seg in segments:
        writer.writerow(
            [
                seg.parent_track,
                seg.seg_index,
                f"{seg.t_start:.6f}",
                f"{seg.t_end:.6f}",
                f"{seg.length:.6f}",
                "" if seg.angle_deg is None else f"{seg.angle_deg:.6f}",
                int(bool(seg.valid)),
            ]
        )
    return buf.getvalue()


def _process_one(session_path: str, cfg: PipelineConfig, mode: str, out_dir: str,
                 dump_tracks: bool) -> dict:
    """Write one session's bundle and return its summary for report.json.

    On failure the summary is {"stem", "file", "error", "exit_code"}: exit
    code 2 for bad input, 1 for a bug, which also carries its "traceback"
    text. One bad session never loses the others.
    """
    stem = _session_stem(Path(session_path))
    # The stem names a directory under out_dir, beside the ROOT_FILES.
    if stem in ("", ".", "..") or any(fnmatchcase(stem, p) for p in ROOT_FILES):
        return {"stem": stem, "file": session_path, "exit_code": EXIT_INPUT,
                "error": f"session {session_path!r}: stem {stem!r} cannot name its directory"}
    try:
        return _write_bundle(session_path, stem, cfg, mode, out_dir, dump_tracks)
    except _INPUT_ERRORS as exc:
        failed = {"error": str(exc), "exit_code": EXIT_INPUT}
    except Exception as exc:  # invariant violation
        failed = {"error": f"{type(exc).__name__}: {exc}", "exit_code": EXIT_INTERNAL,
                  "traceback": traceback.format_exc()}
    return {"stem": stem, "file": session_path, **failed}


def _write_bundle(session_path: str, stem: str, cfg: PipelineConfig, mode: str, out_dir: str,
                  dump_tracks: bool) -> dict:
    session = _read("session", session_path, read_session)
    sibling = Path(session_path).with_name(f"{stem}.walklog.json")
    walklog = _read("walk log", sibling, read_walklog) if mode == "clinic" else None
    cfg.check_frame_rate(session.frame_rate, f"session {session_path!r}: ")
    result = process_session(session, cfg, mode=mode, walklog=walklog)

    session_out = Path(out_dir) / stem
    session_out.mkdir(parents=True, exist_ok=True)

    texts = ["".join(json.dumps(w.as_dict(), sort_keys=True) + "\n" for w in result.walks),
             _segments_csv(result.segments)]
    if dump_tracks:
        texts.append("".join(
            json.dumps({"track_id": tr.track_id, "t": round(t, 6), "x": round(x, 6),
                        "y": round(y, 6), "n_points": n}, sort_keys=True) + "\n"
            for tr in result.tracks
            for t, x, y, n in zip(tr.t.tolist(), tr.x.tolist(), tr.y.tolist(),
                                  tr.n_points.tolist())))
    for name, text in zip(BUNDLE_FILES, texts):
        atomic_write_text(session_out / name, text)

    return {
        "stem": stem,
        "room": session.room_label,
        "n_tracks": len(result.tracks),
        "n_segments": len(result.segments),
        "segment_valid_flags": [bool(s.valid) for s in result.segments],
        "n_walks": len(result.walks),
        "n_measured": result.n_measured,
        "suppressed_segments": result.suppressed_segments,
        "dropped_points": session.dropped_points,
        "walk_outcomes": [(w.walk_type, w.avg_step_len_m is not None) for w in result.walks],
        "track_xy": np.concatenate(
            [np.empty((0, 2))] + [np.column_stack((tr.x, tr.y)) for tr in result.tracks]),
    }


def _collect_sessions(input_arg: str) -> list[Path]:
    path = Path(input_arg)
    if path.is_dir():
        found = sorted(path.glob("*.session.jsonl"))
        if not found:
            raise InputError(f"no session files found in {path}")
        return found
    if not path.exists():
        raise InputError(f"input {path} does not exist")
    return [path]


def cmd_process(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    cfg = _read("config", args.config, load_config)
    sessions = _collect_sessions(args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(str(p), cfg, args.mode, str(out), args.dump_tracks) for p in sessions]

    workers = min(args.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_process_one, *zip(*jobs)))
    else:
        summaries = [_process_one(*job) for job in jobs]

    summaries.sort(key=lambda s: s["stem"])
    failures = [s for s in summaries if "error" in s]
    tracebacks = [f.pop("traceback", "") for f in failures]  # kept out of report.json

    # Of the files process owns in --out (ROOT_FILES at its root,
    # BUNDLE_FILES in each directory under it), keep this run's bundles, delete the rest.
    ok = [s for s in summaries if "error" not in s]
    bundle = BUNDLE_FILES if args.dump_tracks else BUNDLE_FILES[:-1]
    written = {f"{s['stem']}/{name}" for s in ok for name in bundle}
    with os.scandir(out) as entries:
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                owned = {f"{entry.name}/{name}" for name in BUNDLE_FILES} - written
            elif any(fnmatchcase(entry.name, p) for p in ROOT_FILES):
                owned = {entry.name}
            else:
                continue
            for name in owned:
                (out / name).unlink(missing_ok=True)

    per_room_xy: dict[str, list[np.ndarray]] = {}
    valid_flags: dict[str, list[bool]] = {}
    outcomes = []
    for summary in ok:
        room = summary["room"]
        per_room_xy.setdefault(room, []).append(summary.pop("track_xy"))
        valid_flags.setdefault(room, []).extend(summary.pop("segment_valid_flags"))
        outcomes.extend(summary.pop("walk_outcomes"))

    for room in sorted(per_room_xy):
        xy = np.concatenate(per_room_xy[room])
        try:
            grid = heatmap_from_xy(xy[:, 0], xy[:, 1], cfg.reporting.heatmap_cell)
        except ValueError as exc:
            raise ConfigError(f"reporting.heatmap_cell, room {room!r}: {exc}") from None
        atomic_write_text(out / f"heatmap_{room}.csv", grid.to_csv())

    rate = detection_rate(outcomes)
    report = {
        "mode": args.mode,
        "config": asdict(cfg),
        "sessions": {s.pop("stem"): s for s in summaries},
        "n_walks": rate["total"],
        "n_measured": rate["detected"],
        "detection_rate": rate["rate"],
        "detection_by_type": rate["by_type"],
        "valid_track_pct": valid_track_stats(valid_flags),
    }
    _json_dump(report, out / "report.json")
    done = len(sessions) - len(failures)
    print(f"processed {done} session(s): {rate['detected']}/{rate['total']} walks measured")
    for failure, trace in zip(failures, tracebacks):
        prefix = "internal error" if failure["exit_code"] == EXIT_INTERNAL else "error"
        print(f"{prefix}: {failure['error']}", file=sys.stderr)
        print(trace, end="", file=sys.stderr)
    # A bug (1) outranks bad input (2).
    return min((f["exit_code"] for f in failures), default=EXIT_OK)


# ---------------------------------------------------------------- evaluate


# A step length is at most MAX_COORD_M, estimate or reference, and a
# reference at least MIN_REFERENCE_M: then every error, percent error and
# ICC that evaluate writes is finite.
MIN_REFERENCE_M = 1e-3


def _read_walks(path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(row, dict):
                raise ValueError(f"line {lineno}: expected a JSON object")
            if not isinstance(row.get("walk_type"), (str, type(None))):
                raise ValueError(
                    f"line {lineno}: 'walk_type' is not a string: {row['walk_type']!r}"
                )
            for key in ("t_start", "avg_step_len_m", "reference_step_length"):
                if row.get(key) is not None:
                    row[key] = json_float(row[key], f"line {lineno}: {key!r}")
            rows.append(row)
    return rows


def _read_reference(path) -> dict[str, float]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(fh, restval="")
        if not {"key", "reference_m"} <= set(rows.fieldnames or ()):
            raise ValueError("needs 'key' and 'reference_m' columns")
        return {row["key"]: float(row["reference_m"]) for row in rows}


def _truth_reference(walkers: list[dict], record: dict) -> float:
    t = record.get("t_start")
    near = [w for w in walkers if t is not None and w["t_start"] - 1.0 <= t <= w["t_end"] + 1.0]
    return (near or walkers)[0]["true_step_length"]


def cmd_evaluate(args: argparse.Namespace) -> int:
    if (args.truth is None) == (args.reference is None):
        raise InputError("provide exactly one of --truth or --reference")
    results_dir = Path(args.results)
    walks_files = sorted(results_dir.glob("*/walks.jsonl"))
    if not walks_files:
        raise InputError(f"no walks.jsonl files under {results_dir}")
    if args.reference is not None:
        reference = _read("reference csv", args.reference, _read_reference)

    pairs = []       # (estimate, reference, walk_type) for measured walks
    outcomes = []    # (walk_type, detected)
    for walks_file in walks_files:
        stem = walks_file.parent.name
        walkers = None  # the truth header, read once per session
        for ordinal, record in enumerate(_read("walks", walks_file, _read_walks)):
            walk_type = record.get("walk_type")
            est = record.get("avg_step_len_m")
            outcomes.append((walk_type, est is not None))
            if est is None:
                continue
            if abs(est) > MAX_COORD_M:
                raise InputError(f"walks {str(walks_file)!r}: walk {stem}/{ordinal} has "
                                 f"estimate {est} m, beyond {MAX_COORD_M:g} m")
            if args.reference is not None:
                key = f"{stem}/{ordinal}"
                if key not in reference:
                    raise InputError(f"reference csv {args.reference!r}: no key {key!r}")
                ref, source = reference[key], f"reference csv {args.reference!r}"
            elif record.get("reference_step_length") is not None:
                ref, source = record["reference_step_length"], f"walks {str(walks_file)!r}"
            else:
                truth_path = Path(args.truth) / f"{stem}.truth.jsonl"
                if walkers is None:
                    walkers = _read("ground truth", truth_path, read_truth_header)["walkers"]
                ref, source = _truth_reference(walkers, record), f"ground truth {str(truth_path)!r}"
            if not MIN_REFERENCE_M <= ref <= MAX_COORD_M:
                raise InputError(f"{source}: walk {stem}/{ordinal} has reference {ref} m, "
                                 f"not in [{MIN_REFERENCE_M:g}, {MAX_COORD_M:g}] m")
            pairs.append((est, ref, walk_type))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    error, detection = error_table(pairs), detection_rate(outcomes)

    columns = ("mean_cm", "sd_cm", "mean_pct", "sd_pct")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["walk_type", "n", *columns])
    for name, row in [*error["by_type"].items(), ("all", error["overall"])]:
        values = (row[c] for c in columns)
        writer.writerow([name, row["n"]] + ["" if v is None else f"{v:.4f}" for v in values])
    atomic_write_text(out / "error_table.csv", buf.getvalue())
    _json_dump({"n_pairs": len(pairs), "error": error, "detection": detection},
               out / "report.json")

    if len(pairs) >= 2:
        matrix = np.array([[est, ref] for est, ref, _ in pairs])
        icc_report = {
            "est_vs_ref": {
                "icc2k": icc2k(matrix).as_dict(),
                "icc3k": icc3k(matrix).as_dict(),
            }
        }
        _json_dump(icc_report, out / "icc.json")
    else:  # no earlier run's ICC beside this run's report
        (out / "icc.json").unlink(missing_ok=True)

    overall = error["overall"]
    mean = (f"mean error {overall['mean_cm']:.2f} cm / {overall['mean_pct']:.2f}%"
            if pairs else "no walk was measured, so no mean error")
    print(f"evaluated {len(pairs)} measured walks "
          f"(detection {detection['detected']}/{detection['total']}); {mean}")
    return EXIT_OK


# --------------------------------------------------------------------- icc


def _read_matrix(path) -> RatingsMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return RatingsMatrix([[float(v) for v in row] for row in csv.reader(fh) if row])


def cmd_icc(args: argparse.Namespace) -> int:
    matrix = _read("ratings matrix", args.matrix, _read_matrix)
    result = {
        "icc2k": icc2k(matrix).as_dict(),
        "icc3k": icc3k(matrix).as_dict(),
    }
    if args.out:
        _json_dump(result, Path(args.out))
    print(json.dumps(result, sort_keys=True, indent=1, allow_nan=False))
    return EXIT_OK


# -------------------------------------------------------------------- main


@functools.cache  # parsing leaves the parser as it was, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitpipe",
        description="Radar point-cloud gait pipeline: simulate, process, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scene with ground truth")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--base-speed", type=float, default=None)
    p_sim.add_argument("--step-period", type=float, default=None)
    p_sim.add_argument("--n-walks", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_proc = sub.add_parser("process", help="run the pipeline over session files")
    p_proc.add_argument("--input", required=True, help="session file or directory")
    p_proc.add_argument("--config", default=None)
    p_proc.add_argument("--mode", choices=MODES, default="home")
    p_proc.add_argument("--out", required=True)
    p_proc.add_argument("--jobs", type=int, default=1)
    p_proc.add_argument("--dump-tracks", action="store_true")
    p_proc.set_defaults(func=cmd_process)

    p_eval = sub.add_parser("evaluate", help="join estimates to ground truth or a reference")
    p_eval.add_argument("--results", required=True)
    p_eval.add_argument("--truth", default=None)
    p_eval.add_argument("--reference", default=None)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_icc = sub.add_parser("icc", help="ICC of a subjects x raters CSV matrix")
    p_icc.add_argument("--matrix", required=True)
    p_icc.add_argument("--out", default=None)
    p_icc.set_defaults(func=cmd_icc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(traceback.format_exc(), end="", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
