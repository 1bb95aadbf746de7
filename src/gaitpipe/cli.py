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
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig, apply_overrides, load_config
from .pointcloud import atomic_write_text, json_float, read_session, write_session
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
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


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
    name = path.name
    for suffix in (".session.jsonl", ".jsonl"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem


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


def _process_one(session_path: str, *args) -> dict:
    """Write one session's bundle and return its summary for report.json.

    On failure the summary is {"stem", "error", "exit_code"}: exit code 2
    for bad input, 1 for a bug, which also carries its "traceback" text.
    One bad session never loses the others.
    """
    stem = _session_stem(Path(session_path))
    try:
        return _write_bundle(session_path, *args)
    except _INPUT_ERRORS as exc:
        return {"stem": stem, "error": str(exc), "exit_code": EXIT_INPUT}
    except Exception as exc:  # invariant violation
        return {"stem": stem, "error": f"{type(exc).__name__}: {exc}", "exit_code": EXIT_INTERNAL,
                "traceback": traceback.format_exc()}


def _write_bundle(
    session_path: str,
    cfg: PipelineConfig,
    mode: str,
    walklog_path: str | None,
    out_dir: str,
    dump_tracks: bool,
) -> dict:
    path = Path(session_path)
    stem = _session_stem(path)
    session = _read("session", session_path, read_session)
    sibling = path.with_name(f"{stem}.walklog.json")
    walklog = _read("walk log", walklog_path or sibling, read_walklog) if mode == "clinic" else None
    cfg.check_frame_rate(session.frame_rate, f"session {session_path!r}: ")
    result = process_session(session, cfg, mode=mode, walklog=walklog)

    session_out = Path(out_dir) / stem
    session_out.mkdir(parents=True, exist_ok=True)

    walk_lines = [json.dumps(w.as_dict(), sort_keys=True) for w in result.walks]
    atomic_write_text(session_out / "walks.jsonl", "\n".join(walk_lines) + ("\n" if walk_lines else ""))
    atomic_write_text(session_out / "segments.csv", _segments_csv(result.segments))
    if dump_tracks:
        lines = [
            json.dumps({"track_id": tr.track_id, "t": round(t, 6), "x": round(x, 6),
                        "y": round(y, 6), "n_points": n}, sort_keys=True)
            for tr in result.tracks
            for t, x, y, n in zip(tr.t.tolist(), tr.x.tolist(), tr.y.tolist(),
                                  tr.n_points.tolist())
        ]
        atomic_write_text(session_out / "tracks.jsonl", "\n".join(lines) + ("\n" if lines else ""))

    xs = [x for tr in result.tracks for x in tr.x.tolist()]
    ys = [y for tr in result.tracks for y in tr.y.tolist()]
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
        "walk_outcomes": [
            (w.walk_type, w.avg_step_len_m is not None) for w in result.walks
        ],
        "track_xy": (xs, ys),
    }


def _collect_sessions(input_arg: str) -> list[Path]:
    path = Path(input_arg)
    if path.is_dir():
        found = sorted(path.glob("*.session.jsonl"))
        if not found:
            found = sorted(
                p for p in path.glob("*.jsonl") if not p.name.endswith(".truth.jsonl")
            )
        if not found:
            raise InputError(f"no session files found in {path}")
        return found
    if not path.exists():
        raise InputError(f"input {path} does not exist")
    return [path]


def _load_cfg(args: argparse.Namespace) -> PipelineConfig:
    cfg = _read("config", args.config, load_config)
    overrides = {
        "segmenter.rdp_epsilon": args.rdp_epsilon,
        "segmenter.min_length": args.min_length,
        "segmenter.max_angle_deg": args.max_angle_deg,
        "gait.z_torso": args.z_torso,
        "gait.min_peak_gap": args.min_peak_gap,
    }
    return apply_overrides(cfg, overrides)


def cmd_process(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    cfg = _load_cfg(args)
    sessions = _collect_sessions(args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(str(p), cfg, args.mode, args.walklog, str(out), args.dump_tracks) for p in sessions]

    workers = min(args.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_process_one, *zip(*jobs)))
    else:
        summaries = [_process_one(*job) for job in jobs]

    summaries.sort(key=lambda s: s["stem"])
    failures = [s for s in summaries if "error" in s]
    tracebacks = [f.pop("traceback", "") for f in failures]  # kept out of report.json

    per_room_xy: dict[str, tuple[list, list]] = {}
    valid_flags: dict[str, list[bool]] = {}
    outcomes = []
    for summary in (s for s in summaries if "error" not in s):
        room = summary["room"]
        xs, ys = summary.pop("track_xy")
        bucket = per_room_xy.setdefault(room, ([], []))
        bucket[0].extend(xs)
        bucket[1].extend(ys)
        valid_flags.setdefault(room, []).extend(summary.pop("segment_valid_flags"))
        outcomes.extend(summary.pop("walk_outcomes"))

    for room in sorted(per_room_xy):
        xs, ys = per_room_xy[room]
        try:
            grid = heatmap_from_xy(xs, ys, cfg.reporting.heatmap_cell)
        except ValueError as exc:
            raise ConfigError(f"reporting.heatmap_cell, room {room!r}: {exc}") from None
        atomic_write_text(out / f"heatmap_{room}.csv", grid.to_csv())

    rate = detection_rate(outcomes)
    tracks_stats = valid_track_stats(valid_flags)
    report = {
        "mode": args.mode,
        "config": asdict(cfg),
        "sessions": {s.pop("stem"): s for s in summaries},
        "n_walks": rate.total,
        "n_measured": rate.detected,
        "detection_rate": rate.rate,
        "detection_by_type": {
            name: {"detected": d, "total": t} for name, (d, t) in rate.by_type.items()
        },
        "valid_track_pct": {
            "per_home": tracks_stats.per_home,
            "mean": tracks_stats.mean,
            "sd": tracks_stats.sd,
        },
    }
    _json_dump(report, out / "report.json")
    done = len(sessions) - len(failures)
    print(f"processed {done} session(s): {rate.detected}/{rate.total} walks measured")
    for failure, trace in zip(failures, tracebacks):
        prefix = "internal error" if failure["exit_code"] == EXIT_INTERNAL else "error"
        print(f"{prefix}: {failure['error']}", file=sys.stderr)
        print(trace, end="", file=sys.stderr)
    # A bug (1) outranks bad input (2).
    return min((f["exit_code"] for f in failures), default=EXIT_OK)


# ---------------------------------------------------------------- evaluate


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
            if not ref > 0:
                raise InputError(f"{source}: walk {stem}/{ordinal} has reference {ref}, not > 0")
            pairs.append((est, ref, walk_type))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    summary = error_table(pairs)
    rate = detection_rate(outcomes)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["walk_type", "n", "mean_cm", "sd_cm", "mean_pct", "sd_pct"])
    rows = list(summary.by_type.items()) + [("all", summary.overall)]
    for name, row in rows:
        writer.writerow(
            [
                name,
                row.n,
                f"{row.mean_cm:.4f}",
                "" if row.sd_cm is None else f"{row.sd_cm:.4f}",
                f"{row.mean_pct:.4f}",
                "" if row.sd_pct is None else f"{row.sd_pct:.4f}",
            ]
        )
    atomic_write_text(out / "error_table.csv", buf.getvalue())

    report = {
        "n_pairs": len(pairs),
        "error": {
            "overall": summary.overall.__dict__,
            "by_type": {name: row.__dict__ for name, row in summary.by_type.items()},
        },
        "detection": {
            "total": rate.total,
            "detected": rate.detected,
            "rate": rate.rate,
            "by_type": {
                name: {"detected": d, "total": t} for name, (d, t) in rate.by_type.items()
            },
        },
    }
    _json_dump(report, out / "report.json")

    if len(pairs) >= 2:
        matrix = np.array([[est, ref] for est, ref, _ in pairs])
        icc_report = {
            "est_vs_ref": {
                "icc2k": icc2k(matrix).as_dict(),
                "icc3k": icc3k(matrix).as_dict(),
            }
        }
        _json_dump(icc_report, out / "icc.json")

    print(
        f"evaluated {len(pairs)} measured walks "
        f"(detection {rate.detected}/{rate.total}); "
        f"mean error {summary.overall.mean_cm:.2f} cm / {summary.overall.mean_pct:.2f}%"
    )
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
    print(json.dumps(result, sort_keys=True, indent=1))
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
    p_proc.add_argument("--walklog", default=None)
    p_proc.add_argument("--out", required=True)
    p_proc.add_argument("--jobs", type=int, default=1)
    p_proc.add_argument("--dump-tracks", action="store_true")
    p_proc.add_argument("--rdp-epsilon", type=float, default=None)
    p_proc.add_argument("--min-length", type=float, default=None)
    p_proc.add_argument("--max-angle-deg", type=float, default=None)
    p_proc.add_argument("--z-torso", type=float, default=None)
    p_proc.add_argument("--min-peak-gap", type=float, default=None)
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
