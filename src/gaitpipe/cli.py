"""Command-line surface: simulate, process, evaluate, icc.

Exit codes: 0 success, 2 for unreadable/malformed inputs or invalid
configuration, 1 for internal invariant violations. All artifacts are
written atomically and contain no timestamps, so repeated runs over the
same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig, apply_overrides, config_as_dict, load_config
from .pointcloud import atomic_write_text, read_session, write_session
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
from .pipeline import process_session

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


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


def _process_one(
    session_path: str,
    cfg: PipelineConfig,
    mode: str,
    walklog_path: str | None,
    out_dir: str,
    dump_tracks: bool,
) -> dict:
    path = Path(session_path)
    try:
        session = read_session(path)
        walklog = read_walklog(walklog_path) if walklog_path else None
    except ValueError as exc:  # malformed session (SessionFormatError) or walk log
        raise InputError(str(exc)) from None
    cfg.check_frame_rate(session.frame_rate, f"session {path.name!r}: ")
    result = process_session(session, cfg, mode=mode, walklog=walklog)

    stem = _session_stem(path)
    session_out = Path(out_dir) / stem
    session_out.mkdir(parents=True, exist_ok=True)

    walk_lines = [json.dumps(w.as_dict(), sort_keys=True) for w in result.walks]
    atomic_write_text(session_out / "walks.jsonl", "\n".join(walk_lines) + ("\n" if walk_lines else ""))
    atomic_write_text(session_out / "segments.csv", _segments_csv(result.segments))
    if dump_tracks:
        lines = []
        for track in result.tracks:
            for state in track.states:
                lines.append(
                    json.dumps(
                        {
                            "track_id": track.track_id,
                            "t": round(state.t, 6),
                            "x": round(state.x, 6),
                            "y": round(state.y, 6),
                            "n_points": len(state.points),
                        },
                        sort_keys=True,
                    )
                )
        atomic_write_text(session_out / "tracks.jsonl", "\n".join(lines) + ("\n" if lines else ""))

    xs = [s.x for tr in result.tracks for s in tr.states]
    ys = [s.y for tr in result.tracks for s in tr.states]
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
    cfg = load_config(args.config)
    overrides = {
        "segmenter.rdp_epsilon": args.rdp_epsilon,
        "segmenter.min_length": args.min_length,
        "segmenter.max_angle_deg": args.max_angle_deg,
        "gait.z_torso": args.z_torso,
        "gait.min_peak_gap": args.min_peak_gap,
    }
    return apply_overrides(cfg, overrides)


def cmd_process(args: argparse.Namespace) -> int:
    try:
        cfg = _load_cfg(args)
    except ConfigError as exc:
        raise InputError(str(exc)) from None

    sessions = _collect_sessions(args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    jobs = []
    for session_path in sessions:
        walklog_path = args.walklog if args.mode == "clinic" else None
        if args.mode == "clinic" and walklog_path is None:
            candidate = session_path.with_name(
                _session_stem(session_path) + ".walklog.json"
            )
            if candidate.exists():
                walklog_path = str(candidate)
            else:
                raise InputError(
                    f"clinic mode requires a walk log: pass --walklog or place "
                    f"{_session_stem(session_path)}.walklog.json next to the session"
                )
        jobs.append(
            (str(session_path), cfg, args.mode, walklog_path, str(out), args.dump_tracks)
        )

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(_process_one, *zip(*jobs)))
    else:
        summaries = [_process_one(*job) for job in jobs]

    summaries.sort(key=lambda s: s["stem"])

    per_room_xy: dict[str, tuple[list, list]] = {}
    valid_flags: dict[str, list[bool]] = {}
    outcomes = []
    for summary in summaries:
        room = summary["room"]
        xs, ys = summary.pop("track_xy")
        bucket = per_room_xy.setdefault(room, ([], []))
        bucket[0].extend(xs)
        bucket[1].extend(ys)
        valid_flags.setdefault(room, []).extend(summary.pop("segment_valid_flags"))
        outcomes.extend(summary.pop("walk_outcomes"))

    for room in sorted(per_room_xy):
        xs, ys = per_room_xy[room]
        grid = heatmap_from_xy(xs, ys, cfg.reporting.heatmap_cell)
        atomic_write_text(out / f"heatmap_{room}.csv", grid.to_csv())

    rate = detection_rate(outcomes)
    tracks_stats = valid_track_stats(valid_flags)
    report = {
        "mode": args.mode,
        "config": config_as_dict(cfg),
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
    print(
        f"processed {len(sessions)} session(s): {rate.detected}/{rate.total} walks measured"
    )
    return EXIT_OK


# ---------------------------------------------------------------- evaluate


def _read_walk_records(results_dir: Path) -> dict[str, list[dict]]:
    records: dict[str, list[dict]] = {}
    for walks_file in sorted(results_dir.glob("*/walks.jsonl")):
        stem = walks_file.parent.name
        rows = []
        with open(walks_file, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        records[stem] = rows
    if not records:
        raise InputError(f"no walks.jsonl files under {results_dir}")
    return records


def _truth_reference(truth_dir: Path, stem: str, record: dict) -> float:
    truth_path = truth_dir / f"{stem}.truth.jsonl"
    if not truth_path.exists():
        raise InputError(f"missing ground truth for session {stem!r}: {truth_path}")
    try:
        walkers = read_truth_header(truth_path).get("walkers", [])
        if not walkers:
            raise InputError(f"ground truth for {stem!r} lists no walkers")
        t_start = record.get("t_start")
        if t_start is not None:
            for w in walkers:
                if w["t_start"] - 1.0 <= t_start <= w["t_end"] + 1.0:
                    return float(w["true_step_length"])
        return float(walkers[0]["true_step_length"])
    except (KeyError, TypeError, ValueError) as exc:  # not JSON, not a truth file, bad walker
        raise InputError(f"ground truth {str(truth_path)!r}: {type(exc).__name__}: {exc}") from None


def cmd_evaluate(args: argparse.Namespace) -> int:
    if (args.truth is None) == (args.reference is None):
        raise InputError("provide exactly one of --truth or --reference")
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise InputError(f"results directory {results_dir} does not exist")
    records = _read_walk_records(results_dir)

    reference: dict[str, float] = {}
    if args.reference is not None:
        try:
            with open(args.reference, "r", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    reference[row["key"]] = float(row["reference_m"])
        except (OSError, KeyError, ValueError) as exc:
            raise InputError(f"bad reference csv: {exc}") from None

    pairs = []       # (estimate, reference, walk_type) for measured walks
    outcomes = []    # (walk_type, detected)
    for stem in sorted(records):
        for ordinal, record in enumerate(records[stem]):
            walk_type = record.get("walk_type")
            est = record.get("avg_step_len_m")
            outcomes.append((walk_type, est is not None))
            if est is None:
                continue
            if args.reference is not None:
                key = f"{stem}/{ordinal}"
                if key not in reference:
                    raise InputError(f"reference csv missing key {key!r}")
                ref = reference[key]
            elif record.get("reference_step_length") is not None:
                ref = float(record["reference_step_length"])
            else:
                ref = _truth_reference(Path(args.truth), stem, record)
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


def cmd_icc(args: argparse.Namespace) -> int:
    try:
        rows = []
        with open(args.matrix, "r", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if row:
                    rows.append([float(v) for v in row])
        matrix = RatingsMatrix(np.array(rows, dtype=float))
    except (OSError, ValueError) as exc:
        raise InputError(f"bad ratings matrix: {exc}") from None

    result = {
        "icc2k": icc2k(matrix).as_dict(),
        "icc3k": icc3k(matrix).as_dict(),
    }
    if args.out:
        _json_dump(result, Path(args.out))
    print(json.dumps(result, sort_keys=True, indent=1))
    return EXIT_OK


# -------------------------------------------------------------------- main


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
    p_proc.add_argument("--mode", choices=("home", "clinic"), default="home")
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
