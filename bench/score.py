"""Correctness gate and accuracy of one `gaitpipe process` bundle.

Reads only the bundle, the ground truth the simulator wrote and the
benchmark's own `expect.json`; it never goes through `gaitpipe evaluate`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

SEGMENT_HEADER = ["track_id", "seg_index", "t_start", "t_end", "d_m", "theta_deg", "valid"]
MATCH_SLACK_S = 1.0  # s; a home walk matches a truth pass it starts within, widened by this


def _walk_records(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"{path}: walk record is not an object")
                records.append(record)
    return records


def _segments_ok(path: Path) -> bool:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return bool(rows) and rows[0] == SEGMENT_HEADER and all(len(r) == len(SEGMENT_HEADER) for r in rows)


def check_bundle(out: Path, expect: dict, exit_code: int) -> tuple[dict[str, list[dict]], list[str]]:
    """Walk records of each session that passed the gate, and the stems that failed.

    A session fails when the run exited non-zero, when report.json does not
    parse or does not list it, when its walks.jsonl or segments.csv is
    missing or unparseable, or, in clinic mode, when walks.jsonl does not
    hold exactly one record per logged walk.
    """
    if exit_code != 0:
        return {}, sorted(expect)
    try:
        listed = json.loads((out / "report.json").read_text(encoding="utf-8"))["sessions"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}, sorted(expect)
    records, failed = {}, []
    for stem, info in sorted(expect.items()):
        try:
            walks = _walk_records(out / stem / "walks.jsonl")
            ok = stem in listed and _segments_ok(out / stem / "segments.csv")
        except (OSError, ValueError):
            ok = False
        if ok and info["mode"] == "clinic":
            logged = sorted(int(w.removeprefix("walk")) for w in info["expected"])
            ok = sorted(r.get("walk_index", -1) for r in walks) == logged
        if ok:
            records[stem] = walks
        else:
            failed.append(stem)
    return records, failed


def _truth_walkers(truth_dir: Path, stem: str) -> dict[str, dict]:
    with open(truth_dir / f"{stem}.truth.jsonl", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    return {w["id"]: w for w in header["walkers"]}


def accuracy(records: dict[str, list[dict]], truth_dir: Path, expect: dict) -> dict:
    """Detection and step-length error over the walks that should be measured.

    Clinic walks are matched to truth by walk index. A home truth pass is
    matched to the unused measured walk whose start is nearest its own,
    within MATCH_SLACK_S of the pass. A failed session's walks count as
    not detected.
    """
    errors_pct, expected, detected = [], 0, 0
    for stem, info in sorted(expect.items()):
        walkers = _truth_walkers(truth_dir, stem)
        walks = [w for w in records.get(stem, []) if w.get("avg_step_len_m") is not None]
        used: set[int] = set()
        for walker_id in sorted(info["expected"], key=lambda w: walkers[w]["t_start"]):
            truth = walkers[walker_id]
            expected += 1
            if info["mode"] == "clinic":
                index = int(walker_id.removeprefix("walk"))
                hits = [i for i, w in enumerate(walks) if w["walk_index"] == index]
            else:
                hits = sorted(
                    (abs(w["t_start"] - truth["t_start"]), i)
                    for i, w in enumerate(walks)
                    if i not in used
                    and truth["t_start"] - MATCH_SLACK_S <= w["t_start"] <= truth["t_end"] + MATCH_SLACK_S
                )
                hits = [i for _, i in hits]
            if not hits:
                continue
            used.add(hits[0])
            detected += 1
            true_len = truth["true_step_length"]
            errors_pct.append(abs(walks[hits[0]]["avg_step_len_m"] - true_len) / true_len * 100.0)
    return {
        "expected": expected,
        "detected": detected,
        "detection_rate": detected / expected if expected else None,
        "step_mae_pct": sum(errors_pct) / len(errors_pct) if errors_pct else None,
    }
