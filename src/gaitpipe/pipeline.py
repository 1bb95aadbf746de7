"""End-to-end per-session processing: frames to walk records.

Home mode keeps the valid radially-aligned segments, suppressing any
segment whose time span overlaps another confirmed track (step length is
only reported when a single person is being tracked). Clinic mode matches
segments to the logged walkway passes instead and reports one record per
logged walk, detected or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import PipelineConfig
from .gaitmetrics import WalkResult, analyze_segment, direction_sign
from .pointcloud import Session
from .segmenter import (
    LinearSegment,
    WalkEntry,
    WalkLog,
    classify,
    match_clinic_walks,
    split_track,
)
from .tracker import Track, track_frames

MODES = ("home", "clinic")


@dataclass(frozen=True)
class WalkRecord:
    """One reportable walk: the JSON-facing record of a measurement.

    An unmatched clinic walk leaves the segment fields at their defaults.
    """

    track_id: int | None = None
    seg_index: int | None = None
    t_start: float | None = None
    direction: str | None = None    # "approach" | "recede"
    n_peaks: int = 0
    steps: tuple[tuple[float, float], ...] = ()  # (length_m, time_s)
    avg_step_len_m: float | None = None
    walk_index: int | None = None   # clinic only
    walk_type: str | None = None
    matched: bool | None = None
    reference_step_length: float | None = None

    def as_dict(self) -> dict:
        out = {
            "track_id": self.track_id,
            "seg_index": self.seg_index,
            "t_start": None if self.t_start is None else round(self.t_start, 6),
            "direction": self.direction,
            "n_peaks": self.n_peaks,
            "steps": [
                {"len_m": round(length, 6), "time_s": round(time, 6)}
                for length, time in self.steps
            ],
            "avg_step_len_m": (
                None if self.avg_step_len_m is None else round(self.avg_step_len_m, 6)
            ),
        }
        if self.walk_index is not None:
            out["walk_index"] = self.walk_index
            out["walk_type"] = self.walk_type
            out["matched"] = self.matched
            out["reference_step_length"] = self.reference_step_length
        return out


@dataclass
class SessionResult:
    tracks: list[Track]
    segments: list[LinearSegment]
    walks: list[WalkRecord] = field(default_factory=list)
    suppressed_segments: int = 0

    @property
    def n_measured(self) -> int:
        return sum(1 for w in self.walks if w.avg_step_len_m is not None)


def _walk_record(result: WalkResult | None, entry: WalkEntry | None = None) -> WalkRecord:
    """Build the one walks.jsonl record of a walk.

    A home walk passes its analysed segment, a matched clinic walk that and
    its walk-log entry, an unmatched clinic walk only the entry.
    """
    values = {}
    if result is not None:
        seg = result.segment
        values.update(
            track_id=seg.parent_track,
            seg_index=seg.seg_index,
            t_start=seg.t_start,
            direction="approach" if direction_sign(seg) < 0 else "recede",
            n_peaks=result.n_peaks,
            steps=tuple((s.step_length, s.step_time) for s in result.steps),
            avg_step_len_m=result.avg_step_length,
        )
    if entry is not None:
        values.update(
            walk_index=entry.walk_index,
            walk_type=entry.walk_type,
            matched=result is not None,
            reference_step_length=entry.reference_step_length,
        )
    return WalkRecord(**values)


def _overlaps_other_track(seg: LinearSegment, tracks: list[Track]) -> bool:
    for track in tracks:
        if track.track_id == seg.parent_track:
            continue
        if track.t[0] <= seg.t_end and seg.t_start <= track.t[-1]:
            return True
    return False


def process_session(
    session: Session,
    cfg: PipelineConfig,
    mode: str = "home",
    walklog: WalkLog | None = None,
) -> SessionResult:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "clinic" and walklog is None:
        raise ValueError("clinic mode requires a walk log")

    tracks = track_frames(session, cfg)
    segments: list[LinearSegment] = []
    for track in tracks:
        for seg in split_track(track, cfg.segmenter.rdp_epsilon):
            seg.valid = classify(
                seg, cfg.segmenter.min_length, cfg.segmenter.max_angle_deg
            )
            segments.append(seg)

    result = SessionResult(tracks=tracks, segments=segments)

    if mode == "clinic":
        for entry, seg in match_clinic_walks(segments, walklog, cfg.segmenter.clinic_tol):
            measured = None if seg is None else analyze_segment(seg, cfg.gait)
            result.walks.append(_walk_record(measured, entry))
        result.walks.sort(
            key=lambda w: (w.walk_index, w.t_start if w.t_start is not None else -1.0)
        )
        return result

    for seg in segments:
        if not seg.valid:
            continue
        if _overlaps_other_track(seg, tracks):
            result.suppressed_segments += 1
            continue
        result.walks.append(_walk_record(analyze_segment(seg, cfg.gait)))
    result.walks.sort(key=lambda w: (w.t_start, w.track_id, w.seg_index))
    return result
