"""End-to-end per-session processing: frames to walk records.

Each walk leaves as the dict that its walks.jsonl line holds. Home mode
keeps the valid radially-aligned segments, suppressing any segment whose
time span meets another confirmed track's lifetime (step length is only
reported when a single person is being tracked). Over the tracks' sorted
starts and ends, the lifetimes that meet [t_start, t_end] number
#(start <= t_end) - #(end < t_start); a segment's own track is always
among them, so a count above 1 suppresses the segment. Given a walk log,
clinic mode matches segments to its logged walkway passes instead and
reports one record per logged walk, detected or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class SessionResult:
    tracks: list[Track]
    segments: list[LinearSegment]
    walks: list[dict] = field(default_factory=list)  # walks.jsonl records, in file order
    suppressed_segments: int = 0


def _walk_record(result: WalkResult | None, entry: WalkEntry | None = None) -> dict:
    """The one walks.jsonl record of a walk.

    A home walk passes its analysed segment, a matched clinic walk that and
    its walk-log entry, an unmatched clinic walk only the entry, which
    leaves the segment fields at null, 0 and []. The clinic keys appear
    only with an entry.
    """
    record = {"track_id": None, "seg_index": None, "t_start": None, "direction": None,
              "n_peaks": 0, "steps": [], "avg_step_len_m": None}
    if result is not None:
        seg, avg = result.segment, result.avg_step_length
        record.update(
            track_id=seg.parent_track,
            seg_index=seg.seg_index,
            t_start=round(seg.t_start, 6),
            direction="approach" if direction_sign(seg) < 0 else "recede",
            n_peaks=result.n_peaks,
            steps=[{"len_m": round(s.step_length, 6), "time_s": round(s.step_time, 6)}
                   for s in result.steps],
            avg_step_len_m=None if avg is None else round(avg, 6),
        )
    if entry is not None:
        record.update(
            walk_index=entry.walk_index,
            walk_type=entry.walk_type,
            matched=result is not None,
            reference_step_length=entry.reference_step_length,
        )
    return record


def _suppressed(segments: list[LinearSegment], tracks: list[Track]) -> np.ndarray:
    """Per segment, whether another track's lifetime meets its time span."""
    starts = np.sort([track.t[0] for track in tracks])
    ends = np.sort([track.t[-1] for track in tracks])
    met = (np.searchsorted(starts, [seg.t_end for seg in segments], side="right")
           - np.searchsorted(ends, [seg.t_start for seg in segments], side="left"))
    return met > 1


def process_session(session: Session, cfg: PipelineConfig,
                    walklog: WalkLog | None = None) -> SessionResult:
    """Track, segment and measure one session; a walk log selects clinic mode."""
    tracks = track_frames(session, cfg)
    segments = [seg for track in tracks for seg in split_track(track, cfg.segmenter.rdp_epsilon)]
    for seg in segments:
        seg.valid = classify(seg, cfg.segmenter.min_length, cfg.segmenter.max_angle_deg)

    result = SessionResult(tracks=tracks, segments=segments)

    if walklog is not None:
        pairs = sorted(
            match_clinic_walks(segments, walklog, cfg.segmenter.clinic_tol),
            key=lambda p: (p[0].walk_index, -1.0 if p[1] is None else p[1].t_start),
        )
        result.walks = [
            _walk_record(None if seg is None else analyze_segment(seg, cfg.gait), entry)
            for entry, seg in pairs
        ]
        return result

    valid = sorted((seg for seg in segments if seg.valid),
                   key=lambda seg: (seg.t_start, seg.parent_track, seg.seg_index))
    suppressed = _suppressed(valid, tracks)
    result.suppressed_segments = int(suppressed.sum())
    result.walks = [_walk_record(analyze_segment(seg, cfg.gait))
                    for seg, out in zip(valid, suppressed) if not out]
    return result
