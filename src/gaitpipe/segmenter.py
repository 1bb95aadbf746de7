"""Track segmentation and radially-aligned segment selection.

Tracks are treated as x-y polylines and decimated with the
Ramer-Douglas-Peucker algorithm; each run between kept vertices becomes a
linear segment. A segment is valid for gait analysis when it is long
enough and oriented close to the radar's radial axis: the orientation is
the rotation angle, about the radially farther endpoint, that would swing
the segment onto the line of sight.

In the clinic, segments are instead matched to logged walkway passes by
endpoint proximity and start-time closeness.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .pointcloud import atomic_write_text, json_float
from .tracker import Track, TrackState

WALK_TYPES = ("control", "fast", "narrow", "obstacle", "dual_task")

WALKLOG_FORMAT = "gaitpipe-walklog"

# The clinic walkway's start and end in radar coordinates, meters.
WALKWAY_START = (0.0, 6.03)
WALKWAY_END = (0.0, 2.03)


@dataclass
class LinearSegment:
    """A maximal straight sub-track with its radial-alignment geometry.

    length is the chord between the first and last filtered positions;
    angle_deg is the misalignment from the radial axis (None when the
    chord is degenerate). valid is set by classify().
    """

    parent_track: int
    seg_index: int
    states: tuple[TrackState, ...]
    r_start: float = 0.0
    r_end: float = 0.0
    length: float = 0.0
    angle_deg: float | None = None
    valid: bool = False

    @property
    def t_start(self) -> float:
        return self.states[0].t

    @property
    def t_end(self) -> float:
        return self.states[-1].t

    @property
    def first_xy(self) -> tuple[float, float]:
        return (self.states[0].x, self.states[0].y)

    @property
    def last_xy(self) -> tuple[float, float]:
        return (self.states[-1].x, self.states[-1].y)


@dataclass(frozen=True)
class WalkEntry:
    participant: str
    walk_index: int
    walk_type: str
    t_start: float
    reference_step_length: float | None = None


@dataclass(frozen=True)
class WalkLog:
    """Logged walkway passes for a clinic session.

    g_s and g_e are the walkway start and end in radar coordinates.
    """

    entries: tuple[WalkEntry, ...]
    g_s: tuple[float, float] = WALKWAY_START
    g_e: tuple[float, float] = WALKWAY_END

    def __post_init__(self):
        seen: dict[str, set[float]] = {}
        for e in self.entries:
            starts = seen.setdefault(e.participant, set())
            if e.t_start in starts:
                raise ValueError(
                    f"duplicate walk start time {e.t_start} for {e.participant}"
                )
            starts.add(e.t_start)


def _point_segment_dist(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from p to the segment ab (clamped projection)."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    u = float((p - a) @ ab) / denom
    u = min(1.0, max(0.0, u))
    closest = a + u * ab
    return float(np.hypot(*(p - closest)))


def rdp_decimate(polyline, epsilon: float) -> list[int]:
    """Indices of vertices kept by Ramer-Douglas-Peucker decimation.

    First and last vertices are always kept; every dropped vertex lies
    within epsilon of the chord joining its enclosing kept vertices.
    Iterative (explicit stack) so arbitrarily long tracks cannot blow the
    recursion limit.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    pts = np.asarray(polyline, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("polyline must contain at least 2 (x, y) points")

    keep = np.zeros(len(pts), dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, len(pts) - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        a, b = pts[lo], pts[hi]
        best_d = -1.0
        best_i = -1
        for i in range(lo + 1, hi):
            d = _point_segment_dist(pts[i], a, b)
            if d > best_d:
                best_d = d
                best_i = i
        if best_d > epsilon:
            keep[best_i] = True
            stack.append((lo, best_i))
            stack.append((best_i, hi))
    return np.flatnonzero(keep).tolist()


def segment_geometry(
    start_xy: tuple[float, float], end_xy: tuple[float, float]
) -> tuple[float, float, float, float | None]:
    """Radial distances, chord length, and misalignment angle for a chord.

    The angle is computed by the law of cosines in the triangle formed by
    the radar origin and the two endpoints, taken at the radially farther
    endpoint, with the arccos argument clamped to [-1, 1] so collinear
    chords cannot produce NaN. Returns (r_start, r_end, length, angle_deg);
    angle_deg is None for a degenerate (zero-length) chord.
    """
    x0, y0 = start_xy
    x1, y1 = end_xy
    r_start = math.hypot(x0, y0)
    r_end = math.hypot(x1, y1)
    length = math.hypot(x0 - x1, y0 - y1)
    if length == 0.0:
        return r_start, r_end, length, None
    r_far = max(r_start, r_end)
    r_near = min(r_start, r_end)
    arg = (r_far * r_far + length * length - r_near * r_near) / (2.0 * length * r_far)
    arg = min(1.0, max(-1.0, arg))
    return r_start, r_end, length, math.degrees(math.acos(arg))


def split_track(track: Track, rdp_epsilon: float) -> list[LinearSegment]:
    """Split a track into linear segments at its RDP-kept vertices.

    Consecutive segments share exactly their boundary state; the union of
    segments covers the whole track. Geometry is filled in; validity is
    left to classify().
    """
    states = track.states
    if len(states) < 2:
        return []
    poly = [(s.x, s.y) for s in states]
    kept = rdp_decimate(poly, rdp_epsilon)
    segments = []
    for k in range(len(kept) - 1):
        lo, hi = kept[k], kept[k + 1]
        seg = LinearSegment(
            parent_track=track.track_id,
            seg_index=k,
            states=tuple(states[lo : hi + 1]),
        )
        seg.r_start, seg.r_end, seg.length, seg.angle_deg = segment_geometry(
            seg.first_xy, seg.last_xy
        )
        segments.append(seg)
    return segments


def classify(segment: LinearSegment, min_length: float, max_angle_deg: float) -> bool:
    """True iff the segment is long enough and radially aligned.

    Degenerate segments (no angle) are never valid.
    """
    if segment.angle_deg is None:
        return False
    return segment.length >= min_length and segment.angle_deg <= max_angle_deg


@dataclass(frozen=True)
class ClinicMatch:
    matches: tuple[tuple[WalkEntry, LinearSegment], ...]
    unmatched: tuple[WalkEntry, ...]


def match_clinic_walks(
    segments: list[LinearSegment], log: WalkLog, tol: float
) -> ClinicMatch:
    """Pair each logged walk with its walkway-crossing segment.

    A candidate segment must start within tol of the walkway start, end
    within tol of the walkway end, and be valid; among candidates the one
    nearest in start time wins. Each segment is used at most once; walks
    with no candidate are reported unmatched (they are data, not errors).
    """
    gs = np.asarray(log.g_s, dtype=float)
    ge = np.asarray(log.g_e, dtype=float)
    candidates = [
        seg
        for seg in segments
        if seg.valid
        and np.hypot(*(np.asarray(seg.first_xy) - gs)) <= tol
        and np.hypot(*(np.asarray(seg.last_xy) - ge)) <= tol
    ]
    used: set[int] = set()
    matches = []
    unmatched = []
    for entry in sorted(log.entries, key=lambda e: (e.t_start, e.participant, e.walk_index)):
        best = None
        for idx, seg in enumerate(candidates):
            if idx in used:
                continue
            key = (abs(seg.t_start - entry.t_start), seg.t_start, seg.parent_track, seg.seg_index)
            if best is None or key < best[0]:
                best = (key, idx)
        if best is None:
            unmatched.append(entry)
        else:
            used.add(best[1])
            matches.append((entry, candidates[best[1]]))
    return ClinicMatch(matches=tuple(matches), unmatched=tuple(unmatched))


_REQUIRED = object()


def _number(value: object) -> float:
    return json_float(value, "value")


def _index(value: object) -> int:
    """A JSON integer; true and false are not indices."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("not an integer")
    return value


def _xy(value: object) -> tuple[float, float]:
    x, y = value
    return _number(x), _number(y)


def _optional_float(value: object) -> float | None:
    return None if value is None else _number(value)


def read_walklog(path: str | os.PathLike) -> WalkLog:
    """Read a walk log file.

    Malformed content raises ValueError naming the entry and field, not the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("format") != WALKLOG_FORMAT:
        raise ValueError("not a walk log file")
    if not isinstance(obj.get("entries"), list):
        raise ValueError("'entries' must be a list")

    def field(raw: dict, key: str, convert, where: str, default=_REQUIRED):
        if key not in raw:
            if default is _REQUIRED:
                raise ValueError(f"{where} has no {key!r}")
            return default
        try:
            return convert(raw[key])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{where} has invalid {key!r}: {raw[key]!r}") from None

    entries = []
    for k, raw in enumerate(obj["entries"]):
        where = f"entry {k}"
        if not isinstance(raw, dict):
            raise ValueError(f"{where} is not an object")
        walk_type = field(raw, "walk_type", str, where)
        if walk_type not in WALK_TYPES:
            raise ValueError(f"{where} has unknown walk_type {walk_type!r}")
        entries.append(
            WalkEntry(
                participant=field(raw, "participant", str, where),
                walk_index=field(raw, "walk_index", _index, where),
                walk_type=walk_type,
                t_start=field(raw, "t_start", _number, where),
                reference_step_length=field(
                    raw, "reference_step_length", _optional_float, where, default=None
                ),
            )
        )
    return WalkLog(
        entries=tuple(entries),
        g_s=field(obj, "g_s", _xy, "header", default=WALKWAY_START),
        g_e=field(obj, "g_e", _xy, "header", default=WALKWAY_END),
    )


def write_walklog(log: WalkLog, path: str | os.PathLike) -> None:
    obj = {
        "format": WALKLOG_FORMAT,
        "version": 1,
        "g_s": list(log.g_s),
        "g_e": list(log.g_e),
        "entries": [
            {
                "participant": e.participant,
                "walk_index": e.walk_index,
                "walk_type": e.walk_type,
                "t_start": round(e.t_start, 6),
                "reference_step_length": (
                    None
                    if e.reference_step_length is None
                    else round(e.reference_step_length, 6)
                ),
            }
            for e in log.entries
        ],
    }
    atomic_write_text(path, json.dumps(obj, indent=1) + "\n")
