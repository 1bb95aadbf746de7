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
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .pointcloud import atomic_write_text, json_float
from .tracker import Track

WALK_TYPES = ("control", "fast", "narrow", "obstacle", "dual_task")

WALKLOG_FORMAT = "gaitpipe-walklog"

# The clinic walkway's start and end in radar coordinates, meters.
WALKWAY_START = (0.0, 6.03)
WALKWAY_END = (0.0, 2.03)


@dataclass
class LinearSegment:
    """Rows lo to hi, both included, of a track: a maximal straight run.

    length is the chord between the first and last filtered positions;
    angle_deg is the misalignment from the radial axis (None when the
    chord is degenerate). valid is set by classify().
    """

    track: Track
    seg_index: int
    lo: int
    hi: int
    r_start: float = 0.0
    r_end: float = 0.0
    length: float = 0.0
    angle_deg: float | None = None
    valid: bool = False

    @property
    def parent_track(self) -> int:
        return self.track.track_id

    @property
    def t_start(self) -> float:
        return self.track.t[self.lo].item()

    @property
    def t_end(self) -> float:
        return self.track.t[self.hi].item()

    @property
    def first_xy(self) -> tuple[float, float]:
        return (self.track.x[self.lo].item(), self.track.y[self.lo].item())

    @property
    def last_xy(self) -> tuple[float, float]:
        return (self.track.x[self.hi].item(), self.track.y[self.hi].item())


@dataclass(frozen=True)
class WalkEntry:
    """One logged walkway pass. Its numbers are checked, and stored as
    floats, when it is built."""

    participant: str
    walk_index: int
    walk_type: str
    t_start: float
    reference_step_length: float | None = None

    def __post_init__(self):
        if not isinstance(self.participant, str):
            raise ValueError(f"'participant' must be a string, got {self.participant!r}")
        if not isinstance(self.walk_index, int) or isinstance(self.walk_index, bool):
            raise ValueError(f"'walk_index' must be an integer, got {self.walk_index!r}")
        if self.walk_type not in WALK_TYPES:
            raise ValueError(f"'walk_type' must be one of {WALK_TYPES}, got {self.walk_type!r}")
        object.__setattr__(self, "t_start", json_float(self.t_start, "'t_start'"))
        if (ref := self.reference_step_length) is not None:
            object.__setattr__(self, "reference_step_length",
                               json_float(ref, "'reference_step_length'"))


@dataclass(frozen=True)
class WalkLog:
    """Logged walkway passes for a clinic session.

    g_s and g_e are the walkway start and end in radar coordinates, each an
    [x, y] pair of numbers, stored as a tuple of floats.
    """

    entries: tuple[WalkEntry, ...]
    g_s: tuple[float, float] = WALKWAY_START
    g_e: tuple[float, float] = WALKWAY_END

    def __post_init__(self):
        for name in ("g_s", "g_e"):
            value = getattr(self, name)
            try:
                x, y = (json_float(v, name) for v in value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{name!r} must be an [x, y] pair of numbers, got {value!r}"
                ) from None
            object.__setattr__(self, name, (x, y))
        seen: dict[str, set[float]] = {}
        for e in self.entries:
            starts = seen.setdefault(e.participant, set())
            if e.t_start in starts:
                raise ValueError(f"duplicate walk start time {e.t_start} for {e.participant}")
            starts.add(e.t_start)


def _chord_distances(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each row of p to the segment ab (clamped projection).

    Each row's `(p - a) @ ab` comes from one stacked np.matmul, which rounds
    as the 1-D `@` on that row does; an elementwise px*abx + py*aby can
    differ in the last bit, and with it the kept vertices.
    """
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.hypot(*(p - a).T)
    u = np.matmul((p - a)[:, None, :], ab[:, None])[:, 0, 0] / denom
    closest = a + np.clip(u, 0.0, 1.0)[:, None] * ab
    return np.hypot(*(p - closest).T)


def rdp_decimate(polyline, epsilon: float) -> list[int]:
    """Indices of vertices kept by Ramer-Douglas-Peucker decimation.

    First and last vertices are always kept; every dropped vertex lies
    within epsilon of the chord joining its enclosing kept vertices. Of
    equally distant vertices the first is kept. Iterative (explicit stack)
    so arbitrarily long tracks cannot blow the recursion limit.
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
        d = _chord_distances(pts[lo + 1 : hi], pts[lo], pts[hi])
        best = int(np.argmax(d))
        if d[best] > epsilon:
            best += lo + 1
            keep[best] = True
            stack.append((lo, best))
            stack.append((best, hi))
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

    Consecutive segments share exactly their boundary row; the union of
    segments covers the whole track. Geometry is filled in; validity is
    left to classify().
    """
    if len(track) < 2:
        return []
    kept = rdp_decimate(np.column_stack([track.x, track.y]), rdp_epsilon)
    x, y = track.x.tolist(), track.y.tolist()
    return [
        LinearSegment(track, k, lo, hi, *segment_geometry((x[lo], y[lo]), (x[hi], y[hi])))
        for k, (lo, hi) in enumerate(zip(kept, kept[1:]))
    ]


def classify(segment: LinearSegment, min_length: float, max_angle_deg: float) -> bool:
    """True iff the segment is long enough and radially aligned.

    Degenerate segments (no angle) are never valid.
    """
    if segment.angle_deg is None:
        return False
    return segment.length >= min_length and segment.angle_deg <= max_angle_deg


def match_clinic_walks(
    segments: list[LinearSegment], log: WalkLog, tol: float
) -> list[tuple[WalkEntry, LinearSegment | None]]:
    """Pair each logged walk with its walkway-crossing segment, or None.

    A candidate segment must start within tol of the walkway start, end
    within tol of the walkway end, and be valid. Walks take their segment
    in order of start time, participant and walk index; each takes the
    remaining candidate nearest in start time, so a segment is used at
    most once. A walk left without a candidate pairs with None: that is
    data, not an error. One pair per logged walk, in that order.
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
    pairs = []
    for entry in sorted(log.entries, key=lambda e: (e.t_start, e.participant, e.walk_index)):
        best = min(
            candidates,
            key=lambda seg: (abs(seg.t_start - entry.t_start), seg.t_start,
                             seg.parent_track, seg.seg_index),
            default=None,
        )
        candidates = [seg for seg in candidates if seg is not best]
        pairs.append((entry, best))
    return pairs


def read_walklog(path: str | os.PathLike) -> WalkLog:
    """Read a walk log file; WalkEntry and WalkLog check the values.

    Malformed content raises ValueError naming the entry and field, not the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("format") != WALKLOG_FORMAT:
        raise ValueError("not a walk log file")
    if not isinstance(obj.get("entries"), list):
        raise ValueError("'entries' must be a list")
    entries = []
    for k, raw in enumerate(obj["entries"]):
        if not isinstance(raw, dict):
            raise ValueError(f"entry {k} is not an object")
        for f in fields(WalkEntry):
            if f.default is MISSING and f.name not in raw:
                raise ValueError(f"entry {k} has no {f.name!r}")
        known = {f.name: raw[f.name] for f in fields(WalkEntry) if f.name in raw}
        try:
            entries.append(WalkEntry(**{**known, "participant": str(raw["participant"])}))
        except ValueError as exc:
            raise ValueError(f"entry {k}: {exc}") from None
    return WalkLog(tuple(entries), **{key: obj[key] for key in ("g_s", "g_e") if key in obj})


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
