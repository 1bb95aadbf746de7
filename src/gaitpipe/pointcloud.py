"""Radar frame data model and the JSONL session file format.

A session is a time-ordered stream of frames; each frame is the set of
moving points the radar reported at one instant. Files are one JSON object
per line: a header line followed by one line per frame, all numeric fields
serialized as fixed-point text with 6 fractional digits so that a written
session reads back bit-for-bit.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

FORMAT_NAME = "gaitpipe-frames"
FORMAT_VERSION = 1

SITES = ("clinic", "home")


class SessionFormatError(ValueError):
    """Malformed session file. Carries the 1-based physical line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotonicTimeError(SessionFormatError):
    """Frame timestamps must strictly increase within a session."""


class RadarPoint(NamedTuple):
    """One moving-point detection: position in meters, Doppler speed in m/s.

    x is lateral (radar at origin), y is range into the room, z is elevation
    relative to the radar mount. Negative s means the point approaches the
    radar.
    """

    x: float
    y: float
    z: float
    s: float


class Frame(NamedTuple):
    """All points reported at time t (seconds since session start)."""

    t: float
    points: tuple[RadarPoint, ...] | np.ndarray = ()  # (n, 4) rows also build a Session


def point_array(points) -> np.ndarray:
    """(n, 4) float rows x, y, z, s from an array or a sequence of (x, y, z, s)."""
    return np.asarray(points, dtype=float).reshape(-1, 4)


@dataclass(frozen=True, eq=False, init=False)
class Session:
    """An ordered frame stream plus capture metadata, stored as columns.

    `points` (N, 4) holds every frame's points back to back, rows x, y, z, s;
    frame k at `times[k]` owns rows `offsets[k]:offsets[k + 1]`. Built from
    Frames (or any (t, points) pairs); the arrays are read-only: immutable
    after load; safe to share read-only across threads.
    """

    frame_rate: float
    site: str
    room_label: str
    device_id: str
    times: np.ndarray    # (F,)
    points: np.ndarray   # (N, 4)
    offsets: np.ndarray  # (F + 1,)
    dropped_points: int = 0  # points rejected at ingest (non-finite or y < 0)

    def __init__(self, frame_rate: float, site: str, room_label: str, device_id: str,
                 frames: Iterable[Frame] = (), dropped_points: int = 0):
        if not frame_rate > 0:
            raise ValueError(f"frame_rate must be positive, got {frame_rate}")
        if site not in SITES:
            raise ValueError(f"site must be one of {SITES}, got {site!r}")
        frames = [(t, point_array(pts)) for t, pts in frames]
        columns = dict(
            times=np.array([t for t, _ in frames], dtype=float),
            points=np.concatenate([point_array(())] + [pts for _, pts in frames]),
            offsets=np.cumsum([0] + [len(pts) for _, pts in frames]),
        )
        for a in columns.values():
            a.flags.writeable = False
        self.__dict__.update(frame_rate=frame_rate, site=site, room_label=room_label,
                             device_id=device_id, dropped_points=dropped_points, **columns)

    @property
    def frames(self) -> tuple[Frame, ...]:
        """The frames as Frame/RadarPoint tuples, rebuilt from the columns on each access."""
        rows = list(map(tuple.__new__, repeat(RadarPoint), self.points.tolist()))
        bounds = self.offsets.tolist()
        return tuple(
            Frame(t, tuple(rows[a:b])) for t, a, b in zip(self.times.tolist(), bounds, bounds[1:])
        )

    def frame_points(self) -> Iterator[tuple[float, np.ndarray]]:
        """(t, that frame's (k, 4) rows of `points`) for each frame in time order."""
        return zip(self.times.tolist(), np.split(self.points, self.offsets[1:-1]))


def _num(value: float) -> float:
    """Quantize to the 6-decimal precision used on disk."""
    return float(f"{value:.6f}")


def _quantize(points: np.ndarray) -> np.ndarray:
    """_num of every value in an array."""
    text = map("{:.6f}".format, points.ravel().tolist())
    return np.array(list(map(float, text))).reshape(points.shape)


def _parse_point(raw: object, line: int) -> tuple[float, float, float, float]:
    """Validate one [x, y, z, s] entry that is not plainly numeric."""
    if not isinstance(raw, list) or len(raw) != 4:
        raise SessionFormatError(
            f"point must be a 4-element [x, y, z, s] array, got {raw!r}", line
        )
    try:
        return tuple(float(v) for v in raw)
    except (TypeError, ValueError, OverflowError):
        raise SessionFormatError(f"non-numeric point entry {raw!r}", line) from None


def _point_rows(pts: list, line: int) -> np.ndarray:
    """One frame line's `pts` as (n, 4) rows: one `np.asarray` when that gives
    numeric rows (never dtype=float, which turns null into NaN), else per point."""
    try:
        rows = np.asarray(pts)
    except (ValueError, OverflowError):  # ragged nesting, or ints past float range
        rows = None
    if rows is not None and rows.ndim == 2 and rows.shape[1] == 4 and rows.dtype.kind in "biuf":
        return rows
    return point_array([_parse_point(raw, line) for raw in pts])


def read_session(path: str | os.PathLike) -> Session:
    """Read a JSONL session file.

    Raises SessionFormatError (with the offending line number) for schema
    violations and NonMonotonicTimeError when frame times do not strictly
    increase. I/O problems propagate as OSError.
    """
    frames: list[Frame] = []
    dropped = 0
    header: dict | None = None
    prev_t: float | None = None

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.strip()
            if not text:
                continue
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SessionFormatError(f"invalid JSON ({exc.msg})", lineno) from None
            if not isinstance(obj, dict):
                raise SessionFormatError("expected a JSON object", lineno)

            if header is None:
                if obj.get("format") != FORMAT_NAME:
                    raise SessionFormatError(
                        f"first line must be a header with format={FORMAT_NAME!r}", lineno
                    )
                if obj.get("version") != FORMAT_VERSION:
                    raise SessionFormatError(
                        f"unsupported version {obj.get('version')!r}", lineno
                    )
                for key in ("frame_rate", "site", "room", "device"):
                    if key not in obj:
                        raise SessionFormatError(f"header missing {key!r}", lineno)
                try:
                    frame_rate = float(obj["frame_rate"])
                except (TypeError, ValueError, OverflowError):
                    frame_rate = math.nan
                if not frame_rate > 0:
                    raise SessionFormatError(
                        f"frame_rate must be a positive number, got {obj['frame_rate']!r}", lineno
                    )
                if obj["site"] not in SITES:
                    raise SessionFormatError(
                        f"site must be one of {SITES}, got {obj['site']!r}", lineno
                    )
                # The room names an output file, so it must not be a path.
                room = str(obj["room"])
                if room in ("", ".", "..") or any(c in room for c in "/\\\0"):
                    raise SessionFormatError(f"room must be a plain name, got {room!r}", lineno)
                header = obj
                continue

            if "t" not in obj or "pts" not in obj:
                raise SessionFormatError("frame line must have 't' and 'pts'", lineno)
            try:
                t = float(obj["t"])
            except (TypeError, ValueError):
                raise SessionFormatError(f"non-numeric t {obj['t']!r}", lineno) from None
            if not math.isfinite(t) or t < 0:
                raise SessionFormatError(f"t must be finite and >= 0, got {t}", lineno)
            if prev_t is not None and t <= prev_t:
                raise NonMonotonicTimeError(
                    f"frame time {t} does not increase past {prev_t}", lineno
                )
            prev_t = t

            pts_raw = obj["pts"]
            if not isinstance(pts_raw, list):
                raise SessionFormatError("'pts' must be an array", lineno)
            rows = _point_rows(pts_raw, lineno)
            # Spurious returns behind the sensor plane are expected from CFAR
            # output; drop rather than fail the whole session.
            keep = np.isfinite(rows).all(axis=1) & (rows[:, 1] >= 0)
            dropped += len(rows) - int(np.count_nonzero(keep))
            frames.append(Frame(t=t, points=rows[keep]))

    if header is None:
        raise SessionFormatError("empty file: header line required", 1)

    return Session(
        frame_rate=frame_rate,
        site=str(header["site"]),
        room_label=room,
        device_id=str(header["device"]),
        frames=tuple(frames),
        dropped_points=dropped,
    )


def write_session(session: Session, path: str | os.PathLike) -> None:
    """Write a session file atomically (temp file + rename)."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "frame_rate": session.frame_rate,
        "site": session.site,
        "room": session.room_label,
        "device": session.device_id,
    }
    lines = [json.dumps(header)]
    for t, pts in session.frame_points():
        text = ",".join(["[{:.6f},{:.6f},{:.6f},{:.6f}]"] * len(pts)).format(*pts.ravel().tolist())
        lines.append(f'{{"t":{t:.6f},"pts":[{text}]}}')
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_session(
    frame_rate: float,
    site: str,
    room_label: str,
    device_id: str,
    frames: Iterable[tuple[float, np.ndarray]],
) -> Session:
    """Assemble a session from raw (t, (n, 4) points) pairs, quantized to disk precision."""
    out = []
    for t, pts in frames:
        out.append(Frame(t=_num(t), points=_quantize(point_array(pts))))
    return Session(
        frame_rate=frame_rate,
        site=site,
        room_label=room_label,
        device_id=device_id,
        frames=tuple(out),
    )
