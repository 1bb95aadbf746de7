"""Radar frame data model and the JSONL session file format.

A session is a time-ordered stream of frames; each `Frame` is the set of
moving points the radar reported at one instant, as a (k, 4) array. A
`Session` stores them as columns, and `Session.frames` gives them back as
array views. Files are one JSON object per line: a header line followed by
one line per frame, all numeric fields serialized as fixed-point text with
6 fractional digits so that a written session reads back bit-for-bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

FORMAT_NAME = "gaitpipe-frames"
FORMAT_VERSION = 1

SITES = ("clinic", "home")

NAME_MAX = 255  # bytes in one file name on common file systems; bounds heatmap_<room>.csv

# m; a point farther out on any axis is dropped when a Session is built.
# Indoor radars see a few meters, and the tracker's squared distances of
# coordinates past about 1e154 overflow; `dbscan.eps` is bounded by it too.
MAX_COORD_M = 1000.0
# m/s; a point with a faster Doppler is dropped likewise. People walk at
# a few m/s, and the torso Doppler sums stay finite far past this.
MAX_DOPPLER_MS = 1000.0
# s; a frame line with a later time is malformed. About 317 years, so any
# recording fits, while the tracker's Kalman covariance overflows only over
# gaps near 1e77 s.
MAX_TIME_S = 1e10
# Bounds of a kept point's x, y, z, s: in front of the sensor (y >= 0),
# within MAX_COORD_M on each axis and MAX_DOPPLER_MS in Doppler. NaN fails
# every bound.
_POINT_LOW = np.array([-MAX_COORD_M, 0.0, -MAX_COORD_M, -MAX_DOPPLER_MS])
_POINT_HIGH = np.array([MAX_COORD_M, MAX_COORD_M, MAX_COORD_M, MAX_DOPPLER_MS])
# read_session converts the points of plain frame lines with one np.asarray
# per batch of about this many points; a bigger batch only adds memory.
BATCH_POINTS = 2048


class SessionFormatError(ValueError):
    """Malformed session file. Carries the 1-based physical line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotonicTimeError(SessionFormatError):
    """Frame timestamps must strictly increase within a session."""


class Frame(NamedTuple):
    """All points reported at time t (seconds since session start).

    `points` is a (k, 4) float array, one row x, y, z, s per moving point:
    position in meters, Doppler speed in m/s. x is lateral (radar at
    origin), y is range into the room, z is elevation relative to the radar
    mount. Negative s means the point approaches the radar.
    """

    t: float
    points: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class Session:
    """An ordered frame stream plus capture metadata, stored as columns.

    `points` (N, 4) holds every frame's points back to back, rows x, y, z, s;
    frame k at `times[k]` owns rows `offsets[k]:offsets[k + 1]`. Built from
    (t, (k, 4) array) pairs. However it is built, a session keeps only the
    points within `_POINT_LOW` and `_POINT_HIGH` and counts the others in
    `dropped_points`. The arrays are read-only: immutable after load; safe
    to share read-only across threads.
    """

    frame_rate: float
    site: str
    room_label: str
    device_id: str
    times: np.ndarray    # (F,)
    points: np.ndarray   # (N, 4)
    offsets: np.ndarray  # (F + 1,)
    dropped_points: int  # points not kept: non-finite, beyond MAX_COORD_M or MAX_DOPPLER_MS, or y < 0

    def __init__(self, frame_rate: float, site: str, room_label: str, device_id: str,
                 frames: Iterable[tuple[float, np.ndarray]] = ()):
        frames = list(frames)
        self._set(frame_rate, site, room_label, device_id,
                  np.array([t for t, _ in frames], dtype=float),
                  np.concatenate([np.empty((0, 4))] + [pts for _, pts in frames]),
                  [len(pts) for _, pts in frames])

    def _set(self, frame_rate: float, site: str, room_label: str, device_id: str,
             times: np.ndarray, points: np.ndarray, counts: list[int]) -> None:
        """Check the metadata and store the columns of frames at `times`
        holding `counts` of `points` each, less the points out of bounds."""
        if not frame_rate > 0:
            raise ValueError(f"frame_rate must be positive, got {frame_rate}")
        if site not in SITES:
            raise ValueError(f"site must be one of {SITES}, got {site!r}")
        # Spurious returns behind the sensor plane or out of range are
        # expected from CFAR output; drop rather than fail the whole session.
        keep = ((points >= _POINT_LOW) & (points <= _POINT_HIGH)).all(axis=1)
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        columns = dict(times=times, points=points[keep], offsets=kept_before[np.cumsum([0] + counts)])
        for a in columns.values():
            a.flags.writeable = False
        self.__dict__.update(frame_rate=frame_rate, site=site, room_label=room_label,
                             device_id=device_id, dropped_points=len(points) - int(kept_before[-1]),
                             **columns)

    @property
    def frames(self) -> tuple[Frame, ...]:
        """One Frame per frame in time order, its points a read-only view into `points`."""
        return tuple(map(Frame, self.times.tolist(), np.split(self.points, self.offsets[1:-1])))


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
        return tuple(json_float(v, "point entry") for v in raw)
    except ValueError:
        raise SessionFormatError(f"non-numeric point entry {raw!r}", line) from None


def _numeric_rows(pts: list) -> np.ndarray | None:
    """Points as (n, 4) rows from one `np.asarray`, or None when that does not
    give numeric rows. Never dtype=float, which turns null into NaN."""
    try:
        rows = np.asarray(pts)
    except (ValueError, OverflowError):  # ragged nesting, or ints past float range
        return None
    if rows.ndim == 2 and rows.shape[1] == 4 and rows.dtype.kind in "iuf":
        return rows
    return None


def _point_rows(pts: list, line: int) -> np.ndarray:
    """One frame line's `pts` as (n, 4) rows, checked one point at a time."""
    return np.array([_parse_point(raw, line) for raw in pts]).reshape(-1, 4)


def read_session(path: str | os.PathLike) -> Session:
    """Read a JSONL session file.

    Raises SessionFormatError (with the offending line number) for schema
    violations and NonMonotonicTimeError when frame times do not strictly
    increase. I/O problems propagate as OSError.

    Each line is checked as it is read, but the points of plain frame lines
    wait in one list, converted by one `np.asarray` per BATCH_POINTS points.
    np.asarray also turns JSON true/false next to numbers into 1 and 0. Both
    spell an "e", which no fixed-point number does, so a line with an "e" in
    it is checked point by point, and so is each line of a batch that does
    not convert, which finds its bad line. An error on a later line waits
    until the points before it are checked, so the first bad line raises.
    """
    times: list[float] = []
    counts: list[int] = []    # points per frame line, kept or not
    chunks: list[np.ndarray] = []  # converted points, in file order
    pending: list = []        # points of plain lines not yet converted
    pending_lines: list = []  # (line number, pts) of those lines
    header: dict | None = None

    def flush() -> None:
        nonlocal pending, pending_lines
        batch, lines = pending, pending_lines
        pending, pending_lines = [], []
        if batch:
            rows = _numeric_rows(batch)
            if rows is None:
                rows = np.concatenate([_point_rows(pts, line) for line, pts in lines])
            chunks.append(rows)

    with open(path, "r", encoding="utf-8") as fh:
        try:
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
                    frame_rate, room = _check_header(obj, lineno)
                    header = obj
                    continue

                if "t" not in obj or "pts" not in obj:
                    raise SessionFormatError("frame line must have 't' and 'pts'", lineno)
                try:
                    t = json_float(obj["t"], "t")
                except ValueError:
                    raise SessionFormatError(f"non-numeric t {obj['t']!r}", lineno) from None
                if not 0 <= t <= MAX_TIME_S:  # NaN fails both bounds
                    raise SessionFormatError(
                        f"t must be in [0, {MAX_TIME_S:g}] s, got {t}", lineno
                    )
                if times and t <= times[-1]:
                    raise NonMonotonicTimeError(
                        f"frame time {t} does not increase past {times[-1]}", lineno
                    )
                pts = obj["pts"]
                if not isinstance(pts, list):
                    raise SessionFormatError("'pts' must be an array", lineno)
                times.append(t)
                counts.append(len(pts))
                if "e" in text:
                    flush()
                    chunks.append(_point_rows(pts, lineno))
                elif pts:
                    pending += pts
                    pending_lines.append((lineno, pts))
                    if len(pending) >= BATCH_POINTS:
                        flush()
        finally:
            flush()  # after an error, a bad point on an earlier line raises instead

    if header is None:
        raise SessionFormatError("empty file: header line required", 1)

    points = np.concatenate([np.empty((0, 4))] + chunks)
    chunks.clear()  # frees the batches before the session copies the kept points
    session = Session.__new__(Session)  # over the columns, with no frame pairs to build
    session._set(frame_rate, str(header["site"]), room, str(header["device"]),
                 np.array(times, dtype=float), points, counts)
    return session


def _check_header(obj: dict, lineno: int) -> tuple[float, str]:
    """The frame rate and room of a valid header line; SessionFormatError otherwise."""
    if obj.get("format") != FORMAT_NAME:
        raise SessionFormatError(
            f"first line must be a header with format={FORMAT_NAME!r}", lineno
        )
    if obj.get("version") != FORMAT_VERSION or isinstance(obj["version"], bool):
        raise SessionFormatError(f"unsupported version {obj.get('version')!r}", lineno)
    for key in ("frame_rate", "site", "room", "device"):
        if key not in obj:
            raise SessionFormatError(f"header missing {key!r}", lineno)
    try:
        frame_rate = json_float(obj["frame_rate"], "frame_rate")
    except ValueError:
        frame_rate = math.nan
    if not frame_rate > 0:
        raise SessionFormatError(
            f"frame_rate must be a positive number, got {obj['frame_rate']!r}", lineno
        )
    if obj["site"] not in SITES:
        raise SessionFormatError(f"site must be one of {SITES}, got {obj['site']!r}", lineno)
    # The room names an output file, so it must not be a path.
    room = str(obj["room"])
    if room in ("", ".", "..") or any(c in room for c in "/\\\0"):
        raise SessionFormatError(f"room must be a plain name, got {room!r}", lineno)
    if len(f"heatmap_{room}.csv".encode("utf-8")) > NAME_MAX:
        raise SessionFormatError(
            f"room of {len(room)} characters is too long for a file name", lineno
        )
    return frame_rate, room


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
    values = session.points.ravel().tolist()  # four per point
    offsets = session.offsets.tolist()
    for t, lo, hi in zip(session.times.tolist(), offsets, offsets[1:]):
        text = ",".join(["[{:.6f},{:.6f},{:.6f},{:.6f}]"] * (hi - lo)).format(*values[4 * lo:4 * hi])
        lines.append(f'{{"t":{t:.6f},"pts":[{text}]}}')
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it into place.

    The temp file is created as open() creates a file, with mode 0o666 less
    the umask, so the artifact gets the mode a plain write would give it.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the artifact, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_float(value: object, where: str) -> float:
    """A parsed JSON number as a float; ValueError naming `where` for any other
    value (true and false included, though Python counts them as ints), and
    for an integer past the float range."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{where} must be a number in float range, got {value!r}")


def build_session(
    frame_rate: float,
    site: str,
    room_label: str,
    device_id: str,
    frames: Iterable[tuple[float, np.ndarray]],
) -> Session:
    """Assemble a session from raw (t, (n, 4) points) pairs, quantized to disk precision."""
    frames = [(_num(t), _quantize(np.reshape(pts, (-1, 4)))) for t, pts in frames]
    return Session(
        frame_rate=frame_rate,
        site=site,
        room_label=room_label,
        device_id=device_id,
        frames=frames,
    )
