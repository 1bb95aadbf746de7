"""Torso-speed extraction and step-length measurement on a valid segment.

The torso return is isolated from each frame's assigned points by an
elevation gate around the radar mount height, applied by the tracker, plus
a travel-direction sign gate (arms swing against the direction of travel;
their Doppler has the wrong sign and is rejected). Speed peaks of the
series mark steps: consecutive peak pairs give a step time and, from the
tracked positions, a step length; implausible pairs are rejected as
missed-step artifacts, and a walk needs at least two surviving steps to
report an average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GaitConfig
from .segmenter import LinearSegment

APPROACH = -1  # moving toward the radar: torso Doppler negative
RECEDE = +1


@dataclass(frozen=True)
class TorsoSpeedSeries:
    """Per-frame torso speed along a segment, as four equal-length columns.

    Row i is one frame with qualifying torso points: its time, its speed
    (|mean torso Doppler|, m/s) and the track's position then. Frames with
    no qualifying torso points are omitted entirely.
    """

    times: np.ndarray
    speeds: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class StepMeasurement:
    step_length: float
    step_time: float


@dataclass(frozen=True)
class WalkResult:
    segment: LinearSegment
    steps: tuple[StepMeasurement, ...]
    avg_step_length: float | None
    n_peaks: int


def direction_sign(segment: LinearSegment) -> int:
    """-1 when the segment ends radially closer than it starts, else +1."""
    return APPROACH if segment.r_end < segment.r_start else RECEDE


def torso_speed(segment: LinearSegment) -> TorsoSpeedSeries:
    """Extract the torso-speed series from a segment's rows.

    A frame's speed is the magnitude of the mean Doppler of its torso points
    (|z| <= z_torso, see `tracker.track_row`) whose sign matches the
    direction of travel. Frames with no such points are omitted rather
    than interpolated.
    """
    track, rows = segment.track, slice(segment.lo, segment.hi + 1)
    column = 0 if direction_sign(segment) == APPROACH else 1
    has = track.torso_count[rows, column] > 0
    return TorsoSpeedSeries(times=track.t[rows][has],
                            speeds=np.abs(track.torso_mean[rows, column][has]),
                            xs=track.x[rows][has], ys=track.y[rows][has])


def detect_peaks(series: TorsoSpeedSeries, nms_window: float, min_peak_gap: float) -> list[float]:
    """Peak times of the torso-speed series.

    Candidates are samples that are strict maxima of a centered nms_window
    (in seconds, over actual sample times) and whose window lies fully
    inside the series span. Candidates are then accepted greedily in
    descending speed order (ties to the earlier sample), each kept only if
    it is at least min_peak_gap from every already-accepted peak. Returned
    in time order.
    """
    n = len(series)
    if n == 0:
        return []
    t = series.times
    v = series.speeds
    half = nms_window / 2.0
    # Sample times carry quantization dust far below the frame spacing;
    # boundary comparisons get a nanosecond of slack so that equal-by-
    # construction gaps compare the same way regardless of time origin.
    slack = 1e-9

    lo = np.searchsorted(t, t - half - slack, side="left")
    hi = np.searchsorted(t, t + half + slack, side="right")
    # Samples i - lo[i] before and hi[i] - 1 - i after sample i share its
    # window; a candidate is greater than each of them, one shift at a time.
    before, after = np.arange(n) - lo, hi - 1 - np.arange(n)
    covered = (t - t[0] >= half - slack) & (t[-1] - t >= half - slack)
    strict = covered & (before + after > 0)
    for k in range(1, int(max(before.max(), after.max())) + 1):
        strict[k:] &= (before[k:] < k) | (v[k:] > v[:-k])
        strict[:-k] &= (after[:-k] < k) | (v[:-k] > v[k:])
    candidates = np.flatnonzero(strict).tolist()
    t, v = t.tolist(), v.tolist()

    accepted: list[int] = []
    for i in sorted(candidates, key=lambda i: (-v[i], t[i])):
        if all(abs(t[i] - t[j]) >= min_peak_gap - slack for j in accepted):
            accepted.append(i)
    accepted.sort(key=lambda i: t[i])
    return [t[i] for i in accepted]


def measure_steps(
    segment: LinearSegment,
    series: TorsoSpeedSeries,
    peak_times: list[float],
    gait: GaitConfig,
) -> WalkResult:
    """Turn consecutive peak pairs into step measurements.

    Step length is the distance between the tracked positions at the two
    peak times, read from the series' x and y columns: peak times are
    sample times, so one interpolation per axis lands exactly on the
    samples. Steps longer than max_step_len or slower than max_step_time
    are dropped as missed-step outliers. The average is reported only
    when at least two steps survive.
    """
    px = np.interp(peak_times, series.times, series.xs) if peak_times else ()
    py = np.interp(peak_times, series.times, series.ys) if peak_times else ()
    steps = []
    for i, (t_a, t_b) in enumerate(zip(peak_times, peak_times[1:])):
        step_time = t_b - t_a
        step_length = math.hypot(px[i] - px[i + 1], py[i] - py[i + 1])
        if step_length <= 0 or step_length > gait.max_step_len or step_time > gait.max_step_time:
            continue
        steps.append(StepMeasurement(step_length=step_length, step_time=step_time))
    avg = math.fsum(s.step_length for s in steps) / len(steps) if len(steps) >= 2 else None
    return WalkResult(
        segment=segment,
        steps=tuple(steps),
        avg_step_length=avg,
        n_peaks=len(peak_times),
    )


def analyze_segment(segment: LinearSegment, gait: GaitConfig) -> WalkResult:
    """Full per-segment gait analysis: torso series, peaks, steps."""
    series = torso_speed(segment)
    peaks = detect_peaks(series, gait.nms_window, gait.min_peak_gap)
    return measure_steps(segment, series, peaks, gait)
