"""Torso-speed extraction and step-length measurement on a valid segment.

The torso return is isolated from each frame's assigned points by an
elevation gate around the radar mount height plus a travel-direction sign
gate (arms can swing against the direction of travel; their Doppler has
the wrong sign and is rejected). Speed peaks of the resulting series mark
steps: consecutive peak pairs give a step time and, from the tracked
positions, a step length; implausible pairs are rejected as missed-step
artifacts, and a walk needs at least two surviving steps to report an
average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import GaitConfig
from .segmenter import LinearSegment

APPROACH = -1  # moving toward the radar: torso Doppler negative
RECEDE = +1


@dataclass(frozen=True)
class SpeedSample:
    t: float
    x: float
    y: float
    v: float              # |mean torso Doppler| at this frame, m/s
    n_torso_points: int


@dataclass(frozen=True)
class TorsoSpeedSeries:
    """Per-frame torso speed along a segment, direction-normalized.

    direction_sign is -1 for approach (range shrinking) and +1 for recede.
    Frames with no qualifying torso points are omitted entirely.
    """

    samples: tuple[SpeedSample, ...]
    direction_sign: int

    def __len__(self) -> int:
        return len(self.samples)

    @cached_property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @cached_property
    def speeds(self) -> np.ndarray:
        return np.array([s.v for s in self.samples])

    @cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Tracked x and y of each sample."""
        return np.array([s.x for s in self.samples]), np.array([s.y for s in self.samples])


@dataclass(frozen=True)
class StepMeasurement:
    step_length: float
    step_time: float
    t_peak_a: float
    t_peak_b: float


@dataclass(frozen=True)
class WalkResult:
    segment: LinearSegment
    steps: tuple[StepMeasurement, ...]
    avg_step_length: float | None
    n_peaks: int


def direction_sign(segment: LinearSegment) -> int:
    """-1 when the segment ends radially closer than it starts, else +1."""
    return APPROACH if segment.r_end < segment.r_start else RECEDE


def torso_speed(segment: LinearSegment, z_torso: float) -> TorsoSpeedSeries:
    """Extract the torso-speed series from a segment's per-frame points.

    A point qualifies as torso when |z| <= z_torso and its Doppler sign
    matches the direction of travel; each sample's speed is the magnitude
    of the mean qualifying Doppler. Samples with no qualifying points are
    omitted rather than interpolated.
    """
    sign = direction_sign(segment)
    samples = []
    for state in segment.states:
        s = state.points[:, 3]
        speeds = s[(np.abs(state.points[:, 2]) <= z_torso) & (sign * s > 0)].tolist()
        if not speeds:
            continue
        samples.append(
            SpeedSample(
                t=state.t,
                x=state.x,
                y=state.y,
                v=abs(math.fsum(speeds) / len(speeds)),
                n_torso_points=len(speeds),
            )
        )
    return TorsoSpeedSeries(samples=tuple(samples), direction_sign=sign)


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

    candidates = []
    for i in range(n):
        if t[i] - t[0] < half - slack or t[-1] - t[i] < half - slack:
            continue  # window not fully covered by the series
        lo = np.searchsorted(t, t[i] - half - slack, side="left")
        hi = np.searchsorted(t, t[i] + half + slack, side="right")
        window = v[lo:hi]
        if len(window) <= 1:
            continue
        others = np.concatenate([window[: i - lo], window[i - lo + 1 :]])
        if len(others) and v[i] > others.max():
            candidates.append(i)

    accepted: list[int] = []
    for i in sorted(candidates, key=lambda i: (-v[i], t[i])):
        if all(abs(t[i] - t[j]) >= min_peak_gap - slack for j in accepted):
            accepted.append(i)
    accepted.sort(key=lambda i: t[i])
    return [float(t[i]) for i in accepted]


def _position_at(series: TorsoSpeedSeries, t_peak: float) -> tuple[float, float]:
    """Tracked position at a peak time.

    Peak times are sample times, so the interpolation lands exactly on
    the sample's tracked position.
    """
    xs, ys = series.positions
    return float(np.interp(t_peak, series.times, xs)), float(np.interp(t_peak, series.times, ys))


def measure_steps(
    segment: LinearSegment,
    series: TorsoSpeedSeries,
    peak_times: list[float],
    gait: GaitConfig,
) -> WalkResult:
    """Turn consecutive peak pairs into step measurements.

    Step length is the distance between the tracked positions at the two
    peak times; steps longer than max_step_len or slower than
    max_step_time are dropped as missed-step outliers. The average is
    reported only when at least two steps survive.
    """
    steps = []
    for t_a, t_b in zip(peak_times, peak_times[1:]):
        step_time = t_b - t_a
        xa, ya = _position_at(series, t_a)
        xb, yb = _position_at(series, t_b)
        step_length = math.hypot(xa - xb, ya - yb)
        if step_length <= 0 or step_length > gait.max_step_len:
            continue
        if step_time > gait.max_step_time:
            continue
        steps.append(
            StepMeasurement(
                step_length=step_length,
                step_time=step_time,
                t_peak_a=t_a,
                t_peak_b=t_b,
            )
        )
    avg = (
        math.fsum(s.step_length for s in steps) / len(steps)
        if len(steps) >= 2
        else None
    )
    return WalkResult(
        segment=segment,
        steps=tuple(steps),
        avg_step_length=avg,
        n_peaks=len(peak_times),
    )


def analyze_segment(segment: LinearSegment, gait: GaitConfig) -> WalkResult:
    """Full per-segment gait analysis: torso series, peaks, steps."""
    series = torso_speed(segment, gait.z_torso)
    peaks = detect_peaks(series, gait.nms_window, gait.min_peak_gap)
    return measure_steps(segment, series, peaks, gait)
