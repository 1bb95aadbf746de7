"""Pipeline configuration: one home for every tunable parameter.

Defaults follow the operating values the pipeline was designed around:
RDP tolerance 0.5 m, segment validity thresholds (2 m length, 15 deg from
the radial axis), torso elevation gate 0.25 m, 0.4 s peak suppression
window, and 0.3 s minimum peak-to-peak time. Every one is set by a
TOML-style config file with [section] key = value lines, or in code; a
PipelineConfig checks its values when it is built.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields

from .pointcloud import MAX_COORD_M

# Bounds of some fields, beyond finite and positive. eps is a length in
# the room, bounded like a session's coordinates. The gate is a length in
# the room too; so bounded, in-gate association costs stay far below the
# cost that forbids a pair, and the in-gate pairs of a frame where no two
# contend are its optimal assignment. The noise levels' squares
# then keep the Kalman covariance finite over any gap up to
# pointcloud.MAX_TIME_S, and the measurement noise's square is a normal
# float, so the filter's innovation variance never underflows to 0.
MAX_SIGMA = 1e3
MIN_SIGMA_M = 1e-150
_AT_MOST = {"dbscan.eps": MAX_COORD_M, "tracker.gate": MAX_COORD_M,
            "tracker.sigma_a": MAX_SIGMA, "tracker.sigma_m": MAX_SIGMA}
_AT_LEAST = {"tracker.sigma_m": MIN_SIGMA_M}


class ConfigError(ValueError):
    """Invalid configuration value or unreadable config file."""


@dataclass(frozen=True)
class DbscanConfig:
    eps: float = 0.4            # clustering radius, meters, in (x, y, z)
    min_pts: int = 3            # neighborhood size for a core point (self included)
    min_cluster_size: int = 5   # clusters smaller than this are pets/clutter
    merge_radius: float = 0.4   # detections closer than this are one object


@dataclass(frozen=True)
class TrackerConfig:
    gate: float = 1.0           # max association distance, meters
    sigma_a: float = 2.0        # process noise (white acceleration), m/s^2
    sigma_m: float = 0.15       # measurement noise, meters
    confirm_hits: int = 3       # consecutive hits before a track is confirmed
    kill_misses: int = 5        # consecutive misses before a track is dropped


@dataclass(frozen=True)
class SegmenterConfig:
    rdp_epsilon: float = 0.5    # polyline decimation tolerance, meters
    min_length: float = 2.0     # minimum valid segment length, meters
    max_angle_deg: float = 15.0  # maximum radial misalignment, degrees
    clinic_tol: float = 1.0     # endpoint tolerance for walkway matching, meters


@dataclass(frozen=True)
class GaitConfig:
    z_torso: float = 0.25       # torso elevation gate half-width, meters
    nms_window: float = 0.4     # centered peak-suppression window, seconds
    min_peak_gap: float = 0.3   # minimum peak-to-peak time, seconds
    max_step_len: float = 1.0   # outlier bound, meters
    max_step_time: float = 3.0  # outlier bound, seconds


@dataclass(frozen=True)
class ReportingConfig:
    heatmap_cell: float = 0.25  # occupancy grid cell size, meters


@dataclass(frozen=True)
class PipelineConfig:
    dbscan: DbscanConfig = field(default_factory=DbscanConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    segmenter: SegmenterConfig = field(default_factory=SegmenterConfig)
    gait: GaitConfig = field(default_factory=GaitConfig)
    reporting: ReportingConfig = field(default_factory=ReportingConfig)

    def __post_init__(self) -> None:
        """Raise ConfigError unless every value is in range, so a config is
        valid once built, from a file or in code. Every field is a count or
        a size."""
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            for f in fields(section):
                key, value = f"{section_field.name}.{f.name}", getattr(section, f.name)
                if not 0 < value < math.inf:
                    raise ConfigError(f"{key} must be finite and positive, got {value}")
                if value > _AT_MOST.get(key, math.inf):
                    raise ConfigError(f"{key} must be at most {_AT_MOST[key]:g}, got {value}")
                if value < _AT_LEAST.get(key, 0):
                    raise ConfigError(f"{key} must be at least {_AT_LEAST[key]:g}, got {value}")
        if not self.gait.min_peak_gap > self.gait.nms_window / 2:
            raise ConfigError(
                f"gait.min_peak_gap ({self.gait.min_peak_gap}) must exceed half the "
                f"suppression window ({self.gait.nms_window / 2})"
            )

    def check_frame_rate(self, frame_rate: float, source: str = "") -> None:
        """Raise ConfigError unless gait.nms_window covers two frame intervals.

        The frame rate comes from a session header, the only place it is
        recorded, so this runs once per session rather than at load time.
        """
        if not self.gait.nms_window >= 2.0 / frame_rate:
            raise ConfigError(
                f"{source}gait.nms_window ({self.gait.nms_window}) must cover at least "
                f"two frame intervals at {frame_rate} fps"
            )


_SECTION_TYPES = {f.name: f.default_factory for f in fields(PipelineConfig)}


def _coerce(name: str, raw: str, target_type: type):
    text = raw.strip().strip('"').strip("'")
    try:
        return target_type(text)
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {raw!r}") from None


def load_config(path: str | os.PathLike | None) -> PipelineConfig:
    """Load a config file, or return defaults when path is None.

    The file is TOML-style: [section] headers with key = value lines;
    values may be bare or quoted. Unknown sections or keys are errors so
    typos never silently fall back to defaults.
    """
    if path is None:
        return PipelineConfig()

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc.strerror}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    sections: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{section}]")
        section_type = _SECTION_TYPES[section]
        known = {f.name: f.type for f in fields(section_type)}
        kwargs = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key [{section}] {key}")
            ftype = {"float": float, "int": int}[known[key]]
            kwargs[key] = _coerce(f"{section}.{key}", raw, ftype)
        sections[section] = section_type(**kwargs)
    return PipelineConfig(**sections)

