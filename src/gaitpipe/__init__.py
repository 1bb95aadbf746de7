"""Radar point-cloud gait pipeline.

Frames of (x, y, z, Doppler) detections are clustered into people, tracked
in the x-y plane, split into linear segments, filtered to radially aligned
runs, and turned into step lengths via torso-speed peak spacing. A scene
simulator with exact ground truth and the evaluation statistics (error
tables, ICC reliability) round out the toolkit.
"""

from .config import PipelineConfig, load_config
from .pointcloud import Session, read_session, write_session
from .tracker import Detection, Track, track_frames
from .segmenter import LinearSegment, WalkLog, WalkEntry, match_clinic_walks, split_track
from .gaitmetrics import StepMeasurement, TorsoSpeedSeries, WalkResult, analyze_segment
from .simulator import SceneSpec, WalkerSpec, make_scenario, simulate
from .stats import RatingsMatrix, icc2k, icc3k
from .pipeline import SessionResult, process_session

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "load_config",
    "Session",
    "read_session",
    "write_session",
    "Detection",
    "Track",
    "track_frames",
    "LinearSegment",
    "WalkLog",
    "WalkEntry",
    "match_clinic_walks",
    "split_track",
    "StepMeasurement",
    "TorsoSpeedSeries",
    "WalkResult",
    "analyze_segment",
    "SceneSpec",
    "WalkerSpec",
    "make_scenario",
    "simulate",
    "RatingsMatrix",
    "icc2k",
    "icc3k",
    "SessionResult",
    "process_session",
    "__version__",
]
