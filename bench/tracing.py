"""Spans and counts around gaitpipe's public functions, recorded from outside.

`install` replaces each listed module attribute with a wrapper that
records a span (name, start, end, parent span, session id) and adds the
call's counts, then `per_layer` turns the spans into the per-layer table.
Spans stay in memory until `write_spans`; their clock is the process's
CPU time, as for the untraced runs. The program itself is not changed; a
listed attribute that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict


def _read_session(rec, args, kwargs, session):
    rec.counts["pointcloud.frames"] += len(session.frames)
    rec.counts["pointcloud.points_in"] += sum(len(f.points) for f in session.frames)
    rec.counts["pointcloud.points_dropped"] += session.dropped_points
    rec.counts["pointcloud.bytes_read"] += os.path.getsize(args[0])


def _atomic_write_text(rec, args, kwargs, result):
    rec.counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


def _track_frames(rec, args, kwargs, tracks):
    rec.counts["tracker.tracks_confirmed"] += len(tracks)


def _split_track(rec, args, kwargs, segments):
    rec.counts["segmenter.segments"] += len(segments)


def _classify(rec, args, kwargs, valid):
    rec.counts["segmenter.valid"] += bool(valid)


def _analyze_segment(rec, args, kwargs, walk):
    rec.counts["gaitmetrics.peaks"] += walk.n_peaks
    rec.counts["gaitmetrics.peak_pairs"] += max(walk.n_peaks - 1, 0)
    rec.counts["gaitmetrics.steps_kept"] += len(walk.steps)
    rec.counts["gaitmetrics.walks_measured"] += walk.avg_step_length is not None


def _dbscan(rec, args, kwargs, detections):
    rec.counts["tracker.dbscan_calls"] += 1
    rec.counts["tracker.dbscan_points_in"] += len(args[0])
    rec.counts["tracker.detections"] += len(detections)
    rec.counts["tracker.points_kept"] += sum(len(d.points) for d in detections)


def _no_counts(rec, args, kwargs, result):
    pass


# (module, attribute, counts). The attribute is the name the caller looks
# up, e.g. `gaitpipe.cli.process_session`, not where it is defined.
TARGETS = (
    ("gaitpipe.cli", "read_session", _read_session),
    ("gaitpipe.cli", "process_session", _no_counts),
    ("gaitpipe.cli", "atomic_write_text", _atomic_write_text),
    ("gaitpipe.cli", "heatmap_from_xy", _no_counts),
    ("gaitpipe.cli", "detection_rate", _no_counts),
    ("gaitpipe.cli", "valid_track_stats", _no_counts),
    ("gaitpipe.pipeline", "track_frames", _track_frames),
    ("gaitpipe.pipeline", "split_track", _split_track),
    ("gaitpipe.pipeline", "classify", _classify),
    ("gaitpipe.pipeline", "match_clinic_walks", _no_counts),
    ("gaitpipe.pipeline", "analyze_segment", _analyze_segment),
    ("gaitpipe.tracker", "dbscan", _dbscan),
    ("gaitpipe.tracker", "dbscan_labels", _no_counts),
    ("gaitpipe.tracker", "merge_close_detections", _no_counts),
    ("gaitpipe.tracker", "associate", _no_counts),
    ("gaitpipe.tracker", "KalmanCV.predict", _no_counts),
    ("gaitpipe.tracker", "KalmanCV.update", _no_counts),
    ("gaitpipe.gaitmetrics", "torso_speed", _no_counts),
    ("gaitpipe.gaitmetrics", "detect_peaks", _no_counts),
    ("gaitpipe.gaitmetrics", "measure_steps", _no_counts),
)


class Recorder:
    """In-memory spans of one traced run, plus counts at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start_ns, end_ns, parent, session)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._session: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counts):
        rec = self
        on_read = name.endswith(".read_session")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_read:
                rec._session = os.path.basename(os.fspath(args[0]))
            index = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(index)
            start = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time_ns()
                rec._stack.pop()
                rec.spans[index] = (name, start, end, parent, rec._session)
                rec.counts[name + ".calls"] += 1
            counts(rec, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, counts in TARGETS:
            name = f"{module_name}.{attr}"
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(name)
                continue
            self._restore.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn, counts))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, session) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "session": session,
                }) + "\n")

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name.

        Calls run on one thread, so the direct children of a span are
        disjoint and its self time is its duration minus theirs.
        """
        total: dict[str, int] = defaultdict(int)
        child: list[int] = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
        return ({k: v / 1e9 for k, v in total.items()}, {k: v / 1e9 for k, v in own.items()})


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def per_layer(total: dict[str, float], own: dict[str, float], counts: dict[str, int],
              missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced `gaitpipe process` run.

    A metric is left out when a span or count it is built from belongs to
    a missing attribute, so that a missing layer never reads as zero.
    """
    def t(attr):
        return total.get(attr, 0.0)

    c = counts.get
    metrics = {
        "pointcloud.read_s": (t("gaitpipe.cli.read_session"), ["gaitpipe.cli.read_session"]),
        "pointcloud.read_us_per_frame": (
            _ratio(1e6 * t("gaitpipe.cli.read_session"), c("pointcloud.frames", 0)),
            ["gaitpipe.cli.read_session"]),
        "pointcloud.bytes_read": (c("pointcloud.bytes_read", 0), ["gaitpipe.cli.read_session"]),
        "pointcloud.points_in": (c("pointcloud.points_in", 0), ["gaitpipe.cli.read_session"]),
        "pointcloud.points_dropped": (
            c("pointcloud.points_dropped", 0), ["gaitpipe.cli.read_session"]),
        "tracker.track_frames_s": (
            t("gaitpipe.pipeline.track_frames"), ["gaitpipe.pipeline.track_frames"]),
        "tracker.self_s": (
            own.get("gaitpipe.pipeline.track_frames", 0.0), ["gaitpipe.pipeline.track_frames"]),
        "tracker.dbscan_s": (t("gaitpipe.tracker.dbscan"), ["gaitpipe.tracker.dbscan"]),
        "tracker.dbscan_us_per_frame": (
            _ratio(1e6 * t("gaitpipe.tracker.dbscan"), c("tracker.dbscan_calls", 0)),
            ["gaitpipe.tracker.dbscan"]),
        "tracker.dbscan_calls": (c("tracker.dbscan_calls", 0), ["gaitpipe.tracker.dbscan"]),
        "tracker.merge_s": (
            t("gaitpipe.tracker.merge_close_detections"),
            ["gaitpipe.tracker.merge_close_detections"]),
        "tracker.associate_s": (
            t("gaitpipe.tracker.associate"), ["gaitpipe.tracker.associate"]),
        "tracker.kalman_s": (
            t("gaitpipe.tracker.KalmanCV.predict") + t("gaitpipe.tracker.KalmanCV.update"),
            ["gaitpipe.tracker.KalmanCV.predict", "gaitpipe.tracker.KalmanCV.update"]),
        "tracker.detections": (c("tracker.detections", 0), ["gaitpipe.tracker.dbscan"]),
        "tracker.tracks_confirmed": (
            c("tracker.tracks_confirmed", 0), ["gaitpipe.pipeline.track_frames"]),
        "tracker.point_keep_ratio": (
            _ratio(c("tracker.points_kept", 0), c("tracker.dbscan_points_in", 0)),
            ["gaitpipe.tracker.dbscan"]),
        "segmenter.split_s": (
            t("gaitpipe.pipeline.split_track") + t("gaitpipe.pipeline.classify"),
            ["gaitpipe.pipeline.split_track", "gaitpipe.pipeline.classify"]),
        "segmenter.match_s": (
            t("gaitpipe.pipeline.match_clinic_walks"), ["gaitpipe.pipeline.match_clinic_walks"]),
        "segmenter.segments": (c("segmenter.segments", 0), ["gaitpipe.pipeline.split_track"]),
        "segmenter.valid_ratio": (
            _ratio(c("segmenter.valid", 0), c("segmenter.segments", 0)),
            ["gaitpipe.pipeline.split_track", "gaitpipe.pipeline.classify"]),
        "gaitmetrics.analyze_s": (
            t("gaitpipe.pipeline.analyze_segment"), ["gaitpipe.pipeline.analyze_segment"]),
        "gaitmetrics.torso_speed_s": (
            t("gaitpipe.gaitmetrics.torso_speed"), ["gaitpipe.gaitmetrics.torso_speed"]),
        "gaitmetrics.detect_peaks_s": (
            t("gaitpipe.gaitmetrics.detect_peaks"), ["gaitpipe.gaitmetrics.detect_peaks"]),
        "gaitmetrics.measure_steps_s": (
            t("gaitpipe.gaitmetrics.measure_steps"), ["gaitpipe.gaitmetrics.measure_steps"]),
        "gaitmetrics.peaks": (c("gaitmetrics.peaks", 0), ["gaitpipe.pipeline.analyze_segment"]),
        "gaitmetrics.step_keep_ratio": (
            _ratio(c("gaitmetrics.steps_kept", 0), c("gaitmetrics.peak_pairs", 0)),
            ["gaitpipe.pipeline.analyze_segment"]),
        "gaitmetrics.walks_measured": (
            c("gaitmetrics.walks_measured", 0), ["gaitpipe.pipeline.analyze_segment"]),
        "pipeline.self_s": (
            own.get("gaitpipe.cli.process_session", 0.0), ["gaitpipe.cli.process_session"]),
        "cli.write_s": (
            t("gaitpipe.cli.atomic_write_text"), ["gaitpipe.cli.atomic_write_text"]),
        "cli.bytes_written": (c("cli.bytes_written", 0), ["gaitpipe.cli.atomic_write_text"]),
        "stats.report_s": (
            t("gaitpipe.cli.heatmap_from_xy") + t("gaitpipe.cli.detection_rate")
            + t("gaitpipe.cli.valid_track_stats"),
            ["gaitpipe.cli.heatmap_from_xy", "gaitpipe.cli.detection_rate",
             "gaitpipe.cli.valid_track_stats"]),
    }
    gone = set(missing)
    return {
        name: value
        for name, (value, sources) in metrics.items()
        if value is not None and not gone.intersection(sources)
    }
