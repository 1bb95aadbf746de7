"""Sessions, tracks and segments for tests.

Hand-built tracks go through the library's own row function, so each
row's torso summary is the one `track_frames` would record for its points.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import gaitpipe.tracker
from gaitpipe.pointcloud import Session
from gaitpipe.segmenter import LinearSegment, segment_geometry
from gaitpipe.simulator import make_scenario, simulate
from gaitpipe.tracker import Track, track_row


def dense_home_session() -> Session:
    """The pinned dense session: home_radial seed 104 with 10x points per walker."""
    scene = make_scenario("home_radial", seed=104)
    scene = dataclasses.replace(scene, walkers=tuple(
        dataclasses.replace(w, points_torso=w.points_torso * 10,
                            points_arms=w.points_arms * 10, points_legs=w.points_legs * 10)
        for w in scene.walkers
    ))
    return simulate(scene)[0]


def make_track(rows, z_torso: float = 0.25, track_id: int = 0) -> Track:
    """The track of (t, x, y, points) rows; points are (x, y, z, s) rows."""
    return Track.from_rows(track_id, [
        track_row(t, x, y, np.array(points, dtype=float).reshape(-1, 4), z_torso)
        for t, x, y, points in rows
    ])


def whole_segment(track: Track, seg_index: int = 0) -> LinearSegment:
    """One segment over every row of the track, with its geometry."""
    seg = LinearSegment(track=track, seg_index=seg_index, lo=0, hi=len(track) - 1)
    seg.r_start, seg.r_end, seg.length, seg.angle_deg = segment_geometry(
        seg.first_xy, seg.last_xy
    )
    return seg


def spy_rows(monkeypatch) -> list[tuple]:
    """Patch `track_row` to also record the (t, x, y, points) of each call:
    `track_frames` makes one per row of every track, confirmed or not."""
    calls = []

    def spy(t, x, y, points, z_torso):
        calls.append((t, x, y, points))
        return track_row(t, x, y, points, z_torso)

    monkeypatch.setattr(gaitpipe.tracker, "track_row", spy)
    return calls


def points_by_row(calls) -> dict[tuple[float, float, float], np.ndarray]:
    """The recorded points of each row, keyed by its (t, x, y)."""
    found = {(t, x, y): points for t, x, y, points in calls}
    assert len(found) == len(calls), "two rows share a time and position"
    return found
