"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Simulated scenes stand in for human cohorts: every expected value is
either closed-form scene truth or an independent brute-force oracle.
"""

import math
import time

import numpy as np
import pytest

from gaitpipe.cli import main
from gaitpipe.config import PipelineConfig
from gaitpipe.pipeline import process_session
from gaitpipe.pointcloud import Session
from gaitpipe.segmenter import rdp_decimate, segment_geometry
from gaitpipe.simulator import SceneSpec, WalkerSpec, make_scenario, simulate
from gaitpipe.stats import icc2k, icc3k, valid_track_stats
from gaitpipe.tracker import dbscan_labels, min_cost_assignment

from oracles import (
    anova_icc2k,
    anova_icc3k,
    brute_force_assignment,
    canonical_labels,
    interval_reliability,
    naive_dbscan,
    point_to_chord_distance,
    radial_angle_by_vectors,
)

CFG = PipelineConfig()


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc} {detail}".rstrip())
    assert ok, f"criterion {num}: {desc} {detail}"


def run_clinic_scene(name: str, seed: int, v0: float, t_step: float):
    scene = make_scenario(name, seed=seed, base_speed=v0, step_period=t_step, n_walks=1)
    session, truth = simulate(scene)
    result = process_session(session, CFG, scene.walklog)
    measured = [w["avg_step_len_m"] for w in result.walks if w["avg_step_len_m"] is not None]
    return (measured[0] if measured else None), truth.walkers[0].true_step_length


@pytest.fixture(scope="module")
def control_sweep():
    rng = np.random.default_rng(42)
    t0 = time.time()
    outcomes = []
    for i in range(50):
        v0 = float(rng.uniform(0.6, 1.3))
        t_step = float(rng.uniform(0.45, min(0.7, 0.9 / v0)))
        outcomes.append(run_clinic_scene("clinic_control", 1000 + i, v0, t_step))
    return outcomes, time.time() - t0


@pytest.fixture(scope="module")
def fast_sweep():
    rng = np.random.default_rng(43)
    outcomes = []
    for i in range(50):
        v0 = float(rng.uniform(1.4, 1.7))
        t_step = float(rng.uniform(0.3, min(0.45, 0.95 / v0)))
        outcomes.append(run_clinic_scene("clinic_fast", 2000 + i, v0, t_step))
    return outcomes


def test_criterion_01_end_to_end_accuracy(control_sweep):
    outcomes, elapsed = control_sweep
    errors = [
        abs(est - true) / true * 100.0 for est, true in outcomes if est is not None
    ]
    mae = float(np.mean(errors))
    report(
        1,
        "end-to-end accuracy over 50 clinic scenes",
        mae <= 10.0 and elapsed < 30.0,
        f"(MAE {mae:.2f}% <= 10%, runtime {elapsed:.1f}s < 30s)",
    )


def test_criterion_02_detection_rate(control_sweep, fast_sweep):
    control_outcomes, _ = control_sweep
    control_rate = sum(est is not None for est, _ in control_outcomes) / len(control_outcomes)
    fast_rate = sum(est is not None for est, _ in fast_sweep) / len(fast_sweep)
    report(
        2,
        "detection rate: control >= 95%, fast sweep strictly lower",
        control_rate >= 0.95 and fast_rate < control_rate,
        f"(control {control_rate:.0%}, fast {fast_rate:.0%})",
    )


def test_criterion_03_radial_alignment_gating():
    flags = {}
    for name in ("home_perpendicular", "home_radial", "home_L_shape"):
        scene = make_scenario(name)
        session, _ = simulate(scene)
        result = process_session(session, CFG)
        flags[name] = [bool(s.valid) for s in result.segments]
    stats = valid_track_stats(flags)
    perp = stats["per_home"]["home_perpendicular"]
    radial_valid = sum(flags["home_radial"])
    mixed = stats["per_home"]["home_L_shape"]
    report(
        3,
        "radial-alignment gating across home presets",
        perp == 0.0 and radial_valid >= 1 and 0.0 < mixed < 100.0,
        f"(perpendicular {perp:.0f}%, radial {radial_valid} valid, mixed {mixed:.0f}%)",
    )


def test_criterion_04_assignment_oracle():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 10.0, size=(n, m))
        _, total = min_cost_assignment(cost)
        worst = max(worst, abs(total - brute_force_assignment(cost)))
    report(
        4,
        "Hungarian equals exhaustive-permutation minimum on 1000 matrices",
        worst <= 1e-9,
        f"(max deviation {worst:.2e})",
    )


def test_criterion_05_dbscan_oracle():
    rng = np.random.default_rng(5555)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(0, 301))
        xyz = rng.uniform([-4, 0, -1.2], [4, 8, 0.8], size=(n, 3))
        eps = float(rng.uniform(0.2, 0.9))
        min_pts = int(rng.integers(1, 7))
        ours = canonical_labels(dbscan_labels(xyz, eps, min_pts))
        ref = canonical_labels(naive_dbscan(xyz, eps, min_pts))
        mismatches += ours != ref
    report(
        5,
        "DBSCAN labels match a naive O(n^2) reference on 200 frames",
        mismatches == 0,
        f"({mismatches} mismatching frames)",
    )


def test_criterion_06_rdp_property_and_four_segments():
    rng = np.random.default_rng(66)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 80))
        poly = rng.uniform(-8, 8, size=(n, 2))
        eps = float(rng.uniform(0.05, 2.0))
        kept = rdp_decimate(poly, eps)
        for a, b in zip(kept, kept[1:]):
            for i in range(a + 1, b):
                if point_to_chord_distance(poly[i], poly[a], poly[b]) > eps + 1e-12:
                    violations += 1

    # Three clear interior corners, jitter below epsilon: 5 kept vertices.
    waypoints = [(0.0, 6.0), (0.0, 3.0), (2.0, 3.0), (2.0, 5.0), (4.0, 5.0)]
    jitter = np.random.default_rng(2).normal(0, 0.04, size=(12, 2))
    poly = []
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        for i in range(12):
            u = i / 12
            poly.append((x0 + u * (x1 - x0) + jitter[i][0], y0 + u * (y1 - y0) + jitter[i][1]))
    poly.append(waypoints[-1])
    segments = len(rdp_decimate(np.array(poly), 0.5)) - 1
    report(
        6,
        "RDP within-epsilon on 500 polylines and the 4-segment corner case",
        violations == 0 and segments == 4,
        f"({violations} violations, corner case gave {segments} segments)",
    )


def test_criterion_07_geometry_oracle():
    rng = np.random.default_rng(77)
    worst_angle = 0.0
    worst_rot = 0.0
    checked = 0
    while checked < 10000:
        start = rng.uniform([-7, 0.05], [7, 9])
        end = rng.uniform([-7, 0.05], [7, 9])
        *_, d, ang = segment_geometry(tuple(start), tuple(end))
        if d < 1e-6 or ang is None or min(ang, 180.0 - ang) < 1e-3:
            continue  # degenerate or arccos-ill-conditioned near collinear
        expected = radial_angle_by_vectors(tuple(start), tuple(end))
        worst_angle = max(worst_angle, abs(ang - expected))

        theta = float(rng.uniform(0, 2 * math.pi))
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        *_, d2, ang2 = segment_geometry(tuple(rot @ start), tuple(rot @ end))
        worst_rot = max(worst_rot, abs(d2 - d), abs(ang2 - ang))
        checked += 1
    report(
        7,
        "orientation matches dot-product oracle and is rotation invariant",
        worst_angle <= 1e-9 and worst_rot <= 1e-9,
        f"(max angle dev {worst_angle:.2e} deg, max rotation dev {worst_rot:.2e})",
    )


def test_criterion_08_icc_oracle():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 15))
        k = int(rng.integers(2, 6))
        m = rng.normal(0, 1, size=(n, k)) + rng.normal(0, 1.5, size=(n, 1))
        worst = max(
            worst,
            abs(icc2k(m).icc - anova_icc2k(m)),
            abs(icc3k(m).icc - anova_icc3k(m)),
        )
    base = np.linspace(1.0, 4.0, 6).reshape(-1, 1)
    perfect = icc2k(np.hstack([base, base]))
    offset = np.hstack([base, base + 1.0])
    ok = (
        worst <= 1e-9
        and perfect.icc == 1.0
        and icc3k(offset).icc == 1.0
        and icc2k(offset).icc < 1.0
    )
    report(
        8,
        "ICC matches ANOVA-sums oracle; agreement/consistency split",
        ok,
        f"(max dev {worst:.2e}, offset icc2k {icc2k(offset).icc:.3f})",
    )


def _cohort_day_average(home_idx: int, week: int, day: int) -> float | None:
    rng = np.random.default_rng(930_000 + home_idx * 1000 + week * 100 + day)
    home_rng = np.random.default_rng(50_000 + home_idx)
    v0 = float(home_rng.uniform(0.75, 1.2))
    t_step = float(home_rng.uniform(0.5, min(0.65, 0.9 / v0)))
    day_mult = float(np.clip(rng.normal(1.0, 0.06), 0.8, 1.2))
    v_day = v0 * day_mult
    walker = WalkerSpec(
        walker_id=f"h{home_idx}",
        path=((0.25, 5.9), (0.25, 1.3)),
        base_speed=v_day,
        step_period=t_step,
        start_time=1.0,
    )
    scene = SceneSpec(
        name=f"h{home_idx}w{week}d{day}",
        site="home",
        duration=1.0 + 4.6 / (v_day * 0.8) + 2.5,
        seed=int(rng.integers(0, 2**31)),
        walkers=(walker,),
    )
    session, _ = simulate(scene)
    result = process_session(session, CFG)
    vals = [w["avg_step_len_m"] for w in result.walks if w["avg_step_len_m"] is not None]
    return float(np.mean(vals)) if vals else None


def test_criterion_09_week_over_week_reliability():
    daily = {}
    for h in range(18):
        weeks = [
            [_cohort_day_average(h, week, day) for day in range(7)] for week in range(2)
        ]
        daily[f"home{h:02d}"] = (weeks[0], weeks[1])
    results = interval_reliability(daily)
    iccs = [results[days].icc for days in range(2, 8)]
    non_decreasing = all(b >= a for a, b in zip(iccs, iccs[1:]))
    report(
        9,
        "18-home 2-week cohort: ICC(2,k) >= 0.9 at 7 days, non-decreasing trend",
        iccs[-1] >= 0.9 and non_decreasing,
        f"(ICCs 2..7d: {[round(v, 3) for v in iccs]})",
    )


def _home_walk_average(path, seed):
    walker = WalkerSpec(walker_id="w", path=path, start_time=1.0)
    scene = SceneSpec(name="sym", site="home", duration=9.5, seed=seed, walkers=(walker,))
    session, _ = simulate(scene)
    return session, process_session(session, CFG)


def _remap_session(session, scale, reverse=False):
    """The session with every point row multiplied by `scale` (x, y, z, s);
    reversed, frame times run backwards from the last frame's."""
    frames = [(t, pts * scale) for t, pts in session.frames]
    if reverse:
        t_end = frames[-1][0]
        frames = [(float(f"{t_end - t:.6f}"), pts) for t, pts in reversed(frames)]
    return Session(
        frame_rate=session.frame_rate,
        site=session.site,
        room_label=session.room_label,
        device_id=session.device_id,
        frames=frames,
    )


def test_criterion_10_direction_and_mirror_symmetry():
    worst_dir = 0.0
    worst_mirror = 0.0
    for seed in (301, 302, 303):
        # Play the approach walk backwards: positions retrace, Doppler
        # flips sign, and the same gait is seen receding.
        session, toward = _home_walk_average(((0.3, 6.0), (0.3, 1.4)), seed)
        reversed_session = _remap_session(session, (1, 1, 1, -1), reverse=True)
        away = process_session(reversed_session, CFG)
        assert {w["direction"] for w in toward.walks} == {"approach"}
        assert {w["direction"] for w in away.walks} == {"recede"}
        a = toward.walks[0]["avg_step_len_m"]
        b = away.walks[0]["avg_step_len_m"]
        worst_dir = max(worst_dir, abs(a - b) / ((a + b) / 2))

        session, original = _home_walk_average(((0.8, 6.0), (-0.4, 1.4)), seed)
        mirrored_session = _remap_session(session, (-1, 1, 1, 1))
        mirrored = process_session(mirrored_session, CFG)
        ma = original.walks[0]["avg_step_len_m"]
        mb = mirrored.walks[0]["avg_step_len_m"]
        worst_mirror = max(worst_mirror, abs(ma - mb) / ((ma + mb) / 2))
    report(
        10,
        "approach/recede and x-mirror symmetry within 2%",
        worst_dir <= 0.02 and worst_mirror <= 0.02,
        f"(direction dev {worst_dir:.3%}, mirror dev {worst_mirror:.3%})",
    )


def test_criterion_11_determinism(tmp_path):
    def one_run(root):
        sim = root / "sim"
        proc = root / "proc"
        ev = root / "eval"
        assert main(["simulate", "--scenario", "clinic_control", "--seed", "77",
                     "--out", str(sim)]) == 0
        assert main(["simulate", "--scenario", "home_radial", "--seed", "78",
                     "--out", str(sim)]) == 0
        assert main(["process", "--input", str(sim / "clinic_control-77.session.jsonl"),
                     "--mode", "clinic", "--out", str(proc)]) == 0
        assert main(["process", "--input", str(sim / "home_radial-78.session.jsonl"),
                     "--out", str(proc)]) == 0
        assert main(["evaluate", "--results", str(proc), "--truth", str(sim),
                     "--out", str(ev)]) == 0
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    tree_a = one_run(tmp_path / "a")
    tree_b = one_run(tmp_path / "b")
    identical = tree_a == tree_b
    report(
        11,
        "repeated seeded runs produce byte-identical artifacts",
        identical,
        f"({len(tree_a)} files compared)",
    )
