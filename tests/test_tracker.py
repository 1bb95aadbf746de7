import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

import gaitpipe.tracker
from gaitpipe.cli import main
from gaitpipe.config import DbscanConfig, PipelineConfig
from gaitpipe.pointcloud import MAX_COORD_M, MAX_DOPPLER_MS, Session, write_session
from gaitpipe.simulator import WalkerSpec, SceneSpec, make_scenario, simulate
from gaitpipe.tracker import (
    ALL_PAIRS_POINTS,
    CHUNK_POINTS,
    DENSE_FRAME_POINTS,
    NOISE,
    Detection,
    _component_roots,
    _neighbor_pairs,
    KalmanCV,
    associate,
    dbscan,
    dbscan_labels,
    merge_close_detections,
    min_cost_assignment,
    track_frames,
    track_row,
)

from builders import dense_home_session, points_by_row, spy_rows
from oracles import (
    MatrixKalmanCV,
    brute_force_assignment,
    canonical_labels,
    kalman_cov,
    kalman_state,
    naive_dbscan,
    naive_merge_groups,
    set_kalman_state,
    solver_associate,
    union_find_roots,
)


def pts(*xy, z=0.0, s=-1.0):
    """(k, 4) rows x, y, z, s from (x, y) pairs."""
    return np.array([(x, y, z, s) for x, y in xy], dtype=float).reshape(-1, 4)


# ------------------------------------------------------------------ dbscan


def test_dbscan_empty():
    assert dbscan(np.empty((0, 4)), eps=0.5, min_pts=4) == []


def test_dbscan_two_well_separated_groups():
    rng = np.random.default_rng(0)
    points = pts(*(
        (cx + rng.normal(0, 0.1), 2.0 + rng.normal(0, 0.1)) for cx in (0.0, 3.0) for _ in range(10)
    ))
    dets = dbscan(points, eps=0.5, min_pts=4)
    assert len(dets) == 2
    centroids = sorted(d.centroid_x for d in dets)
    assert abs(centroids[0] - 0.0) < 0.2
    assert abs(centroids[1] - 3.0) < 0.2


def test_dbscan_centroid_is_mean():
    points = pts((0.0, 1.0), (0.2, 1.0), (0.1, 1.2))
    dets = dbscan(points, eps=0.5, min_pts=2)
    assert len(dets) == 1
    assert dets[0].centroid_x == pytest.approx(0.1)
    assert dets[0].centroid_y == pytest.approx(1.0 + 0.2 / 3)


def test_dbscan_min_cluster_size_drops_pets():
    points = pts((0.0, 1.0), (0.1, 1.0), (0.05, 1.1))
    assert dbscan(points, eps=0.5, min_pts=3, min_cluster_size=5) == []
    assert len(dbscan(points, eps=0.5, min_pts=3, min_cluster_size=3)) == 1


def random_frame(rng, n):
    return rng.uniform([-4, 0, -1.2], [4, 8, 0.6], size=(n, 3))


def test_dbscan_matches_naive_reference():
    # Raw ids, not renamed ones: ids ordered by smallest core index set the
    # detection order and so the track ids.
    rng = np.random.default_rng(11)
    frames = [random_frame(rng, int(rng.integers(0, 120))) for _ in range(60)]
    # Dense frames: one person-sized blob of hundreds of points.
    frames += [rng.normal([0.0, 3.0, -0.3], 0.25, size=(n, 3)) for n in (600, 800, 1000)]
    for xyz in frames:
        eps = float(rng.uniform(0.2, 0.8))
        min_pts = int(rng.integers(1, 6))
        assert np.array_equal(dbscan_labels(xyz, eps, min_pts), naive_dbscan(xyz, eps, min_pts))
    # 0.1 m lattices put many pairs at exactly eps, where the squared-distance
    # rule and a square-root comparison can disagree. Hundreds of points
    # split the tree into many leaves, so its pruning meets those ties too,
    # one frame at a time and stacked. The cases take both label passes:
    # every point core, and some not.
    def check_lattices(lattices, min_pts):
        offsets = np.cumsum([0] + [len(xyz) for xyz in lattices])
        stacked = dbscan_labels(np.concatenate(lattices), 0.5, min_pts, offsets)
        before = 0  # clusters in the frames before this one
        for k, xyz in enumerate(lattices):
            ref = naive_dbscan(xyz, 0.5, min_pts)
            assert np.array_equal(dbscan_labels(xyz, 0.5, min_pts), ref)
            got = stacked[offsets[k] : offsets[k + 1]]
            assert np.array_equal(got, np.where(ref >= 0, ref + before, ref))
            before += ref.max(initial=-1) + 1

    all_core = set()
    for trial in range(30):
        lattices = [rng.integers(0, 20, size=(int(rng.integers(200, 700)), 3)) * 0.1
                    for _ in range(int(rng.integers(1, 4)))]
        min_pts = 3 if trial % 2 else int(rng.integers(4, 30))
        check_lattices(lattices, min_pts)
        d2 = [((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=-1) for xyz in lattices]
        all_core.add(all(((d <= 0.25).sum(axis=1) >= min_pts).all() for d in d2))
    assert all_core == {True, False}
    # Frames of 2 to ALL_PAIRS_POINTS points take the all-pairs search, and
    # one of a point more a tree: alone, stacked together, and stacked with
    # a large frame on either side.
    for size in [*range(2, ALL_PAIRS_POINTS + 1), ALL_PAIRS_POINTS + 1]:
        small = rng.integers(0, 8, size=(size, 3)) * 0.1
        other = rng.integers(0, 8, size=(int(rng.integers(2, ALL_PAIRS_POINTS + 2)), 3)) * 0.1
        large = rng.integers(0, 20, size=(int(rng.integers(200, 400)), 3)) * 0.1
        min_pts = (1, 2, 3, 5)[size % 4]
        for lattices in ([small], [small, other], [small, large], [large, small, other]):
            check_lattices(lattices, min_pts)


# The all-pairs search and the tree agree pair for pair, at eps small
# enough that squares round to 0 and large enough for the config's bound.
# Lattices whose spacing puts many pairs at exactly eps meet the rule's
# ties; a shell of points about eps from the first point of its frame
# meets squared distances a rounding from eps*eps, where a square-root
# comparison can disagree.
@settings(max_examples=150, deadline=None)
@given(
    eps=st.sampled_from([5e-324, 1e-100, 0.4, 1000.0]),
    spacing=st.sampled_from([0.1, 0.2, 0.25, 1 / 3, 1.0, 1e-100, None]),  # None: a shell
    sizes=st.lists(st.integers(0, 2 * ALL_PAIRS_POINTS)
                   | st.sampled_from([ALL_PAIRS_POINTS, ALL_PAIRS_POINTS + 1]),
                   min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_all_pairs_match_the_tree(eps, spacing, sizes, seed):
    rng = np.random.default_rng(seed)
    starts = np.cumsum([0] + sizes)
    if spacing is None:
        u = rng.normal(size=(starts[-1], 3))
        xyz = eps * (u / np.linalg.norm(u, axis=1, keepdims=True))
        xyz[starts[:-1][np.array(sizes) > 0]] = 0.0
    else:
        xyz = rng.integers(-5, 6, size=(starts[-1], 3)) * (spacing * eps)
    want = set()
    for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
        want |= {(i + a, j + a) for i, j in cKDTree(xyz[a:b]).query_pairs(eps)}
    with mock.patch.object(gaitpipe.tracker, "ALL_PAIRS_POINTS", 2 * ALL_PAIRS_POINTS):
        all_pairs = _neighbor_pairs(xyz, eps, np.array(sizes))
    for pairs in (all_pairs, _neighbor_pairs(xyz, eps, np.array(sizes))):
        assert len(pairs) == len(want)
        assert set(map(tuple, pairs.tolist())) == want


def test_overflowing_distance_is_no_neighbor():
    # The squared distance of these rows overflows: no pair, and no warning,
    # which the test settings would raise. Non-finite rows raise ValueError
    # in either search.
    xyz = np.array([[1e200, 1.0, 0.0], [-1e200, 1.0, 0.0]])
    assert dbscan_labels(xyz, 0.4, 1).tolist() == [0, 1]
    assert dbscan_labels(xyz, 0.4, 2).tolist() == [NOISE, NOISE]
    assert dbscan_labels(xyz, 0.4, 1, np.array([0, 1, 2])).tolist() == [0, 1]
    for n in (2, ALL_PAIRS_POINTS + 1):
        for bad in (math.inf, -math.inf, math.nan):
            xyz = np.zeros((n, 3))
            xyz[-1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                dbscan_labels(xyz, 0.4, 1)


def test_dense_touching_walkers_match_naive_reference():
    # Two walkers with 10x points per group, as in dense home recordings,
    # pass each other 0.5 m apart: their clouds are two clusters apart and
    # one while they touch. A min_pts above the default leaves border
    # points at the edges of the clouds.
    def dense(walker):
        return dataclasses.replace(
            walker,
            points_torso=walker.points_torso * 10,
            points_arms=walker.points_arms * 10,
            points_legs=walker.points_legs * 10,
        )

    walkers = (
        dense(WalkerSpec("a", ((-0.25, 4.5), (-0.25, 1.5)), start_time=0.5)),
        dense(WalkerSpec("b", ((0.25, 1.5), (0.25, 4.5)), start_time=0.5)),
    )
    session, _ = simulate(
        SceneSpec(name="pass", site="home", duration=3.5, seed=5, walkers=walkers)
    )
    eps = DbscanConfig().eps
    clusters, borders = set(), 0
    for min_pts in (DbscanConfig().min_pts, 25):
        for frame in session.frames:
            xyz = frame.points[:, :3]
            labels = dbscan_labels(xyz, eps, min_pts)
            assert np.array_equal(labels, naive_dbscan(xyz, eps, min_pts))
            d2 = ((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=-1)
            core = (d2 <= eps * eps).sum(axis=1) >= min_pts
            clusters.add(int(labels.max(initial=-1)) + 1)
            borders += int(np.count_nonzero(~core & (labels >= 0)))
    assert {1, 2} <= clusters
    assert borders > 0


def component_cases():
    """(n, a, b) edge lists with a < b for `_component_roots`."""
    rng = np.random.default_rng(29)
    for _ in range(60):  # random graphs, sparse to dense
        n = int(rng.integers(1, 60))
        ends = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        ends = np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1)
        yield n, ends[:, 0], ends[:, 1]
    n = 200
    down = np.arange(n - 2, -1, -1)  # a path listed from the top index down
    yield n, down, down + 1
    yield n, np.arange(n - 1), np.full(n - 1, n - 1)  # a star on the largest index
    nodes = rng.permutation(n)  # disjoint cliques over shuffled nodes
    cliques = [nodes[k : k + 7] for k in range(0, n, 7)]
    pairs = np.array([(u, v) for c in cliques for u in c for v in c if u < v])
    yield n, pairs[:, 0], pairs[:, 1]
    twice = np.concatenate([pairs, pairs[::-1]])  # duplicate edges
    yield n, twice[:, 0], twice[:, 1]
    for n in (0, 5):  # no edges
        yield n, np.empty(0, dtype=int), np.empty(0, dtype=int)


def test_component_roots_match_union_find():
    for n, a, b in component_cases():
        # The oracle gives each node the smallest index of its component.
        root = _component_roots(n, a, b)
        assert np.array_equal(root, union_find_roots(n, zip(a.tolist(), b.tolist())))


def test_dbscan_order_independent():
    rng = np.random.default_rng(3)
    xyz = random_frame(rng, 80)
    base = dbscan_labels(xyz, 0.5, 3)
    perm = rng.permutation(len(xyz))
    permuted = dbscan_labels(xyz[perm], 0.5, 3)
    # Mapping back through the permutation must agree up to relabeling.
    unpermuted = np.empty_like(permuted)
    unpermuted[perm] = permuted
    assert canonical_labels(base) == canonical_labels(unpermuted)


def random_stack(rng):
    """Frames of a stack as (k, 3) arrays: empty and 1-point frames, random
    clouds, a frame repeating the one before it (static clutter), and
    integer grids, where eps = 1.0 puts many pairs exactly at eps."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return np.empty((0, 3))
    if kind == 1:
        return random_frame(rng, 1)
    if kind == 2:
        return random_frame(rng, int(rng.integers(2, 40)))
    if kind == 3:
        return rng.normal([0.0, 3.0, -0.3], 0.3, size=(int(rng.integers(5, 30)), 3))
    return rng.integers(0, 4, size=(int(rng.integers(2, 30)), 3)).astype(float)


def stacks():
    """Seeded (frames, eps, min_pts) cases for the stacked-frame tests."""
    rng = np.random.default_rng(17)
    for trial in range(120):
        frames = [random_stack(rng) for _ in range(int(rng.integers(1, 12)))]
        for k in range(1, len(frames)):
            if rng.random() < 0.2:
                frames[k] = frames[k - 1].copy()
        eps = 1.0 if trial % 3 == 0 else float(rng.uniform(0.2, 0.8))
        yield frames, eps, int(rng.integers(1, 6))


def test_stacked_labels_match_naive_per_frame():
    for frames, eps, min_pts in stacks():
        offsets = np.cumsum([0] + [len(f) for f in frames])
        labels = dbscan_labels(np.concatenate(frames), eps, min_pts, offsets)
        before = 0  # clusters in the frames before this one
        for k, xyz in enumerate(frames):
            ref = naive_dbscan(xyz, eps, min_pts)
            got = labels[offsets[k] : offsets[k + 1]]
            assert np.array_equal(got, np.where(ref >= 0, ref + before, ref))
            before += ref.max(initial=-1) + 1


def test_stacked_dbscan_matches_per_frame_calls():
    rng = np.random.default_rng(23)
    for frames, eps, min_pts in stacks():
        rows = [np.column_stack([f, rng.uniform(-2, 2, len(f))]) for f in frames]
        offsets = np.cumsum([0] + [len(r) for r in rows])
        min_size = int(rng.integers(1, 4))
        got = dbscan(np.concatenate(rows), eps, min_pts, min_size, offsets=offsets)
        want = [(k, d) for k, r in enumerate(rows) for d in dbscan(r, eps, min_pts, min_size)]
        assert len(got) == len(want)
        for g, (k, w) in zip(got, want):
            assert g.frame == k
            assert (g.centroid_x, g.centroid_y) == (w.centroid_x, w.centroid_y)
            assert np.array_equal(g.points, w.points)


def test_tiny_eps_keeps_stacked_frames_apart():
    # Two frames of two identical points each: however small eps, rows of
    # different frames are never neighbors.
    xyz = np.array([[0.5, 3.0, 0.0]] * 4)
    for eps in (1e-100, 1e-200, 5e-324):
        assert dbscan_labels(xyz, eps, 2, np.array([0, 2, 4])).tolist() == [0, 0, 1, 1]


def test_dbscan_centroids_match_np_mean_per_cluster():
    # np.mean sums pairwise in blocks of 8 and 128 values, so these cluster
    # sizes would expose a sequential or blocked sum that rounds differently.
    rng = np.random.default_rng(41)
    sizes = [5, 7, 8, 9, 16, 128, 129, 300]
    frames = []
    for _ in range(2):
        centers = np.column_stack([np.arange(len(sizes)) * 2.0, np.full(len(sizes), 3.1),
                                   np.zeros(len(sizes))]) + rng.uniform(-0.3, 0.3, (len(sizes), 3))
        xyz = np.concatenate([rng.normal(c, 0.02, size=(k, 3))
                              for k, c in zip(rng.permutation(sizes), centers)])
        xyz = xyz[rng.permutation(len(xyz))]  # members of a cluster interleave
        frames.append(np.column_stack([xyz, rng.normal(0, 1, len(xyz))]))
    offsets = np.cumsum([0] + [len(f) for f in frames])
    clusters = []  # (frame, members) in (frame, label) order
    for k, points in enumerate(frames):
        labels = naive_dbscan(points[:, :3], 0.3, 3)
        assert sorted(np.bincount(labels)) == sorted(sizes)
        clusters += [(k, points[labels == c]) for c in range(labels.max() + 1)]
    for min_size in (1, 9):
        want = [(k, np.mean(members[:, 0]), np.mean(members[:, 1]), members)
                for k, members in clusters if len(members) >= min_size]
        stacked = dbscan(np.concatenate(frames), 0.3, 3, min_size, offsets=offsets)
        alone = [d for points in frames for d in dbscan(points, 0.3, 3, min_size)]
        for got in (stacked, alone):
            assert len(got) == len(want)
            for d, (k, cx, cy, members) in zip(got, want):
                assert (d.centroid_x, d.centroid_y) == (cx, cy)
                assert d.points.tobytes() == members.tobytes()
        assert [d.frame for d in stacked] == [k for k, *_ in want]


def test_merge_close_detections():
    a = Detection(0.0, 2.0, pts((0.0, 2.0)))
    b = Detection(0.05, 2.1, pts((0.05, 2.1)))
    c = Detection(3.0, 2.0, pts((3.0, 2.0)))
    merged = merge_close_detections([a, b, c], merge_radius=0.4)
    assert len(merged) == 2
    assert len(merged[0].points) == 2
    assert merged[0].centroid_x == pytest.approx(0.025)
    assert merged[1] is c


@st.composite
def merge_scenes(draw):
    """Detections of one frame in shuffled order, and a merge radius r:
    groups 10 r apart, each a singleton, a close pair, a blob of 3-5 within
    r/3 of its centre, or a chain of three whose neighbours are 0.5 r to r
    apart (so its ends are beyond r of each other; past the first three
    groups, sometimes r or a rounding from it). Every scene holds a chain,
    a second merged group and a singleton."""
    r = draw(st.sampled_from([0.4, 1e-3, 2.5]) | st.floats(0.01, 3.0))
    kinds = ["chain", draw(st.sampled_from(["pair", "blob", "chain"])), "single",
             *draw(st.lists(st.sampled_from(["single", "pair", "blob", "chain"]), max_size=4))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centroids = []
    for k, kind in enumerate(kinds):
        base = np.array([10 * r * k, 10 * r * rng.integers(0, 3)])
        if kind == "chain":
            d = draw(st.floats(0.51 * r, 0.99 * r)
                     | st.sampled_from([r, 0.5 * r + 1e-9 * r] if k > 2 else [0.75 * r]))
            angle = draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0, 2 * math.pi))
            step = d * np.array([math.cos(angle), math.sin(angle)])
            centroids += [base, base + step, base + 2 * step]
        else:
            count = {"single": 1, "pair": 2, "blob": int(rng.integers(3, 6))}[kind]
            offsets = rng.uniform(-1, 1, size=(count, 2)) * (r / 3 / math.sqrt(2))
            centroids += list(base + offsets)
    order = rng.permutation(len(centroids))
    detections = []
    for i in order.tolist():
        points = rng.normal(0, 10.0 ** rng.integers(-3, 4), size=(int(rng.integers(1, 5)), 4))
        x, y = map(float, centroids[i])
        detections.append(Detection(x, y, points, frame=7))
    return detections, r


@settings(max_examples=200, deadline=None)
@given(merge_scenes())
def test_merge_matches_naive_reference(scene):
    detections, r = scene
    groups = naive_merge_groups(detections, r)
    assert sum(len(g) > 1 for g in groups) >= 2 and any(len(g) == 1 for g in groups)
    merged = merge_close_detections(detections, r)
    assert len(merged) == len(groups)
    for got, members in zip(merged, groups):
        if len(members) == 1:
            assert got is detections[members[0]]
            continue
        want = np.concatenate([detections[i].points for i in members])
        assert got.points.tobytes() == want.tobytes() and got.points.shape == want.shape
        assert got.centroid_x == math.fsum(want[:, 0].tolist()) / len(want)
        assert got.centroid_y == math.fsum(want[:, 1].tolist()) / len(want)
        assert got.frame == detections[members[0]].frame


# --------------------------------------------------------------- associate


@pytest.fixture
def solved(monkeypatch):
    """The shapes of the cost matrices `associate` passes to the solver."""
    shapes = []
    monkeypatch.setattr(gaitpipe.tracker, "min_cost_assignment",
                        lambda cost: shapes.append(cost.shape) or min_cost_assignment(cost))
    return shapes


def test_associate_single_pair_within_gate():
    det = Detection(0.0, 3.1, pts((0.0, 3.1)))
    matches, un_tr, un_det = associate([(0.0, 3.0)], [det], gate=1.0)
    assert matches == [(0, 0)]
    assert un_tr == [] and un_det == []


def test_associate_no_tracks():
    dets = [Detection(float(i), 2.0, pts((i, 2.0))) for i in range(3)]
    matches, un_tr, un_det = associate([], dets, gate=1.0)
    assert matches == [] and un_tr == [] and un_det == [0, 1, 2]


def test_associate_gate_forbids():
    det = Detection(0.0, 5.0, pts((0.0, 5.0)))
    matches, un_tr, un_det = associate([(0.0, 3.0)], [det], gate=1.0)
    assert matches == [] and un_tr == [0] and un_det == [0]


def test_associate_prefers_total_cost():
    # Greedy nearest-first would pair (t0, d0) at 0.4 and leave t1 at 1.4;
    # the optimal assignment crosses them for total 0.5 + 0.6.
    dets = [
        Detection(0.0, 1.4, pts((0, 1.4))),
        Detection(0.0, 0.4, pts((0, 0.4))),
    ]
    matches, _, _ = associate([(0.0, 1.0), (0.0, 0.0)], dets, gate=2.0)
    assert sorted(matches) == [(0, 0), (1, 1)]


def test_associate_one_to_one_gate_is_inclusive(solved):
    # The pair of track 0 and det matches exactly up to the gate on all
    # three paths: alone (1x1), beside a far detection (no contention), and
    # beside a second track sitting on det with a second detection inside
    # its gate, so that track 1 contends and the solver decides.
    rng = np.random.default_rng(8)
    far = Detection(1e3, 1e3, pts((1e3, 1e3)))
    for _ in range(200):
        px, py, cx, cy = (float(v) for v in rng.uniform(-5, 5, 4))
        det = Detection(cx, cy, pts((cx, cy)))
        # Half a gap beyond det, away from track 0: in track 1's gate only.
        ox, oy = cx + (cx - px) / 2, cy + (cy - py) / 2
        near = Detection(ox, oy, pts((ox, oy)))
        d = math.hypot(px - cx, py - cy)
        for gate, matched in ((d, True), (float(np.nextafter(d, -np.inf)), False)):
            one = associate([(px, py)], [det], gate)
            disjoint = associate([(px, py)], [det, far], gate)
            assert one == (([(0, 0)], [], []) if matched else ([], [0], [0]))
            assert disjoint == (([(0, 0)], [], [1]) if matched else ([], [0], [0, 1]))
            assert solved == []
            contended = associate([(px, py), (cx, cy)], [det, near], gate)
            assert contended == (([(0, 0), (1, 1)], [], []) if matched else ([(1, 0)], [0], [1]))
            assert solved == [(2, 2)]
            solved.clear()


def test_associate_calls_the_solver_only_when_pairs_contend(solved):
    tracks = [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
    dets = [Detection(x, 0.5, pts((x, 0.5))) for x in (6.0, 3.0, 9.0)]
    # Disjoint in-gate pairs, in track order; track 0 and det 2 are left out.
    assert associate(tracks, dets, gate=1.0) == ([(1, 1), (2, 0)], [0], [2])
    assert solved == []
    # At gate 3.1 neighbours contend: three in-gate pairs beat the two near
    # ones, so no track keeps its nearest detection.
    assert associate(tracks, dets, gate=3.1) == ([(0, 1), (1, 0), (2, 2)], [], [])
    assert solved == [(3, 3)]


@st.composite
def association_frames(draw):
    """Tracks, detection centroids and a gate; coordinates on a half-metre
    grid make ties and contention common, and the gate is often exactly a
    pair's distance or the float just below it."""
    coord = st.one_of(st.integers(-6, 6).map(lambda v: v / 2), st.floats(-5, 5))
    point = st.tuples(coord, coord)
    predicted = draw(st.lists(point, max_size=5))
    centroids = draw(st.lists(point, max_size=5))
    gate = draw(st.floats(0.1, 4.0))
    gaps = [math.hypot(px - cx, py - cy) for px, py in predicted for cx, cy in centroids]
    if gaps and draw(st.booleans()):
        gate = draw(st.sampled_from(gaps))
        if draw(st.booleans()):
            gate = math.nextafter(gate, -math.inf)
    return predicted, centroids, gate


@settings(max_examples=400, deadline=None)
@example(([(0.0, 0.0), (5.0, 0.0)], [(0.0, 1.0), (5.0, 0.5)], 1.0))  # a pair on the gate
@example(([(0.0, 0.0), (5.0, 0.0)], [(0.0, 1.0), (5.0, 0.5)], math.nextafter(1.0, 0.0)))  # just off
@example(([(0.0, 0.0), (3.0, 0.0)], [(3.0, 0.5), (0.0, 0.5)], 1.0))  # disjoint 2x2, crossed
@example(([(0.0, 0.0), (3.0, 0.0)], [(3.0, 0.5)], 1.0))  # disjoint 2x1
@example(([(0.0, 0.0)], [(3.0, 0.0), (0.0, 0.5)], 1.0))  # disjoint 1x2
@example(([(0.0, 0.0), (1.0, 0.0)], [(0.5, 0.0)], 1.0))  # one detection in two gates
@example(([(0.0, 0.0), (1.0, 0.0)], [(0.5, 0.0), (1.9, 0.0)], 1.0))  # chain t0-d0-t1-d1
@example(([], [(0.0, 0.0)], 1.0))  # no tracks
@example(([(0.0, 0.0)], [], 1.0))  # no detections
@example(([], [], 1.0))
@given(association_frames())
def test_associate_matches_solver_oracle(frame):
    predicted, centroids, gate = frame
    dets = [Detection(cx, cy, pts((cx, cy))) for cx, cy in centroids]
    assert associate(predicted, dets, gate) == solver_associate(predicted, dets, gate)


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, size=(n, m))
        _, total = min_cost_assignment(cost)
        assert total == pytest.approx(brute_force_assignment(cost), abs=1e-12)


# ------------------------------------------------------------------ kalman


def test_kalman_fixed_point():
    kf = KalmanCV(1.0, 2.0, sigma_a=2.0, sigma_m=0.15)
    for _ in range(60):
        kf.predict(0.1)
        kf.update(1.0, 2.0)
    assert kf.x == pytest.approx(1.0, abs=1e-3)
    assert kf.y == pytest.approx(2.0, abs=1e-3)


def test_kalman_prediction_only_advances_by_velocity():
    kf = KalmanCV(0.0, 0.0, sigma_a=2.0, sigma_m=0.15)
    set_kalman_state(kf, [1.0, 2.0, 0.5, -0.25])
    kf.predict(0.2)
    assert kf.x == pytest.approx(1.0 + 0.5 * 0.2, abs=1e-12)
    assert kf.y == pytest.approx(2.0 - 0.25 * 0.2, abs=1e-12)


def test_kalman_covariance_stays_symmetric_positive():
    rng = np.random.default_rng(2)
    kf = KalmanCV(0.0, 5.0, sigma_a=2.0, sigma_m=0.15)
    for k in range(50):
        kf.predict(0.1)
        if k % 3:
            kf.update(float(rng.normal(0, 0.2)), 5.0 - 0.1 * k)
        cov = kalman_cov(kf)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_kalman_beats_raw_measurements_on_cv_motion():
    # Constant-velocity truth with noisy detections: after burn-in the
    # filtered positions must be closer to truth than the noise floor.
    rng = np.random.default_rng(9)
    sigma_m = 0.15
    kf = None
    errs = []
    for k in range(80):
        t = 0.1 * k
        true = np.array([0.2 * t, 6.0 - 1.0 * t])
        z = true + rng.normal(0, sigma_m, size=2)
        if kf is None:
            kf = KalmanCV(z[0], z[1], sigma_a=2.0, sigma_m=sigma_m)
        else:
            kf.predict(0.1)
            kf.update(z[0], z[1])
        if k >= 20:
            errs.append(math.hypot(kf.x - true[0], kf.y - true[1]))
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse < sigma_m


def test_kalman_tracks_noiseless_cv_exactly():
    kf = KalmanCV(0.0, 6.0, sigma_a=2.0, sigma_m=0.15)
    errs = []
    for k in range(1, 60):
        t = 0.1 * k
        true = (0.3 * t, 6.0 - 1.1 * t)
        kf.predict(0.1)
        kf.update(true[0], true[1])
        if k >= 20:
            errs.append(math.hypot(kf.x - true[0], kf.y - true[1]))
    assert float(np.sqrt(np.mean(np.square(errs)))) < 0.01


def test_kalman_matches_matrix_reference():
    # 200 random runs: random frame intervals, noise levels, missed
    # detections and state overwrites, closed form against 4x4 algebra.
    rng = np.random.default_rng(12)
    for _ in range(200):
        x0, y0 = rng.uniform(-5, 5), rng.uniform(0, 8)
        sigmas = (rng.uniform(0.1, 5.0), rng.uniform(0.02, 0.5))
        v0_sigma = rng.uniform(0.1, 3.0)
        kf = KalmanCV(x0, y0, *sigmas, v0_sigma=v0_sigma)
        ref = MatrixKalmanCV(x0, y0, *sigmas, v0_sigma=v0_sigma)
        for _ in range(100):
            if rng.random() < 0.05:
                state = np.concatenate([rng.uniform(-5, 8, 2), rng.uniform(-2, 2, 2)])
                set_kalman_state(kf, state)
                ref.state = state.copy()
            dt = rng.uniform(0.02, 0.5)
            kf.predict(dt)
            ref.predict(dt)
            if rng.random() < 0.7:
                zx, zy = (float(v) for v in rng.uniform(-5, 8, 2))
                kf.update(zx, zy)
                ref.update(zx, zy)
            assert np.max(np.abs(kalman_state(kf) - ref.state)) <= 1e-12
            assert np.max(np.abs(kalman_cov(kf) - ref.cov)) <= 1e-12


# ------------------------------------------------------------ track_frames


def empty_session():
    return Session(frame_rate=10.0, site="home", room_label="r", device_id="d")


def test_track_frames_empty_session():
    assert track_frames(empty_session(), PipelineConfig()) == []


@pytest.fixture(scope="module")
def single_walker():
    scene = make_scenario("clinic_control", seed=3, n_walks=1)
    session, truth = simulate(scene)
    return scene, session, truth


def test_single_walker_single_confirmed_track(single_walker):
    _, session, truth = single_walker
    tracks = track_frames(session, PipelineConfig())
    assert len(tracks) == 1
    walker = truth.walkers[0]
    walk_duration = walker.t_end - walker.t_start
    covered = tracks[0].t[-1] - tracks[0].t[0]
    assert covered >= 0.9 * walk_duration


def test_track_state_times_strictly_increase(single_walker):
    _, session, _ = single_walker
    for track in track_frames(session, PipelineConfig()):
        times = track.t.tolist()
        assert all(b > a for a, b in zip(times, times[1:]))


def test_track_points_subset_of_frame(single_walker, monkeypatch):
    # Each row's detection is a (merged) detection of its frame, and the
    # points its torso summary was taken from are that frame's.
    _, session, _ = single_walker
    db = PipelineConfig().dbscan
    calls = spy_rows(monkeypatch)
    tracks = track_frames(session, PipelineConfig())
    recorded = points_by_row(calls)
    frames_by_t = {f.t: f.points for f in session.frames}
    for track in tracks:
        for t, x, y, n in zip(track.t.tolist(), track.x.tolist(), track.y.tolist(),
                              track.n_points.tolist()):
            frame = frames_by_t[t]
            detections = merge_close_detections(
                dbscan(frame, db.eps, db.min_pts, db.min_cluster_size), db.merge_radius
            )
            assert n in {len(d.points) for d in detections}
            assert len(recorded[t, x, y]) == n
            assert set(map(tuple, recorded[t, x, y].tolist())) <= set(map(tuple, frame.tolist()))


COLUMNS = ("t", "x", "y", "n_points", "torso_mean", "torso_count")


def tracked(session, monkeypatch):
    """Every column of each confirmed track, and the (t, x, y, points) of
    every row `track_frames` records, confirmed or not."""
    calls = spy_rows(monkeypatch)
    tracks = track_frames(session, PipelineConfig())
    columns = [(tr.track_id, *(getattr(tr, name).tobytes() for name in COLUMNS))
               for tr in tracks]
    return columns, [(t, x, y, points.tobytes()) for t, x, y, points in calls]


def test_tracker_deterministic(single_walker, monkeypatch):
    _, session, _ = single_walker
    assert tracked(session, monkeypatch) == tracked(session, monkeypatch)


def test_track_columns_hold_a_fixed_size_per_row():
    # Rows hold no points: t, x, y, n_points and the 2-column torso mean
    # and count are 64 bytes a row, whatever the detections' sizes.
    tracks = track_frames(dense_home_session(), PipelineConfig())
    assert tracks
    for track in tracks:
        arrays = [getattr(track, f.name) for f in dataclasses.fields(track)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert [a.shape[0] for a in arrays] == [len(track)] * len(COLUMNS)
        assert sum(a.nbytes for a in arrays) == 64 * len(track)


@pytest.mark.parametrize("s", [-1e308, 1e308, -1.7976931348623157e308, 1.7976931348623157e308])
@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_torso_mean_of_huge_dopplers_is_finite(s, n):
    # A session drops Dopplers past MAX_DOPPLER_MS, whose sums could
    # overflow, so the torso means are of Dopplers within it; n of them at
    # the bound average to the bound exactly.
    frames = [(0.0, np.array([(0.0, 2.0, 0.0, s)] * n))]
    session = Session(frame_rate=1.0, site="home", room_label="r", device_id="d", frames=frames)
    assert (len(session.points), session.dropped_points) == (0, n)

    bound = math.copysign(MAX_DOPPLER_MS, s)
    row = track_row(0.0, 0.0, 2.0, np.array([(0.0, 2.0, 0.0, bound)] * n), 0.25)
    approach, recede = row[4:6], row[6:8]
    summary, other = (approach, recede) if s < 0 else (recede, approach)
    assert summary == (bound, n) and other == (0.0, 0)


def test_track_frames_detects_chunks_of_frames(monkeypatch):
    # A counting wrapper as the benchmark's tracer installs it: it reads the
    # points of each call and each detection.
    session, _ = simulate(make_scenario("clinic_control", seed=7))
    calls = []

    def counting(*args, **kwargs):
        found = dbscan(*args, **kwargs)
        calls.append((len(args[0]), [len(d.points) for d in found]))
        return found

    monkeypatch.setattr(gaitpipe.tracker, "dbscan", counting)
    track_frames(session, PipelineConfig())
    assert len(calls) < len(session.times) / 10
    assert sum(n for n, _ in calls) == len(session.points)


def per_frame_dbscan(points, eps, min_pts, min_cluster_size=1, offsets=None):
    """`dbscan` on a stack of frames, one call per frame."""
    return [
        dataclasses.replace(d, frame=k)
        for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:]))
        for d in dbscan(points[a:b], eps, min_pts, min_cluster_size)
    ]


def stack_sizes(session, monkeypatch):
    """Points per frame of each frame stack `track_frames` passes to `dbscan`."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.diff(kwargs["offsets"]).tolist())
        return dbscan(*args, **kwargs)

    monkeypatch.setattr(gaitpipe.tracker, "dbscan", counting)
    track_frames(session, PipelineConfig())
    assert sum(calls, []) == np.diff(session.offsets).tolist()
    return calls


def test_sparse_frames_stack_up_to_chunk_points(monkeypatch):
    # Every frame of a clinic session is sparse, so each call takes frames
    # until the next non-empty one would pass CHUNK_POINTS.
    session, _ = simulate(make_scenario("clinic_control", seed=7))
    calls = stack_sizes(session, monkeypatch)
    assert max(map(max, calls)) <= DENSE_FRAME_POINTS
    assert len(calls) > 1
    assert all(sum(sizes) <= CHUNK_POINTS for sizes in calls)
    for sizes, after in zip(calls, calls[1:]):
        assert sum(sizes) + next(n for n in after if n) > CHUNK_POINTS
    assert (CHUNK_POINTS, DENSE_FRAME_POINTS) == (2048, 128)
    assert len(calls) == math.ceil(len(session.points) / 2048)


def test_dense_frames_share_calls_only_with_empty_frames(monkeypatch):
    calls = stack_sizes(dense_home_session(), monkeypatch)
    assert any(max(sizes) > DENSE_FRAME_POINTS for sizes in calls)
    for sizes in calls:
        if max(sizes) > DENSE_FRAME_POINTS:
            assert np.count_nonzero(sizes) == 1


# Points per frame by kind: empty, sparse, up to DENSE_FRAME_POINTS, and dense.
FRAME_KINDS = ((0, 0), (1, 20), (100, DENSE_FRAME_POINTS), (DENSE_FRAME_POINTS + 1, 300))
# A de Bruijn sequence over the four kinds: every ordered pair is adjacent once.
EVERY_PAIR = (0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 2, 2, 3, 3, 0)


def mixed_session(seed: int) -> Session:
    """A walker's blob in frames of every kind, in every order of two kinds
    and with sizes at the ends of each kind's range, then a run of frames
    of 100 to 128 points that passes CHUNK_POINTS, then random kinds. Two
    points of a non-empty frame are strays far from the blob."""
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(4)
    kinds = [int(relabel[k]) for k in EVERY_PAIR] + [2] * 20 + rng.integers(0, 4, 30).tolist()
    frames = []
    for k, kind in enumerate(kinds):
        lo, hi = FRAME_KINDS[kind]
        n = int(rng.choice([lo, hi]) if k < len(EVERY_PAIR) else rng.integers(lo, hi + 1))
        strays = min(n, 2)
        blob = np.column_stack([
            rng.normal(0.1 * math.sin(0.2 * k), 0.1, n - strays),
            rng.normal(6.0 - 0.06 * k, 0.1, n - strays),
            rng.uniform(-0.8, 0.8, n - strays),
            rng.normal(-1.0, 0.3, n - strays),
        ])
        far = np.array([[-3.0, 1.0, 0.0, 0.5], [3.0, 2.0, 0.5, -0.5]])[:strays]
        frames.append((0.1 * (k + 1), np.vstack([blob, far])))
    return Session(frame_rate=10.0, site="home", room_label="r", device_id="d", frames=frames)


@pytest.mark.parametrize("seed", range(4))
def test_track_frames_matches_one_call_per_frame(monkeypatch, seed):
    session = mixed_session(seed)
    stacked = tracked(session, monkeypatch)
    assert stacked[0]
    monkeypatch.setattr(gaitpipe.tracker, "_stacks",
                        lambda sizes: ((k, k + 1) for k in range(len(sizes))))
    assert stacked == tracked(session, monkeypatch)


@pytest.mark.parametrize("eps", ["1000", "1e153", "1e308"])
def test_huge_eps_gives_the_per_frame_bundle(tmp_path, monkeypatch, capsys, eps):
    # The largest eps the config takes is MAX_COORD_M, and its stacked frames
    # give the per-frame bundle. Past it, process exits 2 naming the key.
    session, _ = simulate(make_scenario("home_radial", seed=104))
    write_session(session, tmp_path / "s.session.jsonl")
    (tmp_path / "c.toml").write_text(f"[dbscan]\neps = {eps}\n")

    def process(out):
        code = main(["process", "--input", str(tmp_path / "s.session.jsonl"),
                     "--config", str(tmp_path / "c.toml"), "--out", str(tmp_path / out)])
        return code, {p.relative_to(tmp_path / out): p.read_bytes()
                      for p in sorted((tmp_path / out).rglob("*")) if p.is_file()}

    chunked = process("chunked")
    if float(eps) > MAX_COORD_M:
        assert chunked == (2, {}) and "dbscan.eps" in capsys.readouterr().err
        return
    assert chunked[0] == 0 and float(eps) == MAX_COORD_M
    monkeypatch.setattr(gaitpipe.tracker, "dbscan", per_frame_dbscan)
    assert chunked == process("per_frame")


def test_huge_coordinate_alone_in_its_frame():
    # A session drops a finite point at 1e200, whose squared distance to any
    # other point would overflow; its frame is empty.
    blob = pts((0.0, 2.0), (0.1, 2.0), (0.0, 2.1), (0.1, 2.1), (0.05, 2.05))
    frames = [(float(t), pts((1e200, 1.0)) if t == 1 else blob) for t in range(1, 6)]
    session = Session(frame_rate=1.0, site="home", room_label="r", device_id="d", frames=frames)
    (track,) = track_frames(session, PipelineConfig())
    assert track.t.tolist() == [2.0, 3.0, 4.0, 5.0]


def test_two_separated_walkers_no_identity_swap():
    walkers = (
        WalkerSpec(walker_id="a", path=((0.0, 6.0), (0.0, 1.5)), start_time=1.0),
        WalkerSpec(
            walker_id="b",
            path=((2.5, 1.5), (2.5, 6.0)),
            base_speed=0.9,
            start_time=1.2,
        ),
    )
    scene = SceneSpec(
        name="two", site="home", duration=9.0, seed=21, walkers=walkers
    )
    session, truth = simulate(scene)
    tracks = track_frames(session, PipelineConfig())
    assert len(tracks) == 2

    def truth_xy(walker, t):
        sample = min(walker.samples, key=lambda s: abs(s.t - t))
        return np.array([sample.x, sample.y])

    # Each track must stay near exactly one walker for its whole life.
    for track in tracks:
        dists = {
            w.walker_id: max(
                math.hypot(*(np.array([x, y]) - truth_xy(w, t)))
                for t, x, y in zip(track.t.tolist(), track.x.tolist(), track.y.tolist())
            )
            for w in truth.walkers
            if w.t_start <= track.t[0] <= w.t_end
        }
        assert min(dists.values()) < 0.5
