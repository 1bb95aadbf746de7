import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaitpipe.stats import (
    MAX_RATING,
    RatingsMatrix,
    _mean_squares,
    detection_rate,
    error_table,
    heatmap_from_xy,
    icc2k,
    icc3k,
    valid_track_stats,
)

from builders import make_track
from oracles import (
    anova_icc2k,
    anova_icc3k,
    anova_mean_squares,
    icc_ci_mcgraw_wong,
    interval_reliability,
)

# Shrout & Fleiss (1979), six targets rated by four judges. Published
# averages: ICC(2,k)=0.62, ICC(3,k)=0.91; psych::ICC CIs (0.071, 0.93)
# and (0.676, 0.99).
SF_DATA = np.array(
    [
        [9, 2, 5, 8],
        [6, 1, 3, 2],
        [8, 4, 6, 8],
        [7, 1, 2, 6],
        [10, 5, 6, 9],
        [6, 2, 4, 7],
    ],
    dtype=float,
)


def test_ratings_matrix_validation():
    with pytest.raises(ValueError):
        RatingsMatrix(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        RatingsMatrix(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        RatingsMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))


def test_ratings_bounded_so_the_icc_stays_finite():
    # Up to MAX_RATING every ICC estimate is finite (the interval may be
    # NaN by design); one rating past it is rejected, naming its row.
    signs = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    at_bound = RatingsMatrix(signs * MAX_RATING)
    assert math.isfinite(icc2k(at_bound).icc) and math.isfinite(icc3k(at_bound).icc)
    for huge in (np.nextafter(MAX_RATING, np.inf), 1e300, 1.7e308):
        values = signs.copy()
        values[2, 1] = -huge
        with pytest.raises(ValueError, match=r"at most 1e\+100 in magnitude; row 3 is"):
            RatingsMatrix(values)


def test_icc_perfect_agreement():
    m = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 2))
    r2 = icc2k(m)
    assert r2.icc == 1.0 and (r2.ci_low, r2.ci_high) == (1.0, 1.0)
    assert r2.degenerate
    r3 = icc3k(m)
    assert r3.icc == 1.0 and r3.degenerate


def test_icc_all_identical_defined_as_one():
    m = np.full((4, 3), 2.5)
    assert icc2k(m).icc == 1.0
    assert icc3k(m).icc == 1.0


def test_icc_offset_columns_separate_models():
    base = np.array([[1.0], [2.0], [3.0], [4.0]])
    m = np.hstack([base, base + 0.7])
    r2 = icc2k(m)
    r3 = icc3k(m)
    assert r3.icc == 1.0
    assert r2.icc < 1.0
    assert r3.icc > r2.icc


def test_icc_shrout_fleiss_worked_example():
    r2 = icc2k(SF_DATA)
    r3 = icc3k(SF_DATA)
    assert r2.icc == pytest.approx(0.62, abs=5e-3)
    assert r3.icc == pytest.approx(0.91, abs=5e-3)
    assert r2.ci_low == pytest.approx(0.071, abs=5e-3)
    assert r2.ci_high == pytest.approx(0.93, abs=5e-3)
    assert r3.ci_low == pytest.approx(0.676, abs=5e-3)
    assert r3.ci_high == pytest.approx(0.99, abs=5e-3)


def _estimate_denominators(m):
    """The oracle's ICC(2,k) and ICC(3,k) denominators, from its own mean squares."""
    msr, msc, mse = anova_mean_squares(m)
    return msr + (msc - mse) / len(m), msr


def test_icc_matches_anova_oracle():
    # Equal to the oracle where its denominator is positive, undefined elsewhere.
    rng = np.random.default_rng(10)
    undefined = 0
    for _ in range(40):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(2, 6))
        m = rng.normal(5, 2, size=(n, k)) + rng.normal(0, 1, size=(n, 1))
        pairs = ((icc2k(m), anova_icc2k(m)), (icc3k(m), anova_icc3k(m)))
        for (result, expected), den in zip(pairs, _estimate_denominators(m)):
            if den > 0:
                assert result.icc == pytest.approx(expected, abs=1e-9)
            else:
                assert math.isnan(result.icc) and result.as_dict()["icc"] is None
                undefined += 1
    assert undefined == 1  # one of the 80 estimates: the oracle's reads above 1


def test_icc_ci_matches_f_ppf_oracle():
    # Intervals against McGraw & Wong's construction with scipy.stats.f.ppf
    # quantiles, fed the same mean squares, over random matrices and
    # near-degenerate ones. Compared where the oracle's denominators are
    # positive, and undefined (null) elsewhere.
    rng = np.random.default_rng(40)
    matrices = []
    for _ in range(60):
        n, k = int(rng.integers(2, 15)), int(rng.integers(2, 6))
        matrices.append(rng.normal(5, 2, size=(n, k)) + rng.normal(0, 1, size=(n, 1)))
    for _ in range(60):
        # Residuals near the degeneracy tolerance, near-equal rows, or one
        # rater offset far from the rest.
        n, k = int(rng.integers(2, 10)), int(rng.integers(2, 5))
        base = rng.normal(0.6, 0.1, size=(n, 1)) * rng.choice([1.0, 1e-5])
        noise = rng.normal(0, 10.0 ** rng.uniform(-6, -2), size=(n, k))
        offset = np.zeros((1, k))
        offset[0, -1] = rng.choice([0.0, 1e-6, 5.0])
        matrices.append(base + noise + offset)

    checked = undefined_estimates = undefined_intervals = 0
    for m in matrices:
        n, k = m.shape
        den2, den3 = _estimate_denominators(m)
        for confidence in (0.9, 0.95, 0.99):
            r2, r3 = icc2k(m, confidence), icc3k(m, confidence)
            if r2.degenerate or r3.degenerate:
                continue
            ci2, ci3 = icc_ci_mcgraw_wong(*_mean_squares(m), n, k, confidence)
            if not den2 > 0:
                assert math.isnan(r2.icc)
                undefined_estimates += 1
            # A stepped-up bound b = k r / (1 + (k - 1) r) has 1 + (k - 1) r
            # = k / (k - (k - 1) b), so that denominator is positive where
            # (k - 1) b < k; the oracle makes both bounds NaN if either is.
            if all((k - 1) * b < k for b in ci2):
                np.testing.assert_allclose((r2.ci_low, r2.ci_high), ci2, rtol=1e-7, atol=1e-9)
                checked += 1
            else:
                assert math.isnan(r2.ci_low) and math.isnan(r2.ci_high)
                undefined_intervals += 1
            assert den3 > 0
            np.testing.assert_allclose((r3.ci_low, r3.ci_high), ci3, rtol=1e-9, atol=1e-12)
            for value in (r2.icc, r2.ci_low, r2.ci_high, r3.icc, r3.ci_low, r3.ci_high):
                assert math.isnan(value) or value <= 1
    assert (checked, undefined_estimates, undefined_intervals) == (331, 9, 26)


def test_icc_at_most_one_and_offset_ordering():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        base = rng.normal(0, 1, size=(n, 1))
        noise = rng.normal(0, 0.3, size=(n, 2))
        offsets = np.array([[0.0, float(rng.uniform(1.0, 3.0))]])
        m = base + noise + offsets
        r2, r3 = icc2k(m), icc3k(m)
        assert r2.icc <= 1.0 and r3.icc <= 1.0
        assert r3.icc >= r2.icc


def test_icc_row_permutation_invariant():
    rng = np.random.default_rng(30)
    m = rng.normal(0, 1, size=(8, 3))
    perm = rng.permutation(8)
    assert icc2k(m).icc == pytest.approx(icc2k(m[perm]).icc, abs=1e-12)
    assert icc3k(m).icc == pytest.approx(icc3k(m[perm]).icc, abs=1e-12)


def test_icc_negative_reported_not_clamped():
    m = np.array([[1.0, 2.0], [2.0, 1.0], [1.1, 1.9], [1.9, 1.2]])
    result = icc3k(m)
    assert result.icc < 0
    assert result.as_dict()["negative"] is True


@pytest.mark.parametrize("n", [3, 6, 10])
def test_icc_exact_zero_reads_zero(n):
    # Estimates against a constant reference make MSR = MSE exactly, so
    # both ICCs are 0; rounding left +-1e-16 with a sign.
    est = np.random.default_rng(n).normal(0.55, 0.03, n)
    m = np.column_stack([est, np.full(n, 0.55)])
    for result in (icc2k(m), icc3k(m)):
        assert result.icc == 0.0 and result.as_dict()["negative"] is False


# Ten walks' step lengths (m) from two raters: ICC(2,k) 0.9817, ICC(3,k)
# 0.9837, the same in mm or km.
STEP_LENGTHS = [
    [0.543, 0.524], [0.535, 0.528], [0.701, 0.693], [0.486, 0.468], [0.632, 0.617],
    [0.681, 0.671], [0.511, 0.513], [0.451, 0.478], [0.563, 0.508], [0.621, 0.625],
]


@st.composite
def ratings_grids(draw):
    """Small integer n x k grids: free, or with constant rows, constant
    columns, raters swapped within each subject, additive (zero residual),
    or every entry identical."""
    n, k = draw(st.integers(2, 7)), draw(st.integers(2, 5))
    entry = st.integers(-6, 6)
    rows = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    cols = np.array(draw(st.lists(entry, min_size=k, max_size=k)))
    kind = draw(st.sampled_from(
        ["free", "constant_rows", "constant_columns", "swapped", "additive", "identical"]))
    if kind == "free":
        grid = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    elif kind == "constant_rows":
        grid = np.repeat(rows[:, None], k, axis=1)
    elif kind == "constant_columns":
        grid = np.tile(cols, (n, 1))
    elif kind == "swapped":
        grid = [np.roll(cols, draw(st.integers(0, k - 1))) for _ in range(n)]
    elif kind == "additive":
        grid = rows[:, None] + cols[None, :]
    else:
        grid = np.full((n, k), rows[0])
    return np.asarray(grid, dtype=float).tolist()


def _values(result):
    return result.icc, result.ci_low, result.ci_high


@settings(max_examples=300)
@example(STEP_LENGTHS, -5.0, 0.0)  # was 1.0 and degenerate at this scale
@example([[0.5, 0.6], [0.6, 0.5], [0.55, 0.55]], 0.0, 0.0)  # was ICC(2,k) 3.0
@example([[1.0, 2.0], [2.0, 1.0]], 0.0, 0.0)  # was ICC(2,k) 2.0
@example([[0.0, -1.0], [0.0, 1.0]], 0.0, 0.0)  # was ci95 [2.003, 0.999]
@example([[4.0, -2.0], [1.0, 0.0]], 0.0, 0.0)  # ICC(2,k) below its own interval
@example([[0.368, -0.496], [0.370, -0.497], [0.370, -0.498]], 3.0, -700.0)  # infinite F quantile
@example([[0.0, -4.0]] * 5 + [[-4.0, -8.0], [6.0, 2.0]], -2.5, 765.0)  # zero residual, far shifted
@example([[0.0, 1.0], [-2.0, 4.0]], 2.0, 0.0)  # an F quantile near 1e305
@example([[0.0, 0.0, 0.0, 1.0]] * 5 + [[1.0, 0.0, 0.0, 0.0]] * 2, 1.0, 0.0)  # MSR 0: no df
@given(ratings_grids(), st.floats(-8.0, 8.0), st.floats(-1e3, 1e3))
def test_icc_defined_by_one_scale_free_rule(grid, log_scale, shift):
    # a*M + b for a in [1e-8, 1e8] and |b| <= 1e3 * a * range(M) leaves
    # which values are defined, and each estimate, unchanged; every defined
    # value is at most 1, and an interval holds its estimate (McGraw and
    # Wong's ICC(2,k) interval only a non-negative one).
    m = np.array(grid)
    a = 10.0 ** log_scale
    moved = a * m + shift * a * np.ptp(m)
    for icc in (icc2k, icc3k):
        plain, scaled = icc(m), icc(moved)
        assert plain.degenerate == scaled.degenerate
        assert np.array_equal(np.isnan(_values(plain)), np.isnan(_values(scaled)))
        if not math.isnan(plain.icc):
            assert abs(scaled.icc - plain.icc) <= 1e-6 * max(1.0, abs(plain.icc))
        for result in (plain, scaled):
            est, lo, hi = _values(result)
            assert all(math.isnan(v) or v <= 1.0 for v in (est, lo, hi))
            assert (result.as_dict()["negative"] is None) == math.isnan(est)
            if not math.isnan(est + lo + hi) and (icc is icc3k or est >= 0):
                assert lo <= est <= hi


def test_icc_step_lengths_at_any_unit():
    for unit in (1.0, 1e-5, 1e3):
        r2, r3 = icc2k(np.array(STEP_LENGTHS) * unit), icc3k(np.array(STEP_LENGTHS) * unit)
        assert r2.icc == pytest.approx(0.9817, abs=5e-5) and not r2.degenerate
        assert r3.icc == pytest.approx(0.9837, abs=5e-5) and not r3.degenerate


# ------------------------------------------------------------- error table


def test_error_table_zero_when_equal():
    pairs = [(0.5, 0.5, "control"), (0.61, 0.61, "fast")]
    summary = error_table(pairs)
    assert summary["overall"]["mean_cm"] == 0.0
    assert summary["overall"]["mean_pct"] == 0.0


def test_error_table_single_pair():
    summary = error_table([(0.55, 0.50, "control")])
    assert summary["overall"]["mean_cm"] == pytest.approx(5.0)
    assert summary["overall"]["mean_pct"] == pytest.approx(10.0)
    assert summary["overall"]["sd_cm"] is None


def test_error_table_reference_must_be_positive():
    with pytest.raises(ValueError):
        error_table([(0.5, 0.0, None)])


def test_error_table_pooled_mean_is_weighted_mean():
    rng = np.random.default_rng(3)
    pairs = []
    for walk_type, n in (("control", 7), ("fast", 3), ("narrow", 5)):
        for _ in range(n):
            pairs.append(
                (float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.4, 0.8)), walk_type)
            )
    summary = error_table(pairs)
    weighted = sum(r["mean_cm"] * r["n"] for r in summary["by_type"].values()) / sum(
        r["n"] for r in summary["by_type"].values()
    )
    assert summary["overall"]["mean_cm"] == pytest.approx(weighted, abs=1e-9)


def test_error_table_matches_spreadsheet_style_oracle():
    rng = np.random.default_rng(8)
    pairs = [
        (float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.4, 0.8)), "control")
        for _ in range(12)
    ]
    summary = error_table(pairs)
    cm = [abs(e - r) * 100 for e, r, _ in pairs]
    pct = [abs(e - r) / r * 100 for e, r, _ in pairs]
    mean_cm = sum(cm) / len(cm)
    sd_cm = math.sqrt(sum((v - mean_cm) ** 2 for v in cm) / (len(cm) - 1))
    assert summary["overall"]["mean_cm"] == pytest.approx(mean_cm, abs=1e-9)
    assert summary["overall"]["sd_cm"] == pytest.approx(sd_cm, abs=1e-9)
    assert summary["overall"]["mean_pct"] == pytest.approx(sum(pct) / len(pct), abs=1e-9)


# ---------------------------------------------------------- detection rate


def test_detection_rate_bounds():
    assert detection_rate([("control", True)] * 5)["rate"] == 1.0
    assert detection_rate([("control", False)] * 5)["rate"] == 0.0
    rate = detection_rate([("control", True), ("fast", False), ("fast", True)])
    assert rate["rate"] == pytest.approx(2 / 3)
    assert rate["by_type"]["fast"] == {"detected": 1, "total": 2}
    # No walk is not a miss: nothing to average reads None.
    assert detection_rate([])["rate"] is None


# ----------------------------------------------------- interval reliability


def test_interval_reliability_identical_weeks():
    daily = {
        f"room{i}": ([v] * 7, [v] * 7)
        for i, v in enumerate([0.5, 0.6, 0.7, 0.55])
    }
    results = interval_reliability(daily)
    assert set(results) == set(range(2, 8))
    for res in results.values():
        assert res.icc == pytest.approx(1.0)


def test_interval_reliability_single_room_degenerate():
    with pytest.raises(ValueError):
        interval_reliability({"only": ([0.5] * 7, [0.5] * 7)})


def test_interval_reliability_drops_incomplete_rooms():
    daily = {
        "a": ([0.5] * 7, [0.51] * 7),
        "b": ([0.7] * 7, [0.69] * 7),
        "c": ([None] * 7, [0.6] * 7),  # no week-1 data: dropped
        "d": ([0.62] * 7, [0.6] * 7),
    }
    results = interval_reliability(daily, intervals=[7])
    assert results[7].n_subjects == 3


def test_interval_reliability_uses_first_days():
    daily = {
        "a": ([0.5, 0.9] + [None] * 5, [0.5] * 7),
        "b": ([0.7, 0.7] + [None] * 5, [0.7] * 7),
    }
    res = interval_reliability(daily, intervals=[2])[2]
    # Window mean for room a is (0.5 + 0.9) / 2 = 0.7 in week 1.
    assert res.n_subjects == 2


# --------------------------------------------------------- valid tracks pct


def test_valid_track_stats():
    stats = valid_track_stats(
        {
            "h1": [True] * 4,
            "h2": [False] * 5,
            "h3": [True, False, False, True],
        }
    )
    assert stats["per_home"] == {"h1": 100.0, "h2": 0.0, "h3": 50.0}
    assert stats["mean"] == pytest.approx(50.0)
    assert stats["sd"] == pytest.approx(50.0)


def test_valid_track_stats_empty_home_skipped():
    stats = valid_track_stats({"h1": [], "h2": [True]})
    assert stats["per_home"] == {"h2": 100.0}
    assert stats["sd"] is None
    # No home with a segment: nothing to average reads None.
    assert valid_track_stats({"h1": []})["mean"] is None
    assert valid_track_stats({})["mean"] is None


# ----------------------------------------------------------------- heatmap


def straight_track():
    return make_track([(0.1 * i, 0.3, 1.0 + 0.2 * i, ()) for i in range(20)])


def track_heatmap(tracks, cell):
    """Visit-count grid over every track row, collected as `process` does."""
    xs = [x for tr in tracks for x in tr.x.tolist()]
    ys = [y for tr in tracks for y in tr.y.tolist()]
    return heatmap_from_xy(xs, ys, cell)


def test_heatmap_straight_track_on_line():
    grid = track_heatmap([straight_track()], cell=0.25)
    assert grid.counts.sum() == 20
    nonzero_cols = {j for i, j in zip(*np.nonzero(grid.counts))}
    assert nonzero_cols == {int(np.floor(0.3 / 0.25)) - grid.origin_x}


def test_heatmap_empty_zero():
    grid = track_heatmap([], cell=0.25)
    assert grid.counts.size == 0
    assert grid.to_csv().startswith("#")


def test_heatmap_cell_validation():
    with pytest.raises(ValueError):
        heatmap_from_xy([1.0], [1.0], cell=0.0)


def test_heatmap_csv_round_shape():
    grid = heatmap_from_xy([0.0, 0.3, 0.6], [0.0, 0.0, 0.0], cell=0.25)
    lines = grid.to_csv().strip().splitlines()
    assert lines[0].startswith("# origin_x=0,origin_y=0,cell=0.25")
    assert len(lines) == 1 + grid.counts.shape[0]


def test_heatmap_argmax_on_walked_path():
    from gaitpipe.config import PipelineConfig
    from gaitpipe.simulator import make_scenario, simulate
    from gaitpipe.tracker import track_frames

    scene = make_scenario("home_radial")
    session, _ = simulate(scene)
    tracks = track_frames(session, PipelineConfig())
    grid = track_heatmap(tracks, cell=0.25)
    iy, ix = np.unravel_index(np.argmax(grid.counts), grid.counts.shape)
    x_center = (grid.origin_x + ix + 0.5) * grid.cell
    # The preset walks up and down the x = 0.3 line.
    assert abs(x_center - 0.3) < 0.3
