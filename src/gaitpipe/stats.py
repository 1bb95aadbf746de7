"""Evaluation statistics: agreement, error tables, and track summaries.

Intraclass correlations follow the two-way ANOVA forms: icc2k is the
two-way random-effects, absolute-agreement, average-of-k-raters
coefficient (MSR - MSE) / (MSR + (MSC - MSE)/n); icc3k is the consistency
form (MSR - MSE) / MSR. Confidence intervals use the standard F-based
constructions with alpha/2 tails, matching the output of the usual
statistical packages. Negative estimates are reported as computed, never
clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import fdtri

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class RatingsMatrix:
    """Complete-case subjects x raters grid feeding the ICC computations."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("ratings must be a 2-D subjects x raters grid")
        n, k = values.shape
        if n < 2 or k < 2:
            raise ValueError(f"need at least 2 subjects and 2 raters, got {n}x{k}")
        if not np.isfinite(values).all():
            raise ValueError("ratings must be finite with no missing entries")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class IccResult:
    icc: float
    ci_low: float
    ci_high: float
    n_subjects: int
    n_raters: int
    degenerate: bool = False

    def as_dict(self) -> dict:
        return {
            "icc": self.icc,
            "ci95": [self.ci_low, self.ci_high],
            "n_subjects": self.n_subjects,
            "n_raters": self.n_raters,
            "degenerate": self.degenerate,
            "negative": self.icc < 0,
        }


def _mean_squares(values: np.ndarray) -> tuple[float, float, float]:
    """(MSR, MSC, MSE) for the two-way layout, via the variance shortcut."""
    n, k = values.shape
    msr = float(np.var(values.mean(axis=1), ddof=1) * k)
    msc = float(np.var(values.mean(axis=0), ddof=1) * n)
    sst = float(np.var(values, ddof=1) * (n * k - 1))
    sse = sst - msr * (n - 1) - msc * (k - 1)
    mse = max(sse, 0.0) / ((n - 1) * (k - 1))
    return msr, msc, mse


def _coerce(m: RatingsMatrix | np.ndarray | Sequence) -> np.ndarray:
    if isinstance(m, RatingsMatrix):
        return m.values
    return RatingsMatrix(np.asarray(m, dtype=float)).values


def icc2k(m: RatingsMatrix | np.ndarray | Sequence, confidence: float = 0.95) -> IccResult:
    """Two-way random effects, absolute agreement, average of k raters."""
    values = _coerce(m)
    n, k = values.shape
    msr, msc, mse = _mean_squares(values)
    scale = max(1.0, msr, msc)

    if msr < _DEGENERATE_TOL * scale and msc < _DEGENERATE_TOL and mse < _DEGENERATE_TOL:
        # All entries identical: perfect agreement by definition.
        return IccResult(1.0, 1.0, 1.0, n, k, degenerate=True)

    if mse < _DEGENERATE_TOL * scale:
        # Zero residual: evaluate at the mse -> 0 limit so perfect
        # agreement comes out exactly 1.
        msc_eff = 0.0 if msc < _DEGENERATE_TOL * scale else msc
        icc = msr / (msr + msc_eff / n)
        return IccResult(icc, icc, icc, n, k, degenerate=True)

    icc = (msr - mse) / (msr + (msc - mse) / n)

    alpha = 1.0 - confidence
    # CI via the single-score form, stepped up to the average-of-k form.
    with np.errstate(all="ignore"):
        icc2 = (msr - mse) / (msr + (k - 1) * mse + k * (msc - mse) / n)
        fj = msc / mse
        a = k * icc2 * fj + n * (1 + (k - 1) * icc2) - k * icc2
        vn = (k - 1) * (n - 1) * a * a
        vd = (n - 1) * k * k * icc2 * icc2 * fj * fj + (
            n * (1 + (k - 1) * icc2) - k * icc2
        ) ** 2
        v = vn / vd
        fl = fdtri(n - 1, v, 1 - alpha / 2)
        fu = fdtri(v, n - 1, 1 - alpha / 2)
        lo2 = n * (msr - fl * mse) / (fl * (k * msc + (k * n - k - n) * mse) + n * msr)
        hi2 = n * (fu * msr - mse) / (k * msc + (k * n - k - n) * mse + n * fu * msr)
        lo = lo2 * k / (1 + (k - 1) * lo2)
        hi = hi2 * k / (1 + (k - 1) * hi2)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo = hi = float("nan")
    return IccResult(icc, lo, hi, n, k)


def icc3k(m: RatingsMatrix | np.ndarray | Sequence, confidence: float = 0.95) -> IccResult:
    """Two-way model, consistency, average of k raters."""
    values = _coerce(m)
    n, k = values.shape
    msr, msc, mse = _mean_squares(values)
    scale = max(1.0, msr, msc)

    if msr < _DEGENERATE_TOL * scale and msc < _DEGENERATE_TOL and mse < _DEGENERATE_TOL:
        return IccResult(1.0, 1.0, 1.0, n, k, degenerate=True)

    if mse < _DEGENERATE_TOL * scale:
        return IccResult(1.0, 1.0, 1.0, n, k, degenerate=True)

    icc = (msr - mse) / msr
    alpha = 1.0 - confidence
    fvalue = msr / mse
    df1 = n - 1
    df2 = (n - 1) * (k - 1)
    fl = fvalue / fdtri(df1, df2, 1 - alpha / 2)
    fu = fvalue * fdtri(df2, df1, 1 - alpha / 2)
    return IccResult(icc, 1 - 1 / fl, 1 - 1 / fu, n, k)


@dataclass(frozen=True)
class ErrorRow:
    n: int
    mean_cm: float
    sd_cm: float | None
    mean_pct: float
    sd_pct: float | None


@dataclass(frozen=True)
class ErrorSummary:
    by_type: dict[str, ErrorRow]
    overall: ErrorRow


def error_table(
    pairs: Iterable[tuple[float, float, str | None]]
) -> ErrorSummary:
    """Absolute and percent step-length error, per walk type and pooled.

    Each pair is (estimate_m, reference_m, walk_type); references must be
    positive. Percent error is 100*|est - ref|/ref.
    """
    groups: dict[str, list[tuple[float, float]]] = {}
    all_errors: list[tuple[float, float]] = []
    for est, ref, walk_type in pairs:
        if not ref > 0:
            raise ValueError(f"reference must be positive, got {ref}")
        err_cm = abs(est - ref) * 100.0
        err_pct = abs(est - ref) / ref * 100.0
        groups.setdefault(walk_type or "all", []).append((err_cm, err_pct))
        all_errors.append((err_cm, err_pct))

    def row(errors: list[tuple[float, float]]) -> ErrorRow:
        cm = np.array([e[0] for e in errors])
        pct = np.array([e[1] for e in errors])
        return ErrorRow(
            n=len(errors),
            mean_cm=float(cm.mean()),
            sd_cm=float(cm.std(ddof=1)) if len(errors) > 1 else None,
            mean_pct=float(pct.mean()),
            sd_pct=float(pct.std(ddof=1)) if len(errors) > 1 else None,
        )

    if not all_errors:
        empty = ErrorRow(0, 0.0, None, 0.0, None)
        return ErrorSummary(by_type={}, overall=empty)
    return ErrorSummary(
        by_type={name: row(errs) for name, errs in sorted(groups.items())},
        overall=row(all_errors),
    )


@dataclass(frozen=True)
class DetectionRate:
    total: int
    detected: int
    by_type: dict[str, tuple[int, int]]  # type -> (detected, total)

    @property
    def rate(self) -> float:
        return self.detected / self.total if self.total else 0.0


def detection_rate(
    outcomes: Iterable[tuple[str | None, bool]]
) -> DetectionRate:
    """Fraction of walks that yielded a step-length measurement."""
    total = detected = 0
    by_type: dict[str, list[int]] = {}
    for walk_type, got_measurement in outcomes:
        total += 1
        detected += bool(got_measurement)
        tally = by_type.setdefault(walk_type or "all", [0, 0])
        tally[0] += bool(got_measurement)
        tally[1] += 1
    return DetectionRate(
        total=total,
        detected=detected,
        by_type={name: (d, t) for name, (d, t) in sorted(by_type.items())},
    )


def interval_reliability(
    daily: Mapping[str, tuple[Sequence[float | None], Sequence[float | None]]],
    intervals: Iterable[int] = range(2, 8),
) -> dict[int, IccResult]:
    """Test-retest ICC(2,k) as a function of the aggregation interval.

    daily maps each room to two consecutive observation windows of
    per-day averages (None for days without a measurement). For each
    interval length L the first L days of each window are averaged; rooms
    missing every day of either window are dropped listwise.
    """
    results = {}
    for length in intervals:
        rows = []
        for room in sorted(daily):
            week1, week2 = daily[room]
            vals1 = [v for v in week1[:length] if v is not None]
            vals2 = [v for v in week2[:length] if v is not None]
            if not vals1 or not vals2:
                continue
            rows.append((float(np.mean(vals1)), float(np.mean(vals2))))
        if len(rows) < 2:
            raise ValueError(
                f"interval {length}: need at least 2 rooms with both windows, got {len(rows)}"
            )
        results[length] = icc2k(np.array(rows))
    return results


@dataclass(frozen=True)
class ValidTrackStats:
    per_home: dict[str, float]  # percentage of valid segments

    @property
    def mean(self) -> float:
        return float(np.mean(list(self.per_home.values()))) if self.per_home else 0.0

    @property
    def sd(self) -> float | None:
        if len(self.per_home) < 2:
            return None
        return float(np.std(list(self.per_home.values()), ddof=1))


def valid_track_stats(
    segments_per_home: Mapping[str, Iterable[bool]]
) -> ValidTrackStats:
    """Percentage of valid linear segments per home, plus the mean (SD)."""
    per_home = {}
    for home in sorted(segments_per_home):
        flags = [bool(v) for v in segments_per_home[home]]
        if not flags:
            continue
        per_home[home] = 100.0 * sum(flags) / len(flags)
    return ValidTrackStats(per_home=per_home)


@dataclass(frozen=True)
class OccupancyHeatmap:
    origin_x: int   # cell index of the first column
    origin_y: int   # cell index of the first row
    cell: float
    counts: np.ndarray  # rows indexed by y cell, columns by x cell

    def to_csv(self) -> str:
        lines = [f"# origin_x={self.origin_x},origin_y={self.origin_y},cell={self.cell}"]
        for row in self.counts:
            lines.append(",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def heatmap_from_xy(
    xs: Sequence[float], ys: Sequence[float], cell: float = 0.25
) -> OccupancyHeatmap:
    """Visit-count grid over raw (x, y) positions."""
    if cell <= 0:
        raise ValueError(f"cell must be positive, got {cell}")
    if len(xs) == 0:
        return OccupancyHeatmap(0, 0, cell, np.zeros((0, 0), dtype=int))
    ix = np.floor(np.asarray(xs) / cell).astype(int)
    iy = np.floor(np.asarray(ys) / cell).astype(int)
    x0, y0 = int(ix.min()), int(iy.min())
    counts = np.zeros((int(iy.max()) - y0 + 1, int(ix.max()) - x0 + 1), dtype=int)
    np.add.at(counts, (iy - y0, ix - x0), 1)
    return OccupancyHeatmap(origin_x=x0, origin_y=y0, cell=cell, counts=counts)
