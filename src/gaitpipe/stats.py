"""Evaluation statistics: agreement, error tables, and track summaries.

Intraclass correlations follow the two-way ANOVA forms of Shrout & Fleiss
(1979) and McGraw & Wong (1996): icc2k is the random-effects, absolute-
agreement, average-of-k-raters coefficient (MSR - MSE) / (MSR + (MSC -
MSE)/n), with the single-score F interval stepped up to k raters by
k r / (1 + (k - 1) r); icc3k is the consistency form (MSR - MSE) / MSR,
with the exact F interval. F quantiles take alpha/2 tails.

A value is defined only when its denominator is positive on the data's
own scale: above _DEGENERATE_TOL times the ratings' total mean square (a
mean square, or an estimate's numerator MSR - MSE, at or below that
counts as 0), or above _DEGENERATE_TOL for the dimensionless step-up. So
which values exist does not change under a*M + b. An undefined value is
NaN (null in JSON), as is an interval missing an end or with an infinite
F quantile. Every defined value is at most 1; negative estimates are
never clamped. Identical entries give ICC 1; a zero residual gives the
point interval at the estimate's limit, flagged degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

_DEGENERATE_TOL = 1e-12
# Ratings up to this magnitude keep every sum of squares, and so the mean
# squares and the ICC estimates, finite.
MAX_RATING = 1e100


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
        over = np.flatnonzero((np.abs(values) > MAX_RATING).any(axis=1))
        if over.size:
            raise ValueError(f"ratings must be at most {MAX_RATING:g} in magnitude; "
                             f"row {over[0] + 1} is {values[over[0]].tolist()}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class IccResult:
    """An ICC and its confidence interval. A value the ratings leave
    undefined is NaN here and null in as_dict(), as is `negative` then."""

    icc: float
    ci_low: float
    ci_high: float
    n_subjects: int
    n_raters: int
    degenerate: bool = False  # a zero residual: the interval is the point at icc

    def __post_init__(self):
        for name in ("icc", "ci_low", "ci_high"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value if math.isfinite(value) else math.nan)

    def as_dict(self) -> dict:
        icc, lo, hi = (None if math.isnan(v) else v for v in (self.icc, self.ci_low, self.ci_high))
        return {
            "icc": icc,
            "ci95": [lo, hi],
            "n_subjects": self.n_subjects,
            "n_raters": self.n_raters,
            "degenerate": self.degenerate,
            "negative": None if icc is None else icc < 0,
        }


def _mean_squares(values: np.ndarray) -> tuple[np.float64, np.float64, np.float64]:
    """(MSR, MSC, MSE) for the two-way layout, as numpy scalars: a zero
    denominator then gives inf or NaN, not ZeroDivisionError. MSE sums the
    squared residuals directly, not by subtracting sums of squares, so a
    zero residual stays near 0 however far the ratings are shifted."""
    n, k = values.shape
    row_means, col_means = values.mean(axis=1), values.mean(axis=0)
    msr = np.var(row_means, ddof=1) * k
    msc = np.var(col_means, ddof=1) * n
    resid = values - row_means[:, None] - col_means + values.mean()
    mse = np.sum(resid * resid) / ((n - 1) * (k - 1))
    return msr, msc, mse


def _coerce(m: RatingsMatrix | np.ndarray | Sequence) -> np.ndarray:
    if isinstance(m, RatingsMatrix):
        return m.values
    return RatingsMatrix(np.asarray(m, dtype=float)).values


def _ratio(num: float, den: float) -> float:
    """num / den when den exceeds _DEGENERATE_TOL, else NaN (undefined)."""
    return num / den if den > _DEGENERATE_TOL else math.nan


def _icc(m: RatingsMatrix | np.ndarray | Sequence, confidence: float,
         agreement: bool) -> IccResult:
    values = _coerce(m)
    n, k = values.shape
    if values.min() == values.max():  # identical entries: perfect agreement by definition
        return IccResult(1.0, 1.0, 1.0, n, k, degenerate=True)
    z = (values - values.mean()) / np.ptp(values)  # every ICC is invariant under a*M + b
    ms = np.array(_mean_squares(z)) / np.var(z, ddof=1)  # in units of the total mean square
    msr, msc, mse = np.where(ms > _DEGENERATE_TOL, ms, 0.0)
    num = msr - mse if abs(msr - mse) > _DEGENERATE_TOL else 0.0  # exact 0, not its noise
    icc = _ratio(num, msr + (msc - mse) / n if agreement else msr)
    if mse == 0.0:  # zero residual: the interval shrinks to the estimate
        return IccResult(icc, icc, icc, n, k, degenerate=True)

    from scipy.special import fdtri  # about 0.3 CPU s and 23 MB to load, for intervals only

    q = 1.0 - (1.0 - confidence) / 2
    if not agreement:  # the exact F interval: 1 - F_crit / F at each tail
        lo = _ratio(msr - fdtri(n - 1, (n - 1) * (k - 1), q) * mse, msr)
        hi = _ratio(msr - mse / fdtri((n - 1) * (k - 1), n - 1, q), msr)
        return IccResult(icc, lo, hi, n, k)
    with np.errstate(all="ignore"):
        # The single-score interval with Satterthwaite's degrees of freedom v
        # (0 when MSR is), each bound then stepped up to k raters.
        v = (k - 1) * (n - 1) * (msr * (msc + (n - 1) * mse)) ** 2 / (
            (n - 1) * ((msr - mse) * msc) ** 2 + (mse * ((n - 1) * msr + msc)) ** 2)
        fl, fu = fdtri(n - 1, v, q), fdtri(v, n - 1, q)
        c = k * msc + (k * n - k - n) * mse
        lo1 = n * (msr - fl * mse) / (fl * c + n * msr)  # NaN when fl is infinite
        hi1 = n * (fu * msr - mse) / (c + n * fu * msr)
        lo, hi = (_ratio(k * r, 1 + (k - 1) * r) for r in (lo1, hi1))
    if math.isnan(lo) or math.isnan(hi):  # an interval without both ends is undefined
        lo = hi = math.nan
    return IccResult(icc, lo, hi, n, k)


def icc2k(m: RatingsMatrix | np.ndarray | Sequence, confidence: float = 0.95) -> IccResult:
    """Two-way random effects, absolute agreement, average of k raters."""
    return _icc(m, confidence, agreement=True)


def icc3k(m: RatingsMatrix | np.ndarray | Sequence, confidence: float = 0.95) -> IccResult:
    """Two-way model, consistency, average of k raters."""
    return _icc(m, confidence, agreement=False)


def error_table(pairs: Iterable[tuple[float, float, str | None]]) -> dict:
    """Absolute and percent step-length error, per walk type and pooled.

    Each pair is (estimate_m, reference_m, walk_type); references must be
    positive. Percent error is 100*|est - ref|/ref. Returns {"overall": row,
    "by_type": {type: row}}, a row {"n", "mean_cm", "sd_cm", "mean_pct", "sd_pct"}
    with its means None when n is 0 and its SDs when n is under 2.
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

    def row(errors: list[tuple[float, float]]) -> dict:
        n = len(errors)
        cm = np.array([e[0] for e in errors])
        pct = np.array([e[1] for e in errors])
        return {
            "n": n,
            "mean_cm": float(cm.mean()) if n else None,
            "sd_cm": float(cm.std(ddof=1)) if n > 1 else None,
            "mean_pct": float(pct.mean()) if n else None,
            "sd_pct": float(pct.std(ddof=1)) if n > 1 else None,
        }

    return {
        "overall": row(all_errors),
        "by_type": {name: row(errs) for name, errs in sorted(groups.items())},
    }


def detection_rate(outcomes: Iterable[tuple[str | None, bool]]) -> dict:
    """Walks that yielded a step-length measurement: {"total", "detected", "rate",
    "by_type": {type: {"detected", "total"}}}, the rate None with no walk."""
    by_type: dict[str, dict[str, int]] = {}
    for walk_type, got_measurement in outcomes:
        tally = by_type.setdefault(walk_type or "all", {"detected": 0, "total": 0})
        tally["detected"] += bool(got_measurement)
        tally["total"] += 1
    total = sum(t["total"] for t in by_type.values())
    detected = sum(t["detected"] for t in by_type.values())
    return {
        "total": total,
        "detected": detected,
        "rate": detected / total if total else None,
        "by_type": dict(sorted(by_type.items())),
    }


def valid_track_stats(segments_per_home: Mapping[str, Iterable[bool]]) -> dict:
    """{"per_home": percentage of valid linear segments, "mean", "sd"} over the
    homes with a segment; the mean is None with no such home, the SD with one."""
    per_home = {}
    for home in sorted(segments_per_home):
        flags = [bool(v) for v in segments_per_home[home]]
        if not flags:
            continue
        per_home[home] = 100.0 * sum(flags) / len(flags)
    pcts = list(per_home.values())
    return {
        "per_home": per_home,
        "mean": float(np.mean(pcts)) if pcts else None,
        "sd": float(np.std(pcts, ddof=1)) if len(pcts) > 1 else None,
    }


MAX_HEATMAP_CELLS = 10**6  # grid cells per room, checked before allocating


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


def heatmap_from_xy(xs: Sequence[float], ys: Sequence[float], cell: float) -> OccupancyHeatmap:
    """Visit-count grid over raw (x, y) positions.

    A grid over MAX_HEATMAP_CELLS raises ValueError before it is allocated.
    """
    if cell <= 0:
        raise ValueError(f"cell must be positive, got {cell}")
    if len(xs) == 0:
        return OccupancyHeatmap(0, 0, cell, np.zeros((0, 0), dtype=int))
    with np.errstate(over="ignore"):  # an overflow to inf fails the check below
        fx = np.floor(np.asarray(xs) / cell)
        fy = np.floor(np.asarray(ys) / cell)
    x_lo, x_hi, y_lo, y_hi = map(float, (fx.min(), fx.max(), fy.min(), fy.max()))
    n_cells = (x_hi - x_lo + 1) * (y_hi - y_lo + 1)
    exact = max(map(abs, (x_lo, x_hi, y_lo, y_hi))) < 2.0**53
    if not (exact and n_cells <= MAX_HEATMAP_CELLS):
        raise ValueError(
            f"a {cell} m cell gives a grid of {n_cells:.3g} cells, "
            f"over the bound of {MAX_HEATMAP_CELLS:.0e}"
        )
    x0, y0 = int(x_lo), int(y_lo)
    counts = np.zeros((int(y_hi) - y0 + 1, int(x_hi) - x0 + 1), dtype=int)
    np.add.at(counts, (fy.astype(int) - y0, fx.astype(int) - x0), 1)
    return OccupancyHeatmap(origin_x=x0, origin_y=y0, cell=cell, counts=counts)
