"""ADC-count to sound-pressure-level calibration.

The model is dB = a*(x - c)^b + d, valid for ADC readings above the
floor c. Fitting minimizes squared dB residuals by variable projection
(Golub & Pereyra, 1973): for fixed (c, b) the model is linear in (a, d),
so that pair is solved in closed form and only c and b are searched. The
floor c is grid-searched in integer steps. Per c, a coarse log-spaced
grid picks b, and for the 8 best floors a golden-section search refines
b between the coarse value's grid neighbours, first stepping past the end
of the grid while the residual keeps falling there; a floor that stepped
also searches the end's own interval, keeping the better result.

Both passes run as array passes. The coarse pass evaluates the grid for a
block of :data:`_C_BLOCK` floors per :func:`_project` call, and the 8
refinements run in lock-step, one call per golden-section step for all
floors, each floor's bracket frozen once it is narrow enough. Every sum is
computed by the same elementwise operations and length-n reductions as one
floor and one exponent at a time, so the fit is that search's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import CalibrationDomainError, CalPoint, FitError

__all__ = [
    "CalibrationCurve",
    "adc_to_db",
    "fit_curve",
    "r_squared",
]

# Coarse exponent grid, ascending: 18 log-spaced magnitudes per sign.
_B_GRID = np.sort(np.concatenate([-np.logspace(-3, 0.5, 18), np.logspace(-3, 0.5, 18)]))
_B_GRID_STEP = _B_GRID[-1] / _B_GRID[-2]  # ratio of neighbouring magnitudes
_B_TOL = 1e-10  # relative width at which the exponent search stops
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Floors per coarse _project call. All floors in one call would map fresh
# pages for every (floors, 36, points) temporary; 4 keep each under glibc's
# 128 KiB mmap threshold (46 KB at 40 points), and the peak RSS within
# 0.2 MiB of one floor per call.
_C_BLOCK = 4


@dataclass(frozen=True)
class CalibrationCurve:
    """Parameters of the ADC-to-decibel model dB = a*(x - c)^b + d."""

    a: float = -290.5
    b: float = -0.04258
    c: float = 350.0
    d: float = 314.7


def adc_to_db(x: float, curve: CalibrationCurve = CalibrationCurve()) -> float:
    """Convert an ADC reading to dB via the calibration model."""
    if x <= curve.c:
        raise CalibrationDomainError(
            f"ADC value {x} is at or below the calibration floor {curve.c}; "
            "the reading is unmeasurably quiet"
        )
    return curve.a * (x - curve.c) ** curve.b + curve.d


def _project(
    x: np.ndarray, y: np.ndarray, c: np.ndarray | float, b: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum of squared residuals and exact (a, d) for each exponent in ``b``.

    For fixed (b, c) the model is linear in (a, d), so the pair has a
    closed-form least-squares solution. The sum is +inf where that system
    is singular or the power overflows. An array ``c`` broadcasts against
    the exponents' shape, one floor per leading index.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = (x - c) ** np.asarray(b)[..., None]
        t_mean = t.mean(axis=-1)
        centered = t - t_mean[..., None]
        var = (centered**2).mean(axis=-1)
        y_mean = y.mean()
        a = (centered * (y - y_mean)).mean(axis=-1) / var
        d = y_mean - a * t_mean
        sse = np.sum((a[..., None] * t + d[..., None] - y) ** 2, axis=-1)
    return np.where((var > 0) & np.isfinite(sse), sse, np.inf), a, d


def _coarse(x: np.ndarray, y: np.ndarray, floors: int) -> list[tuple[float, float, int]]:
    """(sse, c, grid index of b) of the best grid exponent for each integer
    floor c below ``floors`` whose best sum is finite, in ascending c."""
    coarse = []
    for start in range(0, floors, _C_BLOCK):
        c = np.arange(start, min(start + _C_BLOCK, floors), dtype=np.float64)
        sse = _project(x, y, c[:, None, None], _B_GRID)[0]
        best = zip(sse.min(axis=1).tolist(), c.tolist(), sse.argmin(axis=1).tolist())
        coarse += [item for item in best if item[0] < np.inf]
    return coarse


def _refine(
    x: np.ndarray, y: np.ndarray, seeds: Sequence[tuple[float, float, int]]
) -> list[tuple[float, float, float]]:
    """(sse, b, c) minimising the projected sum near each seed's coarse
    exponent, for seeds (sse, c, i) of the exponent _B_GRID[i].

    The bracket is the grid neighbours of ``i``. At an end of the grid it
    first grows outward by grid steps while the sum falls, since the
    optimum can lie past the grid; if it grew, the end's own bracket is
    searched too, as one more row for that floor, since the sum can fall
    outward towards a limit while its minimum lies inside. Golden-section
    search then shrinks all brackets in lock-step, one _project call per
    step; a row whose bracket is narrow enough keeps its state from then
    on. Each floor keeps the best of its rows.
    """
    last = _B_GRID.size - 1
    rows = []  # (seed index, best sum found, bracket)
    for k, (sse, c, i) in enumerate(seeds):
        found = (sse, float(_B_GRID[i]))
        bracket = (_B_GRID[max(i - 1, 0)], _B_GRID[min(i + 1, last)])
        if i in (0, last):
            inner, edge = bracket[::-1] if i == 0 else bracket
            outer = edge * _B_GRID_STEP
            while (sse_outer := float(_project(x, y, c, outer)[0])) < found[0]:
                found = (sse_outer, outer)
                inner, edge, outer = edge, outer, outer * _B_GRID_STEP
            if found[0] < sse:
                rows.append((k, found, bracket))
            bracket = sorted((inner, outer))
        rows.append((k, found, bracket))

    c = np.array([seeds[k][1] for k, _, _ in rows])[:, None]
    lo, hi = (np.array(end) for end in zip(*(bracket for _, _, bracket in rows)))
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = _project(x, y, c, x1)[0], _project(x, y, c, x2)[0]
    while (active := hi - lo > _B_TOL * np.maximum(np.abs(lo), np.abs(hi))).any():
        left = active & (f1 <= f2)  # the minimum lies in [lo, x2]
        right = active & ~left  # or in [x1, hi]
        hi, lo = np.where(left, x2, hi), np.where(right, x1, lo)
        probe = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        f = _project(x, y, c, probe)[0]
        x1, f1, x2, f2 = (
            np.where(left, probe, np.where(right, x2, x1)),
            np.where(left, f, np.where(right, f2, f1)),
            np.where(right, probe, np.where(left, x1, x2)),
            np.where(right, f, np.where(left, f1, f2)),
        )
    best: dict[int, tuple[float, float]] = {}
    ends = zip(rows, f1.tolist(), x1.tolist(), f2.tolist(), x2.tolist())
    for (k, found, _), s1, b1, s2, b2 in ends:
        best[k] = min(best.get(k, found), (s1, b1), (s2, b2))
    return [(*best[k], floor) for k, (_, floor, _) in enumerate(seeds)]


def fit_curve(points: Sequence[CalPoint]) -> tuple[CalibrationCurve, float]:
    """Least-squares fit of the calibration model to measured points.

    Returns the fitted curve and its R^2 over dB residuals. Needs at
    least six points spanning some dB variance; raises FitError when the
    data are degenerate.
    """
    if len(points) < 6:
        raise ValueError(f"need at least 6 calibration points, got {len(points)}")
    x = np.array([p.adc_value for p in points], dtype=np.float64)
    y = np.array([p.spl_db for p in points], dtype=np.float64)
    with np.errstate(over="ignore"):  # squares that overflow sum to inf, not 0
        if np.sum((y - y.mean()) ** 2) == 0.0 or np.ptp(x) == 0.0:
            raise FitError("calibration points are degenerate (no variation)")

    floors = int(np.min(x))
    if floors < 1:
        raise FitError("no admissible floor candidate below the smallest ADC value")
    coarse = _coarse(x, y, floors)
    if not coarse:
        raise FitError("no floor candidate produced a solvable linear system")

    coarse.sort(key=lambda item: item[0])
    _, b, c = min(_refine(x, y, coarse[:8]), key=lambda fit: fit[0])
    _, a, d = _project(x, y, c, b)
    curve = CalibrationCurve(a=float(a), b=float(b), c=c, d=float(d))
    return curve, r_squared(points, curve)


def r_squared(points: Sequence[CalPoint], curve: CalibrationCurve) -> float:
    """Coefficient of determination of the curve over the points' dB values."""
    if len(points) < 2:
        raise ValueError(f"need at least 2 points, got {len(points)}")
    x = np.array([p.adc_value for p in points], dtype=np.float64)
    y = np.array([p.spl_db for p in points], dtype=np.float64)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("spl_db values have zero variance")
    if np.any(x <= curve.c):
        raise CalibrationDomainError(
            f"points at or below the calibration floor {curve.c} cannot be scored"
        )
    pred = curve.a * (x - curve.c) ** curve.b + curve.d
    ss_res = float(np.sum((y - pred) ** 2))
    return 1.0 - ss_res / ss_tot
