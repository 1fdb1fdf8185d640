"""ADC-count to sound-pressure-level calibration.

The model is dB = a*(x - c)^b + d, valid for ADC readings above the
floor c. Fitting minimizes squared dB residuals by variable projection
(Golub & Pereyra, 1973): for fixed (c, b) the model is linear in (a, d),
so that pair is solved in closed form and only c and b are searched. The
floor c is grid-searched in integer steps. Per c, a coarse log-spaced
grid picks b, and for the 8 best floors a golden-section search refines
b between the coarse value's grid neighbours, first stepping past the end
of the grid while the residual keeps falling there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CalibrationCurve",
    "CalPoint",
    "CalibrationDomainError",
    "FitError",
    "adc_to_db",
    "db_to_adc",
    "fit_curve",
    "r_squared",
]

ADC_MAX = 1023  # 10-bit converter

# Coarse exponent grid, ascending: 18 log-spaced magnitudes per sign.
_B_GRID = np.sort(np.concatenate([-np.logspace(-3, 0.5, 18), np.logspace(-3, 0.5, 18)]))
_B_GRID_STEP = _B_GRID[-1] / _B_GRID[-2]  # ratio of neighbouring magnitudes
_B_TOL = 1e-10  # relative width at which the exponent search stops
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class CalibrationDomainError(ValueError):
    """Input lies outside the curve's domain of validity."""


class FitError(RuntimeError):
    """Fitting failed to produce a usable curve."""


@dataclass(frozen=True)
class CalibrationCurve:
    """Parameters of the ADC-to-decibel model dB = a*(x - c)^b + d."""

    a: float = -290.5
    b: float = -0.04258
    c: float = 350.0
    d: float = 314.7


@dataclass(frozen=True)
class CalPoint:
    """One calibration measurement: ADC reading vs reference meter dB."""

    adc_value: float
    spl_db: float

    def __post_init__(self) -> None:
        if not (0 <= self.adc_value <= ADC_MAX):
            raise ValueError(
                f"adc_value must be within [0, {ADC_MAX}], got {self.adc_value}"
            )


def adc_to_db(x: float, curve: CalibrationCurve = CalibrationCurve()) -> float:
    """Convert an ADC reading to dB via the calibration model."""
    if x <= curve.c:
        raise CalibrationDomainError(
            f"ADC value {x} is at or below the calibration floor {curve.c}; "
            "the reading is unmeasurably quiet"
        )
    return curve.a * (x - curve.c) ** curve.b + curve.d


def db_to_adc(spl: float, curve: CalibrationCurve = CalibrationCurve()) -> float:
    """Invert the calibration model: the ADC reading producing ``spl``.

    Public as the way to set a wake level given in dB as an ADC count."""
    ratio = (spl - curve.d) / curve.a
    if ratio <= 0:
        raise CalibrationDomainError(
            f"{spl} dB is outside the curve's reachable range "
            f"(asymptote at {curve.d} dB)"
        )
    return curve.c + ratio ** (1.0 / curve.b)


def _project(
    x: np.ndarray, y: np.ndarray, c: float, b: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum of squared residuals and exact (a, d) for each exponent in ``b``.

    For fixed (b, c) the model is linear in (a, d), so the pair has a
    closed-form least-squares solution. The sum is +inf where that system
    is singular or the power overflows.
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


def _refine_b(x: np.ndarray, y: np.ndarray, c: float, i: int) -> tuple[float, float]:
    """(sse, b) minimising the projected sum near the coarse exponent _B_GRID[i].

    The bracket is the grid neighbours of ``i``. At an end of the grid it
    first grows outward by grid steps while the sum falls, since the
    optimum can lie past the grid. Golden-section search then shrinks it.
    """

    def sse_at(b: float) -> float:
        return float(_project(x, y, c, b)[0])

    best = (sse_at(_B_GRID[i]), float(_B_GRID[i]))
    lo, hi = _B_GRID[max(i - 1, 0)], _B_GRID[min(i + 1, _B_GRID.size - 1)]
    if i in (0, _B_GRID.size - 1):
        inner, edge = (hi, lo) if i == 0 else (lo, hi)
        outer = edge * _B_GRID_STEP
        while (sse_outer := sse_at(outer)) < best[0]:
            best = (sse_outer, outer)
            inner, edge, outer = edge, outer, outer * _B_GRID_STEP
        lo, hi = sorted((inner, outer))

    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = sse_at(x1), sse_at(x2)
    while hi - lo > _B_TOL * max(abs(lo), abs(hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = sse_at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = sse_at(x2)
    return min(best, (f1, x1), (f2, x2))


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
    if np.ptp(y) == 0.0 or np.ptp(x) == 0.0:
        raise FitError("calibration points are degenerate (no variation)")

    c_grid = np.arange(0, int(np.min(x)), dtype=np.float64)
    if c_grid.size == 0:
        raise FitError("no admissible floor candidate below the smallest ADC value")

    # Coarse pass: per integer c, the best b on the grid.
    coarse: list[tuple[float, float, int]] = []  # (sse, c, grid index of b)
    for c in c_grid:
        sse = _project(x, y, float(c), _B_GRID)[0]
        i = int(np.argmin(sse))
        if np.isfinite(sse[i]):
            coarse.append((float(sse[i]), float(c), i))
    if not coarse:
        raise FitError("no floor candidate produced a solvable linear system")

    coarse.sort(key=lambda item: item[0])
    fits = [(*_refine_b(x, y, c, i), c) for _, c, i in coarse[:8]]
    _, b, c = min(fits, key=lambda fit: fit[0])
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
