"""ADC-count to sound-pressure-level calibration.

The model is dB = a*(x - c)^b + d, valid for ADC readings above the
floor c. Fitting minimizes squared dB residuals: c is grid-searched in
integer steps (joint four-parameter descent on this model is
ill-conditioned) while (a, b, d) are refined per candidate, seeded from
a coarse grid over b with the linear pair (a, d) solved exactly.
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

_B_COARSE_GRID = np.concatenate(
    [-np.logspace(-3, 0.5, 18), np.logspace(-3, 0.5, 18)]
)


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
    """Invert the calibration model: the ADC reading producing ``spl``."""
    ratio = (spl - curve.d) / curve.a
    if ratio <= 0:
        raise CalibrationDomainError(
            f"{spl} dB is outside the curve's reachable range "
            f"(asymptote at {curve.d} dB)"
        )
    return curve.c + ratio ** (1.0 / curve.b)


def _predict(params: np.ndarray, c: float, x: np.ndarray) -> np.ndarray:
    a, b, d = params
    return a * (x - c) ** b + d


def _residuals(params: np.ndarray, c: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # keep the damped iteration bounded when a trial b overflows the power
    with np.errstate(over="ignore", invalid="ignore"):
        r = _predict(params, c, x) - y
    return np.nan_to_num(r, nan=1e12, posinf=1e12, neginf=-1e12)


def _coarse_seed(
    x: np.ndarray, y: np.ndarray, c: float
) -> tuple[float, np.ndarray] | None:
    """Best (a, b, d) over the coarse b grid with (a, d) solved exactly.

    For fixed (b, c) the model is linear in (a, d), so the pair has a
    closed-form least-squares solution; this evaluates the whole b grid
    at once. Returns (sse, params) or None if every row is singular.
    """
    t = (x[None, :] - c) ** _B_COARSE_GRID[:, None]
    t_mean = t.mean(axis=1)
    y_mean = y.mean()
    centered = t - t_mean[:, None]
    var = (centered**2).mean(axis=1)
    cov = (centered * (y - y_mean)).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = cov / var
    d = y_mean - a * t_mean
    pred = a[:, None] * t + d[:, None]
    sse = np.sum((pred - y) ** 2, axis=1)
    sse = np.where((var > 0) & np.isfinite(sse), sse, np.inf)
    i = int(np.argmin(sse))
    if not np.isfinite(sse[i]):
        return None
    return float(sse[i]), np.array([a[i], _B_COARSE_GRID[i], d[i]])


def fit_curve(points: Sequence[CalPoint]) -> tuple[CalibrationCurve, float]:
    """Least-squares fit of the calibration model to measured points.

    Returns the fitted curve and its R^2 over dB residuals. Needs at
    least six points spanning some dB variance; raises FitError when the
    data are degenerate or no candidate converges.
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

    # Coarse pass: per integer c, best b on the coarse grid with (a, d) exact.
    coarse: list[tuple[float, float, np.ndarray]] = []  # (sse, c, params)
    for c in c_grid:
        seeded = _coarse_seed(x, y, float(c))
        if seeded is not None:
            coarse.append((seeded[0], float(c), seeded[1]))
    if not coarse:
        raise FitError("no floor candidate produced a solvable linear system")

    from scipy.optimize import least_squares

    coarse.sort(key=lambda item: item[0])
    best_sse = np.inf
    best_fit: tuple[float, np.ndarray] | None = None
    for sse0, c, seed in coarse[:8]:
        try:
            result = least_squares(
                _residuals,
                seed,
                args=(c, x, y),
                method="lm",
                max_nfev=2000,
            )
        except (ValueError, FloatingPointError):
            continue
        sse = float(np.sum(result.fun**2))
        if np.all(np.isfinite(result.x)) and sse < best_sse:
            best_sse = sse
            best_fit = (c, result.x)
    if best_fit is None:
        raise FitError("damped refinement did not converge for any floor candidate")

    c, (a, b, d) = best_fit[0], best_fit[1]
    curve = CalibrationCurve(a=float(a), b=float(b), c=float(c), d=float(d))
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
