import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from wakenode import (
    CalibrationCurve,
    CalibrationDomainError,
    CalPoint,
    FitError,
    adc_to_db,
    fit_curve,
    r_squared,
)
from wakenode.calibrate import _B_GRID, _project
from wakenode.cli import main
from wakenode.records import ADC_MAX

DEFAULTS = CalibrationCurve()

# frozen from a 40-digit evaluation of the default model
DB_AT_1023 = 94.54464413579384
DB_AT_500 = 80.013466086548745

FIXTURE_GRID = np.linspace(360.0, 1023.0, 20)
NOISY_FIXTURE_SEED = 6

# fit_curve's squared-residual sum may exceed the oracle's by this much
SSE_RTOL = 1e-9


def model_points(grid=FIXTURE_GRID, curve=DEFAULTS) -> list[CalPoint]:
    return [CalPoint(float(x), adc_to_db(float(x), curve)) for x in grid]


def noisy_fixture() -> list[CalPoint]:
    """Model points with +/-1 dB uniform noise; the noise scale keeps the
    expected goodness-of-fit near the reference 0.995."""
    rng = np.random.default_rng(NOISY_FIXTURE_SEED)
    points = []
    for x in FIXTURE_GRID:
        db = adc_to_db(float(x), DEFAULTS) + float(rng.uniform(-1.0, 1.0))
        points.append(CalPoint(float(x), db))
    return points


def synthetic_points(b: float, n: int, noise_db: float, seed: int) -> list[CalPoint]:
    """n noisy points on a random curve with exponent b spanning 10-60 dB."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 200.0)
    x = rng.uniform(c + 5.0, ADC_MAX, n)
    t = (x - c) ** b
    span = rng.uniform(10.0, 60.0)
    db = 30.0 + span * (t - t.min()) / np.ptp(t) + rng.uniform(-noise_db, noise_db, n)
    return [CalPoint(float(adc), float(spl)) for adc, spl in zip(x, db)]


def sse(points: list[CalPoint], curve: CalibrationCurve) -> float:
    return sum((adc_to_db(p.adc_value, curve) - p.spl_db) ** 2 for p in points)


def lm_oracle(points: list[CalPoint]) -> tuple[float, CalibrationCurve]:
    """(sse, curve) from the Levenberg-Marquardt refinement fit_curve used
    before variable projection: the best grid b per integer floor c seeds
    a damped three-parameter fit of (a, b, d) for each of the 8 best floors."""
    x = np.array([p.adc_value for p in points])
    y = np.array([p.spl_db for p in points])
    seeds = []
    for c in range(int(x.min())):
        grid_sse, a, d = _project(x, y, float(c), _B_GRID)
        i = int(np.argmin(grid_sse))
        if np.isfinite(grid_sse[i]):
            seeds.append((float(grid_sse[i]), float(c), [a[i], _B_GRID[i], d[i]]))
    seeds.sort(key=lambda seed: seed[0])

    def residuals(params, c):
        a, b, d = params
        # keep the damped iteration bounded when a trial b overflows the power
        with np.errstate(over="ignore", invalid="ignore"):
            r = a * (x - c) ** b + d - y
        return np.nan_to_num(r, nan=1e12, posinf=1e12, neginf=-1e12)

    best = (np.inf, DEFAULTS)
    for _, c, seed in seeds[:8]:
        result = least_squares(residuals, seed, args=(c,), method="lm", max_nfev=2000)
        fit_sse = float(np.sum(result.fun**2))
        if np.all(np.isfinite(result.x)) and fit_sse < best[0]:
            a, b, d = map(float, result.x)
            best = (fit_sse, CalibrationCurve(a=a, b=b, c=c, d=d))
    return best


class TestCurveDefaults:
    def test_default_parameters(self):
        assert DEFAULTS.a == -290.5
        assert DEFAULTS.b == -0.04258
        assert DEFAULTS.c == 350.0
        assert DEFAULTS.d == 314.7


class TestAdcToDb:
    def test_unit_offset_makes_power_term_one(self):
        assert adc_to_db(351.0) == pytest.approx(24.2, abs=1e-12)

    def test_full_scale_reading(self):
        assert adc_to_db(1023.0) == pytest.approx(DB_AT_1023, abs=1e-9)

    def test_midrange_reading(self):
        assert adc_to_db(500.0) == pytest.approx(DB_AT_500, abs=1e-9)

    def test_floor_is_out_of_domain(self):
        with pytest.raises(CalibrationDomainError, match="floor"):
            adc_to_db(350.0)
        with pytest.raises(CalibrationDomainError):
            adc_to_db(100.0)

    @given(
        x1=st.floats(351.0, 1023.0),
        x2=st.floats(351.0, 1023.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_default_regime(self, x1, x2):
        if x1 == x2:
            return
        lo, hi = sorted((x1, x2))
        assert adc_to_db(lo) < adc_to_db(hi)


class TestFitCurve:
    def test_noiseless_points_recovered(self):
        points = model_points()
        curve, r2 = fit_curve(points)
        assert r2 >= 0.9999
        residuals = [abs(adc_to_db(p.adc_value, curve) - p.spl_db) for p in points]
        assert max(residuals) < 0.01

    def test_noisy_fixture_matches_reference_quality(self):
        curve, r2 = fit_curve(noisy_fixture())
        assert r2 >= 0.99
        assert r2 == pytest.approx(0.995, abs=0.004)

    def test_too_few_points_rejected(self):
        points = model_points()[:5]
        with pytest.raises(ValueError, match="at least 6"):
            fit_curve(points)

    def test_degenerate_points_rejected(self):
        flat = [CalPoint(400.0 + i, 70.0) for i in range(8)]
        with pytest.raises(FitError, match="degenerate"):
            fit_curve(flat)

    def test_fit_is_deterministic(self):
        points = noisy_fixture()
        first = fit_curve(points)
        second = fit_curve(points)
        assert first == second


class TestFitAgainstLmOracle:
    def test_noisy_fixture_residuals_match_oracle(self, tmp_path, capsys):
        points = noisy_fixture()
        oracle_sse, oracle = lm_oracle(points)
        csv_path = tmp_path / "points.csv"
        csv_path.write_text(
            "adc_value,spl_db\n" + "".join(f"{p.adc_value!r},{p.spl_db!r}\n" for p in points)
        )
        assert main(["--out-dir", str(tmp_path / "out"), "calibrate", str(csv_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "out" / "residuals.csv").read_text().splitlines()[1:]
        residuals = [float(row.split(",")[3]) for row in rows]
        assert sum(r * r for r in residuals) <= oracle_sse * (1 + SSE_RTOL)
        for p, r in zip(points, residuals):
            assert r == pytest.approx(p.spl_db - adc_to_db(p.adc_value, oracle), abs=1e-6)

    # Past either end of the coarse grid (|b| = 10**0.5) the exponent search
    # has to widen its bracket; without that both examples fit worse than LM.
    @given(
        magnitude=st.floats(0.002, 8.0),
        sign=st.sampled_from([-1.0, 1.0]),
        n=st.integers(6, 40),
        noise_db=st.floats(0.05, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(magnitude=7.0, sign=1.0, n=10, noise_db=1.02, seed=458)
    @example(magnitude=4.0, sign=-1.0, n=20, noise_db=0.15, seed=928)
    @settings(max_examples=20, deadline=None)
    def test_sse_no_worse_than_oracle(self, magnitude, sign, n, noise_db, seed):
        points = synthetic_points(sign * magnitude, n, noise_db, seed)
        curve, _ = fit_curve(points)
        assert sse(points, curve) <= lm_oracle(points)[0] * (1 + SSE_RTOL)


class TestRSquared:
    def test_exact_curve_scores_one(self):
        points = model_points()
        assert r_squared(points, DEFAULTS) == pytest.approx(1.0, abs=1e-12)

    def test_constant_prediction_scores_at_most_zero(self):
        points = model_points()
        mean_db = float(np.mean([p.spl_db for p in points]))
        flat = CalibrationCurve(a=0.0, b=1.0, c=0.0, d=mean_db)
        assert r_squared(points, flat) <= 0.0 + 1e-12

    def test_zero_variance_rejected(self):
        points = [CalPoint(400.0, 70.0), CalPoint(500.0, 70.0)]
        with pytest.raises(ValueError, match="variance"):
            r_squared(points, DEFAULTS)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            r_squared([CalPoint(400.0, 70.0)], DEFAULTS)

    def test_points_below_floor_rejected(self):
        points = [CalPoint(100.0, 10.0)] + model_points()
        with pytest.raises(CalibrationDomainError, match="floor"):
            r_squared(points, DEFAULTS)


class TestCalPoint:
    def test_rejects_out_of_scale_adc(self):
        with pytest.raises(ValueError, match="adc_value"):
            CalPoint(1024.0, 90.0)
        with pytest.raises(ValueError, match="adc_value"):
            CalPoint(-1.0, 90.0)
