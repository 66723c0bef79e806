"""Slope fitting and verdict tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodof import (
    Halfspace,
    RateTrace,
    SlopeEstimate,
    fit_slope,
    region_from_halfspaces,
    verify_point,
)

LOG2_PER_DB = math.log2(10.0) / 10.0


def synthetic_trace(snr_db, slope1, offset1, slope2=0.0, offset2=0.0, stderr=0.0):
    x = [s * LOG2_PER_DB for s in snr_db]
    return RateTrace(
        snr_db=tuple(snr_db),
        rate1=tuple(slope1 * xi + offset1 for xi in x),
        stderr1=(stderr,) * len(x),
        rate2=tuple(slope2 * xi + offset2 for xi in x),
        stderr2=(stderr,) * len(x),
        trials=100,
        seed=0,
    )


class TestFit:
    def test_noiseless_line_recovered(self):
        trace = synthetic_trace((30, 40, 50, 60, 70), 2.0, 5.0)
        est = fit_slope(trace)
        assert est.d1_hat == pytest.approx(2.0, abs=1e-12)
        assert est.ci[0] == pytest.approx(0.0, abs=1e-9)
        assert est.snr_window == (40.0, 70.0)

    def test_flat_trace_gives_zero(self):
        trace = synthetic_trace((30, 40, 50, 60, 70), 0.0, 3.0)
        est = fit_slope(trace)
        assert est.d1_hat == pytest.approx(0.0, abs=1e-12)

    def test_both_users_fitted(self):
        trace = synthetic_trace((30, 40, 50, 60, 70), 1.0, 0.0, slope2=1.5, offset2=2.0)
        est = fit_slope(trace)
        assert est.d1_hat == pytest.approx(1.0, abs=1e-12)
        assert est.d2_hat == pytest.approx(1.5, abs=1e-12)

    def test_window_selects_top_points(self):
        # Kinked trace: slope 0 until 40 dB, then slope 1. A window of 3
        # sees only the steep part.
        snr = (30.0, 40.0, 50.0, 60.0, 70.0)
        x = [s * LOG2_PER_DB for s in snr]
        rates = (1.0, 1.0, *(1.0 + (xi - x[1]) for xi in x[2:]))
        trace = RateTrace(snr, rates, (0,) * 5, (0,) * 5, (0,) * 5, 10, 0)
        est = fit_slope(trace, window=3)
        assert est.d1_hat == pytest.approx(1.0, abs=1e-12)
        assert est.snr_window == (50.0, 70.0)

    def test_ci_combines_residual_and_point_errors(self):
        # Four points at 40-70 dB sit at c*(-15, -5, 5, 15) about their mean,
        # c = LOG2_PER_DB, so sxx = 500 c^2. The residuals (0.2, -0.2, -0.2,
        # 0.2) are orthogonal to both 1 and x, so the fitted slope is 2.
        # Residual term: ssr = 0.16 over 2 degrees of freedom, 0.08 / sxx.
        # Point term: sum ((x - xbar) / sxx)^2 * 0.1^2 = 0.01 / sxx.
        # So ci = 1.96 * sqrt(0.09 / sxx) = 1.96 * 0.3 / (c * sqrt(500)).
        snr = (40.0, 50.0, 60.0, 70.0)
        rate = tuple(2.0 * s * LOG2_PER_DB + e for s, e in zip(snr, (0.2, -0.2, -0.2, 0.2)))
        est = fit_slope(RateTrace(snr, rate, (0.1,) * 4, (0.0,) * 4, (0.0,) * 4, 100, 0))
        assert est.d1_hat == pytest.approx(2.0, rel=1e-12)
        assert est.ci[0] == pytest.approx(1.96 * 0.3 / (LOG2_PER_DB * math.sqrt(500)), rel=1e-12)
        assert est.ci[0] == pytest.approx(0.0791593, rel=1e-6)

    def test_per_point_noise_inflates_ci(self):
        quiet = synthetic_trace((30, 40, 50, 60, 70), 1.0, 0.0, stderr=0.0)
        noisy = synthetic_trace((30, 40, 50, 60, 70), 1.0, 0.0, stderr=0.05)
        assert fit_slope(noisy).ci[0] > fit_slope(quiet).ci[0]

    def test_short_window_rejected(self):
        trace = synthetic_trace((30, 40, 50), 1.0, 0.0)
        with pytest.raises(ValueError, match="window holds 2"):
            fit_slope(trace, window=2)
        short = synthetic_trace((30, 40), 1.0, 0.0)
        with pytest.raises(ValueError, match="window holds 2"):
            fit_slope(short)

    @pytest.mark.parametrize("window", [4.9, 4.0, "4", True, None, float("inf"), float("nan")])
    def test_window_that_is_not_an_int_rejected(self, window):
        # A float window used to be truncated (4.9 fitted 4 points), a string
        # parsed, and inf raised OverflowError.
        trace = synthetic_trace((30, 40, 50, 60, 70), 1.0, 0.0)
        with pytest.raises(ValueError, match=r"window must be an integer >= 1, got "):
            fit_slope(trace, window)

    @given(
        st.lists(st.integers(-50, 50), min_size=4, max_size=4),
        st.integers(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_invariance_exact(self, rates, shift):
        # Integer rates and shifts are exact in binary floating point, so
        # the fitted slope must not move at all.
        snr = (40.0, 50.0, 60.0, 70.0)
        base = [float(r) for r in rates]
        shifted = [float(r + shift) for r in rates]
        lo = min(min(base), min(shifted))
        base = [r - lo for r in base]
        shifted_trace = [r - lo for r in shifted]
        t1 = RateTrace(snr, base, (0,) * 4, (0,) * 4, (0,) * 4, 10, 0)
        t2 = RateTrace(snr, shifted_trace, (0,) * 4, (0,) * 4, (0,) * 4, 10, 0)
        assert fit_slope(t1).d1_hat == fit_slope(t2).d1_hat


class TestVerdicts:
    REGION = region_from_halfspaces([Halfspace(1, 1, 2)])

    def estimate(self, d1, d2):
        return SlopeEstimate(d1_hat=d1, d2_hat=d2, ci=(0.0, 0.0), snr_window=(40.0, 70.0))

    def test_three_verdicts(self):
        assert verify_point(self.estimate(0.5, 0.5), self.REGION) == "inside"
        assert verify_point(self.estimate(1.02, 0.99), self.REGION) == "boundary"
        assert verify_point(self.estimate(1.5, 1.0), self.REGION) == "outside"

    def test_origin_is_inside(self):
        assert verify_point(self.estimate(0.0, 0.0), self.REGION) == "inside"

    def test_tolerance_widens_boundary(self):
        est = self.estimate(1.2, 1.0)
        assert verify_point(est, self.REGION, tol=0.1) == "outside"
        assert verify_point(est, self.REGION, tol=0.3) == "boundary"
        # Every number here is exact in binary, so the slack of d1 + d2 <= 2
        # is exactly +0.5 and -0.5: "within tol" includes both edges.
        assert verify_point(self.estimate(1.25, 1.25), self.REGION, tol=0.5) == "boundary"
        assert verify_point(self.estimate(0.75, 0.75), self.REGION, tol=0.5) == "boundary"

    def test_bad_tol_rejected(self):
        for tol in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                verify_point(self.estimate(0, 0), self.REGION, tol=tol)
        # Only an int or a float is a tolerance, as for SchemeSpec's reals.
        for tol in ("0.1", True, None, [0.1], 0.1j):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                verify_point(self.estimate(0, 0), self.REGION, tol=tol)
        assert verify_point(self.estimate(0.0, 0.0), self.REGION, tol=1) == "inside"
