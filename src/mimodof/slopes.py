"""Prelog estimation from rate traces, and the region test of a fitted pair.

The degrees of freedom of a scheme is the slope of its rate against
log2(P). We fit that slope by ordinary least squares over the top few SNR
points of a trace, where the curvature of finite-SNR rate curves has died
off, and attach a 95 percent confidence half-width that combines the
regression residual with the Monte Carlo standard errors of the points.
``verify_point`` grades a fitted pair inside, on the boundary of or outside
a region; the verdict document and its exit code belong to the command line
(``mimodof verify``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .catalog import _integer
from .regions import DofRegion
from .simulate import RateTrace

__all__ = [
    "LOG2_PER_DB",
    "DEFAULT_WINDOW",
    "DEFAULT_TOL",
    "SlopeEstimate",
    "fit_slope",
    "check_window",
    "check_tol",
    "verify_point",
]

# log2(P) advances by this much per dB of SNR.
LOG2_PER_DB = math.log2(10.0) / 10.0

DEFAULT_WINDOW = 4
DEFAULT_TOL = 0.1

_Z95 = 1.96


@dataclass(frozen=True)
class SlopeEstimate:
    """Fitted DoF pair with per-user 95 percent confidence half-widths."""

    d1_hat: float
    d2_hat: float
    ci: tuple[float, float]
    snr_window: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "d1_hat": self.d1_hat,
            "d2_hat": self.d2_hat,
            "ci": list(self.ci),
            "snr_window": list(self.snr_window),
        }


def _ols_slope(x: Sequence[float], y: Sequence[float], se: Sequence[float]) -> tuple[float, float]:
    count = len(x)
    xbar = math.fsum(x) / count
    sxx = math.fsum((xi - xbar) ** 2 for xi in x)
    # Anchoring on y[0] instead of the mean keeps the fitted slope exactly
    # invariant under a constant shift of the rates.
    slope = math.fsum((xi - xbar) * (yi - y[0]) for xi, yi in zip(x, y)) / sxx
    ybar = math.fsum(y) / count
    residual_df = count - 2
    ssr = math.fsum((yi - ybar - slope * (xi - xbar)) ** 2 for xi, yi in zip(x, y))
    sigma2 = ssr / residual_df if residual_df > 0 else 0.0
    var_slope = sigma2 / sxx + math.fsum(
        ((xi - xbar) / sxx) ** 2 * si**2 for xi, si in zip(x, se)
    )
    return slope, _Z95 * math.sqrt(var_slope)


def fit_slope(trace: RateTrace, window: int = DEFAULT_WINDOW) -> SlopeEstimate:
    """Fit both users' prelogs over the top ``window`` SNR points.

    Raises ValueError when fewer than three points are available in the
    window.
    """
    count = check_window(window, len(trace.snr_db))
    snr = trace.snr_db[-count:]
    x = [s * LOG2_PER_DB for s in snr]
    d1, ci1 = _ols_slope(x, trace.rate1[-count:], trace.stderr1[-count:])
    d2, ci2 = _ols_slope(x, trace.rate2[-count:], trace.stderr2[-count:])
    return SlopeEstimate(
        d1_hat=d1,
        d2_hat=d2,
        ci=(ci1, ci2),
        snr_window=(snr[0], snr[-1]),
    )


def check_window(window: int, points: int) -> int:
    """How many of ``points`` grid points a fit over ``window`` uses; raises
    ValueError when that is fewer than three or ``window`` is not an int >= 1."""
    count = min(_integer("window", window, 1), points)
    if count < 3:
        raise ValueError(f"need at least 3 points to fit a slope, window holds {count}")
    return count


def check_tol(tol: float) -> float:
    """``tol`` as a float; raises ValueError unless it is a positive, finite
    int or float (not a bool)."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return float(tol)


def verify_point(estimate: SlopeEstimate, region: DofRegion, tol: float = DEFAULT_TOL) -> str:
    """Classify the fitted DoF pair against a region at tolerance ``tol``.

    Returns "outside" when some facet is exceeded by more than tol,
    "boundary" when the point sits within tol of some facet without
    exceeding any by more than tol, and "inside" otherwise. The quadrant
    facets are not checked: estimates near the axes are interior points of
    the DoF problem, not boundary cases.
    """
    tol = check_tol(tol)
    d1, d2 = estimate.d1_hat, estimate.d2_hat
    slacks = [
        float(h.a1) * d1 + float(h.a2) * d2 - float(h.b) for h in region.halfspaces
    ]
    if any(s > tol for s in slacks):
        return "outside"
    if any(abs(s) <= tol for s in slacks):
        return "boundary"
    return "inside"
