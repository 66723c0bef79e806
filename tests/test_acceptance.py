"""Acceptance suite.

Seven criteria, each printed as one pass/fail line. The Monte Carlo battery
(criteria 4, 5, 7) is computed once per session at 10^4 trials per SNR point
with a fixed seed, over the 30 to 70 dB grid in 10 dB steps.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from mimodof import (
    BcConfig,
    IcConfig,
    SchemeSpec,
    bc_region,
    boundary_slope,
    case_partition_check,
    fit_slope,
    ic_classify,
    simulate_scheme,
    tdm_rates,
    verify_point,
)

GRID = (30.0, 40.0, 50.0, 60.0, 70.0)
TRIALS = 10_000
SEED = 7
TOL = 0.1


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def verts(*points):
    return tuple(sorted((F(a), F(b)) for a, b in points))


@pytest.fixture(scope="module")
def battery():
    """All Monte Carlo runs used by criteria 4, 5 and 7."""
    runs = {}

    def record(key, spec, config):
        start = time.perf_counter()
        trace = simulate_scheme(spec, config, GRID, TRIALS, SEED)
        runs[key] = {
            "trace": trace,
            "estimate": fit_slope(trace),
            "elapsed": time.perf_counter() - start,
        }

    record("p2p", SchemeSpec("point-to-point"), BcConfig(2, 2, 2))
    record("zf", SchemeSpec("receiver-zero-forcing", streams=(1, 1)), IcConfig(2, 1, 2, 3))
    record("tdm", SchemeSpec("time-division", tau=0.5), BcConfig(4, 2, 3))
    record("ia", SchemeSpec("ia-power-scaling"), IcConfig(1, 3, 1, 4))
    record("iso1", SchemeSpec("isotropic-bc"), BcConfig(4, 1, 1))
    record("iso2", SchemeSpec("isotropic-bc"), BcConfig(4, 2, 2))
    return runs


def test_criterion_1_exact_region_goldens():
    with criterion(1, "exact region goldens"):
        start = time.perf_counter()

        assert bc_region(BcConfig(4, 2, 3)).vertices == verts((0, 0), (2, 0), (0, 3))
        assert bc_region(BcConfig(1, 2, 3)).vertices == verts((0, 0), (1, 0), (0, 1))
        assert bc_region(BcConfig(2, 2, 2)).vertices == verts((0, 0), (2, 0), (0, 2))

        pentagon = ic_classify(IcConfig(2, 1, 2, 3))
        assert pentagon.label.case_id == "I"
        assert pentagon.no_csit.vertices == verts((0, 0), (2, 0), (1, 1), (0, 1))

        triangle = ic_classify(IcConfig(2, 3, 2, 3))
        assert triangle.label.case_id == "II"
        assert triangle.no_csit.vertices == verts((0, 0), (2, 0), (0, 3))

        open_case = ic_classify(IcConfig(1, 3, 2, 4))
        assert open_case.label.case_id == "III"
        assert open_case.no_csit is None
        assert open_case.outer.vertices == verts((0, 0), (1, 0), (1, F(3, 2)), (0, 3))
        assert (F(1), F(3, 2)) in open_case.outer.vertices
        assert open_case.inner.vertices == verts((0, 0), (1, 0), (1, 1), (0, 3))

        equal_two = ic_classify(IcConfig(3, 3, 2, 2))
        assert (equal_two.label.table, equal_two.label.case_id) == ("N1=N2", "II")
        assert equal_two.no_csit.vertices == verts((0, 0), (2, 0), (0, 2))

        equal_one = ic_classify(IcConfig(2, 3, 2, 2))
        assert (equal_one.label.table, equal_one.label.case_id) == ("N1=N2", "I")
        assert equal_one.label.csit_equal
        assert equal_one.no_csit.vertices == verts((0, 0), (2, 0), (0, 2))

        assert time.perf_counter() - start < 1.0


def test_criterion_2_classifier_sweep():
    with criterion(2, "classifier sweep over [1,6]^4"):
        start = time.perf_counter()
        assert case_partition_check(6) is True
        assert time.perf_counter() - start < 10.0


def test_criterion_3_broadcast_slope_law():
    with criterion(3, "broadcast boundary slope law"):
        start = time.perf_counter()
        for m, n1, n2 in product(range(1, 7), repeat=3):
            region = bc_region(BcConfig(m, n1, n2))
            assert len(region.halfspaces) == 1
            assert boundary_slope(region) == F(-min(m, n2), min(m, n1))
        assert time.perf_counter() - start < 1.0


def test_criterion_4_prelog_battery(battery):
    with criterion(4, "Monte Carlo prelog battery"):
        for run in battery.values():
            assert run["elapsed"] < 120.0

        p2p = battery["p2p"]["estimate"]
        assert 1.9 <= p2p.d1_hat <= 2.1

        zf = battery["zf"]["estimate"]
        assert 0.9 <= zf.d1_hat <= 1.1
        assert 0.9 <= zf.d2_hat <= 1.1

        tdm = battery["tdm"]["estimate"]
        assert tdm.d1_hat == pytest.approx(1.0, abs=0.1)
        assert tdm.d2_hat == pytest.approx(1.5, abs=0.1)

        ia = battery["ia"]["estimate"]
        assert ia.d1_hat == pytest.approx(0.5, abs=0.15)
        assert ia.d2_hat == pytest.approx(1.5, abs=0.15)


def test_criterion_5_alignment_beats_capped_time_division(battery):
    with criterion(5, "alignment vs power-capped time division"):
        # Cap user 2's transmit power at sqrt(P): running its solo link on a
        # halved dB grid is the same computation, relabeled to the nominal
        # grid before fitting against log2(P).
        config = IcConfig(1, 3, 1, 4)
        capped_grid = tuple(s / 2 for s in GRID)
        solo1 = simulate_scheme(SchemeSpec("point-to-point", user=1), config, GRID, TRIALS, SEED)
        solo2 = replace(
            simulate_scheme(SchemeSpec("point-to-point", user=2), config, capped_grid, TRIALS, SEED),
            snr_db=GRID,
        )
        capped_tdm = fit_slope(tdm_rates(solo1, solo2, 0.5))
        assert capped_tdm.d2_hat == pytest.approx(0.75, abs=0.1)

        ia = battery["ia"]["estimate"]
        assert ia.d2_hat == pytest.approx(1.5, abs=0.15)
        assert ia.d2_hat - capped_tdm.d2_hat >= 0.5


def test_criterion_6_isotropic_input_prelog(battery):
    with criterion(6, "isotropic-input fixed-channel prelog"):
        for n, key in ((1, "iso1"), (2, "iso2")):
            run = battery[key]
            est = run["estimate"]
            assert est.d1_hat == pytest.approx(float(n), abs=0.1)
            # Informational: finite-SNR gap to the deterministic benchmark
            # n log2(1 + P). Reported only, not asserted.
            trace = run["trace"]
            for snr, rate in zip(trace.snr_db, trace.rate1):
                benchmark = n * math.log2(1.0 + 10.0 ** (snr / 10.0))
                print(
                    f"[acceptance] criterion 6 info: n={n} snr={snr:g} dB "
                    f"rate={rate:.4f} benchmark={benchmark:.4f} "
                    f"gap={benchmark - rate:.4f}"
                )


def test_criterion_7_outer_bound_consistency(battery):
    with criterion(7, "no estimate beyond its outer bound"):
        zf_regions = ic_classify(IcConfig(2, 1, 2, 3))
        ia_regions = ic_classify(IcConfig(1, 3, 1, 4))
        checks = [
            ("p2p", bc_region(BcConfig(2, 2, 2))),
            ("zf", zf_regions.outer),
            ("tdm", bc_region(BcConfig(4, 2, 3))),
            ("ia", ia_regions.outer),
            ("iso1", bc_region(BcConfig(4, 1, 1))),
            ("iso2", bc_region(BcConfig(4, 2, 2))),
        ]
        inners = {
            "zf": zf_regions.inner,
            "ia": ia_regions.inner,
        }
        for key, outer in checks:
            est = battery[key]["estimate"]
            assert verify_point(est, outer, tol=TOL) != "outside", key
            inner = inners.get(key, outer)
            assert verify_point(est, inner, tol=TOL) in ("inside", "boundary"), key
