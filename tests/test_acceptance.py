"""Acceptance suite.

Eight criteria, each printed as one pass/fail line. The Monte Carlo battery
(criteria 4, 5, 7) is the entry list of ``scripts/run_prelog_battery.py``,
computed once per session at 10^4 trials per SNR point with a fixed seed,
over the 30 to 70 dB grid in 10 dB steps. A sha256 golden pins the
battery's traces bit for bit. Criterion 8 runs a table scheme to every
corner of every inner bound with up to four antennas per node, and time
division to three points on every such broadcast edge.
"""

import hashlib
import importlib.util
import math
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from mimodof import (
    BcConfig,
    IcConfig,
    SchemeSpec,
    bc_region,
    boundary_slope,
    case_partition_check,
    contains,
    equals,
    fit_slope,
    ic_classify,
    simulate_scheme,
    trace_to_csv,
    verify_point,
)

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_prelog_battery.py"
_spec = importlib.util.spec_from_file_location("run_prelog_battery", _SCRIPT)
prelog_battery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(prelog_battery)

GRID = prelog_battery.GRID
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
    for name, config, spec, _ in prelog_battery.battery_entries():
        start = time.perf_counter()
        trace = simulate_scheme(spec, config, GRID, TRIALS, SEED)
        runs[name] = {
            "spec": spec,
            "trace": trace,
            "estimate": fit_slope(trace),
            "elapsed": time.perf_counter() - start,
        }
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

        p2p = battery["p2p-2x2"]["estimate"]
        assert 1.9 <= p2p.d1_hat <= 2.1

        zf = battery["zf-2123"]["estimate"]
        assert 0.9 <= zf.d1_hat <= 1.1
        assert 0.9 <= zf.d2_hat <= 1.1

        tdm = battery["tdm-423"]["estimate"]
        assert tdm.d1_hat == pytest.approx(1.0, abs=0.1)
        assert tdm.d2_hat == pytest.approx(1.5, abs=0.1)

        ia = battery["ia-1314"]["estimate"]
        assert ia.d1_hat == pytest.approx(0.5, abs=0.15)
        assert ia.d2_hat == pytest.approx(1.5, abs=0.15)


def test_criterion_5_alignment_beats_capped_time_division(battery):
    with criterion(5, "alignment vs power-capped time division"):
        # Cap user 2's transmit power at sqrt(P): its column is read at the
        # halved dB points of one time-division run and relabeled to the
        # nominal grid before fitting against log2(P).
        trace = prelog_battery.capped_tdm_trace(IcConfig(1, 3, 1, 4), GRID, TRIALS, SEED)
        capped_tdm = fit_slope(trace)
        assert capped_tdm.d2_hat == pytest.approx(0.75, abs=0.1)

        ia = battery["ia-1314"]["estimate"]
        assert ia.d2_hat == pytest.approx(1.5, abs=0.15)
        assert ia.d2_hat - capped_tdm.d2_hat >= 0.5


def test_criterion_6_isotropic_input_prelog(battery):
    with criterion(6, "isotropic-input fixed-channel prelog"):
        for n, key in ((1, "isobc-4x1"), (2, "isobc-4x2")):
            run = battery[key]
            # Each entry serves one user; read that user's column.
            user = run["spec"].user
            est = run["estimate"]
            assert (est.d1_hat, est.d2_hat)[user - 1] == pytest.approx(float(n), abs=0.1)
            # Informational: finite-SNR gap to the deterministic benchmark
            # n log2(1 + P). Reported only, not asserted.
            trace = run["trace"]
            for snr, rate in zip(trace.snr_db, (trace.rate1, trace.rate2)[user - 1]):
                benchmark = n * math.log2(1.0 + 10.0 ** (snr / 10.0))
                print(
                    f"[acceptance] criterion 6 info: n={n} snr={snr:g} dB "
                    f"rate={rate:.4f} benchmark={benchmark:.4f} "
                    f"gap={benchmark - rate:.4f}"
                )


def test_criterion_7_outer_bound_consistency(battery):
    with criterion(7, "no estimate beyond its outer bound"):
        # The script grades broadcast entries against the broadcast region
        # and interference entries against the outer bound.
        for key, config, _, pick_region in prelog_battery.battery_entries():
            est = battery[key]["estimate"]
            outer = pick_region(config)
            assert verify_point(est, outer, tol=TOL) != "outside", key
            inner = ic_classify(config).inner if isinstance(config, IcConfig) else outer
            assert verify_point(est, inner, tol=TOL) in ("inside", "boundary"), key


def test_criterion_8_achievability_atlas():
    with criterion(8, "every inner-bound vertex reached, [1,4]^4 IC and [1,4]^3 BC"):
        # A corner (d1, d2) with both users active is receiver zero-forcing
        # with that stream split; an axis corner is the user's own link. On
        # the broadcast edge, time division with share tau reaches the point
        # tau of the way from the user 2 corner to the user 1 corner.
        def reached(config, d1, d2, tau=None):
            if tau is not None:
                spec = SchemeSpec("time-division", tau=tau)
            elif d1 and d2:
                spec = SchemeSpec("receiver-zero-forcing", streams=(int(d1), int(d2)))
            else:
                spec = SchemeSpec("point-to-point", user=1 if d1 else 2)
            est = fit_slope(simulate_scheme(spec, config, (40.0, 60.0, 80.0), 1000, SEED), 3)
            return abs(est.d1_hat - d1) <= 0.01 and abs(est.d2_hat - d2) <= 0.01

        corners = open_cases = 0
        for antennas in product(range(1, 5), repeat=4):
            config = IcConfig(*antennas)
            classified = ic_classify(config)
            # Where the bounds differ the region is the paper's open case;
            # only the inner bound is claimed there.
            open_cases += not equals(classified.outer, classified.inner)
            for d1, d2 in classified.inner.vertices:
                if d1 or d2:
                    assert reached(config, d1, d2), (config, d1, d2)
                    corners += 1
        assert (corners, open_cases) == (604, 12)
        for antennas in product(range(1, 5), repeat=3):
            config = BcConfig(*antennas)
            for d1, d2 in bc_region(config).vertices:
                if d1 or d2:
                    assert reached(config, d1, d2), (config, d1, d2)
            # The edge points, on Gram sides 1 to 4.
            top1, top2 = min(config.M, config.N1), min(config.M, config.N2)
            for tau in (F(1, 4), F(1, 2), F(3, 4)):
                point = (tau * top1, (1 - tau) * top2)
                assert contains(bc_region(config), point), (config, point)
                assert reached(config, *point, tau=float(tau)), (config, tau)


def test_battery_traces_sha256():
    # One hash over the CSV of every battery trace at 2000 trials, so a
    # Monte Carlo value that moves by even one bit shows here. Re-recorded
    # when Gram side 3 and zero-forcing moved to Gram-Schmidt kernels: same
    # draws, values within 2.1e-16 relative of the previous golden.
    h = hashlib.sha256()
    for _, config, spec, _ in prelog_battery.battery_entries():
        h.update(trace_to_csv(simulate_scheme(spec, config, GRID, 2000, SEED)).encode())
    assert h.hexdigest() == (
        "b5326a6f79a716dfc8ec4995848c246779725e52ff6f10bf4244fbf04b2a586e"
    )
