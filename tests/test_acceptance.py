"""Acceptance suite.

Eight criteria, each printed as one pass/fail line. The Monte Carlo battery
(criteria 4, 5, 7) is the entry list of ``scripts/run_prelog_battery.py``,
computed once per session at 10^4 trials per SNR point with a fixed seed,
over the 30 to 70 dB grid in 10 dB steps. A sha256 golden pins the
battery's traces bit for bit, and every battery mean is z-tested against
its exact ergodic value. Criterion 8 runs a table scheme to every
corner of every inner bound with up to four antennas per node, and time
division to three points on every such broadcast edge.
"""

import functools
import hashlib
import importlib.util
import math
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from mimodof import (
    BcConfig,
    IcConfig,
    RateTrace,
    SchemeSpec,
    bc_region,
    case_partition_check,
    contains,
    equals,
    fit_slope,
    ic_classify,
    simulate_scheme,
    trace_to_csv,
    verify_point,
)
from mimodof.cli import _region_for_verify
from mimodof.simulate import _SCHEMES, _draw
from mimodof.slopes import DEFAULT_WINDOW, LOG2_PER_DB

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
            "config": config,
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
            # The region's one facet, a1 d1 + a2 d2 <= b, has slope -a1/a2.
            (facet,) = bc_region(BcConfig(m, n1, n2)).halfspaces
            assert F(-facet.a1, facet.a2) == F(-min(m, n2), min(m, n1))
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
        # and interference entries against the outer bound, each by the name
        # `mimodof verify --against` takes.
        for key, config, _, against in prelog_battery.battery_entries():
            est = battery[key]["estimate"]
            outer = _region_for_verify(config, against)
            assert verify_point(est, outer, tol=TOL) != "outside", key
            inner = ic_classify(config).inner if isinstance(config, IcConfig) else outer
            assert verify_point(est, inner, tol=TOL) in ("inside", "boundary"), key


def _wishart_density(lam, small, alpha):
    """Marginal eigenvalue density of HH* for an i.i.d. CN(0, 1) matrix H
    with min side ``small`` and sides differing by ``alpha`` (Telatar, Eur.
    Trans. Telecomm. 10(6), 1999): Σ_k k!/(k+α)! [L_k^α(λ)]² λ^α e^{-λ}
    over k < small. It integrates to ``small``, the number of eigenvalues."""
    total = np.zeros_like(lam)
    prev, cur = np.zeros_like(lam), np.ones_like(lam)  # L_{k-1}^α, L_k^α
    for k in range(small):
        total += math.factorial(k) / math.factorial(k + alpha) * cur**2
        prev, cur = cur, ((2 * k + 1 + alpha - lam) * cur - (k + alpha) * prev) / (k + 1)
    return total * lam**alpha * np.exp(-lam)


@functools.cache
def wishart_rule(rows, cols):
    """Nodes λ and weights w with Σ w f(λ) ≈ ∫ f(λ) times the eigenvalue
    density of an i.i.d. CN(0, 1) rows x cols matrix: 30-node
    Gauss-Legendre on each piece of [0, 120]. Pieces double from 1e-9 up
    to 1 so that log2(1 + xλ) is resolved near 0 for any x up to 1e9, then
    run in unit steps; the density's tail past 120 is below 1e-40."""
    edges = [0.0] + [2.0**k for k in range(-30, 0)] + [float(v) for v in range(1, 121)]
    nodes, weights = np.polynomial.legendre.leggauss(30)
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    lam = (0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)).ravel()
    w = (0.5 * (hi - lo) * weights).ravel()
    return lam, w * _wishart_density(lam, min(rows, cols), abs(rows - cols))


def expect_over_wishart(rows, cols, f):
    """∫ f(λ) times the eigenvalue density of an i.i.d. CN(0, 1) rows x cols
    matrix, by :func:`wishart_rule`."""
    lam, w = wishart_rule(rows, cols)
    return float(np.sum(w * f(lam)))


@functools.cache
def exact_log2det(rows, cols, x):
    """E log2 det(I + x HH*) for an i.i.d. CN(0, 1) rows x cols matrix H."""
    return expect_over_wishart(rows, cols, lambda lam: np.log2(1.0 + x * lam))


@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (1, 4), (2, 4), (3, 4), (2, 1)])
def test_wishart_density_moments(rows, cols):
    # The density counts min(rows, cols) eigenvalues, and their sum is
    # E tr HH* = rows * cols; a 1 x 1 link has E log2(1 + xg) = e^{1/x} E1(1/x)/ln 2,
    # which at x = 1 is 0.596347362323194/ln 2.
    assert expect_over_wishart(rows, cols, np.ones_like) == pytest.approx(min(rows, cols), rel=1e-13)
    assert expect_over_wishart(rows, cols, lambda lam: lam) == pytest.approx(rows * cols, rel=1e-13)
    if rows == cols == 1:
        assert exact_log2det(1, 1, 1.0) == pytest.approx(0.596347362323194 / math.log(2.0), rel=1e-13)


def log_det_law(rows, cols, power_share, time_share=1.0):
    """The exact mean, as a function of P, of a rate that is a time share of
    a Wishart log-det over an i.i.d. rows x cols link at power share * P."""
    return lambda p: time_share * exact_log2det(rows, cols, power_share * p)


@functools.cache
def alignment_rate1(beams, exponent):
    """The law of E log2(1 + P g/(1 + P**exponent X)): receiver 1's own gain
    g ~ Exp(1) against the summed gain X ~ Gamma(beams) of ``beams`` beams
    at P**exponent each; with no beams, X = 0. The rule over g nests inside
    the rule over X, a block of X nodes at a time."""
    @functools.cache
    def law(p):
        if beams == 0:
            return exact_log2det(1, 1, p)
        g, wg = wishart_rule(1, 1)
        x, wx = wishart_rule(1, beams)
        a = p / (1.0 + p**exponent * x)
        inner = [np.log2(1.0 + np.outer(block, g)) @ wg for block in np.array_split(a, 16)]
        return float(np.concatenate(inner) @ wx)
    return law


# Each battery user's exact mean rate as a function of P (None: unserved).
# Solo and isotropic input read the user's own N x M link at P/M; time
# division scales the solo rates by its shares. Zero-forcing's projected own
# beams are an i.i.d. (N - s_int) x s_own Gaussian at P/s_own, by rotational
# invariance. Alignment's user 2 decodes its three beams at P**0.5 each.
EXACT_LAWS = {
    "p2p-2x2": (log_det_law(2, 2, 1 / 2), None),
    "zf-2123": (log_det_law(1, 1, 1.0), log_det_law(2, 1, 1.0)),
    "tdm-423": (log_det_law(2, 4, 1 / 4, 0.5), log_det_law(3, 4, 1 / 4, 0.5)),
    "ia-1314": (alignment_rate1(3, 0.5), lambda p: exact_log2det(4, 3, p**0.5)),
    "isobc-4x1": (log_det_law(1, 4, 1 / 4), None),
    "isobc-4x2": (None, log_det_law(2, 4, 1 / 4)),
}

# Slopes of the exact means over the 40-70 dB fit window, each with the DoF
# it estimates and its entry's criterion 4 tolerance. The gap to the DoF is
# finite-SNR bias, not Monte Carlo error.
EXACT_SLOPES = {
    ("p2p-2x2", 1): (1.999544, 2.0, 0.1),
    ("zf-2123", 1): (0.999870, 1.0, 0.1),
    ("zf-2123", 2): (0.999987, 1.0, 0.1),
    ("tdm-423", 1): (0.999973, 1.0, 0.1),
    ("tdm-423", 2): (1.499920, 1.5, 0.1),
    ("ia-1314", 1): (0.485213, 0.5, 0.15),
    ("ia-1314", 2): (1.496086, 1.5, 0.15),
    ("isobc-4x1", 1): (0.999982, 1.0, 0.1),
    ("isobc-4x2", 2): (1.999946, 2.0, 0.1),
}


@pytest.fixture(scope="module")
def exact_means():
    """Every EXACT_LAWS mean at each GRID point, per user (None: unserved)."""
    return {
        key: tuple(
            None if law is None else tuple(law(10.0 ** (snr / 10.0)) for snr in GRID) for law in laws
        )
        for key, laws in EXACT_LAWS.items()
    }


@pytest.mark.parametrize("key", sorted(EXACT_LAWS))
def test_battery_means_match_exact_rates(battery, exact_means, key):
    trace = battery[key]["trace"]
    columns = ((trace.rate1, trace.stderr1), (trace.rate2, trace.stderr2))
    for means, (rates, stderrs) in zip(exact_means[key], columns):
        if means is None:
            assert rates == (0.0,) * len(GRID)
            continue
        for snr, exact, rate, stderr in zip(trace.snr_db, means, rates, stderrs):
            z = (rate - exact) / stderr
            print(f"[acceptance] exact mean: {key} snr={snr:g} dB z={z:+.2f}")
            assert abs(z) < 4.0, (key, snr, z)


def exact_window_slope(exact_means, key, user):
    """The fitted slope of a user's exact means over the default window."""
    zeros = (0.0,) * len(GRID)
    r1, r2 = (means or zeros for means in exact_means[key])
    est = fit_slope(RateTrace(GRID, r1, zeros, r2, zeros, TRIALS, SEED))
    assert est.snr_window == (40.0, 70.0)
    return (est.d1_hat, est.d2_hat)[user - 1]


def test_exact_window_slopes(exact_means):
    served = {(key, user) for key, laws in EXACT_LAWS.items() for user, law in enumerate(laws, 1) if law}
    assert set(EXACT_SLOPES) == served
    for (key, user), (pinned, dof, tol) in EXACT_SLOPES.items():
        slope = exact_window_slope(exact_means, key, user)
        print(f"[acceptance] exact slope: {key} user {user} 40-70 dB: {slope:.6f}")
        assert slope == pytest.approx(pinned, abs=1e-5), (key, user, slope)
        assert abs(pinned - dof) <= tol, (key, user)


def per_trial_slopes(config, spec):
    """Each user's per-trial OLS slope over the default window, w·r_t, on
    the battery's draws (None: unserved). The weights w depend only on the
    grid, and the rows r_t come from the scheme's evaluators on the same
    draws as ``simulate_scheme``, so their mean is the fitted prelog."""
    window = GRID[-DEFAULT_WINDOW:]
    x = [s * LOG2_PER_DB for s in window]
    xbar = math.fsum(x) / len(x)
    sxx = math.fsum((xi - xbar) ** 2 for xi in x)
    rates = _SCHEMES[spec.kind](config, spec, GRID, lambda link, shapes: _draw(link, shapes, SEED, TRIALS))
    return tuple(
        None if rate is None
        else sum((xi - xbar) / sxx * rate(10.0 ** (s / 10.0)) for xi, s in zip(x, window))
        for rate in rates
    )


@pytest.mark.parametrize("key", sorted(EXACT_LAWS))
def test_monte_carlo_slope_within_paired_error_of_exact_slope(battery, exact_means, key):
    # The paired σ of d̂ is the stderr over trials of w·r_t. It holds only
    # the Monte Carlo error, since the exact window slope carries the same
    # finite-SNR bias; it is 100-1000x tighter than criterion 4.
    run = battery[key]
    for user, slopes in enumerate(per_trial_slopes(run["config"], run["spec"]), 1):
        if slopes is None:
            continue
        d_hat = (run["estimate"].d1_hat, run["estimate"].d2_hat)[user - 1]
        assert float(np.mean(slopes)) == pytest.approx(d_hat, abs=1e-12), (key, user)
        sigma = float(np.std(slopes, ddof=1)) / math.sqrt(TRIALS)
        z = (d_hat - exact_window_slope(exact_means, key, user)) / sigma
        print(f"[acceptance] paired slope: {key} user {user} sigma={sigma:.2e} z={z:+.2f}")
        assert abs(z) <= 4.0, (key, user, z)


def test_stderr_coverage():
    # rate ± 1.96·stderr must cover the exact mean in about 95% of seeded
    # runs: 400 runs of point-to-point 2x2 at 30 dB and 200 trials each. The
    # window is 0.95 ± 3 binomial sigma. A stderr off by √2 either way
    # covers 0.82 or 0.99 of these runs.
    snr, trials, runs = 30.0, 200, 400
    p = 10.0 ** (snr / 10.0)
    exact = exact_log2det(2, 2, p / 2)
    spec = SchemeSpec("point-to-point", user=1)
    covered = sum(
        abs(trace.rate1[0] - exact) <= 1.96 * trace.stderr1[0]
        for trace in (simulate_scheme(spec, BcConfig(2, 2, 2), (snr,), trials, seed) for seed in range(runs))
    )
    share, sigma = covered / runs, math.sqrt(0.95 * 0.05 / runs)
    print(f"[acceptance] stderr coverage: {share:.4f} of {runs} runs")
    assert abs(share - 0.95) <= 3 * sigma, share


# Every scheme on small boxes: each config of IC [1,4]^4 and BC [1,4]^3.
# Grids reach below 0 dB, where a kernel that is right only at high SNR
# shows; alignment needs P > 1 at every point.
BOX_GRID = (-10.0, 0.0, 15.0)
BOX_ALIGNMENT_GRID = (1.0, 10.0, 25.0)
BOX_TAUS = (0.25, 0.3, 0.75)
BOX_EXPONENTS = (0.5, 1.0)
BOX_TRIALS = 400


def box_runs():
    """(spec, config, grid, (law1, law2)) for every scheme that fits each
    config of the box, each user's law written from the scheme's definition
    (None: unserved). Point-to-point, time division and isotropic input read
    the user's own N x M link at P/M, times the user's time share.
    Zero-forcing's projected own beams are an (N - s_int) x s_own link at
    P/s_own, for every stream split that fits. Alignment's user 2 decodes
    its beams at P**exponent each."""
    def solo(config, user, time=1.0):
        if isinstance(config, BcConfig):
            rows, cols = (config.N1 if user == 1 else config.N2), config.M
        else:
            rows, cols = (config.N1, config.M1) if user == 1 else (config.N2, config.M2)
        return log_det_law(rows, cols, 1.0 / cols, time)

    runs = []
    configs = [BcConfig(*a) for a in product(range(1, 5), repeat=3)]
    configs += [IcConfig(*a) for a in product(range(1, 5), repeat=4)]
    for config in configs:
        for user in (1, 2):
            served = (solo(config, 1), None) if user == 1 else (None, solo(config, 2))
            kinds = ["point-to-point"]
            if isinstance(config, BcConfig) and (config.N1, config.N2)[user - 1] <= config.M:
                kinds.append("isotropic-bc")
            runs += [(SchemeSpec(kind, user=user), config, BOX_GRID, served) for kind in kinds]
        for tau in BOX_TAUS:
            laws = (solo(config, 1, tau), solo(config, 2, 1.0 - tau))
            runs.append((SchemeSpec("time-division", tau=tau), config, BOX_GRID, laws))
        if isinstance(config, BcConfig):
            continue
        n1, n2 = config.N1, config.N2
        for s1, s2 in product(range(config.M1 + 1), range(config.M2 + 1)):
            if (s1 or s2) and (not s1 or s1 + s2 <= n1) and (not s2 or s1 + s2 <= n2):
                laws = (
                    log_det_law(n1 - s2, s1, 1.0 / s1) if s1 else None,
                    log_det_law(n2 - s1, s2, 1.0 / s2) if s2 else None,
                )
                runs.append((SchemeSpec("receiver-zero-forcing", streams=(s1, s2)), config, BOX_GRID, laws))
        if config.M1 == n1 == 1 and config.M2 <= n2 - 1:
            for beams, exponent in product(range(config.M2 + 1), BOX_EXPONENTS):
                spec = SchemeSpec("ia-power-scaling", beams=beams, power_exponent=exponent)
                user2 = (lambda p, n=n2, b=beams, e=exponent: exact_log2det(n, b, p**e)) if beams else None
                runs.append((spec, config, BOX_ALIGNMENT_GRID, (alignment_rate1(beams, exponent), user2)))
    return runs


def test_every_scheme_matches_its_exact_means_on_small_boxes():
    # Every served user's mean at every grid point is z-tested against its
    # exact mean. The |z| bound holds the family-wise false alarm at 1e-3 by
    # Bonferroni over all comparisons (|z| near 5.2 for about 4000).
    runs = box_runs()
    comparisons = sum(len(grid) * sum(law is not None for law in laws) for _, _, grid, laws in runs)
    bound = statistics.NormalDist().inv_cdf(1.0 - 0.5e-3 / comparisons)
    kinds = {spec.kind for spec, *_ in runs}
    assert kinds == set(_SCHEMES)
    largest, failures = 0.0, []
    for spec, config, grid, laws in runs:
        trace = simulate_scheme(spec, config, grid, BOX_TRIALS, SEED)
        for law, rates, stderrs in zip(laws, (trace.rate1, trace.rate2), (trace.stderr1, trace.stderr2)):
            if law is None:
                assert rates == (0.0,) * len(grid), (spec, config)
                continue
            for snr, rate, stderr in zip(grid, rates, stderrs):
                z = (rate - law(10.0 ** (snr / 10.0))) / stderr
                largest = max(largest, abs(z))
                if abs(z) > bound:
                    failures.append((spec, config, snr, z))
    print(f"[acceptance] small boxes: {len(runs)} runs, {comparisons} comparisons, "
          f"largest |z| {largest:.2f}, bound {bound:.2f}")
    assert failures == []


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
    # draws, values within 2.1e-16 relative of the previous golden. Then
    # re-recorded once isotropic input became point-to-point on the served
    # user's own link: the isobc entries moved to new draws, and every other
    # trace is unchanged. Re-recorded when each link moved to its own SFC64
    # substreams, once the exact-mean, slope and coverage tests passed on them.
    # Re-recorded when each link came to be drawn as the Gamma variates of
    # its Wishart matrix, once the small-box exact means, the channel-level
    # reference, the exact and paired slopes, the coverage test and criteria
    # 4-8 passed on the new stream. Re-recorded when each row of a link's
    # Wishart model got its own substream, once the same tests passed on it.
    # The digest was the same with numpy held to its baseline SIMD dispatch,
    # though a trial's rate can move by an ulp there.
    h = hashlib.sha256()
    for _, config, spec, _ in prelog_battery.battery_entries():
        h.update(trace_to_csv(simulate_scheme(spec, config, GRID, 2000, SEED)).encode())
    assert h.hexdigest() == (
        "00b3492f7257a23f613bfc84dc99401dc3cb9b3e177f2ab4e2aeccced27de367"
    )
