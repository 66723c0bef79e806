"""Monte Carlo layer tests: draws, scheme kernels, the driver, CSV."""

import dataclasses
import hashlib
import importlib
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodof import (
    BcConfig,
    IcConfig,
    RateTrace,
    SchemeSpec,
    SimulationError,
    fit_slope,
    simulate_scheme,
    trace_from_csv,
    trace_to_csv,
)
from mimodof import cli, simulate
from mimodof.simulate import (
    SCHEME_KINDS,
    _SCHEMES,
    _db_to_linear,
    _draw,
    _exact_row_sums,
    _log_det_rate,
    _mean_stderr,
    _wishart,
)

GRID = (10.0, 20.0, 30.0)

# Trials of every golden run.
GOLDEN_TRIALS = 2055

# Every link name; a link's index here keys its random substreams.
LINK_ORDER = ("H1", "H2", "H11", "H12", "H21", "H22")

P2P = SchemeSpec("point-to-point")
ZF = SchemeSpec("receiver-zero-forcing", streams=(1, 1))
IA = SchemeSpec("ia-power-scaling")

# One run of every scheme kind on a configuration it fits.
ONE_OF_EACH = [
    (P2P, BcConfig(3, 2, 2)),
    (SchemeSpec("time-division", tau=0.3), IcConfig(2, 3, 2, 3)),
    (ZF, IcConfig(2, 1, 2, 3)),
    (IA, IcConfig(1, 3, 1, 4)),
    (SchemeSpec("isotropic-bc", user=2), BcConfig(4, 2, 3)),
]

# Gamma shapes per link, as schemes ask for them: point-to-point on the 4 x
# (2, 3) broadcast network's H1 and H2, and alignment on (1, 3, 1, 4), whose
# user 1 reads its own gain on H11 and the beams' cross gain on H12, and
# whose user 2 decodes three beams on H22.
LINK_SHAPES = {"H1": _wishart(2, 4), "H2": _wishart(3, 4), "H11": [1], "H12": [3], "H22": _wishart(4, 3)}


def draw_all(links, seed, trials):
    """``_draw`` of every link in ``links``, a map from link to shapes."""
    return {link: _draw(link, shapes, seed, trials) for link, shapes in links.items()}


def seeded(seed, trials):
    """The draw callback ``simulate_scheme`` hands a scheme."""
    return lambda link, shapes: _draw(link, shapes, seed, trials)


def kernel(spec, config, power, draw):
    """Per-trial rate pair of one scheme's table kernel at one power on the
    Gamma variates ``draw(link, shapes)`` returns; None for an unserved
    user."""
    rates = _SCHEMES[spec.kind](config, spec, GRID, draw)
    return tuple(None if rate is None else rate(power) for rate in rates)


def fixed(**variates):
    """A draw callback that returns the given variates of each link, one
    row per shape, after checking that the scheme asks for that many."""
    def draw(link, shapes):
        rows = np.array(variates[link], dtype=float)
        assert len(rows) == len(shapes), (link, shapes)
        return rows
    return draw


def pivot_reference(d2, e2, x):
    """log2 det(I + x BᵀB) for the lower bidiagonal B with squared diagonal
    d2 and squared off-diagonal e2, from the exact rational determinant of
    the tridiagonal I + x BᵀB: diagonal 1 + x(d_i² + e_i²) and off-diagonal
    products x² e_i² d_{i+1}², by the continuant recurrence. Only
    det - 1 and its logarithm round."""
    d2, e2, x = [Fraction(v) for v in d2], [Fraction(v) for v in e2] + [Fraction(0)], Fraction(x)
    before, det = Fraction(1), Fraction(1)
    for i in range(len(d2)):
        diagonal = 1 + x * (d2[i] + e2[i])
        coupling = x * x * e2[i - 1] * d2[i] if i else 0
        before, det = det, diagonal * det - coupling * before
    return math.log1p(float(det - 1)) / math.log(2.0)


def ks_statistic(a, b):
    """The two-sample Kolmogorov-Smirnov distance between samples a and b."""
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def complex_gaussian(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def channel_log2det(h, x):
    """log2 det(I + x H*H) for a stack (trials, rows, cols) of channels H,
    through LAPACK on the Gram."""
    gram = np.matmul(h.conj().swapaxes(-1, -2), h)
    sign, logdet = np.linalg.slogdet(np.eye(h.shape[-1]) + x * gram)
    assert np.all(sign.real > 0)
    return logdet / math.log(2.0)


_ROOT = Path(__file__).resolve().parents[1]


def load_battery_script():
    spec = importlib.util.spec_from_file_location("run_prelog_battery", _ROOT / "scripts" / "run_prelog_battery.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_battery_entries():
    return load_battery_script().battery_entries()


def solo(config, user, grid, trials, seed):
    spec = SchemeSpec("point-to-point", user=user)
    return simulate_scheme(spec, config, grid, trials, seed)


class TestDraws:
    def test_deterministic_per_seed_and_trial(self):
        a = draw_all(LINK_SHAPES, 7, 5)
        b = draw_all(LINK_SHAPES, 7, 4)
        for link in LINK_SHAPES:
            # Trial 3 is the same draw whatever the trial count around it.
            assert np.array_equal(a[link][:, 3], b[link][:, 3])
            assert not np.array_equal(a[link][:, 3], a[link][:, 4])
        other_seed = draw_all(LINK_SHAPES, 8, 5)
        assert not np.array_equal(a["H11"], other_seed["H11"])

    @pytest.mark.parametrize("trials", [1, 1031])
    def test_prefix_of_a_longer_run(self, trials):
        # A short run's draws are the first trials of a longer run's.
        short = draw_all(LINK_SHAPES, 7, trials)
        long = draw_all(LINK_SHAPES, 7, 3079)
        for link in LINK_SHAPES:
            assert np.array_equal(short[link], long[link][:, :trials])

    def test_rows_follow_reference_stream(self):
        # Row r of link l is one scalar-shape standard_gamma call for the
        # whole run on Generator(SFC64([seed, l, r])), l the link's index in
        # the fixed link order.
        stacked = draw_all(LINK_SHAPES, 7, GOLDEN_TRIALS)
        for link, shapes in LINK_SHAPES.items():
            rows = [
                np.random.Generator(np.random.SFC64([7, LINK_ORDER.index(link), r])).standard_gamma(
                    shape, size=GOLDEN_TRIALS
                )
                for r, shape in enumerate(shapes)
            ]
            assert np.array_equal(stacked[link], rows)

    def test_row_draws_do_not_depend_on_other_rows(self):
        # A row's draws depend only on (seed, link, row, shape): changing the
        # middle shape moves the middle row alone.
        a = _draw("H1", [4, 3, 1], 7, GOLDEN_TRIALS)
        b = _draw("H1", [4, 2, 1], 7, GOLDEN_TRIALS)
        assert np.array_equal(a[[0, 2]], b[[0, 2]])
        assert not np.array_equal(a[1], b[1])

    def test_draws_golden(self):
        # sha256 of every link's raw draws at GOLDEN_TRIALS, seed 7: the
        # random stream itself, before any rate is taken. It is the same with
        # numpy held to its baseline SIMD dispatch.
        stacked = draw_all(LINK_SHAPES, 7, GOLDEN_TRIALS)
        h = hashlib.sha256()
        for link in LINK_SHAPES:
            h.update(stacked[link].tobytes())
        assert h.hexdigest() == "6094406514abd76597fe79300089b99a019f0b1e90d47532cc3fa26746d6cf98"

    @pytest.mark.parametrize("links", [("H1", "H2"), ("H11", "H12", "H22")], ids=["bc", "ic"])
    def test_link_draws_do_not_depend_on_other_links(self, links):
        # A link's draws depend only on (seed, link, row): drawn after the
        # whole network, one link at a time in reverse order, they are the
        # same bits.
        whole = draw_all({link: LINK_SHAPES[link] for link in links}, 7, GOLDEN_TRIALS)
        for link in reversed(links):
            assert np.array_equal(_draw(link, LINK_SHAPES[link], 7, GOLDEN_TRIALS), whole[link])

    def test_draws_are_lazy_and_refuse_an_unknown_link(self, monkeypatch):
        # A scheme draws a link only when it reads it, and then only that
        # link, one substream per row. A link name outside the fixed order is
        # refused before any draw.
        config = BcConfig(4, 2, 3)
        seeds, read = [], []
        sfc64 = np.random.SFC64
        monkeypatch.setattr(np.random, "SFC64", lambda seed: seeds.append(seed) or sfc64(seed))
        spec = SchemeSpec("point-to-point", user=2)
        _SCHEMES[spec.kind](config, spec, GRID, lambda link, shapes: read.append(link) or _draw(link, shapes, 7, 10))
        rows = [[7, 1, r] for r in range(len(_wishart(3, 4)))]
        assert read == ["H2"] and seeds == rows
        with pytest.raises(ValueError):
            _draw("H3", [1], 7, 10)
        assert seeds == rows

    def test_peak_memory_is_one_buffer(self):
        # Every link is read: the draws live in one (variates, trials)
        # buffer per link, and each row is drawn in place. A temporary the
        # size of one row, a fifteenth of the whole here, would show.
        trials = 10_000
        variates = sum(len(shapes) for shapes in LINK_SHAPES.values())
        _draw("H11", [1], 7, 1)  # numpy sets up its generator state once per process
        tracemalloc.start()
        try:
            stacked = draw_all(LINK_SHAPES, 7, trials)
            assert sum(stacked[link].size for link in LINK_SHAPES) == variates * trials
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * variates * trials * np.dtype(float).itemsize

    def test_shapes(self):
        stacked = draw_all(LINK_SHAPES, 0, 1)
        assert stacked["H1"].shape == (3, 1)
        assert stacked["H2"].shape == (5, 1)
        assert _draw("H12", [], 0, 4).shape == (0, 4)

    def test_wishart_shapes(self):
        # The squared diagonal of the bidiagonal model, Gamma(m) down to
        # Gamma(m - n + 1), then the squared off-diagonal, Gamma(n - 1) down
        # to Gamma(1); a link and its transpose have the same shapes.
        assert _wishart(1, 1) == [1]
        assert _wishart(2, 4) == _wishart(4, 2) == [4, 3, 1]
        assert _wishart(3, 3) == [3, 2, 1, 2, 1]
        assert _wishart(4, 5) == [5, 4, 3, 2, 3, 2, 1]
        assert _wishart(3, 0) == []

    def test_negative_seed_rejected(self, monkeypatch):
        # The driver refuses a negative seed, an empty run, and a trial count
        # or seed that is not an int (a bool is not one either) before any
        # draw.
        monkeypatch.setattr(simulate, "_draw", lambda *args: pytest.fail("trials drawn"))
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 1, -1)
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 0"):
            simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 0, 0)
        for trials, seed, name in [(1, True, "seed"), (1, 1.5, "seed"), (True, 0, "trials"), (10.0, 0, "trials")]:
            with pytest.raises(ValueError, match=f"{name} must be an integer >= ., got"):
                simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, trials, seed)

    def test_entry_statistics(self):
        # 1e5 draws of Gamma(1) and Gamma(3): each mean and variance equals
        # the shape, within 3 sigma of its estimator, and the two rows are
        # uncorrelated within 3 sigma.
        n = 100_000
        gammas = _draw("H1", [1, 3], 123, n)
        for row, shape in zip(gammas, (1, 3)):
            assert abs(row.mean() - shape) < 3.0 * math.sqrt(shape / n)
            # Var of the sample variance of Gamma(k) is about (2k² + 6k)/n.
            assert abs(row.var() - shape) < 3.0 * math.sqrt((2 * shape**2 + 6 * shape) / n)
        corr = np.corrcoef(gammas)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)


def fsum_rows(values):
    # The row-by-row reference the exact reduction replaces.
    return [math.fsum(row) for row in values.tolist()]


def exact_row_sums(values):
    # The reduction consumes its input, so it gets a copy and a scratch array.
    rest = np.array(values, dtype=float)
    return _exact_row_sums(rest, np.empty_like(rest))


def same_bits(a, b):
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


# Finite floats whose magnitudes span ~10^600, subnormals and zeros of
# either sign included.
spread_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1126, 944)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]),
)


@st.composite
def float_rows(draw):
    """1-6 rows of 1-40 spread floats, plus one that nearly cancels down to
    its tail: pairs x, -x and x, -nextafter(x, 0), then the first row's rest."""
    width = draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(spread_floats, min_size=width, max_size=width), min_size=1, max_size=6))
    half = rows[0][: (width - 1) // 2]
    opposite = [-math.nextafter(v, 0.0) if i % 2 else -v for i, v in enumerate(half)]
    rows.append(half + opposite + rows[0][2 * len(half):])
    return np.array(rows)


@st.composite
def wide_rows(draw):
    """1-3 seeded rows of up to 5000 floats whose exponents spread over
    2**120 from a base anywhere from the subnormals up: the second half of
    each row cancels a shuffle of the first, half of those entries one ulp
    short, so each sum sits far below its entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 5000))
    low = draw(st.integers(-1100, 880))
    values = rng.standard_normal((draw(st.integers(1, 3)), width))
    values = np.ldexp(values, low + rng.integers(0, 121, size=values.shape))
    half = width // 2
    cancel = -values[:, rng.permutation(half)]
    short = rng.random(cancel.shape) < 0.5
    cancel[short] = np.nextafter(cancel[short], 0.0)
    values[:, width - half:] = cancel
    return values


class TestMeanStderr:
    @staticmethod
    def reference(values):
        # The element-by-element form the vectorised reduction replaces.
        count = len(values)
        mean = math.fsum(values) / count
        if count < 2:
            return mean, 0.0
        var = math.fsum((float(v) - mean) ** 2 for v in values) / (count - 1)
        return mean, math.sqrt(var / count)

    def test_matches_elementwise_reference(self):
        # One row per scale, reduced together.
        rng = np.random.default_rng(2024)
        for size in (1, 2, 3, 1000, 10_000):
            rows = np.stack([scale * rng.standard_exponential(size) for scale in (1e-3, 1.0, 1e6)])
            means, stderrs = _mean_stderr(rows)
            assert list(zip(means, stderrs)) == [self.reference(row) for row in rows]


class TestExactRowSums:
    @given(float_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum(self, values):
        assert same_bits(exact_row_sums(values), fsum_rows(values))

    @pytest.mark.parametrize(
        "row",
        [
            [1.0],
            [-0.0],
            [5e-324, -5e-324],
            [1e300, 1.0, -1e300],
            [1e300, -1e-300],
            [2.0**-1074, 2.0**-1022, -(2.0**-1022)],
            [1.0, 2.0**-53, 2.0**-53],
            [1.0, 2.0**-53, 2.0**-105],
            [1e16, 1.0, -1e16, 2.0**-60, -(2.0**-60), 3.0],
            [2.0**1019, 2.0**1019 / 3, -(2.0**1019)],
        ],
        ids=["single", "negative-zero", "subnormal-pair", "cancel-huge", "extreme-spread",
             "subnormal-normal", "ties", "tie-broken-below", "nested-cancel", "largest-allowed"],
    )
    def test_edge_rows(self, row):
        values = np.array([row])
        assert same_bits(exact_row_sums(values), fsum_rows(values))

    @given(wide_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_fsum_on_wide_rows(self, values):
        assert same_bits(exact_row_sums(values), fsum_rows(values))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "head",
        [[1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-107]],
        ids=["midpoint-to-even-below", "midpoint-to-even-above", "past-the-midpoint"],
    )
    def test_first_pass_cannot_decide_a_midpoint(self, head, sign):
        # 1024 entries, so σ = 2**12: the first pass keeps the head's first
        # entry and leaves the rest, whose float sum is 2**-53. The partial
        # plus that tail is a midpoint, which a slack of 2**-70 either way
        # straddles, so the passes go on: exact midpoints down to a zero
        # rest, and 2**-107 past one, which the tail rounded away, until
        # that last bit is in the partials.
        values = sign * np.array([head + [0.0] * (1024 - len(head))])
        assert simulate._decided([sign * head[0]], sign * 2.0**-53, 2.0**-70) is None
        assert same_bits(exact_row_sums(values), fsum_rows(values))

    def test_subnormal_slack_decides_nothing(self):
        # Near 2**-970 the slack of 1500 entries falls below 2**-1022, so no
        # pass is certified and every row runs down to a zero rest, through
        # the subnormals; one row sums past a midpoint at that scale.
        rng = np.random.default_rng(970)
        values = np.ldexp(rng.standard_normal((3, 1500)), -975 - rng.integers(0, 100, size=(3, 1500)))
        values[2] = 0.0
        values[2, :3] = [2.0**-970, 2.0**-1023, 2.0**-1074]
        assert same_bits(exact_row_sums(values), fsum_rows(values))

    def test_rates_and_squared_deviations(self):
        # Rates and squared deviations spanning 10^-3 to 10^7 SNR, as the
        # driver hands them over.
        rate = _log_det_rate(_draw("H1", _wishart(2, 2), 3, 4000), 0.5)
        values = np.stack([rate(_db_to_linear(snr)) for snr in range(-30, 71, 10)])
        deviations = (values - np.array(fsum_rows(values))[:, None] / values.shape[1]) ** 2
        for rows in (values, deviations, values[:, :2], values[:, :1]):
            assert same_bits(exact_row_sums(rows), fsum_rows(rows))

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 1.7e308], ids=["nan", "inf", "-inf", "sigma-overflow"]
    )
    def test_unsummable_input_raises(self, bad):
        # Extraction would never clear a nan, so it must raise, not loop.
        values = np.ones((3, 5))
        values[1, 2] = bad
        with pytest.raises(SimulationError, match="not finite"):
            exact_row_sums(values)
        with pytest.raises(SimulationError, match="not finite"):
            _mean_stderr(values)


class TestRatePrimitives:
    def test_scalar_rate_exact(self):
        r1, r2 = kernel(P2P, BcConfig(1, 1, 1), 3.0, fixed(H1=[[1.0]]))
        assert r1[0] == 2.0
        assert r2 is None

    def test_orthonormal_rows_closed_form(self):
        # d² = 1 and e² = 0 is an H with H H* = I, so the rate is
        # 2 log2(1 + P/4) exactly.
        for p in (1.0, 10.0, 1000.0):
            r1, _ = kernel(P2P, BcConfig(4, 2, 2), p, fixed(H1=[[1.0], [1.0], [0.0]]))
            assert r1[0] == pytest.approx(2 * math.log2(1 + p / 4), abs=1e-12)

    def test_monotone_in_power(self):
        draw = seeded(5, 1)
        rates = [kernel(P2P, BcConfig(2, 3, 1), p, draw)[0][0] for p in (0.1, 1, 10, 100, 1000)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(r >= 0 for r in rates)

    def test_bad_power_rejected(self):
        # Power is 10**(dB/10); -inf dB would be zero power, inf and nan no
        # power at all. All are refused before any draw.
        for point in (-math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="SNR grid"):
                simulate_scheme(P2P, BcConfig(2, 2, 2), (10.0, point), 10, 0)
            with pytest.raises(ValueError, match="SNR grid"):
                RateTrace((point,), (1,), (0,), (1,), (0,), 10, 0)


class TestSpectralKernels:
    # The pivot kernel over the Gamma variates of each Wishart spectrum.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pivots_match_the_exact_determinant(self, n):
        # Every Gram side the box tests reach, and one more, against the
        # exact rational determinant on the same variates: from 10^-3 to
        # 10^40 the rates agree to a few eps, with nothing cancelled. Each
        # pivot rounds once before its logarithm, so a small rate carries an
        # absolute error of about 2**-52/ln 2 per pivot, and atol covers that.
        gammas = _draw("H1", _wishart(n, n + 1), 9, 20)
        gammas[:, 0] = [1e-6] * n + [1e3] * (n - 1)  # a nearly singular B
        for x in (1e-3, 1.0, 1e3, 1e7, 1e30, 1e40):
            rates = _log_det_rate(gammas, x)(1.0)
            for t, rate in enumerate(rates):
                want = pivot_reference(gammas[:n, t].tolist(), gammas[n:, t].tolist(), x)
                assert abs(rate - want) <= 4e-15 * want + 4e-16 * n, (n, x, t)

    def test_no_variates_is_a_rate_of_zero(self):
        rate = _log_det_rate(np.empty((0, 5)))
        assert np.array_equal(rate(1e30), np.zeros(5))

    def test_time_share_scales_the_rates(self):
        gammas = _draw("H1", _wishart(2, 3), 4, 50)
        whole, part = _log_det_rate(gammas, 0.5)(100.0), _log_det_rate(gammas, 0.5, 0.3)(100.0)
        assert np.array_equal(part, whole * 0.3)

    def test_no_linear_algebra_call(self, monkeypatch, tmp_path):
        # No eigenvalue, factorization or determinant is taken on any
        # battery entry or any call of the benchmark's verify deck.
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append((name, args[0].shape))
                return fn(*args, **kwargs)
            return counted

        monkeypatch.syspath_prepend(str(_ROOT / "bench"))
        valid_calls = importlib.import_module("workloads").VALID_CALLS
        for name in ("eigvalsh", "eigh", "qr", "svd", "cholesky", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for _, config, spec, _ in load_battery_entries():
            simulate_scheme(spec, config, GRID, 100, 7)
        for channel, antennas, scheme, against in valid_calls:
            argv = ["verify", "--channel", channel, "--antennas", antennas, *scheme, "--against", against,
                    "--trials", "100", "--out", str(tmp_path / "verdict.json")]
            assert cli.main(argv) in (0, 2)
        assert calls == []

    @pytest.mark.parametrize("spec, config", ONE_OF_EACH, ids=[s.kind for s, _ in ONE_OF_EACH])
    def test_extreme_snr_slopes(self, spec, config):
        # At 300-400 dB the finite-SNR bias is below 1e-29, so the fitted
        # prelogs equal the scheme's DoF to rounding.
        expected = {
            "point-to-point": (2.0, 0.0),
            "time-division": (0.3 * 2, 0.7 * 3),
            "receiver-zero-forcing": (1.0, 1.0),
            "ia-power-scaling": (0.5, 1.5),
            "isotropic-bc": (0.0, 3.0),
        }[spec.kind]
        trace = simulate_scheme(spec, config, (300.0, 325.0, 350.0, 375.0, 400.0), 500, 7)
        assert all(math.isfinite(v) for v in trace.rate1 + trace.rate2 + trace.stderr1 + trace.stderr2)
        est = fit_slope(trace, window=5)
        assert est.d1_hat == pytest.approx(expected[0], abs=1e-9)
        assert est.d2_hat == pytest.approx(expected[1], abs=1e-9)

    @pytest.mark.parametrize("spec, config", ONE_OF_EACH, ids=[s.kind for s, _ in ONE_OF_EACH])
    def test_largest_admitted_point_keeps_rates_finite(self, spec, config):
        # 2889 dB is about 2**959.9, just under the grid's 2**960 cap, and
        # 2890 dB is just over it. At the last admitted point every pivot,
        # mean and standard error is still finite, and no served user's
        # rate falls from 2880 dB.
        with pytest.raises(ValueError, match="overflows"):
            simulate_scheme(spec, config, (2890.0,), 10, 7)
        trace = simulate_scheme(spec, config, (2880.0, 2889.0), 200, 7)
        assert all(math.isfinite(v) for v in trace.rate1 + trace.rate2 + trace.stderr1 + trace.stderr2)
        for rates in (trace.rate1, trace.rate2):
            assert rates[1] >= rates[0]


class TestChannelReference:
    """The one check that the model is exact in law that does not go through
    the model itself: each scheme's per-trial rates, from its Gamma
    variates, against the same rates on full complex channel draws through
    LAPACK, compared in distribution. Two independent samples of TRIALS
    each must agree in mean (|z| <= 4.5, over two samples' stderr), in
    standard deviation (within 3%), and in the Kolmogorov-Smirnov distance
    (below the 1e-4 critical value)."""

    TRIALS = 20_000

    def compare(self, model, channels, label):
        z = (model.mean() - channels.mean()) / math.hypot(model.std(ddof=1), channels.std(ddof=1))
        z *= math.sqrt(self.TRIALS)
        ratio = model.std(ddof=1) / channels.std(ddof=1)
        distance = ks_statistic(model, channels)
        critical = math.sqrt(-0.5 * math.log(0.5e-4)) * math.sqrt(2.0 / self.TRIALS)
        print(f"[channel reference] {label}: z={z:+.2f} sd ratio={ratio:.4f} ks={distance:.4f}")
        assert abs(z) <= 4.5, (label, z)
        assert abs(ratio - 1.0) <= 0.03, (label, ratio)
        assert distance <= critical, (label, distance)

    # (rows, cols, dB): the points of the pivot kernel's design checks.
    POINTS = [(3, 4, 0.0), (3, 4, 64.0), (3, 3, -5.0), (4, 5, 3.0), (2, 4, 24.0), (2, 2, 30.0), (4, 3, 10.0)]

    @pytest.mark.parametrize("rows, cols, db", POINTS, ids=[f"{r}x{c}@{d:g}dB" for r, c, d in POINTS])
    def test_solo_link_against_channel_draws(self, rows, cols, db):
        power = _db_to_linear(db)
        config = BcConfig(cols, rows, 1)
        model = kernel(P2P, config, power, seeded(11, self.TRIALS))[0]
        h = complex_gaussian(np.random.default_rng(rows * 100 + cols), self.TRIALS, rows, cols)
        self.compare(model, channel_log2det(h, power / cols), f"{rows}x{cols} at {db:g} dB")

    # (config, streams, dB): a projection off one, two and three beams.
    ZF_POINTS = [
        (IcConfig(2, 1, 2, 3), (1, 1), 20.0),
        (IcConfig(3, 3, 4, 4), (2, 2), 0.0),
        (IcConfig(3, 3, 5, 4), (2, 1), 10.0),
        (IcConfig(4, 3, 4, 5), (1, 3), 30.0),
    ]

    @pytest.mark.parametrize("config, streams, db", ZF_POINTS, ids=[f"{s}@{d:g}dB" for _, s, d in ZF_POINTS])
    def test_zero_forcing_against_qr_projection(self, config, streams, db):
        # Receiver i projects its first si own columns off the span of the
        # other user's first s_int columns, by a complete QR of those.
        power = _db_to_linear(db)
        spec = SchemeSpec("receiver-zero-forcing", streams=streams)
        model = kernel(spec, config, power, seeded(12, self.TRIALS))
        rng = np.random.default_rng(sum(streams) * 1000 + config.N1)
        for user, (n, m_own, m_int, s_own, s_int) in enumerate(
            [(config.N1, config.M1, config.M2, *streams), (config.N2, config.M2, config.M1, *streams[::-1])]
        ):
            own, cross = complex_gaussian(rng, self.TRIALS, n, m_own), complex_gaussian(rng, self.TRIALS, n, m_int)
            q, _ = np.linalg.qr(cross[..., :s_int], mode="complete")
            beams = np.matmul(q[..., s_int:].conj().swapaxes(-1, -2), own[..., :s_own])
            self.compare(model[user], channel_log2det(beams, power / s_own), f"zf {streams} user {user + 1}")

    def test_alignment_against_channel_draws(self):
        config, db = IcConfig(1, 3, 1, 4), 20.0
        power = _db_to_linear(db)
        model = kernel(IA, config, power, seeded(13, self.TRIALS))
        rng = np.random.default_rng(14)
        h11, h12 = complex_gaussian(rng, self.TRIALS), complex_gaussian(rng, self.TRIALS, 3)
        h22 = complex_gaussian(rng, self.TRIALS, 4, 3)
        beam_power = power**0.5
        rate1 = np.log2(1.0 + power * np.abs(h11) ** 2 / (1.0 + beam_power * np.sum(np.abs(h12) ** 2, axis=-1)))
        self.compare(model[0], rate1, "alignment user 1")
        self.compare(model[1], channel_log2det(h22, beam_power), "alignment user 2")


class TestZeroForcing:
    CONFIG = IcConfig(2, 1, 2, 3)

    def test_silenced_interferer_matches_plain_rate(self):
        # With nothing to project off, user 1 reads its first column alone:
        # a plain N1 x 1 link, on the same variates.
        spec = SchemeSpec("receiver-zero-forcing", streams=(1, 0))
        r1, r2 = kernel(spec, self.CONFIG, 100.0, seeded(11, 5))
        plain, _ = kernel(P2P, IcConfig(1, 1, 2, 3), 100.0, seeded(11, 5))
        assert np.array_equal(r1, plain)
        assert r2 is None

    @pytest.mark.parametrize(
        "config, streams, reads",
        [
            (IcConfig(2, 1, 2, 3), (1, 1), [("H11", _wishart(1, 1)), ("H22", _wishart(2, 1))]),
            (IcConfig(3, 3, 4, 4), (2, 2), [("H11", _wishart(2, 2)), ("H22", _wishart(2, 2))]),
            (IcConfig(4, 3, 4, 5), (1, 3), [("H11", _wishart(1, 1)), ("H22", _wishart(4, 3))]),
            (IcConfig(1, 2, 1, 2), (0, 2), [("H22", _wishart(2, 2))]),
        ],
        ids=["1-1", "2-2", "1-3", "0-2"],
    )
    def test_each_user_reads_its_projected_wishart(self, config, streams, reads):
        # User i's own beams, projected off the other user's s_int beams,
        # are an (Ni - s_int) x si Gaussian: one Wishart draw on Hii.
        asked = []
        spec = SchemeSpec("receiver-zero-forcing", streams=streams)
        _SCHEMES[spec.kind](config, spec, GRID, lambda link, shapes: asked.append((link, shapes)) or _draw(link, shapes, 7, 3))
        assert asked == reads

    def test_projection_keeps_rate_positive_and_monotone(self):
        rates = [kernel(ZF, self.CONFIG, p, seeded(11, 2)) for p in (1, 10, 100)]
        for r1, r2 in rates:
            assert r1[1] > 0 and r2[1] > 0
        assert all(b[0][1] > a[0][1] and b[1][1] > a[1][1] for a, b in zip(rates, rates[1:]))

    def test_infeasible_splits_rejected(self):
        for streams, rule in (
            ((2, 1), "receivers need"),  # N1 = 2 < 3 streams
            ((1, 2), "exceeds the transmitter"),  # s2 > M2
        ):
            with pytest.raises(SimulationError, match=rule):
                simulate_scheme(
                    SchemeSpec("receiver-zero-forcing", streams=streams), self.CONFIG, GRID, 10, 11
                )
        # A negative count is malformed whatever the configuration, so the
        # spec refuses it as it is built, with a plain ValueError.
        with pytest.raises(ValueError, match="s1 must be an integer >= 0, got -1") as raised:
            SchemeSpec("receiver-zero-forcing", streams=(-1, 1))
        assert type(raised.value) is ValueError

    def test_driver_slopes(self):
        # A user sending 0 streams needs no antennas at its receiver: on
        # (1, 2, 1, 2), receiver 1 has one antenna and decodes nothing.
        for config, streams in ((self.CONFIG, (1, 1)), (IcConfig(1, 2, 1, 2), (0, 2))):
            spec = SchemeSpec("receiver-zero-forcing", streams=streams)
            est = fit_slope(simulate_scheme(spec, config, (30, 40, 50, 60), 2000, 7))
            assert est.d1_hat == pytest.approx(streams[0], abs=0.1)
            assert est.d2_hat == pytest.approx(streams[1], abs=0.1)


class TestAlignmentScheme:
    CONFIG = IcConfig(1, 3, 1, 4)

    def test_shape_validation(self):
        with pytest.raises(SimulationError, match="M1 = N1 = 1"):
            simulate_scheme(IA, IcConfig(2, 3, 2, 4), GRID, 10, 3)
        with pytest.raises(SimulationError, match="M2 <= N2 - 1"):
            simulate_scheme(IA, IcConfig(1, 4, 1, 4), GRID, 10, 3)
        with pytest.raises(SimulationError, match="runs on interference configs"):
            simulate_scheme(IA, BcConfig(1, 1, 4), GRID, 10, 3)

    def test_beams_out_of_range_rejected(self):
        with pytest.raises(SimulationError, match="beams must be"):
            simulate_scheme(SchemeSpec("ia-power-scaling", beams=4), self.CONFIG, GRID, 10, 3)

    def test_power_must_exceed_one(self):
        # P > 1 at every grid point, so 0 dB (P = 1) and below are refused.
        for grid in ((0.0, 10.0, 20.0), (-3.0, 10.0, 20.0)):
            with pytest.raises(ValueError, match="above 0 dB"):
                simulate_scheme(IA, self.CONFIG, grid, 10, 3)

    def test_no_beams_means_clean_link(self):
        spec = SchemeSpec("ia-power-scaling", beams=0)
        r1, r2 = kernel(spec, self.CONFIG, 100.0, seeded(3, 1))
        gain = _draw("H11", [1], 3, 1)[0, 0]
        assert r1[0] == np.log2(1.0 + 100.0 * gain)
        assert r2[0] == 0.0

    def test_reads_gains_and_the_joint_wishart(self):
        # User 1's own gain is Gamma(1) and the beams' summed cross gain
        # Gamma(beams); user 2 decodes an N2 x beams Wishart matrix.
        asked = []
        spec = SchemeSpec("ia-power-scaling", beams=2)
        _SCHEMES[spec.kind](self.CONFIG, spec, GRID, lambda link, shapes: asked.append((link, shapes)) or _draw(link, shapes, 7, 3))
        assert asked == [("H11", [1]), ("H12", [2]), ("H22", _wishart(4, 2))]

    def test_full_exponent_kills_user_one_slope(self):
        spec = SchemeSpec("ia-power-scaling", power_exponent=1.0)
        est = fit_slope(simulate_scheme(spec, self.CONFIG, (30, 40, 50, 60), 2000, 7))
        assert abs(est.d1_hat) < 0.1
        # user 2 now rides full power, slope still M2 * exponent-free
        assert est.d2_hat == pytest.approx(3.0, abs=0.15)

    def test_monotone_in_power(self):
        rates = [kernel(IA, self.CONFIG, p, seeded(3, 1)) for p in (10, 100, 1000)]
        assert all(b[0][0] > a[0][0] and b[1][0] > a[1][0] for a, b in zip(rates, rates[1:]))


def combine_means(solo1, solo2, tau):
    """Time division at the level of reduced traces: each solo trace's means
    and standard errors scaled by its user's share."""
    return RateTrace(
        solo1.snr_db,
        rate1=[tau * r for r in solo1.rate1],
        stderr1=[tau * e for e in solo1.stderr1],
        rate2=[(1.0 - tau) * r for r in solo2.rate2],
        stderr2=[(1.0 - tau) * e for e in solo2.stderr2],
        trials=solo1.trials,
        seed=solo1.seed,
    )


class TestTimeDivision:
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.3, 0.5, 0.75, 1.0])
    def test_driver_matches_combiner(self, tau):
        # The driver scales per-trial rates before the reduction, the combiner
        # scales the reduced solo traces. Scaling by 0, 1 or a power of two
        # commutes with the exactly rounded sum, the division by the trial
        # count and the square root, so those shares agree bit for bit; any
        # other share rounds differently, by at most 1e-15 relative.
        config = IcConfig(2, 2, 2, 2)
        solo1, solo2 = solo(config, 1, GRID, 200, 9), solo(config, 2, GRID, 200, 9)
        direct = simulate_scheme(SchemeSpec("time-division", tau=tau), config, GRID, 200, 9)
        composed = combine_means(solo1, solo2, tau)
        if tau in (0.0, 0.5, 1.0):
            assert direct == composed
        else:
            for name in ("rate1", "stderr1", "rate2", "stderr2"):
                np.testing.assert_allclose(getattr(direct, name), getattr(composed, name), rtol=1e-15, atol=0)
        # At the endpoints time division is the served user's solo trace:
        # the same links, on the same draws.
        if tau == 1.0:
            assert direct == solo1
        if tau == 0.0:
            assert direct == solo2

    @pytest.mark.parametrize("tau, idle", [(1.0, 1), (0.0, 0)])
    def test_zero_share_serves_nobody(self, tau, idle):
        # The user whose share is 0 gets no evaluator, so its link is never
        # factored; the other user's still is.
        config = BcConfig(2, 1, 2)
        rates = _SCHEMES["time-division"](config, SchemeSpec("time-division", tau=tau), GRID, seeded(5, 10))
        assert rates[idle] is None
        assert rates[1 - idle] is not None


class TestCappedContrast:
    # sha256 of trace_to_csv(capped_tdm_trace(...)) at GOLDEN_TRIALS,
    # seed 7, recorded from the two-run form: solo point-to-point traces on
    # the nominal and the half-dB grid, joined at tau = 1/2 after reduction.
    # The second grid's half-dB points 10 and 20 lie on it. Re-recorded when
    # each link moved to its own SFC64 substreams, when each link came to be
    # drawn as the Gamma variates of its Wishart matrix, and when each row of
    # those variates got its own substream.
    BATTERY_GRID = (30.0, 40.0, 50.0, 60.0, 70.0)
    GOLDEN = [
        (BcConfig(4, 2, 3), BATTERY_GRID, "f618672de0596c127e5bea6501f789bf768a60e71ff6bee6c6ac719ffa9936bc"),
        (IcConfig(1, 3, 1, 4), BATTERY_GRID, "ffaca9cf29c5f80351d5f1d5685dcdcfddf3278ff7f393b3695cc1f998d2063b"),
        (BcConfig(4, 2, 3), (10.0, 20.0, 30.0, 40.0), "9273e93f9199a551bcd7347907a81e4750831a9bcd1636da7a4502419e5a2341"),
    ]
    IDS = ["bc-423", "ic-1314", "bc-423-overlap"]

    @pytest.mark.parametrize("config, grid, digest", GOLDEN, ids=IDS)
    def test_capped_trace_golden(self, config, grid, digest):
        trace = load_battery_script().capped_tdm_trace(config, grid, GOLDEN_TRIALS, 7)
        assert trace.snr_db == grid
        assert hashlib.sha256(trace_to_csv(trace).encode()).hexdigest() == digest

    @pytest.mark.parametrize("config, grid", [(c, g) for c, g, _ in GOLDEN], ids=IDS)
    def test_capped_trace_draws_once(self, config, grid, monkeypatch):
        # Both users come from one run, so each user's link is drawn once.
        calls = []

        def counted(link, *args):
            calls.append(link)
            return _draw(link, *args)

        monkeypatch.setattr(simulate, "_draw", counted)
        load_battery_script().capped_tdm_trace(config, grid, GOLDEN_TRIALS, 7)
        assert calls == (["H1", "H2"] if isinstance(config, BcConfig) else ["H11", "H22"])


class TestBatteryScript:
    def test_verdict_files_are_verify_documents(self, capsys, tmp_path):
        # Each verdict file holds the bytes `mimodof verify` writes for the
        # same flags; CI diffs the same two entries at 2000 trials.
        assert load_battery_script().main(["--trials", "200", "--seed", "7", "--out-dir", str(tmp_path / "b")]) == 0
        verify = ["verify", "--trials", "200", "--seed", "7"]
        for name, flags in [
            ("p2p-2x2", ["--channel", "bc", "--antennas", "2,2,2", "--scheme", "p2p", "--against", "exact"]),
            ("zf-2123", ["--channel", "ic", "--antennas", "2,1,2,3", "--scheme", "zf", "--streams", "1,1",
                         "--against", "outer"]),
        ]:
            out = tmp_path / f"{name}.json"
            assert cli.main([*verify, *flags, "--out", str(out)]) == 0
            assert out.read_bytes() == (tmp_path / "b" / f"{name}.json").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "0"], "trials must be an integer >= 1, got 0"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ],
        ids=["no-trials", "negative-seed"],
    )
    def test_bad_input_exits_three_before_any_draw(self, argv, message, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(simulate, "_draw", lambda *args: pytest.fail("trials drawn"))
        out_dir = tmp_path / "battery_bad"
        assert load_battery_script().main([*argv, "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err
        assert "Traceback" not in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "trials, under_file, message",
        [
            # numpy refuses the draw array up front, without allocating.
            (str(10**15), False, "Unable to allocate"),
            # Every run succeeds, and only then is the directory made.
            ("2", True, "Not a directory"),
        ],
        ids=["unallocatable-trials", "out-dir-under-file"],
    )
    def test_failed_run_or_write_exits_three_and_writes_nothing(self, trials, under_file, message, capsys, tmp_path):
        (tmp_path / "file").write_text("kept\n")
        out_dir = tmp_path / ("file" if under_file else "missing") / "battery_bad"
        assert load_battery_script().main(["--trials", trials, "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_unparsable_argument_exits_three(self, capsys, tmp_path):
        # argparse would exit 2, which the script reserves for failed verdicts.
        out_dir = tmp_path / "battery_bad"
        with pytest.raises(SystemExit) as exited:
            load_battery_script().main(["--trials", "many", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert exited.value.code == 3 and captured.out == ""
        assert captured.err.count("\n") == 1 and "invalid int value" in captured.err
        assert not out_dir.exists()

    def test_bad_flag_as_a_script_prints_one_line(self, tmp_path):
        # Run as a program: exit 3, one line on stderr, no usage, no files.
        env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
        script = _ROOT / "scripts" / "run_prelog_battery.py"
        done = subprocess.run(
            [sys.executable, str(script), "--trials", "x", "--out-dir", "battery_bad"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "run_prelog_battery.py: error: argument --trials: invalid int value: 'x'\n"
        assert list(tmp_path.iterdir()) == []


class TestIsotropicInput:
    SPEC = SchemeSpec("isotropic-bc")

    def test_vanishing_power_limit(self):
        trace = simulate_scheme(self.SPEC, BcConfig(4, 1, 1), (-90.0,), 200, 1)
        assert trace.rate1[0] < 1e-6

    def test_mean_below_deterministic_benchmark(self):
        # The random isotropic input loses to n log2(1 + P) at finite SNR.
        trace = simulate_scheme(self.SPEC, BcConfig(4, 1, 1), (20.0,), 3000, 2)
        assert trace.rate1[0] < math.log2(1 + _db_to_linear(20.0))

    def test_driver_deterministic(self):
        a = simulate_scheme(self.SPEC, BcConfig(4, 2, 2), GRID, 100, 7)
        b = simulate_scheme(self.SPEC, BcConfig(4, 2, 2), GRID, 100, 7)
        assert a == b

    @pytest.mark.parametrize(
        "config, user",
        [(BcConfig(4, 1, 1), 1), (BcConfig(4, 2, 2), 2), (BcConfig(3, 3, 1), 1),
         (BcConfig(2, 1, 2), 2), (BcConfig(4, 2, 3), 2)],
    )
    def test_isotropic_is_point_to_point(self, config, user):
        # A white input at P/M per antenna over the served user's own link is
        # point-to-point on that link: the same draws and the same trace.
        spec = SchemeSpec("isotropic-bc", user=user)
        trials = GOLDEN_TRIALS
        assert simulate_scheme(spec, config, GRID, trials, 7) == solo(config, user, GRID, trials, 7)


class TestTraces:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            RateTrace((20.0, 10.0), (1, 1), (0, 0), (1, 1), (0, 0), 10, 0)
        with pytest.raises(ValueError, match="rate1 length does not match"):
            RateTrace((10.0,), (1, 2), (0,), (1,), (0,), 10, 0)
        with pytest.raises(ValueError, match="rate1 entries must be finite and nonnegative"):
            RateTrace((10.0,), (-1,), (0,), (1,), (0,), 10, 0)
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 0"):
            RateTrace((10.0,), (1,), (0,), (1,), (0,), 0, 0)

    @pytest.mark.parametrize(
        "trials, seed, message",
        [
            (2.5, 0, "trials must be an integer >= 1, got 2.5"),
            (True, 0, "trials must be an integer >= 1, got True"),
            (2, True, "seed must be an integer >= 0, got True"),
            (2, -3, "seed must be an integer >= 0, got -3"),
        ],
    )
    def test_counts_follow_the_simulation_rule(self, trials, seed, message):
        # The rule simulate_scheme applies before any draw: a trace that
        # trace_to_csv could write but trace_from_csv not read never builds.
        with pytest.raises(ValueError, match=message):
            RateTrace((1.0,), (1,), (0,), (1,), (0,), trials=trials, seed=seed)
        with pytest.raises(ValueError, match=message):
            simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, trials, seed)

    def test_csv_round_trip(self):
        trace = simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 64, 3)
        text = trace_to_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "snr_db,rate1,stderr1,rate2,stderr2,trials"
        assert len(lines) == 1 + len(GRID)
        again = trace_from_csv(text, seed=trace.seed)
        assert again.snr_db == trace.snr_db
        assert again == trace

    def test_csv_rejects_garbage(self):
        with pytest.raises(ValueError, match="expected header"):
            trace_from_csv("nope\n1,2,3")

    def test_csv_rejects_rows_that_disagree_on_trials(self):
        rows = trace_to_csv(simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 10, 3)).splitlines()
        rows[-1] = rows[-1].rsplit(",", 1)[0] + ",20"
        with pytest.raises(ValueError, match=r"rows disagree on trials: \[10, 20\]"):
            trace_from_csv("\n".join(rows))


class TestDrivers:
    # sha256 of each kind's trace_to_csv at GOLDEN_TRIALS, seed 7.
    # Re-recorded at each change of random stream, last when each row of a
    # link's Wishart model got its own substream, and each time only once
    # the exact-mean, channel-reference, slope and coverage tests passed on
    # the new stream.
    TRACE_GOLDENS = {
        "point-to-point": "f5b834acb5decf89c1994eff1006cafc52df724e8e8bb6b9944bb70250e3e2cb",
        "time-division": "fa14edea71f0fb47322125b9d6b015817790f46df2455bd4219f9e5ec15e4a7e",
        "receiver-zero-forcing": "5cb026ddcbc16101aa657cc109dcdacdd2be495caa18fa3418aafc95fc578d22",
        "ia-power-scaling": "a4b4a6e44a29ff85d2f40bbbb03d8bc4a85ed3dae1e98971f565b54f6004f05a",
        "isotropic-bc": "9fa3b3ef49546c0bb4fcf4510b2c069209c8eafb3ac60ec5583c85619882987f",
    }

    @pytest.mark.parametrize("spec, config", ONE_OF_EACH, ids=[s.kind for s, _ in ONE_OF_EACH])
    def test_every_scheme_trace_golden(self, spec, config):
        trace = simulate_scheme(spec, config, GRID, GOLDEN_TRIALS, 7)
        digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
        assert digest == self.TRACE_GOLDENS[spec.kind]

    def test_golden_cases_cover_every_kind(self):
        assert {s.kind for s, _ in ONE_OF_EACH} == set(SCHEME_KINDS)

    def test_threads_env_var_is_ignored(self, monkeypatch):
        # Draws run on one thread; there is no thread count to set.
        monkeypatch.delenv("MIMODOF_THREADS", raising=False)
        unset = simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7)
        monkeypatch.setenv("MIMODOF_THREADS", "0")
        assert simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7) == unset
        with pytest.raises(TypeError):
            simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7, threads=1)

    @pytest.mark.parametrize("tau", [2.0**-60, 1.0 - 2.0**-53], ids=["user-one-tiny", "user-two-tiny"])
    def test_shared_rate_buffer_leaks_nothing(self, tau):
        # One run puts both users' rates in one buffer in turn, 2**53 or
        # more apart in either order, and back-to-back runs of different
        # lengths follow. Each trace equals the reduction of the same rates
        # in fresh arrays.
        spec, config = SchemeSpec("time-division", tau=tau), IcConfig(2, 3, 2, 3)
        for trials in (GOLDEN_TRIALS, 100):
            trace = simulate_scheme(spec, config, GRID, trials, 7)
            rates = _SCHEMES[spec.kind](config, spec, GRID, lambda link, shapes: _draw(link, shapes, 7, trials))
            for rate, columns in zip(rates, ((trace.rate1, trace.stderr1), (trace.rate2, trace.stderr2))):
                values = np.stack([rate(_db_to_linear(snr)) for snr in GRID])
                assert same_bits(_mean_stderr(values), columns)

    def test_solo_users_share_draws(self):
        # Both solos see the same trial matrices, only different links.
        config = BcConfig(3, 2, 2)
        solo1 = solo(config, 1, GRID, 100, 13)
        solo2 = solo(config, 2, GRID, 100, 13)
        assert solo1.rate2 == (0.0,) * len(GRID)
        assert solo2.rate1 == (0.0,) * len(GRID)
        powers = [_db_to_linear(snr) for snr in GRID]
        r1 = np.stack([kernel(P2P, config, p, seeded(13, 100))[0] for p in powers])
        r2 = np.stack([kernel(SchemeSpec("point-to-point", user=2), config, p, seeded(13, 100))[1] for p in powers])
        assert tuple(_mean_stderr(r1)[0]) == solo1.rate1
        assert tuple(_mean_stderr(r2)[0]) == solo2.rate2

    def test_scheme_dispatch(self):
        # The driver is the table kernel over one stacked draw, each user's
        # SNR points reduced together.
        config = IcConfig(2, 1, 2, 3)
        trace = simulate_scheme(ZF, config, GRID, 50, 7)
        pairs = [kernel(ZF, config, _db_to_linear(snr), seeded(7, 50)) for snr in GRID]
        r1, r2 = (np.stack(rows) for rows in zip(*pairs))
        assert [list(trace.rate1), list(trace.stderr1)] == list(_mean_stderr(r1))
        assert [list(trace.rate2), list(trace.stderr2)] == list(_mean_stderr(r2))
        for i in range(len(GRID)):
            assert (trace.rate1[i], trace.stderr1[i]) == TestMeanStderr.reference(r1[i])
            assert (trace.rate2[i], trace.stderr2[i]) == TestMeanStderr.reference(r2[i])
        with pytest.raises(SimulationError, match="runs on interference configs"):
            simulate_scheme(ZF, BcConfig(2, 2, 2), GRID, 10, 7)

    def test_isotropic_dispatch_reslots_user_two(self):
        spec = SchemeSpec(kind="isotropic-bc", user=2)
        trace = simulate_scheme(spec, BcConfig(4, 2, 3), GRID, 50, 7)
        assert trace.rate1 == (0.0,) * len(GRID)
        assert all(r > 0 for r in trace.rate2)
        assert trace == solo(BcConfig(4, 2, 3), 2, GRID, 50, 7)
        tall = SchemeSpec(kind="isotropic-bc", user=1)
        with pytest.raises(SimulationError, match="at most M antennas"):
            simulate_scheme(tall, BcConfig(2, 3, 2), GRID, 10, 7)

    @pytest.mark.parametrize(
        "spec, config, grid, message",
        [
            (ZF, BcConfig(2, 2, 2), GRID, "runs on interference configs"),
            (SchemeSpec("receiver-zero-forcing", streams=(1, 3)), IcConfig(2, 2, 2, 3), GRID,
             "s2=3 exceeds the transmitter's 2 antennas"),
            (SchemeSpec("receiver-zero-forcing", streams=(1, 1)), IcConfig(2, 1, 2, 1), GRID,
             "receivers need at least 2 antennas"),
            (IA, BcConfig(2, 2, 2), GRID, "the alignment scheme runs on interference configs"),
            (IA, IcConfig(2, 3, 1, 4), GRID, "needs M1 = N1 = 1"),
            (SchemeSpec("ia-power-scaling", beams=4), IcConfig(1, 3, 1, 4), GRID, r"beams must be in \[0, 3\]"),
            (IA, IcConfig(1, 3, 1, 4), (0.0, 10.0), "above 0 dB"),
            (SchemeSpec("ia-power-scaling", power_exponent=2.0), IcConfig(1, 3, 1, 4), (10.0, 1500.0),
             "raised to the power exponent"),
            (SchemeSpec("isotropic-bc"), IcConfig(2, 1, 2, 1), GRID, "runs on broadcast configs"),
            (SchemeSpec("isotropic-bc", user=2), BcConfig(2, 1, 3), GRID, "at most M antennas"),
        ],
        ids=[
            "zf-on-bc", "zf-s2-over-M2", "zf-short-receiver",
            "ia-on-bc", "ia-shape", "ia-beams", "ia-0dB", "ia-exponent-overflow",
            "iso-on-ic", "iso-tall-receiver",
        ],
    )
    def test_every_refusal_comes_before_any_draw(self, spec, config, grid, message, monkeypatch):
        # Each kind's function checks the fit before its first draw(link)
        # call: this test is what holds every scheme to check-before-draw.
        monkeypatch.setattr(simulate, "_draw", lambda *args: pytest.fail("trials drawn"))
        with pytest.raises(ValueError, match=message):
            simulate_scheme(spec, config, grid, 10, 7)

    @pytest.mark.parametrize(
        "spec, config, links",
        [
            (P2P, BcConfig(4, 2, 3), {"H1": 3}),
            (SchemeSpec("point-to-point", user=2), IcConfig(3, 2, 2, 4), {"H22": 3}),
            (SchemeSpec("isotropic-bc", user=2), BcConfig(4, 2, 3), {"H2": 5}),
            (SchemeSpec("time-division", tau=1.0), BcConfig(4, 2, 3), {"H1": 3}),
            (SchemeSpec("time-division", tau=0.0), BcConfig(4, 2, 3), {"H2": 5}),
            (SchemeSpec("time-division", tau=0.3), IcConfig(2, 3, 2, 3), {"H11": 3, "H22": 5}),
            (IA, IcConfig(1, 3, 1, 4), {"H11": 1, "H12": 1, "H22": 5}),
            (ZF, IcConfig(2, 1, 2, 3), {"H11": 1, "H22": 1}),
            (SchemeSpec("receiver-zero-forcing", streams=(0, 2)), IcConfig(1, 2, 1, 2), {"H22": 3}),
        ],
        ids=["p2p", "p2p-user2", "iso-user2", "tdm-tau1", "tdm-tau0", "tdm-tau0.3", "ia", "zf-1-1", "zf-0-2"],
    )
    def test_draws_only_the_links_the_scheme_reads(self, spec, config, links, monkeypatch):
        # Each link the scheme reads is drawn once, one substream per row of
        # its Wishart model; no other link is drawn.
        drawn = []
        sfc64 = np.random.SFC64
        monkeypatch.setattr(np.random, "SFC64", lambda seed: drawn.append(seed) or sfc64(seed))
        simulate_scheme(spec, config, GRID, GOLDEN_TRIALS, 7)
        assert sorted(drawn) == [[7, LINK_ORDER.index(link), r] for link, rows in links.items() for r in range(rows)]

    def test_scheme_spec_validation(self):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            SchemeSpec(kind="magic")
        # 1.5 sits between the bound and 2.0, so a loosened bound shows.
        for tau in (1.5, 2.0):
            with pytest.raises(ValueError, match="tau must be in"):
                SchemeSpec(kind="time-division", tau=tau)
        with pytest.raises(ValueError, match=r"user must be an integer in \[1, 2\], got 3"):
            SchemeSpec(kind="point-to-point", user=3)
        # 2.0 == 2 and True == 1, but neither is a user index.
        with pytest.raises(ValueError, match=r"user must be an integer in \[1, 2\], got 2.0"):
            SchemeSpec(kind="point-to-point", user=2.0)
        with pytest.raises(ValueError, match=r"user must be an integer in \[1, 2\], got True"):
            SchemeSpec(kind="isotropic-bc", user=True)
        # A negative stream count can no longer reach the scheme: the spec
        # refuses it before any draw could happen.
        with pytest.raises(ValueError, match="s1 must be an integer >= 0, got -1") as raised:
            SchemeSpec("receiver-zero-forcing", streams=(-1, 1))
        assert not isinstance(raised.value, SimulationError)
        # A numeric string or a bool is not a real parameter either.
        for value in ("0.5", True, None):
            with pytest.raises(ValueError, match="tau must be a real number"):
                SchemeSpec(kind="time-division", tau=value)
            with pytest.raises(ValueError, match="power_exponent must be a real number"):
                SchemeSpec(kind="ia-power-scaling", power_exponent=value)
        assert SchemeSpec(kind="time-division", tau=1).to_dict()["tau"] == 1

    @pytest.mark.parametrize(
        "spec",
        [spec for spec, _ in ONE_OF_EACH] + [SchemeSpec("ia-power-scaling", beams=2, power_exponent=1)],
        ids=[*(s.kind for s, _ in ONE_OF_EACH), "ia-beams"],
    )
    def test_to_dict_is_asdict_with_a_streams_list(self, spec):
        reference = {**dataclasses.asdict(spec), "streams": list(spec.streams)}
        assert spec.to_dict() == reference and list(spec.to_dict()) == list(reference)

    def test_streams_are_stored_as_a_tuple(self):
        # Any sequence of two ints is kept as a tuple, so specs hash and a
        # list equals the tuple it holds; the document still writes a list.
        spec = SchemeSpec("receiver-zero-forcing", streams=[1, 2])
        assert spec.streams == (1, 2) and type(spec.streams) is tuple
        assert spec == SchemeSpec("receiver-zero-forcing", streams=(1, 2))
        assert hash(spec) == hash(SchemeSpec("receiver-zero-forcing", streams=(1, 2)))
        assert spec.to_dict()["streams"] == [1, 2]
        for streams in (3, "12", b"12", (1,), (1, 1, 1), None):
            with pytest.raises(ValueError, match="streams must be a pair of integers, got "):
                SchemeSpec("receiver-zero-forcing", streams=streams)
        with pytest.raises(ValueError, match="s2 must be an integer >= 0, got '1'"):
            SchemeSpec("receiver-zero-forcing", streams=(1, "1"))

    def test_db_to_linear(self):
        assert _db_to_linear(0.0) == 1.0
        assert _db_to_linear(30.0) == pytest.approx(1000.0)
