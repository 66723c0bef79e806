"""Monte Carlo layer tests: draws, scheme kernels, the driver, CSV."""

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
    BLOCK,
    SCHEME_KINDS,
    SLICE,
    _SCHEMES,
    _db_to_linear,
    _draw,
    _exact_row_sums,
    _gram_spectrum,
    _log_det_rate,
    _mean_stderr,
    _network_dims,
    _orthonormal_rows,
    _sq_norm,
    _zf_user_rate,
)

GRID = (10.0, 20.0, 30.0)

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


def draw_all(dims, seed, trials):
    """``_draw`` of every link in ``dims``, by link name."""
    return {link: _draw(link, shape, seed, trials) for link, shape in dims.items()}


def kernel(spec, stacked, config, power):
    """Per-trial rate pair of one scheme's table kernel at one power on
    stacked (rows, cols, trials) draws, read by link name; an unserved
    user's column reads as zeros."""
    trials = next(iter(stacked.values())).shape[-1]
    rates = _SCHEMES[spec.kind](config, spec, GRID, stacked.__getitem__)
    return tuple(np.zeros(trials) if rate is None else rate(power) for rate in rates)


def _log2det_eye_plus(gram):
    """log2 det(I + G) for a stack of PSD matrices, via Cholesky: the
    per-point kernel the spectral form replaced, kept as a reference."""
    k = gram.shape[-1]
    if k == 0:
        return np.zeros(gram.shape[:-2])
    herm = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    chol = np.linalg.cholesky(np.eye(k, dtype=herm.dtype) + herm)
    diag = np.real(np.diagonal(chol, axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.log2(diag), axis=-1)


def short_side_gram(channels):
    rows, cols = channels.shape[-2:]
    adjoint = channels.conj().swapaxes(-1, -2)
    return np.matmul(adjoint, channels) if cols < rows else np.matmul(channels, adjoint)


def _capacity_log2det(channels, scale):
    if 0 in channels.shape[-2:]:
        return np.zeros(channels.shape[:-2])
    return _log2det_eye_plus(scale * short_side_gram(channels))


def trials_first(channels):
    """A (rows, cols, trials) stack as (trials, rows, cols), the layout the
    LAPACK references below take."""
    return np.moveaxis(channels, -1, 0)


def reference_rates(spec, stacked, config, power):
    """Per-trial rates of both users, by the per-point Cholesky kernels on
    trials-first views of the draws."""
    stacked = {link: trials_first(channels) for link, channels in stacked.items()}
    zeros = np.zeros(len(next(iter(stacked.values()))))

    def served(rates):
        return (rates, zeros) if spec.user == 1 else (zeros, rates)

    def solo_rate(user):
        channels = stacked[f"H{user}" if isinstance(config, BcConfig) else f"H{user}{user}"]
        return _capacity_log2det(channels, power / channels.shape[-1])

    def zf_rate(own, cross, s_own, s_int):
        if s_own == 0:
            return zeros
        beams = own[..., :, :s_own]
        if s_int > 0:
            q, _ = np.linalg.qr(cross[..., :, :s_int], mode="complete")
            beams = np.matmul(q[..., :, s_int:].conj().swapaxes(-1, -2), beams)
        return _capacity_log2det(beams, power / s_own)

    if spec.kind in ("point-to-point", "isotropic-bc"):
        return served(solo_rate(spec.user))
    if spec.kind == "time-division":
        return spec.tau * solo_rate(1), (1.0 - spec.tau) * solo_rate(2)
    if spec.kind == "receiver-zero-forcing":
        s1, s2 = spec.streams
        return zf_rate(stacked["H11"], stacked["H12"], s1, s2), zf_rate(stacked["H22"], stacked["H21"], s2, s1)
    assert spec.kind == "ia-power-scaling"
    nb = config.M2 if spec.beams is None else spec.beams
    beam_power = power ** spec.power_exponent
    gain = np.abs(stacked["H11"][:, 0, 0]) ** 2
    cross_gain = np.sum(np.abs(stacked["H12"][:, 0, :nb]) ** 2, axis=-1)
    r1 = np.log2(1.0 + power * gain / (1.0 + beam_power * cross_gain))
    return r1, _capacity_log2det(stacked["H22"][:, :, :nb], beam_power)


def exact_log2det(h, x):
    """log2 det(I + x G) for one channel h with short-side Gram G, from the
    exact rational determinant over its float entries; only the final float
    and log2 round. I + x G = A + iB is Hermitian positive definite, so its
    real form [[A, -B], [B, A]] has determinant det(I + x G)**2 and no zero
    pivot."""
    vectors = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in (h if len(h) <= len(h[0]) else h.T)]
    n, x = len(vectors), Fraction(x)
    real = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i, p in enumerate(vectors):
        for j, q in enumerate(vectors):  # <p, q> = sum of conj(p) q
            re = sum(a * c + b * d for (a, b), (c, d) in zip(p, q))
            im = sum(a * d - b * c for (a, b), (c, d) in zip(p, q))
            real[i][j] = real[n + i][n + j] = (i == j) + x * re
            real[n + i][j], real[i][n + j] = x * im, -x * im
    det = Fraction(1)
    for k in range(2 * n):
        det *= real[k][k]
        for i in range(k + 1, 2 * n):
            ratio = real[i][k] / real[k][k]
            for j in range(k, 2 * n):
                real[i][j] -= ratio * real[k][j]
    return 0.5 * math.log2(det)


def conditioned_channels(rng, rows, cols, kappa, count=20):
    """(rows, cols, count) stacks of U diag(1, ..., 1/kappa) V with random
    unitaries U, V and singular values spaced geometrically, one per
    short-side dimension."""
    def unitary(n):
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

    sigma = np.zeros((rows, cols))
    np.fill_diagonal(sigma, np.geomspace(1.0, 1.0 / kappa, min(rows, cols)))
    return np.stack([unitary(rows) @ sigma @ unitary(cols) for _ in range(count)], axis=-1)


_ROOT = Path(__file__).resolve().parents[1]


def load_battery_script():
    spec = importlib.util.spec_from_file_location("run_prelog_battery", _ROOT / "scripts" / "run_prelog_battery.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_battery_entries():
    return load_battery_script().battery_entries()


def symmetric_functions(lam):
    """Sum, sum of pair products and product of three eigenvalues."""
    a, b, c = (float(x) for x in lam)
    return a + b + c, a * b + a * c + b * c, a * b * c


def solo(config, user, grid, trials, seed):
    spec = SchemeSpec("point-to-point", user=user)
    return simulate_scheme(spec, config, grid, trials, seed)


class TestDraws:
    def test_deterministic_per_seed_and_trial(self):
        dims = _network_dims(IcConfig(2, 1, 2, 3))
        a = draw_all(dims, 7, 5)
        b = draw_all(dims, 7, 4)
        for link in dims:
            # Trial 3 is the same draw whatever the trial count around it.
            assert np.array_equal(a[link][..., 3], b[link][..., 3])
            assert not np.array_equal(a[link][..., 3], a[link][..., 4])
        other_seed = draw_all(dims, 8, 5)
        assert not np.array_equal(a["H11"], other_seed["H11"])

    def test_prefix_across_block_boundary(self):
        # The short run draws the second block only up to trial BLOCK + 3,
        # the long run in full; every shared trial agrees.
        dims = _network_dims(IcConfig(2, 1, 2, 3))
        short = draw_all(dims, 7, BLOCK + 4)
        long = draw_all(dims, 7, 3 * BLOCK)
        for link in dims:
            assert np.array_equal(short[link], long[link][..., : BLOCK + 4])

    def test_blocks_follow_reference_stream(self):
        # Block b of link l is one standard_normal((n_b, rows * cols, 2)) call
        # on Generator(SFC64([seed, l, b])), l the link's index in the fixed
        # link order, read as complex pairs and scaled by 1/sqrt(2); the last
        # block is partial. Each link holds the same values with the trial
        # axis moved last.
        dims = _network_dims(IcConfig(2, 1, 2, 3))
        trials = 2 * BLOCK + 7
        stacked = draw_all(dims, 7, trials)
        for link, (rows, cols) in dims.items():
            blocks = []
            for b in range(3):
                rng = np.random.Generator(np.random.SFC64([7, LINK_ORDER.index(link), b]))
                normals = rng.standard_normal((min(BLOCK, trials - b * BLOCK), rows * cols, 2))
                blocks.append(normals.view(complex)[..., 0] / math.sqrt(2.0))
            expected = np.concatenate(blocks).reshape(trials, rows, cols)
            assert np.array_equal(stacked[link], np.moveaxis(expected, 0, -1))

    @pytest.mark.parametrize("config", [BcConfig(4, 2, 3), IcConfig(2, 1, 2, 3)], ids=["bc", "ic"])
    def test_link_draws_do_not_depend_on_other_links(self, config):
        # A link's draws depend only on (seed, link, block): drawn after the
        # whole network, one link at a time in reverse order, they are the
        # same bits.
        dims = _network_dims(config)
        trials = 2 * BLOCK + 7
        whole = draw_all(dims, 7, trials)
        for link in reversed(list(dims)):
            assert np.array_equal(_draw(link, dims[link], 7, trials), whole[link])

    def test_draws_are_lazy_and_refuse_an_unknown_link(self, monkeypatch):
        # A scheme draws a link only when it reads it, and then only that
        # link. A link name outside the fixed order is refused before any
        # draw.
        config = BcConfig(4, 2, 3)
        dims = _network_dims(config)
        seeds, read = [], []
        sfc64 = np.random.SFC64
        monkeypatch.setattr(np.random, "SFC64", lambda seed: seeds.append(seed) or sfc64(seed))
        spec = SchemeSpec("point-to-point", user=2)
        _SCHEMES[spec.kind](config, spec, GRID, lambda link: read.append(link) or _draw(link, dims[link], 7, 10))
        assert read == ["H2"] and seeds == [[7, 1, 0]]
        with pytest.raises(ValueError):
            _draw("H3", (1, 1), 7, 10)
        assert seeds == [[7, 1, 0]]

    def test_peak_memory_is_one_buffer(self):
        # Every link is read: the draws live in one (entries, trials) buffer
        # per link, and each block passes through a block-sized scratch.
        # Transposing a whole trials-first buffer instead would double the
        # peak.
        dims = _network_dims(IcConfig(1, 3, 1, 4))
        trials = 10_000
        entries = sum(rows * cols for rows, cols in dims.values())
        _draw("H11", dims["H11"], 7, 1)  # numpy sets up its generator state once per process
        tracemalloc.start()
        try:
            stacked = draw_all(dims, 7, trials)
            assert sum(stacked[link].size for link in dims) == entries * trials
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * entries * trials * np.dtype(complex).itemsize

    def test_shapes(self):
        stacked = draw_all(_network_dims(BcConfig(4, 2, 3)), 0, 1)
        assert stacked["H1"].shape == (2, 4, 1)
        assert stacked["H2"].shape == (3, 4, 1)

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
        # 1e5 independent scalar draws: mean, variance and the real/imag
        # correlation all sit within 3 sigma of their estimators.
        n = 100_000
        values = _draw("H1", (1, 1), 123, n)[0, 0]
        assert abs(values.mean()) < 3.0 * math.sqrt(1.0 / n)
        var = np.mean(np.abs(values) ** 2)
        assert 0.99 < var < 1.01
        corr = np.mean(values.real * values.imag) / 0.5
        assert abs(corr) < 3.0 / math.sqrt(n)


def fsum_rows(values):
    # The row-by-row reference the exact reduction replaces.
    return [math.fsum(row) for row in values.tolist()]


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
        assert same_bits(_exact_row_sums(values), fsum_rows(values))

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
        assert same_bits(_exact_row_sums(values), fsum_rows(values))

    def test_rates_and_squared_deviations(self):
        # Rates and squared deviations spanning 10^-3 to 10^7 SNR, as the
        # driver hands them over.
        rate = _log_det_rate(_draw("H1", (2, 2), 3, 4000), 0.5)
        values = np.stack([rate(_db_to_linear(snr)) for snr in range(-30, 71, 10)])
        deviations = (values - np.array(fsum_rows(values))[:, None] / values.shape[1]) ** 2
        for rows in (values, deviations, values[:, :2], values[:, :1]):
            assert same_bits(_exact_row_sums(rows), fsum_rows(rows))

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 1.7e308], ids=["nan", "inf", "-inf", "sigma-overflow"]
    )
    def test_unsummable_input_raises(self, bad):
        # Extraction would never clear a nan, so it must raise, not loop.
        values = np.ones((3, 5))
        values[1, 2] = bad
        with pytest.raises(SimulationError, match="not finite"):
            _exact_row_sums(values)
        with pytest.raises(SimulationError, match="not finite"):
            _mean_stderr(values)


class TestRatePrimitives:
    def test_scalar_rate_exact(self):
        one = np.ones((1, 1, 1), dtype=complex)
        r1, r2 = kernel(P2P, {"H1": one, "H2": one}, BcConfig(1, 1, 1), 3.0)
        assert r1[0] == pytest.approx(2.0, abs=1e-12)
        assert r2[0] == 0.0

    def test_orthonormal_rows_closed_form(self):
        H = np.eye(2, 4, dtype=complex)[..., None]
        # H H* = I, so the rate is 2 log2(1 + P/4) exactly.
        for p in (1.0, 10.0, 1000.0):
            r1, _ = kernel(P2P, {"H1": H, "H2": H}, BcConfig(4, 2, 2), p)
            assert r1[0] == pytest.approx(2 * math.log2(1 + p / 4), abs=1e-9)

    def test_monotone_in_power(self):
        config = BcConfig(2, 3, 1)
        stacked = draw_all(_network_dims(config), 5, 1)
        rates = [kernel(P2P, stacked, config, p)[0][0] for p in (0.1, 1, 10, 100, 1000)]
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
    # Every kind, plus a served user 2, a silent zero-forcing user, two
    # zero-forced streams per user, an alignment run with no beams and a
    # Gram side of 4.
    CASES = ONE_OF_EACH + [
        (SchemeSpec("point-to-point", user=2), IcConfig(3, 2, 2, 4)),
        (SchemeSpec("receiver-zero-forcing", streams=(0, 2)), IcConfig(1, 2, 1, 2)),
        (SchemeSpec("receiver-zero-forcing", streams=(2, 2)), IcConfig(3, 3, 4, 4)),
        (SchemeSpec("ia-power-scaling", beams=0), IcConfig(1, 3, 1, 4)),
        (SchemeSpec("isotropic-bc"), BcConfig(4, 4, 1)),
    ]

    @pytest.mark.parametrize("spec, config", CASES, ids=[f"{s.kind}-{c}" for s, c in CASES])
    def test_matches_cholesky_reference(self, spec, config):
        stacked = draw_all(_network_dims(config), 5, 300)
        # Both kernels round 1 + x before the logarithm, so a small rate
        # carries an absolute error of a few 2**-52 whichever kernel runs;
        # atol covers that and nothing more.
        for power in (1e-3, 1.0, 1e3, 1e7, 1e30, 1e40):
            got = kernel(spec, stacked, config, power)
            for rates, want in zip(got, reference_rates(spec, stacked, config, power)):
                np.testing.assert_allclose(rates, want, rtol=1e-12, atol=1e-14)

    def test_projection_runs_once_per_user(self, monkeypatch):
        # Zero-forcing projects by Gram-Schmidt, once per served user and
        # run, with no QR: s_int = 0 for (1, 0), 1 for (1, 1), 2 for (2, 2).
        qr_calls, bases = [], []
        qr, orthonormal_rows = np.linalg.qr, simulate._orthonormal_rows

        def counted_qr(*args, **kwargs):
            qr_calls.append(args[0].shape)
            return qr(*args, **kwargs)

        def counted_rows(rows):
            bases.append(rows.shape[:-1])
            return orthonormal_rows(rows)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(simulate, "_orthonormal_rows", counted_rows)
        for streams, config, want in (
            ((1, 0), IcConfig(2, 1, 2, 3), [(0, 2)]),
            ((1, 1), IcConfig(2, 1, 2, 3), [(1, 2), (1, 3)]),
            ((2, 2), IcConfig(3, 3, 4, 4), [(2, 4), (2, 4)]),
        ):
            bases.clear()
            simulate_scheme(SchemeSpec("receiver-zero-forcing", streams=streams), config, (30, 40, 50, 60, 70), 100, 7)
            assert bases == want
        assert qr_calls == []

    @pytest.mark.parametrize("cond", [1e6, 1e7, 1e8])
    def test_projection_holds_on_nearly_dependent_interference(self, cond, monkeypatch):
        # Two interfering columns at the given condition number. One pass of
        # modified Gram-Schmidt would leave the basis off by about eps * cond;
        # the second pass brings it to a few eps.
        rng = np.random.default_rng(int(cond))
        shape = (4, 2, 200)
        own = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        first = rng.standard_normal((4, 1, 200)) + 1j * rng.standard_normal((4, 1, 200))
        nudge = rng.standard_normal((4, 1, 200)) + 1j * rng.standard_normal((4, 1, 200))
        cross = np.concatenate([first, first + nudge / cond], axis=1)
        assert np.all(np.linalg.cond(trials_first(cross)) > 0.1 * cond)
        eps = np.finfo(float).eps
        basis = np.stack(_orthonormal_rows(cross.swapaxes(0, 1)))  # (2, N, trials)
        gram = np.einsum("int,jnt->tij", basis.conj(), basis)
        assert np.max(np.abs(gram - np.eye(2))) <= 4 * eps
        # The rate kernel sees the projected beams as rows.
        monkeypatch.setattr(simulate, "_log_det_rate", lambda beams, share: beams)
        beams = _zf_user_rate(own, cross, 2, 2)
        leak = np.abs(np.einsum("int,njt->tij", beams.conj(), cross))  # <b_i, x_j>
        scale = np.linalg.norm(own, axis=(0, 1)) * np.linalg.norm(cross, axis=0).max(axis=0)
        assert np.all(leak.max(axis=(-2, -1)) <= 8 * eps * scale)

    def test_small_gram_sides_match_eigvalsh(self):
        # Gram sides 1 to 3 take closed forms. Against LAPACK on the Gram:
        # seeded stacks, then a zero row either way, parallel rows and the
        # zero matrix, each also transposed.
        rng = np.random.default_rng(8)
        shapes = [shape for k in range(1, 6) for shape in ((1, k), (k, 1), (2, k), (k, 2))]
        shapes += [shape for k in range(3, 6) for shape in ((3, k), (k, 3))]
        stacks = [rng.standard_normal((*shape, 40)) + 1j * rng.standard_normal((*shape, 40)) for shape in shapes]
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        zero = np.zeros(3, dtype=complex)
        special = np.moveaxis(np.array([[zero, u], [u, zero], [u, (2 - 1j) * u], [zero, zero]]), 0, -1)
        stacks += [special, special.swapaxes(0, 1)]
        for channels in stacks:
            lam = _gram_spectrum(channels)
            want = np.linalg.eigvalsh(short_side_gram(trials_first(channels))).T
            assert lam.shape == want.shape
            assert np.all(np.isfinite(lam)) and np.all(lam >= 0.0)
            assert np.all(np.abs(lam - want) <= 1e-12 * want[-1:])

    def test_gram_side_three_on_repeated_and_rank_deficient_input(self):
        # Near a repeated eigenvalue single λ of the closed form lose half
        # their digits: on diag(1, 1, 1e-8), λmid and λmax are off by about
        # 1e-8. Their sum, sum of pair products and product keep every digit,
        # and so do the rates, which depend on λ only through those three.
        rng = np.random.default_rng(9)
        v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        w = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        inputs = [
            np.eye(3), np.diag([1.0, 1.0, 1e-8]), np.diag([1.0, 1e-8, 1e-8]), np.diag([4.0, 1.0, 1.0]),
            np.outer(v[0], w[0]), v.T @ w[:2], np.zeros((3, 4)), np.diag([2.0, 2.0, 0.0]),
        ]
        for h in inputs + [h.T for h in inputs]:
            h = np.asarray(h, dtype=complex)
            lam = _gram_spectrum(h[..., None])[:, 0]
            assert lam.shape == (3,) and np.all(np.isfinite(lam)) and np.all(lam >= 0.0)
            want = np.linalg.eigvalsh(short_side_gram(h))
            scale = max(want[-1], 1e-300)
            for k, (got_e, want_e) in enumerate(zip(symmetric_functions(lam), symmetric_functions(want)), 1):
                assert abs(got_e - want_e) <= 1e-12 * scale**k
            for x in (1.0, 1e3, 1e7):
                rate = float(np.sum(np.log2(1.0 + x * lam)))
                exact = exact_log2det(h, x)
                assert abs(rate - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4])
    def test_closed_form_keeps_condition_number(self, kappa):
        # H = U diag(1, ..., 1/kappa) V. eigvalsh on the Gram errs by about
        # eps * kappa**2 in the small eigenvalue, up to about 1e-10 in these
        # rates at 70 dB; the closed forms err by about eps * kappa.
        rng = np.random.default_rng(int(kappa))
        power = _db_to_linear(70.0)
        for rows, cols in ((2, 2), (2, 4), (3, 2), (3, 3), (3, 4), (4, 3)):
            channels = conditioned_channels(rng, rows, cols, kappa)
            rates = _log_det_rate(channels, 1.0 / cols)(power)
            for h, rate in zip(trials_first(channels), rates):
                want = exact_log2det(h, power / cols)
                assert abs(rate - want) <= 1e-14 * want

    def test_small_gram_sides_skip_lapack(self, monkeypatch, tmp_path):
        # No eigvalsh, QR or SVD on any battery entry or any call of the
        # benchmark's verify deck: every Gram side there is at most 3.
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append((name, args[0].shape))
                return fn(*args, **kwargs)
            return counted

        monkeypatch.syspath_prepend(str(_ROOT / "bench"))
        valid_calls = importlib.import_module("workloads").VALID_CALLS
        for name in ("eigvalsh", "qr", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for _, config, spec, _ in load_battery_entries():
            simulate_scheme(spec, config, GRID, 100, 7)
        for channel, antennas, scheme, against in valid_calls:
            argv = ["verify", "--channel", channel, "--antennas", antennas, *scheme, "--against", against,
                    "--trials", "100", "--out", str(tmp_path / "verdict.json")]
            assert cli.main(argv) in (0, 2)
        assert calls == []

    def test_svd_path_for_gram_sides_of_four_and_more(self):
        # Sides >= 4 take squared singular values of H itself. They are
        # nonnegative, agree with eigvalsh on well-conditioned stacks, and
        # keep cond(H), not its square: within 1e-14 of the exact rate at
        # kappa = 1e3 and 1e4, where eigvalsh on the Gram errs near 1e-11.
        rng = np.random.default_rng(11)
        for shape in ((4, 4), (4, 5), (5, 4), (5, 6)):
            channels = rng.standard_normal((*shape, 40)) + 1j * rng.standard_normal((*shape, 40))
            lam = _gram_spectrum(channels)
            want = np.linalg.eigvalsh(short_side_gram(trials_first(channels))).T
            assert lam.shape == want.shape and np.all(lam >= 0.0)
            assert np.all(np.abs(lam - want) <= 1e-12 * want[-1:])
        power = _db_to_linear(70.0)
        for kappa in (1e3, 1e4):
            for rows, cols in ((4, 4), (4, 5), (5, 4)):
                channels = conditioned_channels(rng, rows, cols, kappa)
                rates = _log_det_rate(channels, 1.0 / cols)(power)
                for h, rate in zip(trials_first(channels), rates):
                    want = exact_log2det(h, power / cols)
                    assert abs(rate - want) <= 1e-14 * want

    # Gram sides 1 to 4, each with trials taken on both the short and the
    # long side.
    SPECTRUM_SHAPES = [(1, 3), (3, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4)]

    @pytest.mark.parametrize("shape", SPECTRUM_SHAPES, ids=[f"{r}x{c}" for r, c in SPECTRUM_SHAPES])
    def test_slices_change_no_bits(self, shape):
        # λ is filled SLICE trials at a time. Spectra of uneven trial splits,
        # whose slices start at other trials, concatenate to the same bits,
        # and so does a stack whose trials axis is not contiguous.
        trials = 2 * SLICE + 7
        channels = _draw("H1", shape, 7, trials)
        whole = _gram_spectrum(channels)
        assert whole.shape == (min(shape), trials)
        for cuts in ((0, 1, 700, SLICE + 703, trials), (0, SLICE - 1, SLICE + 1, trials), (0, 5, trials)):
            parts = [_gram_spectrum(channels[..., lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
            assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()
        strided = np.moveaxis(np.ascontiguousarray(trials_first(channels)), 0, -1)
        assert strided.strides[-1] != strided.itemsize and np.array_equal(strided, channels)
        assert _gram_spectrum(strided).tobytes() == whole.tobytes()

    def test_sq_norm_matches_real_imag_form(self):
        # Squares of the float view, added in (re², im²) pairs, are the same
        # operations in the same order as the real/imaginary form, on every
        # layout the kernels pass: whole stacks, swapaxes views, single
        # vectors of those and slices of trials.
        def reference(x):
            return np.sum(x.real**2 + x.imag**2, axis=-2)

        channels = _draw("H1", (3, 4), 7, SLICE + 9)
        vectors = channels.swapaxes(0, 1)
        layouts = [channels, vectors, vectors[1], channels[0], channels[:, :2].swapaxes(0, 1)]
        layouts += [x[..., 3:SLICE + 5] for x in layouts] + [vectors[..., -1:]]
        for x in layouts:
            assert _sq_norm(x).tobytes() == reference(x).tobytes()

    def test_spectrum_peak_is_lambda_plus_slices(self):
        # λ is one (3, trials) float array, and the rest is per slice. With R
        # one (4, SLICE) complex residual, side 3 holds at most three
        # residuals at once (v⊥, w⊥ and the one being made), plus _inner's
        # conjugate copy or _sq_norm's squares (1.5 R) and about a dozen
        # (SLICE,) float rows (1.5 R): about 6 R. The bound allows 8 R. The
        # whole-run kernel this replaced held (4, trials) temporaries, over
        # 27 R here.
        channels = _draw("H1", (3, 4), 7, 10_000)
        _gram_spectrum(channels[..., :10])  # numpy sets up its ufunc and einsum loops once
        tracemalloc.start()
        try:
            lam = _gram_spectrum(channels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= lam.nbytes + 8 * 4 * SLICE * np.dtype(complex).itemsize

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


class TestZeroForcing:
    CONFIG = IcConfig(2, 1, 2, 3)

    def draws(self, seed, trials=1):
        return draw_all(_network_dims(self.CONFIG), seed, trials)

    def test_silenced_interferer_matches_plain_rate(self):
        stacked = self.draws(11)
        spec = SchemeSpec("receiver-zero-forcing", streams=(1, 0))
        r1, r2 = kernel(spec, stacked, self.CONFIG, 100.0)
        plain, _ = kernel(P2P, {"H11": stacked["H11"][:, :1]}, IcConfig(1, 1, 2, 3), 100.0)
        assert r1[0] == pytest.approx(plain[0], abs=1e-12)
        assert r2[0] == 0.0

    def test_projection_keeps_rate_positive_and_monotone(self):
        stacked = self.draws(11, trials=2)
        rates = [kernel(ZF, stacked, self.CONFIG, p) for p in (1, 10, 100)]
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

    def draws(self, seed, trials=1):
        return draw_all(_network_dims(self.CONFIG), seed, trials)

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
        stacked = self.draws(3)
        spec = SchemeSpec("ia-power-scaling", beams=0)
        r1, r2 = kernel(spec, stacked, self.CONFIG, 100.0)
        h = stacked["H11"][0, 0, 0]
        assert r1[0] == pytest.approx(math.log2(1 + 100.0 * abs(h) ** 2), abs=1e-12)
        assert r2[0] == 0.0

    def test_full_exponent_kills_user_one_slope(self):
        spec = SchemeSpec("ia-power-scaling", power_exponent=1.0)
        est = fit_slope(simulate_scheme(spec, self.CONFIG, (30, 40, 50, 60), 2000, 7))
        assert abs(est.d1_hat) < 0.1
        # user 2 now rides full power, slope still M2 * exponent-free
        assert est.d2_hat == pytest.approx(3.0, abs=0.15)

    def test_monotone_in_power(self):
        stacked = self.draws(3)
        rates = [kernel(IA, stacked, self.CONFIG, p) for p in (10, 100, 1000)]
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
        stacked = draw_all(_network_dims(config), 5, 10)
        rates = _SCHEMES["time-division"](config, SchemeSpec("time-division", tau=tau), GRID, stacked.__getitem__)
        assert rates[idle] is None
        assert rates[1 - idle] is not None


class TestCappedContrast:
    # sha256 of trace_to_csv(capped_tdm_trace(...)) at 2*BLOCK + 7 trials,
    # seed 7, recorded from the two-run form: solo point-to-point traces on
    # the nominal and the half-dB grid, joined at tau = 1/2 after reduction.
    # The second grid's half-dB points 10 and 20 lie on it. Re-recorded when
    # each link moved to its own SFC64 substreams.
    BATTERY_GRID = (30.0, 40.0, 50.0, 60.0, 70.0)
    GOLDEN = [
        (BcConfig(4, 2, 3), BATTERY_GRID, "90521d4ccdd10b48dceb86e5e889c6a9cc83baf99bbfe5df41e60db1c4447a4f"),
        (IcConfig(1, 3, 1, 4), BATTERY_GRID, "efcb8de61b861b2aeb28cef86cc1a6da8bbb5a8f3159984f7f7c15dcd4b701fb"),
        (BcConfig(4, 2, 3), (10.0, 20.0, 30.0, 40.0), "fca728e9250e764651f709ff05b0dc8a0a729c72fde44ed345c339ca3f01c912"),
    ]
    IDS = ["bc-423", "ic-1314", "bc-423-overlap"]

    @pytest.mark.parametrize("config, grid, digest", GOLDEN, ids=IDS)
    def test_capped_trace_golden(self, config, grid, digest):
        trace = load_battery_script().capped_tdm_trace(config, grid, 2 * BLOCK + 7, 7)
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
        load_battery_script().capped_tdm_trace(config, grid, 2 * BLOCK + 7, 7)
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
        trials = 2 * BLOCK + 7
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
    # sha256 of each kind's trace_to_csv at 2*BLOCK + 7 trials, seed 7.
    # Point-to-point's is the trace the threaded drivers wrote at thread
    # counts 1 and 3 alike. The others were recorded on the same draws once
    # Gram side 3 and zero-forcing took Gram-Schmidt kernels, within
    # 4.0e-16 relative of the threaded drivers' traces. Time division's was
    # re-recorded once it scaled per-trial rates by tau = 0.3 before the
    # reduction, within 3.4e-16 relative of the reduced-then-scaled trace.
    # Isotropic input's was re-recorded once it became point-to-point on the
    # served user's link; it is that user's point-to-point trace. All five
    # were re-recorded when each link moved to its own SFC64 substreams.
    ACROSS_BLOCKS = {
        "point-to-point": "df4a2f889cfdccdb7725306383c20c51bc02a619862546020eb36964193470ae",
        "time-division": "9ab348291fd6aa4103f77c0e213e0ab323e5ea25613231395c715ab05634e509",
        "receiver-zero-forcing": "ff93080157d074eb51636b3462c2b7abefd11f571cae629f36e56ea7727c4de5",
        "ia-power-scaling": "cb89f283021b40270b6e58852ea3fad1a5d2778629e369c1d693049796a869ad",
        "isotropic-bc": "ff794e2132c47c09f8d204eb29b8192e03e374e89affdd0ff0b6102dcf1ea4c1",
    }

    @pytest.mark.parametrize("spec, config", ONE_OF_EACH, ids=[s.kind for s, _ in ONE_OF_EACH])
    def test_every_scheme_thread_invariant_across_blocks(self, spec, config):
        # Three blocks, the last one partial: the one-thread draws give the
        # trace every thread count used to give, bit for bit.
        trace = simulate_scheme(spec, config, GRID, 2 * BLOCK + 7, 7)
        digest = hashlib.sha256(trace_to_csv(trace).encode()).hexdigest()
        assert digest == self.ACROSS_BLOCKS[spec.kind]

    def test_thread_cases_cover_every_kind(self):
        assert {s.kind for s, _ in ONE_OF_EACH} == set(SCHEME_KINDS)

    def test_threads_env_var_is_ignored(self, monkeypatch):
        # Draws run on one thread; there is no thread count to set.
        monkeypatch.delenv("MIMODOF_THREADS", raising=False)
        unset = simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7)
        monkeypatch.setenv("MIMODOF_THREADS", "0")
        assert simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7) == unset
        with pytest.raises(TypeError):
            simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7, threads=1)

    def test_solo_users_share_draws(self):
        # Both solos see the same trial matrices, only different links.
        config = BcConfig(3, 2, 2)
        solo1 = solo(config, 1, GRID, 100, 13)
        solo2 = solo(config, 2, GRID, 100, 13)
        assert solo1.rate2 == (0.0,) * len(GRID)
        assert solo2.rate1 == (0.0,) * len(GRID)
        stacked = draw_all(_network_dims(config), 13, 100)
        powers = [_db_to_linear(snr) for snr in GRID]
        r1 = np.stack([kernel(P2P, stacked, config, p)[0] for p in powers])
        r2 = np.stack([kernel(SchemeSpec("point-to-point", user=2), stacked, config, p)[1] for p in powers])
        assert tuple(_mean_stderr(r1)[0]) == solo1.rate1
        assert tuple(_mean_stderr(r2)[0]) == solo2.rate2

    def test_scheme_dispatch(self):
        # The driver is the table kernel over one stacked draw, each user's
        # SNR points reduced together.
        config = IcConfig(2, 1, 2, 3)
        trace = simulate_scheme(ZF, config, GRID, 50, 7)
        stacked = draw_all(_network_dims(config), 7, 50)
        pairs = [kernel(ZF, stacked, config, _db_to_linear(snr)) for snr in GRID]
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
            (P2P, BcConfig(4, 2, 3), ["H1"]),
            (SchemeSpec("point-to-point", user=2), IcConfig(3, 2, 2, 4), ["H22"]),
            (SchemeSpec("isotropic-bc", user=2), BcConfig(4, 2, 3), ["H2"]),
            (SchemeSpec("time-division", tau=1.0), BcConfig(4, 2, 3), ["H1"]),
            (SchemeSpec("time-division", tau=0.0), BcConfig(4, 2, 3), ["H2"]),
            (SchemeSpec("time-division", tau=0.3), IcConfig(2, 3, 2, 3), ["H11", "H22"]),
            (IA, IcConfig(1, 3, 1, 4), ["H11", "H12", "H22"]),
            (ZF, IcConfig(2, 1, 2, 3), ["H11", "H12", "H21", "H22"]),
            (SchemeSpec("receiver-zero-forcing", streams=(0, 2)), IcConfig(1, 2, 1, 2), ["H21", "H22"]),
        ],
        ids=["p2p", "p2p-user2", "iso-user2", "tdm-tau1", "tdm-tau0", "tdm-tau0.3", "ia", "zf-1-1", "zf-0-2"],
    )
    def test_draws_only_the_links_the_scheme_reads(self, spec, config, links, monkeypatch):
        # Each link the scheme reads is drawn once, one substream per block
        # over three blocks; no other link is drawn.
        drawn = []
        sfc64 = np.random.SFC64
        monkeypatch.setattr(np.random, "SFC64", lambda seed: drawn.append(seed[1]) or sfc64(seed))
        simulate_scheme(spec, config, GRID, 2 * BLOCK + 7, 7)
        assert sorted(drawn) == [LINK_ORDER.index(link) for link in links for _ in range(3)]

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
