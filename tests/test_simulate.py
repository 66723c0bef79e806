"""Monte Carlo layer tests: draws, scheme kernels, the driver, CSV."""

import math

import numpy as np
import pytest

from mimodof import (
    BcConfig,
    GridMismatch,
    IcConfig,
    InfeasibleZf,
    RateTrace,
    SchemeShapeError,
    SchemeSpec,
    bc_link_dims,
    db_to_linear,
    fit_slope,
    ic_link_dims,
    simulate_scheme,
    tdm_rates,
    trace_from_csv,
    trace_to_csv,
)
from mimodof.simulate import SCHEME_KINDS, _SCHEMES, _mean_stderr, _stack_draws

GRID = (10.0, 20.0, 30.0)

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


def kernel(spec, stacked, config, power):
    """Per-trial rate pair of one scheme's table kernel."""
    return _SCHEMES[spec.kind].rates(stacked, config, spec, power)


def solo(config, user, grid, trials, seed, threads=None):
    spec = SchemeSpec("point-to-point", user=user)
    return simulate_scheme(spec, config, grid, trials, seed, threads)


class TestDraws:
    def test_deterministic_per_seed_and_trial(self):
        dims = ic_link_dims(IcConfig(2, 1, 2, 3))
        a = _stack_draws(dims, 7, 5)
        b = _stack_draws(dims, 7, 4)
        for link in dims:
            # Trial 3 is the same draw whatever the trial count around it.
            assert np.array_equal(a[link][3], b[link][3])
            assert not np.array_equal(a[link][3], a[link][4])
        other_seed = _stack_draws(dims, 8, 5)
        assert not np.array_equal(a["H11"], other_seed["H11"])

    def test_shapes(self):
        stacked = _stack_draws(bc_link_dims(BcConfig(4, 2, 3)), 0, 1)
        assert stacked["H1"].shape == (1, 2, 4)
        assert stacked["H2"].shape == (1, 3, 4)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            _stack_draws({"H": (1, 1)}, -1, 1)
        with pytest.raises(ValueError):
            _stack_draws({"H": (1, 1)}, 0, 0)

    def test_entry_statistics(self):
        # 1e5 independent scalar draws: mean, variance and the real/imag
        # correlation all sit within 3 sigma of their estimators.
        n = 100_000
        values = _stack_draws({"H": (1, 1)}, 123, n)["H"][:, 0, 0]
        assert abs(values.mean()) < 3.0 * math.sqrt(1.0 / n)
        var = np.mean(np.abs(values) ** 2)
        assert 0.99 < var < 1.01
        corr = np.mean(values.real * values.imag) / 0.5
        assert abs(corr) < 3.0 / math.sqrt(n)


class TestRatePrimitives:
    def test_scalar_rate_exact(self):
        one = np.ones((1, 1, 1), dtype=complex)
        r1, r2 = kernel(P2P, {"H1": one, "H2": one}, BcConfig(1, 1, 1), 3.0)
        assert r1[0] == pytest.approx(2.0, abs=1e-12)
        assert r2[0] == 0.0

    def test_orthonormal_rows_closed_form(self):
        H = np.eye(2, 4, dtype=complex)[None]
        # H H* = I, so the rate is 2 log2(1 + P/4) exactly.
        for p in (1.0, 10.0, 1000.0):
            r1, _ = kernel(P2P, {"H1": H, "H2": H}, BcConfig(4, 2, 2), p)
            assert r1[0] == pytest.approx(2 * math.log2(1 + p / 4), abs=1e-9)

    def test_monotone_in_power(self):
        config = BcConfig(2, 3, 1)
        stacked = _stack_draws(bc_link_dims(config), 5, 1)
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


class TestZeroForcing:
    CONFIG = IcConfig(2, 1, 2, 3)

    def draws(self, seed, trials=1):
        return _stack_draws(ic_link_dims(self.CONFIG), seed, trials)

    def test_silenced_interferer_matches_plain_rate(self):
        stacked = self.draws(11)
        spec = SchemeSpec("receiver-zero-forcing", streams=(1, 0))
        r1, r2 = kernel(spec, stacked, self.CONFIG, 100.0)
        plain, _ = kernel(P2P, {"H11": stacked["H11"][:, :, :1]}, IcConfig(1, 1, 2, 3), 100.0)
        assert r1[0] == pytest.approx(plain[0], abs=1e-12)
        assert r2[0] == 0.0

    def test_projection_keeps_rate_positive_and_monotone(self):
        stacked = self.draws(11, trials=2)
        rates = [kernel(ZF, stacked, self.CONFIG, p) for p in (1, 10, 100)]
        for r1, r2 in rates:
            assert r1[1] > 0 and r2[1] > 0
        assert all(b[0][1] > a[0][1] and b[1][1] > a[1][1] for a, b in zip(rates, rates[1:]))

    def test_infeasible_splits_rejected(self):
        for streams in ((2, 1), (1, 2), (-1, 1)):  # N1 = 2 < 3 streams; s2 > M2; negative
            with pytest.raises(InfeasibleZf):
                simulate_scheme(
                    SchemeSpec("receiver-zero-forcing", streams=streams), self.CONFIG, GRID, 10, 11
                )

    def test_driver_slopes(self):
        trace = simulate_scheme(ZF, self.CONFIG, (30, 40, 50, 60), 2000, 7)
        est = fit_slope(trace)
        assert est.d1_hat == pytest.approx(1.0, abs=0.1)
        assert est.d2_hat == pytest.approx(1.0, abs=0.1)


class TestAlignmentScheme:
    CONFIG = IcConfig(1, 3, 1, 4)

    def draws(self, seed, trials=1):
        return _stack_draws(ic_link_dims(self.CONFIG), seed, trials)

    def test_shape_validation(self):
        with pytest.raises(SchemeShapeError):
            simulate_scheme(IA, IcConfig(2, 3, 2, 4), GRID, 10, 3)
        with pytest.raises(SchemeShapeError):
            simulate_scheme(IA, IcConfig(1, 4, 1, 4), GRID, 10, 3)
        with pytest.raises(SchemeShapeError):
            simulate_scheme(IA, BcConfig(1, 1, 4), GRID, 10, 3)

    def test_beams_out_of_range_rejected(self):
        with pytest.raises(SchemeShapeError):
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


class TestTimeDivision:
    def test_endpoints(self):
        solo1 = solo(BcConfig(2, 1, 2), 1, GRID, 100, 5)
        solo2 = solo(BcConfig(2, 1, 2), 2, GRID, 100, 5)
        full = tdm_rates(solo1, solo2, 1.0)
        assert full.rate1 == solo1.rate1
        assert full.rate2 == (0.0,) * len(GRID)
        handoff = tdm_rates(solo1, solo2, 0.0)
        assert handoff.rate2 == solo2.rate2
        assert handoff.rate1 == (0.0,) * len(GRID)

    def test_grid_mismatch_rejected(self):
        solo1 = solo(BcConfig(2, 1, 2), 1, GRID, 50, 5)
        solo2 = solo(BcConfig(2, 1, 2), 2, (10.0, 20.0), 50, 5)
        with pytest.raises(GridMismatch):
            tdm_rates(solo1, solo2, 0.5)

    def test_bad_tau_rejected(self):
        one = solo(BcConfig(2, 1, 2), 1, GRID, 50, 5)
        with pytest.raises(ValueError):
            tdm_rates(one, one, 1.5)

    def test_driver_matches_combiner(self):
        config = IcConfig(2, 2, 2, 2)
        direct = simulate_scheme(SchemeSpec("time-division", tau=0.25), config, GRID, 200, 9)
        composed = tdm_rates(solo(config, 1, GRID, 200, 9), solo(config, 2, GRID, 200, 9), 0.25)
        assert direct == composed


class TestIsotropicInput:
    SPEC = SchemeSpec("isotropic-bc")

    def test_vanishing_power_limit(self):
        trace = simulate_scheme(self.SPEC, BcConfig(4, 1, 1), (-90.0,), 200, 1)
        assert trace.rate1[0] < 1e-6

    def test_mean_below_deterministic_benchmark(self):
        # The random isotropic input loses to n log2(1 + P) at finite SNR.
        trace = simulate_scheme(self.SPEC, BcConfig(4, 1, 1), (20.0,), 3000, 2)
        assert trace.rate1[0] < math.log2(1 + db_to_linear(20.0))

    def test_driver_deterministic(self):
        a = simulate_scheme(self.SPEC, BcConfig(4, 2, 2), GRID, 100, 7)
        b = simulate_scheme(self.SPEC, BcConfig(4, 2, 2), GRID, 100, 7)
        assert a == b


class TestTraces:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateTrace((20.0, 10.0), (1, 1), (0, 0), (1, 1), (0, 0), 10, 0)
        with pytest.raises(ValueError):
            RateTrace((10.0,), (1, 2), (0,), (1,), (0,), 10, 0)
        with pytest.raises(ValueError):
            RateTrace((10.0,), (-1,), (0,), (1,), (0,), 10, 0)
        with pytest.raises(ValueError):
            RateTrace((10.0,), (1,), (0,), (1,), (0,), 0, 0)

    def test_csv_round_trip(self):
        trace = simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 64, 3)
        text = trace_to_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "snr_db,rate1,stderr1,rate2,stderr2,trials"
        assert len(lines) == 1 + len(GRID)
        again = trace_from_csv(text, seed=trace.seed)
        assert again.snr_db == trace.snr_db
        for a, b in zip(again.rate1, trace.rate1):
            assert a == pytest.approx(b, rel=1e-11)
        assert again.trials == trace.trials

    def test_csv_rejects_garbage(self):
        with pytest.raises(ValueError):
            trace_from_csv("nope\n1,2,3")


class TestDrivers:
    def test_thread_count_does_not_change_results(self):
        one = simulate_scheme(ZF, IcConfig(2, 1, 2, 3), GRID, 500, 7, threads=1)
        four = simulate_scheme(ZF, IcConfig(2, 1, 2, 3), GRID, 500, 7, threads=4)
        assert one == four
        solo_one = simulate_scheme(P2P, BcConfig(3, 2, 1), GRID, 500, 7, threads=1)
        solo_three = simulate_scheme(P2P, BcConfig(3, 2, 1), GRID, 500, 7, threads=3)
        assert solo_one == solo_three

    @pytest.mark.parametrize("spec, config", ONE_OF_EACH, ids=[s.kind for s, _ in ONE_OF_EACH])
    def test_every_scheme_thread_invariant(self, spec, config):
        one = simulate_scheme(spec, config, GRID, 301, 7, threads=1)
        three = simulate_scheme(spec, config, GRID, 301, 7, threads=3)
        assert one == three

    def test_thread_cases_cover_every_kind(self):
        assert {s.kind for s, _ in ONE_OF_EACH} == set(SCHEME_KINDS)

    def test_env_var_sets_default_threads(self, monkeypatch):
        monkeypatch.setenv("MIMODOF_THREADS", "2")
        a = simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7)
        monkeypatch.setenv("MIMODOF_THREADS", "1")
        b = simulate_scheme(P2P, BcConfig(2, 2, 2), GRID, 200, 7)
        assert a == b

    def test_solo_users_share_draws(self):
        # Both solos see the same trial matrices, only different links.
        config = BcConfig(3, 2, 2)
        solo1 = solo(config, 1, GRID, 100, 13)
        solo2 = solo(config, 2, GRID, 100, 13)
        assert solo1.rate2 == (0.0,) * len(GRID)
        assert solo2.rate1 == (0.0,) * len(GRID)
        stacked = _stack_draws(bc_link_dims(config), 13, 100)
        for i, snr in enumerate(GRID):
            r1, _ = kernel(P2P, stacked, config, db_to_linear(snr))
            _, r2 = kernel(SchemeSpec("point-to-point", user=2), stacked, config, db_to_linear(snr))
            assert _mean_stderr(r1)[0] == solo1.rate1[i]
            assert _mean_stderr(r2)[0] == solo2.rate2[i]

    def test_scheme_dispatch(self):
        # The driver is the table kernel over one stacked draw, reduced per
        # SNR point.
        config = IcConfig(2, 1, 2, 3)
        trace = simulate_scheme(ZF, config, GRID, 50, 7)
        stacked = _stack_draws(ic_link_dims(config), 7, 50)
        for i, snr in enumerate(GRID):
            r1, r2 = kernel(ZF, stacked, config, db_to_linear(snr))
            assert (trace.rate1[i], trace.stderr1[i]) == _mean_stderr(r1)
            assert (trace.rate2[i], trace.stderr2[i]) == _mean_stderr(r2)
        with pytest.raises(SchemeShapeError):
            simulate_scheme(ZF, BcConfig(2, 2, 2), GRID, 10, 7)

    def test_isotropic_dispatch_reslots_user_two(self):
        spec = SchemeSpec(kind="isotropic-bc", user=2)
        trace = simulate_scheme(spec, BcConfig(4, 2, 3), GRID, 50, 7)
        assert trace.rate1 == (0.0,) * len(GRID)
        assert all(r > 0 for r in trace.rate2)
        # Only the served receiver's antenna count enters the rate.
        mirror = simulate_scheme(SchemeSpec(kind="isotropic-bc"), BcConfig(4, 3, 2), GRID, 50, 7)
        assert (trace.rate2, trace.stderr2) == (mirror.rate1, mirror.stderr1)
        tall = SchemeSpec(kind="isotropic-bc", user=1)
        with pytest.raises(SchemeShapeError):
            simulate_scheme(tall, BcConfig(2, 3, 2), GRID, 10, 7)

    def test_scheme_spec_validation(self):
        with pytest.raises(ValueError):
            SchemeSpec(kind="magic")
        with pytest.raises(ValueError):
            SchemeSpec(kind="time-division", tau=2.0)
        with pytest.raises(ValueError):
            SchemeSpec(kind="point-to-point", user=3)

    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(30.0) == pytest.approx(1000.0)
