"""Monte Carlo rate simulation for two-user MIMO fading networks.

Channels are i.i.d. circularly symmetric complex Gaussian with unit entry
variance, redrawn per trial. Reproducibility contract: every trial owns the
substream ``default_rng([seed, trial])``, matrices are drawn in a fixed link
order, and per-SNR averages are reduced with ``math.fsum``, which is exactly
rounded and therefore independent of accumulation order. Results are
bit-identical for any thread count.

Each scheme is one entry of a table keyed by ``SchemeSpec.kind``: the links
it draws, a shape check, and a kernel that maps the stacked draws and one
linear power to per-trial rates for both users. ``simulate_scheme`` is the
single driver. It checks the grid and the scheme before any draw, draws
every trial once, evaluates the kernel at each SNR point and reduces.

Rates are log-det mutual informations in bits. Gram matrices pass a
Hermitian-symmetry check (relative tolerance 1e-12) before the Cholesky
factorization that evaluates the determinant.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .catalog import BcConfig, IcConfig

__all__ = [
    "HERMITIAN_TOL", "THREADS_ENV", "SCHEME_KINDS",
    "SimulationError", "InfeasibleZf", "SchemeShapeError", "GridMismatch",
    "SchemeSpec", "RateTrace", "db_to_linear", "bc_link_dims", "ic_link_dims",
    "tdm_rates", "trace_to_csv", "trace_from_csv", "simulate_scheme",
]

HERMITIAN_TOL = 1e-12
THREADS_ENV = "MIMODOF_THREADS"

CSV_HEADER = "snr_db,rate1,stderr1,rate2,stderr2,trials"


class SimulationError(Exception):
    """Base class for simulation failures."""


class InfeasibleZf(SimulationError):
    """Requested stream split cannot be zero-forced at some receiver."""


class SchemeShapeError(SimulationError):
    """Antenna configuration does not fit the requested scheme."""


class GridMismatch(SimulationError):
    """Two traces to be combined were run on different SNR grids."""


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (float(snr_db) / 10.0)


def bc_link_dims(config: BcConfig) -> dict[str, tuple[int, int]]:
    """Broadcast link shapes, in canonical draw order."""
    return {"H1": (config.N1, config.M), "H2": (config.N2, config.M)}


def ic_link_dims(config: IcConfig) -> dict[str, tuple[int, int]]:
    """Interference link shapes, in canonical draw order. Hji is the matrix
    from transmitter i to receiver j, of shape Nj x Mi."""
    return {
        "H11": (config.N1, config.M1), "H12": (config.N1, config.M2),
        "H21": (config.N2, config.M1), "H22": (config.N2, config.M2),
    }


def _hermitian_part(gram: np.ndarray) -> np.ndarray:
    adjoint = gram.conj().swapaxes(-1, -2)
    asym = float(np.max(np.abs(gram - adjoint))) if gram.size else 0.0
    scale = max(1.0, float(np.max(np.abs(gram)))) if gram.size else 1.0
    if asym > HERMITIAN_TOL * scale:
        raise SimulationError(f"Gram matrix lost Hermitian symmetry (deviation {asym:.3e})")
    return 0.5 * (gram + adjoint)


def _log2det_eye_plus(gram: np.ndarray) -> np.ndarray:
    """log2 det(I + G) for a stack of PSD matrices, via Cholesky."""
    k = gram.shape[-1]
    if k == 0:
        return np.zeros(gram.shape[:-2])
    herm = _hermitian_part(gram)
    eye = np.eye(k, dtype=herm.dtype)
    chol = np.linalg.cholesky(eye + herm)
    diag = np.real(np.diagonal(chol, axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.log2(diag), axis=-1)


def _capacity_log2det(channels: np.ndarray, scale: float) -> np.ndarray:
    """log2 det(I + scale * H H*) for stacked channels, evaluated on the
    smaller Gram side."""
    rows, cols = channels.shape[-2:]
    if rows == 0 or cols == 0:
        return np.zeros(channels.shape[:-2])
    adjoint = channels.conj().swapaxes(-1, -2)
    if cols < rows:
        gram = scale * np.matmul(adjoint, channels)
    else:
        gram = scale * np.matmul(channels, adjoint)
    return _log2det_eye_plus(gram)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    # fsum is exactly rounded, so the reduction is independent of trial
    # order and of how trials were distributed over threads.
    count = len(values)
    mean = math.fsum(values) / count
    if count < 2:
        return mean, 0.0
    var = math.fsum((float(v) - mean) ** 2 for v in values) / (count - 1)
    return mean, math.sqrt(var / count)


def _validate_grid(snr_db: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(s) for s in snr_db)
    if not grid:
        raise ValueError("SNR grid must be nonempty")
    if not all(math.isfinite(s) for s in grid):
        raise ValueError(f"SNR grid points must be finite, got {list(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly ascending")
    return grid


@dataclass(frozen=True)
class RateTrace:
    """Average per-user rates over an ascending SNR grid."""

    snr_db: tuple[float, ...]
    rate1: tuple[float, ...]
    stderr1: tuple[float, ...]
    rate2: tuple[float, ...]
    stderr2: tuple[float, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        grid = _validate_grid(self.snr_db)
        columns = {}
        for name in ("rate1", "stderr1", "rate2", "stderr2"):
            col = tuple(float(v) for v in getattr(self, name))
            if len(col) != len(grid):
                raise ValueError(f"{name} length does not match the SNR grid")
            if any(not math.isfinite(v) or v < 0 for v in col):
                raise ValueError(f"{name} entries must be finite and nonnegative")
            columns[name] = col
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "snr_db", grid)
        for name, col in columns.items():
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.snr_db)


def trace_to_csv(trace: RateTrace) -> str:
    """CSV export, one row per SNR point, 12 significant digits."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for i, snr in enumerate(trace.snr_db):
        row = (snr, trace.rate1[i], trace.stderr1[i], trace.rate2[i], trace.stderr2[i])
        out.write(",".join(f"{v:.12g}" for v in row) + f",{trace.trials}\n")
    return out.getvalue()


def trace_from_csv(text: str, seed: int = 0) -> RateTrace:
    """Parse the CSV export. The seed is not part of the wire format, so
    callers that care must supply it."""
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    columns: list[list[float]] = [[] for _ in range(5)]
    trials = None
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed row {line!r}")
        for col, part in zip(columns, parts[:5]):
            col.append(float(part))
        trials = int(parts[5])
    if trials is None:
        raise ValueError("no data rows")
    # Columns follow the field order snr_db, rate1, stderr1, rate2, stderr2.
    return RateTrace(*(tuple(col) for col in columns), trials=trials, seed=seed)


def tdm_rates(trace1: RateTrace, trace2: RateTrace, tau: float) -> RateTrace:
    """Time division: user 1 is served a fraction tau of the time at full
    power, user 2 the rest. Operates on two solo traces from the same grid."""
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if trace1.snr_db != trace2.snr_db:
        raise GridMismatch("solo traces were run on different SNR grids")
    return RateTrace(
        snr_db=trace1.snr_db,
        rate1=tuple(tau * r for r in trace1.rate1),
        stderr1=tuple(tau * s for s in trace1.stderr1),
        rate2=tuple((1.0 - tau) * r for r in trace2.rate2),
        stderr2=tuple((1.0 - tau) * s for s in trace2.stderr2),
        trials=min(trace1.trials, trace2.trials),
        seed=trace1.seed,
    )


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        threads = int(os.environ.get(THREADS_ENV, "1"))
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    return threads


def _stack_draws(
    link_dims: Mapping[str, tuple[int, int]],
    seed: int,
    trials: int,
    threads: Optional[int] = None,
) -> dict[str, np.ndarray]:
    """Draw every trial as stacked (trials, rows, cols) arrays.

    Entries are CN(0, 1): independent real and imaginary parts of variance
    one half each. Trial t draws its links in the mapping's iteration order
    from ``default_rng([seed, t])``, so splitting the loop over threads
    changes nothing about the values, only who fills the slot.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    threads = _resolve_threads(threads)
    stacked = {
        name: np.empty((trials, rows, cols), dtype=complex)
        for name, (rows, cols) in link_dims.items()
    }

    def fill(lo: int, hi: int) -> None:
        for t in range(lo, hi):
            rng = np.random.default_rng([seed, t])
            for name, (rows, cols) in link_dims.items():
                re = rng.standard_normal((rows, cols))
                im = rng.standard_normal((rows, cols))
                stacked[name][t] = (re + 1j * im) / math.sqrt(2.0)

    if threads == 1:
        fill(0, trials)
    else:
        chunk = -(-trials // threads)
        bounds = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(fill, lo, hi) for lo, hi in bounds]:
                future.result()
    return stacked


# --- scheme table ----------------------------------------------------------
# An entry is link_dims(config, spec) -> links to draw, check(config, spec,
# grid) -> raises before any draw if the scheme does not fit, the kernel
# rates(stacked, config, spec, power) -> per-trial rates of both users, and
# finish(trace, spec) applied to the reduced trace. Single-user kernels fill
# the served user's column and leave zeros in the other.


def _network_dims(config, spec) -> dict[str, tuple[int, int]]:
    # The whole network is drawn even when one link is used, so every
    # scheme on a configuration sees the same channel realizations.
    if isinstance(config, BcConfig):
        return bc_link_dims(config)
    if isinstance(config, IcConfig):
        return ic_link_dims(config)
    raise TypeError(f"expected BcConfig or IcConfig, got {type(config).__name__}")


def _any_network(config, spec, grid) -> None:
    """Point-to-point and time division run on every configuration."""


def _served(user: int, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zeros = np.zeros(rates.shape)
    return (rates, zeros) if user == 1 else (zeros, rates)


def _solo_rate(stacked, config, user: int, power: float) -> np.ndarray:
    # Full power P over the user's direct link, P/m per transmit antenna.
    link = f"H{user}" if isinstance(config, BcConfig) else f"H{user}{user}"
    channels = stacked[link]
    return _capacity_log2det(channels, power / channels.shape[-1])


def _point_to_point(stacked, config, spec, power):
    return _served(spec.user, _solo_rate(stacked, config, spec.user, power))


def _time_division(stacked, config, spec, power):
    return _solo_rate(stacked, config, 1, power), _solo_rate(stacked, config, 2, power)


def _tdm_share(trace: RateTrace, spec) -> RateTrace:
    # tau scales the reduced means, not the per-trial rates, so the trace is
    # exactly tdm_rates of the two solo traces.
    return tdm_rates(trace, trace, spec.tau)


def _as_reduced(trace: RateTrace, spec) -> RateTrace:
    return trace


def _require(config, kind: type, message: str) -> None:
    if not isinstance(config, kind):
        raise SchemeShapeError(message)


def _zf_check(config, spec, grid) -> None:
    _require(config, IcConfig, "receiver zero-forcing runs on interference configs")
    s1, s2 = spec.streams
    for name, s, m in (("s1", s1, config.M1), ("s2", s2, config.M2)):
        if not isinstance(s, int) or isinstance(s, bool) or s < 0:
            raise InfeasibleZf(f"{name} must be a nonnegative integer")
        if s > m:
            raise InfeasibleZf(f"{name}={s} exceeds the transmitter's {m} antennas")
    total = s1 + s2
    if total > config.N1 or total > config.N2:
        raise InfeasibleZf(
            f"receivers need at least {total} antennas to zero-force "
            f"{s1}+{s2} streams, have N1={config.N1}, N2={config.N2}"
        )


def _zf_user_rates(own: np.ndarray, cross: np.ndarray, s_own: int, s_int: int, power: float) -> np.ndarray:
    # own: (..., N, M_own) link to this receiver, cross: (..., N, M_int)
    # interference link. Project onto the orthocomplement of the first s_int
    # interfering beams, then decode s_own own beams in white noise.
    if s_own == 0:
        return np.zeros(own.shape[:-2])
    beams = own[..., :, :s_own]
    if s_int > 0:
        q, _ = np.linalg.qr(cross[..., :, :s_int], mode="complete")
        basis = q[..., :, s_int:]
        effective = np.matmul(basis.conj().swapaxes(-1, -2), beams)
    else:
        effective = beams
    return _capacity_log2det(effective, power / s_own)


def _zero_forcing(stacked, config, spec, power):
    """Transmitter i sends si streams on its first si antennas at power
    P/si each; receiver i projects out the other user's streams and decodes
    its own. With s_int = 0 the projection is the identity."""
    s1, s2 = spec.streams
    return (
        _zf_user_rates(stacked["H11"], stacked["H12"], s1, s2, power),
        _zf_user_rates(stacked["H22"], stacked["H21"], s2, s1, power),
    )


def _ia_beams(config: IcConfig, spec) -> int:
    return config.M2 if spec.beams is None else spec.beams


def _ia_check(config, spec, grid) -> None:
    _require(config, IcConfig, "the alignment scheme runs on interference configs")
    if not (config.M1 == 1 and config.N1 == 1 and config.M2 <= config.N2 - 1):
        raise SchemeShapeError(
            "interference-alignment power scaling needs M1 = N1 = 1 and "
            f"M2 <= N2 - 1, got {config}"
        )
    nb = _ia_beams(config, spec)
    if not isinstance(nb, int) or isinstance(nb, bool) or nb < 0 or nb > config.M2:
        raise SchemeShapeError(f"beams must be in [0, {config.M2}], got {spec.beams!r}")
    # Interference at P**exponent only shrinks relative to P when P > 1.
    if any(db_to_linear(snr) <= 1.0 for snr in grid):
        raise ValueError("power scaling schemes need every grid point above 0 dB")


def _alignment(stacked, config, spec, power):
    """User 1 sends a single stream at full power P; user 2 sends ``beams``
    streams at P**power_exponent each. Receiver 1 treats the scaled
    interference as noise; receiver 2 has enough antennas to decode
    everything and is credited the joint log-det rate of its own streams."""
    nb = _ia_beams(config, spec)
    beam_power = power ** float(spec.power_exponent)
    gain = np.abs(stacked["H11"][:, 0, 0]) ** 2
    cross_gain = np.sum(np.abs(stacked["H12"][:, 0, :nb]) ** 2, axis=-1)
    r1 = np.log2(1.0 + power * gain / (1.0 + beam_power * cross_gain))
    return r1, _capacity_log2det(stacked["H22"][:, :, :nb], beam_power)


def _iso_rx(config: BcConfig, user: int) -> int:
    return config.N1 if user == 1 else config.N2


def _iso_dims(config, spec) -> dict[str, tuple[int, int]]:
    return {"Q": (config.M, config.M)}


def _iso_check(config, spec, grid) -> None:
    _require(config, BcConfig, "the isotropic input scheme runs on broadcast configs")
    if _iso_rx(config, spec.user) > config.M:
        raise SchemeShapeError("isotropic input needs the served receiver to have at most M antennas")


def _isotropic(stacked, config, spec, power):
    """The fixed channel H = [I 0] has orthonormal rows and sees a fresh
    complex Gaussian M x M mixing matrix Q per trial, so the input
    covariance (P/M) Q Q* is isotropic in expectation. H Q is the first n
    rows of Q."""
    n = _iso_rx(config, spec.user)
    return _served(spec.user, _capacity_log2det(stacked["Q"][:, :n, :], power / config.M))


class _Scheme(NamedTuple):
    link_dims: Callable
    check: Callable
    rates: Callable
    finish: Callable = _as_reduced


_SCHEMES = {
    "point-to-point": _Scheme(_network_dims, _any_network, _point_to_point),
    "time-division": _Scheme(_network_dims, _any_network, _time_division, _tdm_share),
    "receiver-zero-forcing": _Scheme(_network_dims, _zf_check, _zero_forcing),
    "ia-power-scaling": _Scheme(_network_dims, _ia_check, _alignment),
    "isotropic-bc": _Scheme(_iso_dims, _iso_check, _isotropic),
}

SCHEME_KINDS = tuple(_SCHEMES)


@dataclass(frozen=True)
class SchemeSpec:
    """A transmission scheme plus its parameters.

    Unused parameters are ignored by the dispatcher: tau only matters for
    time division, streams for zero-forcing, beams and power_exponent for
    the alignment scheme, user for the single-user schemes.
    """

    kind: str
    tau: float = 0.5
    streams: tuple[int, int] = (1, 1)
    beams: Optional[int] = None
    power_exponent: float = 0.5
    user: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not 0.0 <= float(self.tau) <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.user not in (1, 2):
            raise ValueError("user must be 1 or 2")
        if len(self.streams) != 2:
            raise ValueError("streams must be a pair")

    def to_dict(self) -> dict:
        return {**asdict(self), "streams": list(self.streams)}


def simulate_scheme(
    spec: SchemeSpec,
    config,
    snr_db: Sequence[float],
    trials: int,
    seed: int,
    threads: Optional[int] = None,
) -> RateTrace:
    """Run one scheme on one network configuration.

    The grid and the scheme's fit to the configuration are checked before
    any draw. Every trial is drawn once and shared by all SNR points.
    """
    scheme = _SCHEMES[spec.kind]
    grid = _validate_grid(snr_db)
    scheme.check(config, spec, grid)
    stacked = _stack_draws(scheme.link_dims(config, spec), seed, trials, threads)
    columns = ([], [], [], [])  # rate1, stderr1, rate2, stderr2
    for snr in grid:
        r1, r2 = scheme.rates(stacked, config, spec, db_to_linear(snr))
        for column, value in zip(columns, _mean_stderr(r1) + _mean_stderr(r2)):
            column.append(value)
    trace = RateTrace(grid, *columns, trials=trials, seed=seed)
    return scheme.finish(trace, spec)
