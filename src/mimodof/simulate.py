"""Monte Carlo rate simulation for two-user MIMO fading networks.

Channels are i.i.d. circularly symmetric complex Gaussian with unit entry
variance, redrawn per trial, and every rate a scheme credits is a log-det
over small, independent Wishart matrices. So no channel is drawn and no
eigenvalue is taken: each rate reads the independent Gamma variates of the
bidiagonal model of its Wishart matrix (Dumitriu and Edelman, "Matrix
models for beta ensembles", J. Math. Phys. 43(11), 2002), and the traces
come from a model that is exact in law, not from channel draws.

Reproducibility contract: each row of a link's Gamma variates has its own
substream. Row r of link ℓ owns ``SFC64([seed, ℓ, r])`` and fills its
trials one after another, and per-SNR averages are exactly rounded sums,
which do not depend on the order of accumulation. A trial's draws do not
depend on the trial count, a link's draws do not depend on which other
links are drawn, and a row's draws depend only on (seed, link, row,
shape). A trace is bit-identical within one numpy build. As measured with
numpy 2.4 on x86-64, the draws are also the same with numpy held to its
X86_V2 baseline as with its AVX-512 targets, but a trial's rate can move by
an ulp there, since ``np.log2`` has its own kernel at each level. Draws are
trials-last: each link is a (variates, trials) array, so every kernel works
on contiguous rows of trials.

Each scheme is one call in a table keyed by ``SchemeSpec.kind``,
scheme(config, spec, grid, draw): it raises if the scheme does not fit the
configuration, spec and grid before it first calls draw(link, shapes), then
reads the Gamma variates of each link it needs and returns one per-point
rate evaluator per user. ``simulate_scheme`` is the single driver. It
checks the trial count, the seed and the grid before any draw and calls the
scheme once; a link is drawn when the scheme reads it, and only then, so
every scheme that reads a link with the same shapes sees the same draws.
Each served user's rates at every SNR point then form one (points, trials)
array, and all its rows are reduced at once by error-free extraction
(``_exact_row_sums``). The passes stop as soon as a float sum of what is
left, give or take its worst-case error, can no longer move any row's
rounding, so each sum still equals ``math.fsum`` of its row bit for bit;
on the acceptance battery at 300 and 10⁴ trials, the means and the squared
deviations take one pass each. numpy is imported at a run's first draw, so
geometry, the CLI's ``region``, ``classify`` and ``compare`` commands and
the region atlas never load it.

Rates are log-det mutual informations in bits, τ·log2 det(I + c·P·HH*) for
the link's power share c and time share τ. ``_log_det_rate`` evaluates one
from its Gamma variates by bottom-up pivots, all of them positive, at each
point.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import BcConfig, IcConfig, _integer


class _LazyNumpy:
    """Stands in for numpy until the first attribute read on ``np``, which
    imports numpy and rebinds this module's ``np`` to it, so later reads
    cost what a module-level import costs."""

    def __getattr__(self, name: str):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

__all__ = [
    "SCHEME_KINDS", "SimulationError",
    "SchemeSpec", "RateTrace", "trace_to_csv", "trace_from_csv", "simulate_scheme",
]

CSV_HEADER = "snr_db,rate1,stderr1,rate2,stderr2,trials"


class SimulationError(ValueError):
    """A scheme that does not fit its configuration, or rates that cannot be reduced."""


def _db_to_linear(snr_db: float) -> float:
    return 10.0 ** (float(snr_db) / 10.0)


def _wishart(rows: int, cols: int) -> list[int]:
    """Gamma shapes of the bidiagonal model of HH* for an i.i.d. CN(0, 1)
    rows x cols H, with n = min(rows, cols) and m = max(rows, cols): the
    squared diagonal d², Gamma(m), ..., Gamma(m - n + 1), then the squared
    off-diagonal e², Gamma(n - 1), ..., Gamma(1)."""
    n, m = sorted((rows, cols))
    return [*range(m, m - n, -1), *range(n - 1, 0, -1)]


def _log_det_rate(gammas: np.ndarray, share: float = 1.0, time: float = 1.0) -> Callable:
    """Per-point evaluator of time * log2 det(I + share * p * HH*) from the
    (2n - 1, trials) variates of ``_wishart``. With B lower bidiagonal,
    B_ii = d_i and B_{i+1,i} = e_i, HH* has the spectrum of BᵀB, and
    det(I + x BᵀB) is the product of the bottom-up pivots q_n = x d_n² + 1
    and q_i = x d_i² + s_i, s_i = 1 + x e_i² s_{i+1}/q_{i+1}. Every term is
    positive, so nothing cancels at any SNR. n = 0 gives a rate of 0."""
    n = (len(gammas) + 1) // 2
    d2, e2 = gammas[:n], gammas[n:]

    def rate(power):
        x = share * power
        q, s = np.multiply(d2, x), 1.0
        for i in range(n - 1, -1, -1):
            q[i] += s
            if i:
                s = 1.0 + x * e2[i - 1] * (s / q[i])
        rates = np.log2(q, out=q).sum(axis=0)
        return np.multiply(rates, time, out=rates)  # exact at time = 1
    return rate


def _exact_row_sums(values: np.ndarray) -> list[float]:
    """The exactly rounded sum of each row of a 2-D float array, equal to
    ``math.fsum`` of the row bit for bit.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008): with σ a power of
    two at least 2n times the largest magnitude, q = (x + σ) - σ keeps the
    bits of x down to σ's last place and x - q is the exact rest, at most
    σ·2⁻⁵³. All q and all their partial sums are multiples of that place
    below σ/2, so ``q.sum(axis=1)`` is exact in any order. A float sum of a
    row's n rests is off by at most n²·σ·2⁻¹⁰⁵ in any order, so each pass
    stops once, for every row, ``math.fsum`` of the exact partials and that
    tail gives the same value with a slack of n²·σ·2⁻¹⁰⁴ or more added and
    subtracted: rounding to nearest is monotone, so that value is the
    exactly rounded sum. A slack below 2⁻¹⁰²² decides nothing. Otherwise the
    passes repeat on the rest, and a rest of zero ends them with exact
    partials, which ``math.fsum`` rounds once; that covers exact midpoints.
    Non-finite input, or input so large that σ overflows, raises
    ``SimulationError``.
    """
    rest = np.array(values, dtype=float)  # a copy: the passes consume it
    return _consume_row_sums(rest, np.empty_like(rest))


def _consume_row_sums(rest: np.ndarray, q: np.ndarray) -> list[float]:
    # _exact_row_sums of rest, which the passes overwrite; q is scratch of
    # the same shape, and also where |rest| goes.
    n = rest.shape[1]
    headroom = (n - 1).bit_length() + 1  # 2**headroom >= 2n
    partials = []
    top = float(np.abs(rest, out=q).max(initial=0.0))
    # Also false for nan; below this bound σ cannot overflow.
    if not top < 2.0 ** (1023 - headroom):
        raise SimulationError("rates to reduce are not finite or too large to sum exactly")
    while True:
        exponent = math.frexp(top)[1] + headroom
        sigma = math.ldexp(1.0, exponent)
        np.add(rest, sigma, out=q)
        q -= sigma
        rest -= q
        partials.append(q.sum(axis=1).tolist())
        slack = math.ldexp(1.0, exponent + 2 * n.bit_length() - 104)  # 2**(2 * bit_length) > n²
        if slack >= 2.0 ** -1022:
            sums = [_decided(row, tail, slack) for row, tail in zip(zip(*partials), rest.sum(axis=1).tolist())]
            if None not in sums:
                return sums
        top = float(np.abs(rest, out=q).max(initial=0.0))
        if top == 0.0:
            return [math.fsum(row) for row in zip(*partials)]


def _decided(partials: Sequence[float], tail: float, slack: float) -> Optional[float]:
    # The rounded sum of the partials and the tail, or None if moving it by
    # the slack either way changes that rounding.
    total = math.fsum((*partials, tail))
    if math.fsum((*partials, tail, slack)) == total == math.fsum((*partials, tail, -slack)):
        return total
    return None


def _mean_stderr(values: np.ndarray) -> tuple[list[float], list[float]]:
    # Means and standard errors of each row of (points, trials) rates. The
    # sums are exactly rounded, so they do not depend on trial order. Both
    # reductions consume one rest buffer with one scratch buffer, which live
    # only as long as this call: kept for a whole run, they would sit under
    # the next user's evaluator temporaries and raise peak memory.
    count = values.shape[1]
    rest, q = np.empty((2, *values.shape))
    np.copyto(rest, values)
    means = [total / count for total in _consume_row_sums(rest, q)]
    if count < 2:
        return means, [0.0] * len(means)
    np.subtract(values, np.array(means)[:, None], out=rest)
    rest **= 2
    var = [total / (count - 1) for total in _consume_row_sums(rest, q)]
    return means, [math.sqrt(v / count) for v in var]


# Largest linear power a grid point may ask for: 2**64 below the float
# overflow threshold.
_MAX_POWER = 2.0 ** (1024 - 64)


def _within_headroom(snr_db: float, exponent: float = 1.0) -> bool:
    """Whether the point's linear power, raised to ``exponent``, is at most
    ``_MAX_POWER``."""
    try:
        return _db_to_linear(snr_db) ** exponent <= _MAX_POWER
    except OverflowError:
        return False


def _validate_grid(snr_db: Sequence[float]) -> tuple[float, ...]:
    """The grid as an ascending tuple of finite floats. Every point's linear
    power must stay 2**64 below float overflow (at most about 2890 dB), so
    that power times any Gamma variate is still finite."""
    grid = tuple(float(s) for s in snr_db)
    if not grid:
        raise ValueError("SNR grid must be nonempty")
    if not all(math.isfinite(s) for s in grid):
        raise ValueError(f"SNR grid points must be finite, got {list(grid)}")
    if not _within_headroom(max(grid)):
        raise ValueError(f"SNR grid point {max(grid)} dB overflows a float power with 2**64 headroom")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly ascending")
    return grid


def _check_counts(trials: int, seed: int) -> tuple[int, int]:
    """A run's trial count as an int >= 1 and its seed as an int >= 0."""
    return _integer("trials", trials, 1), _integer("seed", seed, 0)


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
        columns["trials"], columns["seed"] = _check_counts(self.trials, self.seed)
        object.__setattr__(self, "snr_db", grid)
        for name, value in columns.items():
            object.__setattr__(self, name, value)


def trace_to_csv(trace: RateTrace) -> str:
    """CSV export, one row per SNR point. Floats are written with ``repr``,
    which round-trips exactly."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for i, snr in enumerate(trace.snr_db):
        row = (snr, trace.rate1[i], trace.stderr1[i], trace.rate2[i], trace.stderr2[i])
        out.write(",".join(repr(v) for v in row) + f",{trace.trials}\n")
    return out.getvalue()


def trace_from_csv(text: str, seed: int = 0) -> RateTrace:
    """Parse the CSV export. The seed is not part of the wire format, so
    callers that care must supply it."""
    lines = [line for line in text.strip().splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    columns: list[list[float]] = [[] for _ in range(5)]
    counts = set()
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed row {line!r}")
        for col, part in zip(columns, parts[:5]):
            col.append(float(part))
        counts.add(int(parts[5]))
    if not counts:
        raise ValueError("no data rows")
    if len(counts) > 1:
        raise ValueError(f"rows disagree on trials: {sorted(counts)}")
    (trials,) = counts
    # Columns follow the field order snr_db, rate1, stderr1, rate2, stderr2.
    return RateTrace(*(tuple(col) for col in columns), trials=trials, seed=seed)


# Every link name in a fixed order; a link's index keys its substreams.
_LINKS = ("H1", "H2", "H11", "H12", "H21", "H22")


def _draw(link: str, shapes: Sequence[int], seed: int, trials: int) -> np.ndarray:
    """Independent standard Gamma variates of one link, one row per shape,
    in a (len(shapes), trials) buffer of their own. Row r is one scalar-shape
    ``standard_gamma(shapes[r], out=buf[r])`` call on
    ``Generator(SFC64([seed, ℓ, r]))``, ℓ the link's index in ``_LINKS``, so
    trial t of a row is the t-th draw of its stream. An unknown link raises
    ``ValueError``.
    """
    index = _LINKS.index(link)
    buf = np.empty((len(shapes), trials))
    for row, shape in enumerate(shapes):
        np.random.Generator(np.random.SFC64([seed, index, row])).standard_gamma(shape, out=buf[row])
    return buf


# --- scheme table ----------------------------------------------------------
# An entry is scheme(config, spec, grid, draw) -> (rate1, rate2), called once
# per run. It raises before its first draw(link, shapes) call if the scheme
# does not fit; draw(link, shapes) draws Gamma variates of those shapes on
# that link then and there. Each evaluator maps a linear power to that
# user's per-trial rates (None if unserved). Point-to-point is time division
# at a share of 1, and isotropic input is point-to-point. Hji is the link
# from transmitter i to receiver j, of shape Nj x Mi.


def _solo_links(config, shares: tuple[float, float], draw) -> tuple:
    """User u holds its own N x M link a fraction shares[u - 1] of the time
    at full power P, P/M over its M transmit antennas, so the link's
    per-trial rates scale by the share. A user whose share is 0 is not
    served, and its link is not drawn."""
    if isinstance(config, BcConfig):
        links = (("H1", config.N1, config.M), ("H2", config.N2, config.M))
    else:
        links = (("H11", config.N1, config.M1), ("H22", config.N2, config.M2))
    return tuple(
        _log_det_rate(draw(link, _wishart(rows, cols)), 1.0 / cols, share) if share > 0 else None
        for (link, rows, cols), share in zip(links, shares)
    )


def _time_division(config, spec, grid, draw) -> tuple:
    return _solo_links(config, (float(spec.tau), 1.0 - float(spec.tau)), draw)


def _point_to_point(config, spec, grid, draw) -> tuple:
    # Time division at a share of 1: multiplying by 1.0 is exact.
    return _solo_links(config, (1.0, 0.0) if spec.user == 1 else (0.0, 1.0), draw)


def _require(config, kind: type, message: str) -> None:
    if not isinstance(config, kind):
        raise SimulationError(message)


def _zero_forcing(config, spec, grid, draw) -> tuple:
    """Transmitter i sends si streams on its first si antennas at power
    P/si each; receiver i projects out the other user's s_int streams and
    decodes its own. The projected own beams are an i.i.d. (Ni - s_int) x si
    Gaussian, by rotational invariance (Telatar, Eur. Trans. Telecomm. 10(6),
    1999), so user i reads that Wishart matrix on its link Hii, and no cross
    link is drawn."""
    _require(config, IcConfig, "receiver zero-forcing runs on interference configs")
    s1, s2 = spec.streams
    for name, s, m in (("s1", s1, config.M1), ("s2", s2, config.M2)):
        if s > m:
            raise SimulationError(f"{name}={s} exceeds the transmitter's {m} antennas")
    total = s1 + s2
    # A receiver that decodes nothing has nothing to zero-force.
    if any(s > 0 and total > n for s, n in ((s1, config.N1), (s2, config.N2))):
        raise SimulationError(
            f"receivers need at least {total} antennas to zero-force "
            f"{s1}+{s2} streams, have N1={config.N1}, N2={config.N2}"
        )
    # A silent user is not served, and its link is not read.
    return (
        _log_det_rate(draw("H11", _wishart(config.N1 - s2, s1)), 1.0 / s1) if s1 > 0 else None,
        _log_det_rate(draw("H22", _wishart(config.N2 - s1, s2)), 1.0 / s2) if s2 > 0 else None,
    )


def _alignment(config, spec, grid, draw) -> tuple:
    """User 1 sends a single stream at full power P; user 2 sends ``beams``
    streams at P**power_exponent each. Receiver 1 treats the scaled
    interference as noise; receiver 2 has enough antennas to decode
    everything and is credited the joint log-det rate of its own streams.
    User 1 reads its own gain g ~ Gamma(1) on H11 and the summed gain
    X ~ Gamma(beams) of the beams on H12; user 2 reads the N2 x beams Wishart
    matrix on H22."""
    _require(config, IcConfig, "the alignment scheme runs on interference configs")
    if not (config.M1 == 1 and config.N1 == 1 and config.M2 <= config.N2 - 1):
        raise SimulationError(
            "interference-alignment power scaling needs M1 = N1 = 1 and "
            f"M2 <= N2 - 1, got {config}"
        )
    nb = config.M2 if spec.beams is None else spec.beams
    if nb > config.M2:
        raise SimulationError(f"beams must be in [0, {config.M2}], got {spec.beams!r}")
    # Interference at P**exponent only shrinks relative to P when P > 1.
    if any(_db_to_linear(snr) <= 1.0 for snr in grid):
        raise ValueError("power scaling schemes need every grid point above 0 dB")
    exponent = float(spec.power_exponent)
    # With P > 1, P**exponent is monotone in P, so the last point bounds it.
    if not _within_headroom(grid[-1], exponent):
        raise ValueError(
            f"SNR grid point {grid[-1]} dB raised to the power exponent "
            f"{spec.power_exponent} overflows a float power with 2**64 headroom"
        )
    gain = draw("H11", [1])[0]
    cross_gain = draw("H12", [nb])[0]
    joint = _log_det_rate(draw("H22", _wishart(config.N2, nb)))

    def rate1(power):
        return np.log2(1.0 + power * gain / (1.0 + power ** exponent * cross_gain))

    return rate1, lambda power: joint(power ** exponent)


def _isotropic(config, spec, grid, draw) -> tuple:
    """A white input at P/M per antenna over the served user's own i.i.d.
    Gaussian n x M link, n <= M. That is point-to-point on the same link;
    the fixed channel [I 0] times a fresh Gaussian M x M mixing matrix has
    the same law (Telatar, Eur. Trans. Telecomm. 10(6), 1999)."""
    _require(config, BcConfig, "the isotropic input scheme runs on broadcast configs")
    if (config.N1 if spec.user == 1 else config.N2) > config.M:
        raise SimulationError("isotropic input needs the served receiver to have at most M antennas")
    return _point_to_point(config, spec, grid, draw)


_SCHEMES = {
    "point-to-point": _point_to_point,
    "time-division": _time_division,
    "receiver-zero-forcing": _zero_forcing,
    "ia-power-scaling": _alignment,
    "isotropic-bc": _isotropic,
}

SCHEME_KINDS = tuple(_SCHEMES)


@dataclass(frozen=True)
class SchemeSpec:
    """A transmission scheme plus its parameters. The spec validates every
    field it holds when it is built, and a malformed one raises ValueError;
    ``streams`` is stored as a tuple. Unused parameters are ignored by the
    dispatcher: tau only matters for time division, streams for zero-forcing,
    beams and power_exponent for the alignment scheme, user for the
    single-user schemes."""

    kind: str
    tau: float = 0.5
    streams: tuple[int, int] = (1, 1)
    beams: Optional[int] = None
    power_exponent: float = 0.5
    user: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        for name, value in (("tau", self.tau), ("power_exponent", self.power_exponent)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if not math.isfinite(self.power_exponent):
            raise ValueError("power_exponent must be finite")
        object.__setattr__(self, "user", _integer("user", self.user, 1, 2))
        pair = self.streams
        if isinstance(pair, (str, bytes)) or not isinstance(pair, Sequence) or len(pair) != 2:
            raise ValueError(f"streams must be a pair of integers, got {pair!r}")
        object.__setattr__(self, "streams", (_integer("s1", pair[0], 0), _integer("s2", pair[1], 0)))
        if self.beams is not None:
            object.__setattr__(self, "beams", _integer("beams", self.beams, 0))

    def to_dict(self) -> dict:
        return {**vars(self), "streams": list(self.streams)}


def simulate_scheme(spec: SchemeSpec, config, snr_db: Sequence[float], trials: int, seed: int) -> RateTrace:
    """Run one scheme on one network configuration.

    The trial count, the seed and the grid are checked before any draw, and
    the scheme is called once: it checks its fit to the configuration before
    it draws, then draws each link it reads once and returns its evaluators.
    Every SNR point reuses the Gamma variates they hold, and each served
    user's (points, trials) rates are reduced in one batch.
    """
    trials, seed = _check_counts(trials, seed)
    grid = _validate_grid(snr_db)
    rates = _SCHEMES[spec.kind](config, spec, grid, lambda link, shapes: _draw(link, shapes, seed, trials))
    powers = [_db_to_linear(snr) for snr in grid]
    columns = []  # rate1, stderr1, rate2, stderr2
    # The served users' rates take turns in one buffer per run. One user at
    # a time keeps the arrays in cache and peak memory flat.
    values = np.empty((len(powers), trials)) if any(rates) else None
    for rate in rates:
        if rate is None:
            # An unserved user's rates are all zero, and so is their reduction.
            columns += [(0.0,) * len(grid)] * 2
        else:
            for row, power in zip(values, powers):
                row[:] = rate(power)
            columns += _mean_stderr(values)
    return RateTrace(grid, *columns, trials=trials, seed=seed)
