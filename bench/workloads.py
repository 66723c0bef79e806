"""The three benchmark workloads.

Each workload is a fixed deck of operations generated from the workload
seed. A pass runs the whole deck once, in order, one operation after the
previous one returns (a closed loop with a single caller). ``run_op`` is the
timed call into the program; ``check_op`` validates its output afterwards,
outside the timed region.

Spans are recorded around the benchmark's own calls into each module:
``simulate``, ``slopes``, ``catalog.*``, ``regions.*`` and ``cli``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
from pathlib import Path

from mimodof import cli, regions
from mimodof.catalog import BcConfig, IcConfig, bc_csit_region, bc_region, case_partition_check, ic_classify
from mimodof.regions import region_from_json, region_to_json
from mimodof.simulate import SchemeSpec, simulate_scheme
from mimodof.slopes import fit_slope, verify_point

from spans import NULL

BENCH_DIR = Path(__file__).resolve().parent
GRID = (30.0, 40.0, 50.0, 60.0, 70.0)
BATTERY_TRIALS = 10_000
TOL = 0.1
SWEEP_LIMIT = 8
VERIFY_TRIALS = (100, 200, 300, 400, 500)


def reduce_cache():
    """The ``_reduce`` memo, or None when the program no longer has one."""
    fn = getattr(regions, "_reduce", None)
    return fn if hasattr(fn, "cache_info") else None


def robust_seconds(durations) -> float:
    """Time of one pass over the given slots: the sum over slots of each
    slot's median duration across passes."""
    return sum(statistics.median(d) for d in durations)


def percentile_ms(seconds, q: int) -> float:
    """The q-th percentile of ``seconds``, in ms."""
    return 1e3 * statistics.quantiles(seconds, n=100, method="inclusive")[q - 1]


def tail_mean_ms(seconds) -> float:
    """Mean of the slowest tenth (at least one) of ``seconds``, in ms."""
    ordered = sorted(seconds)
    tail = ordered[len(ordered) - max(1, len(ordered) // 10):]
    return 1e3 * sum(tail) / len(tail)


class Workload:
    """A deck of operations; ``work[i]`` is the work units operation i does.

    ``durations[i]`` passed to ``named_metrics`` holds operation i's timed
    seconds, one per untraced pass.
    """

    ops: list
    work: list

    def begin_pass(self) -> None:
        """Untimed; runs before each pass."""

    def before_op(self, i: int) -> None:
        """Untimed; runs before operation i."""

    def end_pass(self) -> bool:
        """Untimed; pass-level correctness check."""
        return True


# --- mc_battery ----------------------------------------------------------

# (name, config, scheme, expected (d1, d2), tolerance) -- the acceptance
# battery of tests/test_acceptance.py, criteria 4 and 6, run through
# simulate_scheme.
BATTERY = (
    ("p2p-2x2", BcConfig(2, 2, 2), SchemeSpec("point-to-point", user=1), (2.0, 0.0), 0.1),
    ("zf-2123", IcConfig(2, 1, 2, 3), SchemeSpec("receiver-zero-forcing", streams=(1, 1)), (1.0, 1.0), 0.1),
    ("tdm-423", BcConfig(4, 2, 3), SchemeSpec("time-division", tau=0.5), (1.0, 1.5), 0.1),
    ("ia-1314", IcConfig(1, 3, 1, 4), SchemeSpec("ia-power-scaling"), (0.5, 1.5), 0.15),
    ("isobc-4x1", BcConfig(4, 1, 1), SchemeSpec("isotropic-bc", user=1), (1.0, 0.0), 0.1),
    ("isobc-4x2", BcConfig(4, 2, 2), SchemeSpec("isotropic-bc", user=2), (0.0, 2.0), 0.1),
)


class McBattery(Workload):
    """Six acceptance entries at 10^4 trials x 5 SNR points each."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        self.ops = [(entry, rng.randrange(2**31)) for entry in BATTERY]
        rng.shuffle(self.ops)
        self.work = [BATTERY_TRIALS * len(GRID)] * len(self.ops)
        self._first_traces = {}

    def run_op(self, i: int, tr):
        (_, config, spec, _, _), seed = self.ops[i]
        with tr.span("simulate"):
            trace = simulate_scheme(spec, config, GRID, BATTERY_TRIALS, seed)
        tr.count("simulate.trial_points", BATTERY_TRIALS * len(GRID))
        with tr.span("slopes"):
            estimate = fit_slope(trace)
        if isinstance(config, IcConfig):
            with tr.span("catalog.classify"):
                cr = ic_classify(config)
            outer, inner = cr.outer, cr.inner
        else:
            with tr.span("catalog.bc"):
                outer = inner = bc_region(config)
        with tr.span("slopes"):
            verdicts = (verify_point(estimate, outer, TOL), verify_point(estimate, inner, TOL))
        return trace, estimate, verdicts

    def named_metrics(self, durations) -> dict:
        return {"trials_per_s": (sum(self.work) / robust_seconds(durations), "1/s")}

    def check_op(self, i: int, output) -> bool:
        (_, _, _, (want1, want2), tol), _ = self.ops[i]
        trace, estimate, (outer_verdict, inner_verdict) = output
        first = self._first_traces.setdefault(i, trace)
        return (
            abs(estimate.d1_hat - want1) <= tol
            and abs(estimate.d2_hat - want2) <= tol
            and outer_verdict != "outside"
            and inner_verdict in ("inside", "boundary")
            and trace == first
        )


def mc_battery_first_call(seed: int, tmp: Path) -> None:
    trace = simulate_scheme(SchemeSpec("point-to-point"), BcConfig(2, 2, 2), GRID, 100, seed)
    verify_point(fit_slope(trace), bc_region(BcConfig(2, 2, 2)), TOL)


# --- region_sweep --------------------------------------------------------

def _sweep_keys():
    span = range(1, SWEEP_LIMIT + 1)
    ic = [("ic",) + (a, b, c, d) for a in span for b in span for c in span for d in span]
    bc = [("bc",) + (a, b, c) for a in span for b in span for c in span]
    return ic + bc


def region_digest(texts: dict) -> str:
    """sha256 over every config's region JSON, in canonical config order."""
    h = hashlib.sha256()
    for key in sorted(texts):
        h.update(repr(key).encode())
        h.update(texts[key].encode())
    return h.hexdigest()


def _ic_op(config: IcConfig, tr) -> str:
    with tr.span("catalog.classify"):
        cr = ic_classify(config)
    with tr.span("regions.serialize"):
        return json.dumps(cr.to_dict(), sort_keys=True)


def _bc_op(config: BcConfig, tr):
    with tr.span("catalog.bc"):
        built = (bc_region(config), bc_csit_region(config))
    with tr.span("regions.serialize"):
        texts = tuple(region_to_json(r) for r in built)
    with tr.span("regions.parse"):
        parsed = tuple(region_from_json(t) for t in texts)
    return "\n".join(texts), built == parsed


class RegionSweep(Workload):
    """Every IcConfig in [1,8]^4 and BcConfig in [1,8]^3, then the partition
    check. The ``_reduce`` memo is cleared at the start of every pass and
    before the partition check, so each phase starts cold."""

    def __init__(self, seed: int, tmp: Path):
        keys = _sweep_keys()
        random.Random(seed).shuffle(keys)
        self.ops = keys + [("partition", SWEEP_LIMIT)]
        self.work = [1] * len(keys) + [SWEEP_LIMIT**4]
        self.golden = json.loads((BENCH_DIR / "golden.json").read_text())["region_sha256"]
        self._texts = {}

    def begin_pass(self) -> None:
        self._texts = {}
        self._clear_cache()

    @staticmethod
    def _clear_cache() -> None:
        cache = reduce_cache()
        if cache is not None:
            cache.cache_clear()

    def run_op(self, i: int, tr):
        kind, *args = self.ops[i]
        if kind == "ic":
            text = _ic_op(IcConfig(*args), tr)
            tr.count("regions.json_bytes", len(text))
            return text, True
        if kind == "bc":
            text, roundtrip = _bc_op(BcConfig(*args), tr)
            tr.count("regions.json_bytes", len(text))
            return text, roundtrip
        with tr.span("catalog.partition"):
            return None, case_partition_check(args[0]) is True

    def before_op(self, i: int) -> None:
        if self.ops[i][0] == "partition":
            self._clear_cache()

    def check_op(self, i: int, output) -> bool:
        text, ok = output
        if text is not None:
            self._texts[self.ops[i]] = text
        return ok

    def end_pass(self) -> bool:
        return region_digest(self._texts) == self.golden

    def named_metrics(self, durations) -> dict:
        sweep = durations[:-1]
        return {
            "configs_per_s": (len(sweep) / robust_seconds(sweep), "1/s"),
            "partition_configs_per_s": (self.work[-1] / robust_seconds(durations[-1:]), "1/s"),
        }


def region_sweep_first_call(seed: int, tmp: Path) -> None:
    _ic_op(IcConfig(1, 1, 1, 1), NULL)
    _bc_op(BcConfig(1, 1, 1), NULL)


# --- verify_many ---------------------------------------------------------

# (channel, antennas, scheme flags, region to grade against). Valid
# entries cover all five schemes on BC and IC configs; every one of them
# grades inside or on the boundary at 100 trials for any seed.
VALID_CALLS = (
    ("bc", "2,2,2", ["--scheme", "p2p"], "exact"),
    ("bc", "3,2,3", ["--scheme", "p2p", "--user", "2"], "csit"),
    ("ic", "2,1,2,3", ["--scheme", "p2p", "--user", "2"], "exact"),
    ("bc", "4,2,3", ["--scheme", "tdm"], "exact"),
    ("bc", "2,1,2", ["--scheme", "tdm", "--tau", "0.25"], "outer"),
    ("ic", "2,3,2,3", ["--scheme", "tdm"], "exact"),
    ("ic", "1,3,2,4", ["--scheme", "tdm", "--tau", "0.75"], "outer"),
    ("ic", "2,1,2,3", ["--scheme", "zf", "--streams", "1,1"], "exact"),
    ("ic", "3,3,4,4", ["--scheme", "zf", "--streams", "2,2"], "exact"),
    ("ic", "2,2,3,3", ["--scheme", "zf", "--streams", "2,1"], "csit"),
    ("ic", "1,3,2,4", ["--scheme", "zf", "--streams", "1,1"], "inner"),
    ("ic", "1,3,1,4", ["--scheme", "ia"], "outer"),
    ("ic", "1,2,1,3", ["--scheme", "ia"], "exact"),
    ("ic", "1,3,1,4", ["--scheme", "ia", "--beams", "2"], "csit"),
    ("bc", "4,1,1", ["--scheme", "isobc"], "exact"),
    ("bc", "4,2,2", ["--scheme", "isobc", "--user", "2"], "exact"),
    ("bc", "3,3,1", ["--scheme", "isobc"], "outer"),
    ("bc", "2,1,2", ["--scheme", "isobc", "--user", "2"], "csit"),
)

# Each must exit 3: infeasible zero-forcing streams, an exact region that
# is not known (case III), or malformed --antennas.
INVALID_CALLS = (
    ("ic", "2,1,2,3", ["--scheme", "zf", "--streams", "2,1"], "exact"),
    ("ic", "3,3,2,2", ["--scheme", "zf", "--streams", "1,2"], "outer"),
    ("ic", "1,3,2,4", ["--scheme", "tdm"], "exact"),
    ("ic", "1,4,2,3", ["--scheme", "p2p", "--user", "2"], "exact"),
    ("bc", "4,2", ["--scheme", "p2p"], "exact"),
)


def _verify_argv(call, trials: int, seed: int, out: Path) -> list:
    channel, antennas, scheme, against = call
    return [
        "verify", "--channel", channel, "--antennas", antennas, *scheme,
        "--against", against, "--trials", str(trials), "--seed", str(seed),
        "--out", str(out),
    ]


class VerifyMany(Workload):
    """A seeded deck of ``mimodof verify`` calls at 100-500 trials: every
    valid call at each of five trial counts, plus every invalid call twice
    (about one call in ten)."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed)
        deck = [(call, t, 0) for call in VALID_CALLS for t in VERIFY_TRIALS]
        deck += [(call, t, 3) for call in INVALID_CALLS for t in (VERIFY_TRIALS[0], VERIFY_TRIALS[-1])]
        rng.shuffle(deck)
        self.ops = [
            (_verify_argv(call, t, rng.randrange(2**31), tmp / f"call{i}.json"), code)
            for i, (call, t, code) in enumerate(deck)
        ]
        self.work = [1] * len(self.ops)
        self._first_docs = {}

    def begin_pass(self) -> None:
        for argv, _ in self.ops:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(argv[-1])

    def run_op(self, i: int, tr):
        argv, _ = self.ops[i]
        with contextlib.redirect_stderr(io.StringIO()):
            with tr.span("cli"):
                code = cli.main(argv)
        tr.count(f"cli.exit_{code}", 1)
        return code

    def check_op(self, i: int, code) -> bool:
        argv, expected = self.ops[i]
        if code != expected:
            return False
        out = Path(argv[-1])
        if expected != 0:
            return not out.exists()
        text = out.read_text()
        doc = json.loads(text)
        first = self._first_docs.setdefault(i, text)
        return doc["verdict"] in ("inside", "boundary") and text == first

    def named_metrics(self, durations) -> dict:
        samples = [t for d in durations for t in d]
        return {
            "calls_per_s": (len(durations) / robust_seconds(durations), "1/s"),
            "call_ms_p50": (percentile_ms(samples, 50), "ms"),
            "call_ms_p99": (percentile_ms(samples, 99), "ms"),
            "call_samples": (len(samples), "count"),
        }


def verify_many_first_call(seed: int, tmp: Path) -> None:
    argv = _verify_argv(VALID_CALLS[0], VERIFY_TRIALS[0], seed, tmp / "first.json")
    if cli.main(argv) != 0:
        raise RuntimeError("first verify call failed")


WORKLOADS = {
    "mc_battery": (McBattery, mc_battery_first_call),
    "region_sweep": (RegionSweep, region_sweep_first_call),
    "verify_many": (VerifyMany, verify_many_first_call),
}
