"""Command line front end.

Subcommands:

* ``region``    print exact region JSON for a configuration
* ``classify``  print the case label and all regions for an interference config
* ``simulate``  run a Monte Carlo scheme, print trace plus slope estimate
* ``verify``    run a scheme and grade its fitted DoF pair against a region
* ``compare``   CSIT region versus no-CSIT region (or bounds) side by side

Exit codes: 0 on success (and on verdicts inside/boundary), 2 when a
requested verification lands outside the region, 3 on invalid input.
Every command is deterministic given its flags and reads no environment
variable.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from .catalog import (
    BcConfig,
    IcConfig,
    bc_csit_region,
    bc_region,
    ic_classify,
    ic_csit_region,
)
from .regions import (
    DofRegion,
    contains,
    equals,
    is_subset,
    region_to_dict,
)
from .simulate import (
    RateTrace,
    SchemeSpec,
    simulate_scheme,
    trace_to_csv,
)
from .slopes import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    SlopeEstimate,
    check_tol,
    check_window,
    fit_slope,
    verify_point,
)

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_USAGE = 3

_SCHEME_ALIASES = {
    "p2p": "point-to-point",
    "tdm": "time-division",
    "zf": "receiver-zero-forcing",
    "ia": "ia-power-scaling",
    "isobc": "isotropic-bc",
}

# The regions a fitted pair can be graded against.
_REGIONS = ("exact", "inner", "outer", "csit")


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage and exits 2 on a bad flag, which collides with
    # the verdict exit code, so route it to the one-line exit 3 of all other
    # bad input. The scripts build their parsers from this class too.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1,1", "-10:30:10", "-inf" or "-nan" as a value, not an
        # option, so a negative count, grid or exponent reaches the program's
        # own checks. This replaces a private argparse attribute.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma list of integers, got {text!r}")


def _config_for(channel: str, text: str):
    """The configuration an ``--antennas`` list names; the config refuses counts below 1."""
    kind, want = (BcConfig, 3) if channel == "bc" else (IcConfig, 4)
    values = _parse_ints(text, "--antennas")
    if len(values) != want:
        raise ValueError(f"--antennas for {channel} needs {want} counts, got {len(values)}")
    return kind(*values)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"--snr-db must look like start:stop:step, got {text!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"--snr-db needs finite SNR grid values, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError("--snr-db needs stop >= start and step > 0")
    if start + step == start:
        raise ValueError(f"--snr-db step {step!r} is too small to move the start {start!r}")

    # Point i is start + i*step, so rounding error does not build up, and the
    # grid runs while points stay <= stop + 1e-9. That test is monotone in i,
    # and the quotient lands within a step or two of where it turns false.
    def within(i: int) -> bool:
        return start + i * step <= stop + 1e-9

    span = (stop + 1e-9 - start) / step
    if not span < sys.maxsize:  # also false for inf
        raise ValueError(f"--snr-db {text!r} has too many points")
    count = int(span) + 1
    while within(count):
        count += 1
    while not within(count - 1):
        count -= 1
    return tuple(round(start + i * step, 9) for i in range(count))


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _known_or_bounds(cr) -> dict:
    """The exact no-CSIT region when it is known, else both bounds."""
    if cr.no_csit is not None:
        return {"no_csit": region_to_dict(cr.no_csit)}
    return {"inner": region_to_dict(cr.inner), "outer": region_to_dict(cr.outer)}


def cmd_region(args) -> int:
    config = _config_for(args.channel, args.antennas)
    if args.channel == "bc":
        region = bc_csit_region(config) if args.csit else bc_region(config)
        _emit(args, _dump(region_to_dict(region)))
        return EXIT_OK
    if args.csit:
        _emit(args, _dump(region_to_dict(ic_csit_region(config))))
        return EXIT_OK
    cr = ic_classify(config)
    doc = {"label": dict(vars(cr.label)), "csit": region_to_dict(cr.csit)}
    doc.update(_known_or_bounds(cr))
    _emit(args, _dump(doc))
    return EXIT_OK


def cmd_classify(args) -> int:
    cr = ic_classify(_config_for("ic", args.antennas))
    _emit(args, _dump(cr.to_dict()))
    return EXIT_OK


def _scheme_from_args(args) -> SchemeSpec:
    """The spec the scheme flags name. A flag that was not given keeps
    ``SchemeSpec``'s default, and the spec checks every value."""
    given = {
        "tau": args.tau,
        "streams": None if args.streams is None else _parse_ints(args.streams, "--streams"),
        "beams": args.beams,
        "power_exponent": args.exponent,
        "user": args.user,
    }
    return SchemeSpec(_SCHEME_ALIASES[args.scheme], **{k: v for k, v in given.items() if v is not None})


def _region_for_verify(config, against: str) -> DofRegion:
    bc = isinstance(config, BcConfig)
    if against == "csit":
        return bc_csit_region(config) if bc else ic_csit_region(config)
    if bc:
        # The broadcast region is exact for every configuration, so the
        # exact region, the inner bound and the outer bound all coincide.
        return bc_region(config)
    cr = ic_classify(config)
    region = {"exact": cr.no_csit, "inner": cr.inner, "outer": cr.outer}[against]
    if region is None:
        raise ValueError(
            "the exact region for this configuration is not known; "
            "verify against inner or outer instead"
        )
    return region


def _run_simulation(
    args, against: Optional[str]
) -> tuple[object, SchemeSpec, Optional[DofRegion], RateTrace, SlopeEstimate]:
    """Validate every input, resolve the region to grade ``against`` (if
    any), check the tolerance, the fit window and the output directories,
    and only then draw the trials."""
    config = _config_for(args.channel, args.antennas)
    spec = _scheme_from_args(args)
    grid = _parse_grid(args.snr_db)
    region = None
    if against:
        region = _region_for_verify(config, against)
        check_tol(args.tol)
    check_window(args.window, len(grid))
    for path in filter(None, (args.out, getattr(args, "trace_out", None))):
        # Checked, not created: a call that fails must write nothing.
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    trace = simulate_scheme(spec, config, grid, args.trials, args.seed)
    return config, spec, region, trace, fit_slope(trace, args.window)


def _verdict(config, spec: SchemeSpec, estimate: SlopeEstimate, region: DofRegion, tol: float) -> tuple[dict, int]:
    """The document ``mimodof verify`` writes for one fitted run of ``spec``
    on a ``BcConfig`` or ``IcConfig``, graded against ``region`` at ``tol``,
    and its exit code: ``EXIT_VERDICT`` when the pair lands outside."""
    channel = "bc" if isinstance(config, BcConfig) else "ic"
    verdict = verify_point(estimate, region, tol)
    report = {
        "config": {"channel": channel, "antennas": list(vars(config).values())},
        "scheme": spec.to_dict(),
        "estimate": [estimate.d1_hat, estimate.d2_hat],
        "ci": list(estimate.ci),
        "region_tag": region.tag,
        "verdict": verdict,
    }
    return report, EXIT_VERDICT if verdict == "outside" else EXIT_OK


def cmd_simulate(args) -> int:
    config, spec, region, trace, estimate = _run_simulation(args, args.verify_against)
    report, code = None, EXIT_OK
    if region is not None:
        report, code = _verdict(config, spec, estimate, region, args.tol)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace_to_csv(trace))
    if args.format == "csv":
        _emit(args, trace_to_csv(trace).rstrip("\n"))
        return code
    doc = {
        "command": "simulate",
        "channel": args.channel,
        "antennas": list(vars(config).values()),
        "scheme": spec.to_dict(),
        "snr_db": list(trace.snr_db),
        "trials": trace.trials,
        "seed": trace.seed,
        "window": args.window,
        "trace": dict(vars(trace)),
        "estimate": estimate.to_dict(),
    }
    if report is not None:
        doc["verify"] = {
            "against": args.verify_against,
            "tol": args.tol,
            "region_tag": report["region_tag"],
            "verdict": report["verdict"],
        }
    _emit(args, _dump(doc))
    return code


def cmd_verify(args) -> int:
    config, spec, region, _, estimate = _run_simulation(args, args.against)
    report, code = _verdict(config, spec, estimate, region, args.tol)
    _emit(args, _dump(report))
    return code


def cmd_compare(args) -> int:
    cr = ic_classify(_config_for("ic", args.antennas))
    # The outer bound is the exact region whenever that is known.
    subset = is_subset(cr.outer, cr.csit)
    strict = subset and not equals(cr.outer, cr.csit)
    csit = region_to_dict(cr.csit)
    lost = [text for text, v in zip(csit["vertices"], cr.csit.vertices) if not contains(cr.outer, v)]
    doc = {
        "csit_region": csit,
        "no_csit_or_bounds": _known_or_bounds(cr),
        "subset": subset,
        "strict": strict,
        "vertices_lost": lost,
    }
    _emit(args, _dump(doc))
    return EXIT_OK


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", required=True, choices=("bc", "ic"))
    parser.add_argument("--antennas", required=True, help="comma list, e.g. 4,2,3")
    parser.add_argument("--scheme", required=True, choices=sorted(_SCHEME_ALIASES))
    # A scheme flag left out keeps SchemeSpec's default.
    parser.add_argument("--user", type=int)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--streams", help="zf stream split, e.g. 1,1")
    parser.add_argument("--beams", type=int)
    parser.add_argument("--exponent", type=float)
    parser.add_argument("--snr-db", default="30:70:10", help="start:stop:step in dB")
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--out", default=None, help="write output here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="mimodof", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_region = sub.add_parser("region", help="print exact region JSON")
    p_region.add_argument("--channel", required=True, choices=("bc", "ic"))
    p_region.add_argument("--antennas", required=True)
    p_region.add_argument("--csit", action="store_true", help="print the full-CSIT region")
    p_region.add_argument("--out", default=None)
    p_region.set_defaults(func=cmd_region)

    p_classify = sub.add_parser("classify", help="classify an interference config")
    p_classify.add_argument("--antennas", required=True)
    p_classify.add_argument("--out", default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run plus slope fit")
    _add_sim_flags(p_sim)
    p_sim.add_argument("--format", default="json", choices=("json", "csv"))
    p_sim.add_argument("--trace-out", default=None, help="also write the trace CSV here")
    p_sim.add_argument("--verify-against", choices=_REGIONS, help="grade the estimate against this region; outside exits 2")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="simulate and grade against a region")
    _add_sim_flags(p_verify)
    p_verify.add_argument("--against", required=True, choices=_REGIONS)
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare", help="CSIT region vs no-CSIT region")
    p_compare.add_argument("--antennas", required=True)
    p_compare.add_argument("--out", default=None)
    p_compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"mimodof: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
