"""Command line front end.

Subcommands:

* ``region``    print exact region JSON for a configuration
* ``classify``  print the case label and all regions for an interference config
* ``simulate``  run a Monte Carlo scheme, print trace plus slope estimate
* ``verify``    run a scheme and grade its fitted DoF pair against a region
* ``compare``   CSIT region versus no-CSIT region (or bounds) side by side

Exit codes: 0 on success (and on verdicts inside/boundary), 2 when a
requested verification lands outside the region, 3 on invalid input.
Every command is deterministic given its flags; the only environment input
is MIMODOF_THREADS, which sets the default worker count for trials.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
    InfeasibleBound,
    UnboundedRegion,
    contains,
    equals,
    fraction_to_str,
    is_subset,
    region_to_dict,
)
from .simulate import (
    RateTrace,
    SchemeSpec,
    SimulationError,
    simulate_scheme,
    trace_to_csv,
)
from .slopes import DEFAULT_TOL, DEFAULT_WINDOW, SlopeEstimate, fit_slope, verdict_report

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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags, which collides with the verdict
    # exit code, so route usage problems to 3.
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{what} must be a comma list of integers, got {text!r}")
    return values


def _parse_antennas(text: str, channel: str) -> tuple[int, ...]:
    values = _parse_ints(text, "--antennas")
    want = 3 if channel == "bc" else 4
    if len(values) != want:
        raise _UsageError(
            f"--antennas for {channel} needs {want} counts, got {len(values)}"
        )
    if any(v < 1 for v in values):
        raise _UsageError("antenna counts must be positive")
    return values


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--snr-db must look like start:stop:step, got {text!r}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise _UsageError(f"--snr-db needs a finite start, stop and step, got {text!r}")
    if step <= 0 or stop < start:
        raise _UsageError("--snr-db needs stop >= start and step > 0")
    grid = []
    value = start
    while value <= stop + 1e-9:
        grid.append(round(value, 9))
        value += step
    return tuple(grid)


def _config_for(channel: str, antennas: tuple[int, ...]):
    return BcConfig(*antennas) if channel == "bc" else IcConfig(*antennas)


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def cmd_region(args) -> int:
    antennas = _parse_antennas(args.antennas, args.channel)
    config = _config_for(args.channel, antennas)
    if args.channel == "bc":
        region = bc_csit_region(config) if args.csit else bc_region(config)
        _emit(args, _dump(region_to_dict(region)))
        return EXIT_OK
    if args.csit:
        _emit(args, _dump(region_to_dict(ic_csit_region(config))))
        return EXIT_OK
    cr = ic_classify(config)
    doc = {"label": cr.to_dict()["label"], "csit": region_to_dict(cr.csit)}
    if cr.no_csit is not None:
        doc["no_csit"] = region_to_dict(cr.no_csit)
    else:
        doc["inner"] = region_to_dict(cr.inner)
        doc["outer"] = region_to_dict(cr.outer)
    _emit(args, _dump(doc))
    return EXIT_OK


def cmd_classify(args) -> int:
    antennas = _parse_antennas(args.antennas, "ic")
    cr = ic_classify(IcConfig(*antennas))
    _emit(args, _dump(cr.to_dict()))
    return EXIT_OK


def _scheme_from_args(args) -> SchemeSpec:
    kind = _SCHEME_ALIASES[args.scheme]
    streams = (1, 1)
    if args.streams is not None:
        parsed = _parse_ints(args.streams, "--streams")
        if len(parsed) != 2:
            raise _UsageError("--streams needs exactly two counts")
        streams = parsed
    try:
        return SchemeSpec(
            kind=kind,
            tau=args.tau,
            streams=streams,
            beams=args.beams,
            power_exponent=args.exponent,
            user=args.user,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _region_for_verify(channel: str, config, against: str) -> DofRegion:
    if channel == "bc":
        if against == "csit":
            return bc_csit_region(config)
        # The broadcast region is exact for every configuration, so the
        # exact region, the inner bound and the outer bound all coincide.
        return bc_region(config)
    cr = ic_classify(config)
    if against == "csit":
        return cr.csit
    if against == "inner":
        return cr.inner
    if against == "outer":
        return cr.outer
    if cr.no_csit is None:
        raise _UsageError(
            "the exact region for this configuration is not known; "
            "verify against inner or outer instead"
        )
    return cr.no_csit


def _run_simulation(args) -> tuple[object, SchemeSpec, RateTrace, SlopeEstimate]:
    config = _config_for(args.channel, _parse_antennas(args.antennas, args.channel))
    spec = _scheme_from_args(args)
    grid = _parse_grid(args.snr_db)
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    trace = simulate_scheme(spec, config, grid, args.trials, args.seed)
    return config, spec, trace, fit_slope(trace, args.window)


def _grade(args, config, spec: SchemeSpec, estimate: SlopeEstimate, against: str) -> tuple[dict, int]:
    """Verdict report against the requested region, plus its exit code."""
    region = _region_for_verify(args.channel, config, against)
    report = verdict_report(
        {"channel": args.channel, "antennas": list(dataclasses.astuple(config))},
        spec.to_dict(),
        estimate,
        region,
        args.tol,
    )
    return report, EXIT_VERDICT if report["verdict"] == "outside" else EXIT_OK


def cmd_simulate(args) -> int:
    config, spec, trace, estimate = _run_simulation(args)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace_to_csv(trace))
    if args.format == "csv":
        _emit(args, trace_to_csv(trace).rstrip("\n"))
        return EXIT_OK
    doc = {
        "command": "simulate",
        "channel": args.channel,
        "antennas": list(dataclasses.astuple(config)),
        "scheme": spec.to_dict(),
        "snr_db": list(trace.snr_db),
        "trials": trace.trials,
        "seed": trace.seed,
        "window": args.window,
        "trace": {
            "snr_db": list(trace.snr_db),
            "rate1": list(trace.rate1),
            "stderr1": list(trace.stderr1),
            "rate2": list(trace.rate2),
            "stderr2": list(trace.stderr2),
            "trials": trace.trials,
            "seed": trace.seed,
        },
        "estimate": estimate.to_dict(),
    }
    code = EXIT_OK
    if args.verify_against:
        report, code = _grade(args, config, spec, estimate, args.verify_against)
        doc["verify"] = {
            "against": args.verify_against,
            "tol": args.tol,
            "region_tag": report["region_tag"],
            "verdict": report["verdict"],
        }
    _emit(args, _dump(doc))
    return code


def cmd_verify(args) -> int:
    config, spec, _, estimate = _run_simulation(args)
    report, code = _grade(args, config, spec, estimate, args.against)
    _emit(args, _dump(report))
    return code


def cmd_compare(args) -> int:
    antennas = _parse_antennas(args.antennas, "ic")
    cr = ic_classify(IcConfig(*antennas))
    achievable = cr.no_csit if cr.no_csit is not None else cr.outer
    subset = is_subset(achievable, cr.csit)
    strict = subset and not equals(achievable, cr.csit)
    lost = [
        [fraction_to_str(v[0]), fraction_to_str(v[1])]
        for v in cr.csit.vertices
        if not contains(achievable, v)
    ]
    doc = {
        "csit_region": region_to_dict(cr.csit),
        "no_csit_or_bounds": (
            {"no_csit": region_to_dict(cr.no_csit)}
            if cr.no_csit is not None
            else {"inner": region_to_dict(cr.inner), "outer": region_to_dict(cr.outer)}
        ),
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
    parser.add_argument("--user", type=int, default=1, choices=(1, 2))
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--streams", default=None, help="zf stream split, e.g. 1,1")
    parser.add_argument("--beams", type=int, default=None)
    parser.add_argument("--exponent", type=float, default=0.5)
    parser.add_argument("--snr-db", default="30:70:10", help="start:stop:step in dB")
    parser.add_argument("--trials", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--out", default=None, help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
    p_sim.add_argument(
        "--verify-against",
        default=None,
        choices=("exact", "inner", "outer", "csit"),
        help="grade the estimate against this region; outside exits 2",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="simulate and grade against a region")
    _add_sim_flags(p_verify)
    p_verify.add_argument("--against", required=True, choices=("exact", "inner", "outer", "csit"))
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
    except _UsageError as exc:
        print(f"mimodof: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SimulationError, InfeasibleBound, UnboundedRegion) as exc:
        print(f"mimodof: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
