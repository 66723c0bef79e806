"""The public surface of the package, pinned name by name, the one rule for
every count it takes, and which entry points load numpy."""

import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import mimodof
from mimodof import catalog, regions, simulate, slopes
from mimodof.catalog import BcConfig, IcConfig, case_partition_check
from mimodof.simulate import RateTrace, SchemeSpec, simulate_scheme
from mimodof.slopes import check_window

PUBLIC = {
    # regions
    "DofRegion", "Halfspace", "RegionError", "contains", "equals",
    "is_subset", "region_from_halfspaces", "region_from_json", "region_to_dict",
    "region_to_json",
    # catalog
    "BcConfig", "CaseLabel", "CasePartitionError", "ClassifiedRegions", "IcConfig",
    "SCHEME_RX_ZF", "SCHEME_TDM", "SCHEME_UNKNOWN", "TABLE_EQUAL", "TABLE_UNEQUAL",
    "bc_csit_region", "bc_region", "case_partition_check", "ic_classify", "ic_csit_region",
    # simulate
    "RateTrace", "SchemeSpec", "SimulationError", "simulate_scheme", "trace_from_csv",
    "trace_to_csv",
    # slopes
    "DEFAULT_TOL", "DEFAULT_WINDOW", "SlopeEstimate", "fit_slope", "verify_point",
}


def test_public_names_are_pinned_and_every_all_entry_resolves():
    exported = {
        name
        for name, value in vars(mimodof).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC) == 36
    assert exported == PUBLIC
    for module in (regions, catalog, simulate, slopes):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


GRID = (10.0, 20.0, 30.0)


def _run(spec, config=IcConfig(2, 1, 2, 3), trials=10, seed=7):
    simulate_scheme(spec, config, GRID, trials, seed)


# Each count: the call that takes it, and its lowest valid value. Every call
# below builds, or runs, one thing with that count set to the value under test.
COUNTS = {
    "M": (lambda v: BcConfig(v, 1, 1), 1),
    "N1": (lambda v: BcConfig(1, v, 1), 1),
    "N2": (lambda v: BcConfig(1, 1, v), 1),
    "M1": (lambda v: IcConfig(v, 1, 1, 1), 1),
    "M2": (lambda v: IcConfig(1, v, 1, 1), 1),
    "limit": (case_partition_check, 1),
    "trials": (lambda v: _run(SchemeSpec("point-to-point"), BcConfig(2, 2, 2), trials=v), 1),
    "seed": (lambda v: _run(SchemeSpec("point-to-point"), BcConfig(2, 2, 2), seed=v), 0),
    "window": (lambda v: check_window(v, 5), 1),
    "s1": (lambda v: _run(SchemeSpec("receiver-zero-forcing", streams=(v, 1))), 0),
    "s2": (lambda v: _run(SchemeSpec("receiver-zero-forcing", streams=(1, v))), 0),
    "beams": (lambda v: _run(SchemeSpec("ia-power-scaling", beams=v), IcConfig(1, 3, 1, 4)), 0),
    "user": (lambda v: _run(SchemeSpec("point-to-point", user=v), BcConfig(2, 2, 2)), 1),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
@pytest.mark.parametrize("kind", ["bool", "float", "below", "string"])
def test_every_count_refuses_a_non_int_or_out_of_range_value_before_any_draw(name, kind, monkeypatch):
    call, low = COUNTS[name]
    value = {"bool": True, "float": float(low + 1), "below": low - 1, "string": str(low)}[kind]
    monkeypatch.setattr(simulate, "_draw", lambda *args: pytest.fail("trials drawn"))
    with pytest.raises(ValueError) as raised:
        call(value)
    # A malformed count is a plain ValueError, not a scheme that does not fit.
    assert type(raised.value) is ValueError
    assert str(raised.value).startswith(f"{name} must be an integer ")
    assert str(raised.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_every_count_takes_a_numpy_integer(name):
    # Any non-bool value with __index__ is an integer, so the geometry and
    # the counts agree on numpy's integers.
    call, low = COUNTS[name]
    call(np.int64(3 if name == "window" else low + 1))  # a fit needs 3 points


def test_every_holder_stores_an_int():
    # A numpy integer is held as the int it stands for, so configs compare
    # equal to their int twins and every document serializes.
    n = np.int64
    config = IcConfig(n(2), n(1), n(2), n(3))
    assert config == IcConfig(2, 1, 2, 3)
    spec = SchemeSpec("ia-power-scaling", streams=(n(1), n(0)), beams=n(2), user=n(2))
    trace = RateTrace((10.0,), (1.0,), (0.0,), (1.0,), (0.0,), trials=n(10), seed=n(7))
    held = [
        *dataclasses.astuple(config), *dataclasses.astuple(BcConfig(n(4), n(2), n(3))),
        spec.user, spec.beams, *spec.streams, trace.trials, trace.seed,
    ]
    assert all(type(value) is int for value in held)
    json.dumps([dataclasses.asdict(config), spec.to_dict(), dataclasses.asdict(trace)])


ROOT = Path(__file__).resolve().parents[1]

# Each snippet runs in a fresh interpreter and must leave numpy unloaded:
# numpy is imported at a run's first draw, and none of these draws.
NUMPY_FREE = {
    "import": "import mimodof",
    "geometry": """
from mimodof import BcConfig, IcConfig, bc_region, case_partition_check, ic_classify
from mimodof import region_from_json, region_to_json
ic_classify(IcConfig(1, 3, 2, 4))
region = bc_region(BcConfig(4, 2, 3))
assert region_from_json(region_to_json(region)) == region
assert case_partition_check(3)
""",
    "cli-geometry": """
from mimodof import cli
assert cli.main(["region", "--channel", "ic", "--antennas", "1,3,2,4"]) == 0
assert cli.main(["classify", "--antennas", "1,3,2,4"]) == 0
assert cli.main(["compare", "--antennas", "1,3,2,4"]) == 0
""",
    "verify-refused": """
from mimodof import cli
argv = ["verify", "--channel", "ic", "--antennas", "2,1,2,3", "--scheme", "zf", "--streams", "2,1",
        "--against", "exact"]
assert cli.main(argv) == 3
""",
    "atlas": """
import importlib.util
spec = importlib.util.spec_from_file_location("region_atlas", "scripts/region_atlas.py")
atlas = importlib.util.module_from_spec(spec)
spec.loader.exec_module(atlas)
assert atlas.main(["--limit", "2", "--check"]) == 0
""",
}


def _fresh(code: str) -> str:
    """The last stdout line of ``code`` run by a fresh interpreter at the repo root."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("name", sorted(NUMPY_FREE))
def test_geometry_entry_points_never_load_numpy(name):
    assert _fresh(NUMPY_FREE[name] + "\nimport sys\nprint('numpy' in sys.modules)") == "False"


def test_first_draw_binds_numpy():
    code = """
import sys
from mimodof import BcConfig, SchemeSpec, simulate, simulate_scheme
assert "numpy" not in sys.modules
simulate_scheme(SchemeSpec("point-to-point"), BcConfig(2, 2, 2), (10.0, 20.0), 4, 7)
print(simulate.np is sys.modules["numpy"])
"""
    assert _fresh(code) == "True"
