"""The public surface of the package, pinned name by name."""

import types

import mimodof
from mimodof import catalog, regions, simulate, slopes

PUBLIC = {
    # regions
    "DofRegion", "Halfspace", "RegionError", "boundary_slope", "contains", "equals",
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
    "DEFAULT_TOL", "DEFAULT_WINDOW", "SlopeEstimate", "fit_slope",
    "verdict_report", "verify_point",
}


def test_public_names_are_pinned_and_every_all_entry_resolves():
    exported = {
        name
        for name, value in vars(mimodof).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC) == 38
    assert exported == PUBLIC
    for module in (regions, catalog, simulate, slopes):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
