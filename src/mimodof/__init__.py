"""Degrees-of-freedom regions for two-user MIMO broadcast and interference
channels without transmitter CSI, plus Monte Carlo prelog verification.

The package has four layers:

* :mod:`mimodof.regions` exact rational polytope geometry;
* :mod:`mimodof.catalog` closed-form regions and the case classifier;
* :mod:`mimodof.simulate` seeded Monte Carlo rate simulation of schemes;
* :mod:`mimodof.slopes` prelog fitting and region verdicts.
"""

from .regions import (
    DofPoint,
    DofRegion,
    Halfspace,
    InfeasibleBound,
    RegionError,
    UnboundedRegion,
    as_fraction,
    boundary_slope,
    contains,
    equals,
    fraction_to_str,
    is_subset,
    mirrored,
    region_from_dict,
    region_from_halfspaces,
    region_from_json,
    region_to_dict,
    region_to_json,
)
from .catalog import (
    BcConfig,
    CaseLabel,
    CasePartitionError,
    ClassifiedRegions,
    IcConfig,
    SCHEME_RX_ZF,
    SCHEME_TDM,
    SCHEME_UNKNOWN,
    TABLE_EQUAL,
    TABLE_UNEQUAL,
    bc_csit_region,
    bc_region,
    case_partition_check,
    ic_classify,
    ic_csit_region,
    ic_outer_bound,
)
from .simulate import (
    GridMismatch,
    InfeasibleZf,
    RateTrace,
    SchemeShapeError,
    SchemeSpec,
    SimulationError,
    bc_link_dims,
    db_to_linear,
    ic_link_dims,
    simulate_scheme,
    tdm_rates,
    trace_from_csv,
    trace_to_csv,
)
from .slopes import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    InsufficientPoints,
    SlopeEstimate,
    fit_slope,
    verdict_report,
    verify_point,
)

__version__ = "0.1.0"
