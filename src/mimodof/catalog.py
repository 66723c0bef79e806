"""Region constructors and the antenna-configuration case classifier.

Covers the two-user MIMO broadcast channel (one transmitter with M antennas,
receivers with N1 and N2 antennas) and the two-user interference channel
(transmitter i with Mi antennas talking to receiver i with Ni antennas),
under i.i.d. fading with no channel state at the transmitters.

Broadcast regions are closed form for every configuration. Interference
configurations split into cases after normalizing so that N1 <= N2:

* case I   (M2 <= N1, or either Mi <= N1 when N1 = N2): the region is a
  pentagon achieved by receiver zero-forcing and equals the full-CSIT region;
* case II  (N1 < M2 and M1 >= N1): the region is the time-division triangle
  d1/N1 + d2/min(M2, N2) <= 1;
* case III (N1 < N2, N1 < M2 and M1 < N1): the exact region is open, so the
  classifier reports an outer bound and an achievable inner hull instead.

The classifier picks the case on the normalized ordering but writes each
region's facets in the caller's user order, so every distinct region is
reduced exactly once; the label comes whole from one table, ``_LABELS``. A
sweep over many configurations (the partition check, the region atlas)
shares one memo of regions keyed by those rows and the tag, so it too
reduces each distinct region once, and it checks each row against the
table's label for the case the conditions pick and against geometry. A
second memo over the sweep, of each subset and equality answer by the pair
of region objects, decides each relation once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .regions import DofRegion, equals, is_subset, region_from_halfspaces, region_to_dict

__all__ = [
    "SCHEME_RX_ZF",
    "SCHEME_TDM",
    "SCHEME_UNKNOWN",
    "TABLE_UNEQUAL",
    "TABLE_EQUAL",
    "BcConfig",
    "IcConfig",
    "CaseLabel",
    "ClassifiedRegions",
    "CasePartitionError",
    "bc_region",
    "bc_csit_region",
    "ic_csit_region",
    "ic_classify",
    "case_partition_check",
]

SCHEME_RX_ZF = "receiver-zero-forcing"
SCHEME_TDM = "time-division"
SCHEME_UNKNOWN = "unknown"

TABLE_UNEQUAL = "N1<N2"
TABLE_EQUAL = "N1=N2"


def _integer(name: str, value, low: int, high: Optional[int] = None) -> int:
    """``value`` as an int if it is an integer in [low, high], else a
    ValueError naming the input and the value: the rule for every count. Any
    value with ``__index__`` but a bool is an integer, numpy's included."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        count = type(value).__index__(value)
        if low <= count and (high is None or count <= high):
            return count
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


class _AntennaCounts:
    # Every field of a configuration is an antenna count >= 1, held as an int.
    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))


@dataclass(frozen=True)
class BcConfig(_AntennaCounts):
    """Broadcast channel: M transmit antennas, receivers with N1 and N2."""

    M: int
    N1: int
    N2: int


@dataclass(frozen=True)
class IcConfig(_AntennaCounts):
    """Interference channel: transmitter i has Mi antennas, receiver i has Ni."""

    M1: int
    M2: int
    N1: int
    N2: int


@dataclass(frozen=True)
class CaseLabel:
    """Classifier verdict for one interference configuration.

    ``table`` and ``case_id`` refer to the normalized ordering (N1 <= N2);
    ``swapped`` records whether the users were exchanged to reach it.
    """

    table: str
    case_id: str
    swapped: bool
    region_known: bool
    csit_equal: bool
    scheme: str


# Every label the classifier gives, keyed by (case, swapped, N1 < N2) on the
# normalized ordering, with each case's facts written once: region known,
# equal to the CSIT region (by the caps, case II lies strictly inside), and
# scheme. Users swap only when N1 > N2, and case III needs N1 < N2.
_LABELS = {
    (case_id, swapped, unequal): CaseLabel(TABLE_UNEQUAL if unequal else TABLE_EQUAL, case_id, swapped, *facts)
    for case_id, *facts in (
        ("I", True, True, SCHEME_RX_ZF),
        ("II", True, False, SCHEME_TDM),
        ("III", False, False, SCHEME_UNKNOWN),
    )
    for swapped, unequal in ((False, False), (False, True), (True, True))
    if unequal or case_id != "III"
}


@dataclass(frozen=True)
class ClassifiedRegions:
    """Full classifier output: exact region when known, bounds otherwise.

    Every region is in the caller's user order. When ``no_csit`` is
    present, ``inner`` and ``outer`` are that same object, so downstream code
    can always work with the (inner, outer) pair.
    """

    label: CaseLabel
    no_csit: Optional[DofRegion]
    outer: DofRegion
    inner: DofRegion
    csit: DofRegion

    def to_dict(self) -> dict:
        """Plain-dict form. A region object held under several keys is
        formatted once; every key still gets its own lists and dicts, so
        only strings are shared."""
        formatted: dict[int, dict] = {}

        def region_doc(region: DofRegion) -> dict:
            doc = formatted.get(id(region))
            if doc is None:
                doc = formatted[id(region)] = region_to_dict(region)
                return doc
            return {
                "halfspaces": [dict(h) for h in doc["halfspaces"]],
                "vertices": [list(v) for v in doc["vertices"]],
                "tag": doc["tag"],
            }

        return {
            # The label's fields are flat values: this is its asdict.
            "label": dict(vars(self.label)),
            "no_csit": region_doc(self.no_csit) if self.no_csit is not None else None,
            "outer": region_doc(self.outer),
            "inner": region_doc(self.inner),
            "csit": region_doc(self.csit),
        }


class CasePartitionError(Exception):
    """Raised by case_partition_check with the first violating config."""

    def __init__(self, config: IcConfig, reason: str):
        super().__init__(f"{config}: {reason}")
        self.config = config
        self.reason = reason


def _triangle(p: int, q: int) -> tuple[int, int, int]:
    """Integer row of the facet d1/p + d2/q <= 1."""
    return (q, p, p * q)


def bc_region(config: BcConfig) -> DofRegion:
    """No-CSIT broadcast region: d1/min(M,N1) + d2/min(M,N2) <= 1."""
    row = _triangle(min(config.M, config.N1), min(config.M, config.N2))
    return region_from_halfspaces([row], tag="bc-no-csit")


def bc_csit_region(config: BcConfig) -> DofRegion:
    """Full-CSIT broadcast region: per-user caps plus the sum cap min(M, N1+N2)."""
    rows = [
        (1, 0, min(config.M, config.N1)),
        (0, 1, min(config.M, config.N2)),
        (1, 1, min(config.M, config.N1 + config.N2)),
    ]
    return region_from_halfspaces(rows, tag="bc-csit")


def _csit_rows(config: IcConfig) -> tuple[tuple[int, int, int], ...]:
    """Full-CSIT interference rows: per-link caps plus the usual sum cap.

    The formula is symmetric in the two users, so it needs no normalizing.
    """
    m1, m2, n1, n2 = config.M1, config.M2, config.N1, config.N2
    sum_cap = min(m1 + m2, n1 + n2, max(m1, n2), max(m2, n1))
    return ((1, 0, min(m1, n1)), (0, 1, min(m2, n2)), (1, 1, sum_cap))


def ic_csit_region(config: IcConfig) -> DofRegion:
    """Full-CSIT interference region: per-link caps plus the usual sum cap."""
    return region_from_halfspaces(_csit_rows(config), tag="ic-csit")


def ic_classify(config: IcConfig) -> ClassifiedRegions:
    """Classify an interference configuration and build its regions.

    The case is decided on the normalized ordering N1 <= N2, whose facets
    are then written in the caller's user order, so each distinct region is
    reduced once. A known region is one object shared by ``no_csit``,
    ``outer`` and ``inner``.
    """
    return _classify(config, {})


def _memo_region(memo: dict, rows: tuple[tuple[int, int, int], ...], tag: str) -> DofRegion:
    """The region of ``rows`` with ``tag``, reduced only if ``memo`` lacks it."""
    region = memo.get((rows, tag))
    if region is None:
        region = memo[rows, tag] = region_from_halfspaces(rows, tag=tag)
    return region


def _normalized(config: IcConfig) -> tuple[bool, int, int, int, int]:
    """Whether the users swap to make N1 <= N2, and then M1, M2, N1, N2."""
    if config.N1 > config.N2:
        return True, config.M2, config.M1, config.N2, config.N1
    return False, config.M1, config.M2, config.N1, config.N2


def _classify(config: IcConfig, memo: dict) -> ClassifiedRegions:
    """``ic_classify`` with every region looked up in ``memo``, keyed by its
    caller-order rows and its tag."""
    swapped, m1, m2, n1, n2 = _normalized(config)

    def build(rows: list[tuple[int, int, int]], tag: str) -> DofRegion:
        if swapped:
            rows = [(a2, a1, b) for a1, a2, b in rows]
        return _memo_region(memo, tuple(rows), tag)

    q = min(m2, n2)
    no_csit: Optional[DofRegion]
    if m2 <= n1 or (n1 == n2 and m1 <= n1):
        # Receiver zero-forcing: the caps plus the first receiver's
        # dimension as sum cap.
        case_id = "I"
        no_csit = outer = inner = build(
            [(1, 0, min(m1, n1)), (0, 1, q), (1, 1, n1)], "ic-no-csit"
        )
    elif n1 <= m1:
        case_id = "II"
        no_csit = outer = inner = build([_triangle(n1, q)], "ic-no-csit")
    else:
        # Here M1 < N1 < M2. The inner bound is the hull of (0,0), (M1,0),
        # the zero-forcing corner (M1, N1-M1) and the time-division endpoint
        # (0, q), a proper quadrilateral.
        case_id = "III"
        no_csit = None
        a, c = m1, n1 - m1
        outer = build([_triangle(n1, q), (1, 0, a), (0, 1, q)], "ic-outer")
        inner = build([(1, 0, a), (q - c, a, a * q)], "ic-inner")
    csit = _memo_region(memo, _csit_rows(config), "ic-csit")
    label = _LABELS[case_id, swapped, n1 < n2]
    return ClassifiedRegions(label=label, no_csit=no_csit, outer=outer, inner=inner, csit=csit)


def _normalized_conditions(m1: int, m2: int, n1: int, n2: int) -> list[bool]:
    """The case conditions on normalized counts (n1 <= n2), in case order."""
    if n1 < n2:
        return [m2 <= n1, n1 < m2 and n1 <= m1, n1 < m2 and m1 < n1]
    return [m2 <= n1 or m1 <= n1, n1 < m2 and n1 < m1]


def _sweep(limit: int) -> Iterator[tuple[IcConfig, ClassifiedRegions]]:
    """Yield ``(config, ic_classify(config))`` for every config in
    [1, limit]^4, in ``product`` order, each once ``_check_partition``
    passes it.

    One memo of regions and one of their relations serve the whole sweep,
    so each distinct region is reduced once and each relation decided once;
    both go when the sweep does.
    """
    memo: dict = {}
    relations: dict = {}
    for antennas in product(range(1, limit + 1), repeat=4):
        config = IcConfig(*antennas)
        cr = _classify(config, memo)
        _check_partition(config, cr, relations)
        yield config, cr


def _related(relations: dict, test, a: DofRegion, b: DofRegion) -> bool:
    """``test(a, b)``, decided once per pair of region objects in ``relations``.

    An entry holds both objects, so neither id is reused while it lives.
    """
    key = (test, id(a), id(b))
    entry = relations.get(key)
    if entry is None:
        entry = relations[key] = (a, b, test(a, b))
    return entry[2]


def _check_partition(config: IcConfig, cr: ClassifiedRegions, relations: dict) -> None:
    """Raise CasePartitionError unless the case conditions pick exactly one
    case for ``config``, ``cr`` carries the ``_LABELS`` label of that case,
    and its regions bear out the label and nest as advertised.

    ``relations`` memoizes the region relations over one sweep (see
    ``_related``); the label rule runs for every config.
    """
    swapped, m1, m2, n1, n2 = _normalized(config)
    conditions = _normalized_conditions(m1, m2, n1, n2)
    if sum(conditions) != 1:
        raise CasePartitionError(config, "case conditions do not pick exactly one case")
    case_id = ("I", "II", "III")[conditions.index(True)]
    if cr.label != _LABELS[case_id, swapped, n1 < n2]:
        raise CasePartitionError(config, "label differs from the one its case conditions give")
    if not _related(relations, is_subset, cr.inner, cr.outer):
        raise CasePartitionError(config, "inner bound not contained in outer bound")
    if not _related(relations, is_subset, cr.outer, cr.csit):
        raise CasePartitionError(config, "outer bound not contained in the CSIT region")
    known = cr.no_csit is not None
    if cr.label.region_known != known:
        raise CasePartitionError(config, "region_known flag disagrees with no_csit presence")
    if cr.label.csit_equal != (known and _related(relations, equals, cr.no_csit, cr.csit)):
        reason = "case I region must equal" if case_id == "I" else "case II region must shrink strictly from"
        raise CasePartitionError(config, reason + " the CSIT region")
    # With N1 = N2 the conditions give only case I or II, so the label rule
    # refuses case III there, and this rule refuses unequal bounds.
    if known and not (
        _related(relations, equals, cr.inner, cr.no_csit) and _related(relations, equals, cr.outer, cr.no_csit)
    ):
        raise CasePartitionError(config, "known region must coincide with both bounds")


def case_partition_check(limit: int) -> bool:
    """Sweep all configs with antenna counts in [1, limit] and verify that
    the case conditions partition them and the advertised invariants hold:
    ``_sweep`` checks each row, so this only drains it.

    Returns True, or raises CasePartitionError naming the first violating
    configuration.
    """
    _integer("limit", limit, 1)
    for _ in _sweep(limit):
        pass
    return True
