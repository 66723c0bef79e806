"""Exact rational geometry for two-user degrees-of-freedom regions.

A region is the intersection of closed halfspaces ``a1*d1 + a2*d2 <= b``
with the nonnegative quadrant. Every halfspace is stored as coprime ``int``
coefficients and every vertex is a ``fractions.Fraction``. The reduction
kernel compares by integer cross-multiplication and no floating-point
arithmetic enters any predicate, so vertex lists and minimal facet sets are
bit-stable and safe to freeze as golden values.

The quadrant constraints ``d1 >= 0`` and ``d2 >= 0`` are implicit: they are
never stored in a region's halfspace list, but every feasibility test
accounts for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "Rational",
    "RegionError",
    "Halfspace",
    "DofRegion",
    "region_from_halfspaces",
    "contains",
    "is_subset",
    "equals",
    "boundary_slope",
    "region_to_dict",
    "region_to_json",
    "region_from_json",
]

Rational = Union[int, str, Fraction]

# A vertex is an exact point (d1, d2).
Vertex = tuple[Fraction, Fraction]


class RegionError(ValueError):
    """A halfspace list that cuts out no bounded region containing the origin."""


def _as_fraction(value: Rational) -> Fraction:
    """Coerce int/str/Fraction to Fraction. Floats are rejected outright
    so that rounding error can never leak into exact predicates, and bools
    so that a flag is never read as a count."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace a1*d1 + a2*d2 <= b.

    The constructor takes any exact rationals and canonicalizes them: the
    inequality is scaled by the unique positive rational that turns
    (a1, a2, b) into coprime integers, stored as ``int``. Two Halfspace
    values describe the same inequality iff they compare equal, which also
    makes structural equality of reduced regions meaningful.
    """

    a1: int
    a2: int
    b: int

    def __post_init__(self) -> None:
        a1 = _as_fraction(self.a1)
        a2 = _as_fraction(self.a2)
        b = _as_fraction(self.b)
        if a1 == 0 and a2 == 0:
            raise ValueError("halfspace normal must be nonzero")
        mult = lcm(a1.denominator, a2.denominator, b.denominator)
        i1, i2, ib = (q.numerator * (mult // q.denominator) for q in (a1, a2, b))
        g = gcd(i1, i2, ib)
        object.__setattr__(self, "a1", i1 // g)
        object.__setattr__(self, "a2", i2 // g)
        object.__setattr__(self, "b", ib // g)

    def contains(self, d1: Rational, d2: Rational) -> bool:
        # Cross-multiplied over the denominators q1, q2 > 0 of the point.
        (p1, q1), (p2, q2) = (_as_fraction(d).as_integer_ratio() for d in (d1, d2))
        return self.a1 * p1 * q2 + self.a2 * p2 * q1 <= self.b * q1 * q2


@dataclass(frozen=True)
class DofRegion:
    """Bounded convex region: minimal halfspace list plus derived vertices.

    ``halfspaces`` holds only irredundant non-axis facets in a canonical
    order; ``vertices`` is the exact extreme-point list, lexicographically
    sorted. Build instances with :func:`region_from_halfspaces`, never by
    hand, so both invariants hold.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[Vertex, ...]
    tag: str = ""


# The kernel below works on integer rows (a1, a2, b), one per halfspace,
# and integer points (n1, n2, den): the vertex (n1/den, n2/den) when
# den > 0, the recession direction (n1, n2) when den == 0. Either way a row
# holds at a point iff a1*n1 + a2*n2 <= b*den.
_Row = tuple[int, int, int]

# Implicit quadrant constraints, only ever used internally.
_AXES = ((-1, 0, 0), (0, -1, 0))


def _rows(halfspaces: Iterable[Halfspace]) -> list[_Row]:
    """The halfspaces' rows followed by the two axis rows."""
    return [(h.a1, h.a2, h.b) for h in halfspaces] + list(_AXES)


def _feasible_vertices(rows: Sequence[_Row]) -> Iterator[tuple[int, int, int]]:
    """Every basic feasible point of ``rows``, axis rows included.
    In two dimensions these are exactly the extreme points. A point is
    yielded once per pair of rows whose boundary lines meet there."""
    for (a1, a2, b), (c1, c2, c) in combinations(rows, 2):
        det = a1 * c2 - a2 * c1
        if det == 0:
            continue
        n1, n2 = b * c2 - c * a2, a1 * c - c1 * b
        if det < 0:
            n1, n2, det = -n1, -n2, -det
        if all(r1 * n1 + r2 * n2 <= rb * det for r1, r2, rb in rows):
            yield n1, n2, det


def _recession_rays(rows: Sequence[_Row]) -> Iterator[tuple[int, int, int]]:
    # Extreme rays of the recession cone {u >= 0 : a.u <= 0}. Every extreme
    # ray lies on some constraint boundary, so the two perpendiculars of each
    # normal cover them all; the axis rows contribute the axis directions. A
    # perpendicular is never zero because Halfspace rejects a zero normal.
    cands = [u for a1, a2, _ in rows for u in ((a2, -a1), (-a2, a1))]
    for n1, n2 in cands:
        if n1 >= 0 and n2 >= 0 and all(r1 * n1 + r2 * n2 <= 0 for r1, r2, _ in rows):
            yield n1, n2, 0


def _reduce(halfspaces: tuple[Halfspace, ...]) -> tuple[tuple[Halfspace, ...], tuple[Vertex, ...]]:
    """Drop redundant halfspaces and enumerate vertices.

    ``halfspaces`` must already be deduplicated and canonically sorted.
    """
    if any(_recession_rays(_rows(halfspaces))):
        raise RegionError("halfspace intersection is unbounded within the quadrant")
    kept = list(halfspaces)
    for h in list(kept):
        rest = _rows(x for x in kept if x is not h)
        # h is redundant iff the polyhedron cut out by the rest, which may
        # be unbounded, satisfies it at every extreme point and every ray.
        extremes = chain(_recession_rays(rest), _feasible_vertices(rest))
        if all(h.a1 * n1 + h.a2 * n2 <= h.b * den for n1, n2, den in extremes):
            kept.remove(h)
    # Dividing by the gcd gives each point one integer form, so duplicates
    # merge before any Fraction is built.
    points = set()
    for n1, n2, den in _feasible_vertices(_rows(kept)):
        g = gcd(n1, n2, den)
        points.add((n1 // g, n2 // g, den // g))
    vertices = sorted((Fraction(n1, den), Fraction(n2, den)) for n1, n2, den in points)
    return tuple(kept), tuple(vertices)


def region_from_halfspaces(halfspaces: Iterable, tag: str = "") -> DofRegion:
    """Build the canonical region cut out by ``halfspaces`` and the quadrant.

    Accepts Halfspace instances or (a1, a2, b) triples of exact rationals.
    Raises RegionError if some b < 0 (the origin is feasible otherwise, so
    the region is never empty) or if the intersection is unbounded. Input
    order and duplicates do not affect the result.
    """
    hs = tuple(h if isinstance(h, Halfspace) else Halfspace(*h) for h in halfspaces)
    if not hs:
        raise ValueError("need at least one halfspace")
    for h in hs:
        if h.b < 0:
            raise RegionError(f"halfspace {h} excludes the origin")
    key = tuple(sorted(set(hs), key=lambda h: (h.a1, h.a2, h.b)))
    minimal, vertices = _reduce(key)
    return DofRegion(minimal, vertices, tag)


def contains(region: DofRegion, point: tuple[Rational, Rational]) -> bool:
    """Exact membership test of a (d1, d2) pair."""
    d1, d2 = (_as_fraction(d) for d in point)
    if d1 < 0 or d2 < 0:
        return False
    return all(h.contains(d1, d2) for h in region.halfspaces)


def is_subset(a: DofRegion, b: DofRegion) -> bool:
    """True iff a is contained in b. Both regions are bounded and convex,
    so checking a's vertices against b's facets is exact."""
    return all(h.contains(*v) for v in a.vertices for h in b.halfspaces)


def equals(a: DofRegion, b: DofRegion) -> bool:
    """Geometric equality, independent of how either region was described.
    A bounded region is the hull of its vertices, which are stored exactly
    and sorted, so equal regions have equal vertex tuples."""
    return a.vertices == b.vertices


def boundary_slope(region: DofRegion) -> Optional[Fraction]:
    """Slope of the unique slanted facet, or None.

    Returns the exact slope -a1/a2 when the reduced region has exactly one
    stored (non-axis) facet, and None when there are several. A single
    stored facet always has a1 > 0 and a2 > 0, otherwise the region would
    have been rejected as unbounded.
    """
    if len(region.halfspaces) != 1:
        return None
    h = region.halfspaces[0]
    if h.a2 == 0:
        return None
    return Fraction(-h.a1, h.a2)


def _fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def region_to_dict(region: DofRegion) -> dict:
    """Plain-dict form with "p/q" strings for every rational."""
    return {
        "halfspaces": [
            {
                "a1": _fraction_to_str(h.a1),
                "a2": _fraction_to_str(h.a2),
                "b": _fraction_to_str(h.b),
            }
            for h in region.halfspaces
        ],
        "vertices": [[_fraction_to_str(v[0]), _fraction_to_str(v[1])] for v in region.vertices],
        "tag": region.tag,
    }


def region_to_json(region: DofRegion) -> str:
    """Canonical JSON: fixed key order and layout, so serialization
    round-trips byte for byte."""
    return json.dumps(region_to_dict(region), indent=2, sort_keys=True)


def region_from_json(text: str) -> DofRegion:
    """Rebuild a region from its JSON form.

    Every coefficient and vertex coordinate must be an int or an exact
    string such as "3/2", and the tag a string; a float, a bool or a
    malformed document raises ValueError.
    Vertices, when present, are cross-checked against the reconstruction;
    a mismatch means the document was edited inconsistently and raises
    ValueError.
    """
    data = json.loads(text)
    try:
        halfspaces = [Halfspace(h["a1"], h["a2"], h["b"]) for h in data["halfspaces"]]
        tag = data.get("tag", "")
        if not isinstance(tag, str):
            raise TypeError(f"tag must be a string, got {tag!r}")
        given = [(_as_fraction(d1), _as_fraction(d2)) for d1, d2 in data.get("vertices", ())]
    except KeyError as exc:
        raise ValueError(f"malformed region document: no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed region document: {exc}") from None
    region = region_from_halfspaces(halfspaces, tag=tag)
    if "vertices" in data and tuple(sorted(given)) != region.vertices:
        raise ValueError("vertex list does not match the stated halfspaces")
    return region
