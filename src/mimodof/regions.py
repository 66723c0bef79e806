"""Exact rational geometry for two-user degrees-of-freedom regions.

A region is the intersection of closed halfspaces ``a1*d1 + a2*d2 <= b``
with the nonnegative quadrant. Every halfspace is stored as coprime ``int``
coefficients and every vertex is a ``fractions.Fraction``. A region's
vertices are its corners, where two constraint lines meet and every
constraint holds; with three or more, its facets are the constraints that
hold with equality at two corners, and a point or a segment drops
redundant constraints one at a time. Every predicate is an integer
cross-multiplication, so vertex lists and minimal facet sets are bit-stable
and safe to freeze as golden values. Vertices are ordered lexicographically
by (d1, d2): they are sorted as int pairs over their common denominator,
never by a float key, and their Fractions are built after the sort.

The quadrant constraints ``d1 >= 0`` and ``d2 >= 0`` are implicit: they are
never stored in a region's halfspace list, but every feasibility test
accounts for them.

The JSON form writes every rational as a "p/q" string in lowest terms. The
reader takes those strings straight to ints; any other spelling goes
through ``Fraction``, which gives the same values and the same errors.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Optional, Union

__all__ = [
    "Rational",
    "RegionError",
    "Halfspace",
    "DofRegion",
    "region_from_halfspaces",
    "contains",
    "is_subset",
    "equals",
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
    """Coerce int/str/Fraction to a Fraction of Python ints. Floats are
    rejected outright so that rounding error can never leak into exact
    predicates, and bools so that a flag is never read as a count."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")
    q = value if isinstance(value, Fraction) else Fraction(value)
    # A numpy integer survives inside a Fraction, where products would wrap.
    n, d = q.numerator, q.denominator
    return q if type(n) is int is type(d) else Fraction(int(n), int(d))


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
        i1, i2, ib = self.a1, self.a2, self.b
        if not (type(i1) is int and type(i2) is int and type(ib) is int):
            a1, a2, b = (_as_fraction(q) for q in (i1, i2, ib))
            mult = lcm(a1.denominator, a2.denominator, b.denominator)
            i1, i2, ib = (q.numerator * (mult // q.denominator) for q in (a1, a2, b))
        if i1 == 0 and i2 == 0:
            raise ValueError("halfspace normal must be nonzero")
        g = gcd(i1, i2, ib)
        object.__setattr__(self, "a1", i1 // g)
        object.__setattr__(self, "a2", i2 // g)
        object.__setattr__(self, "b", ib // g)

    def contains(self, d1: Rational, d2: Rational) -> bool:
        return _holds((self,), ((_as_fraction(d1), _as_fraction(d2)),))


def _holds(halfspaces: tuple[Halfspace, ...], points: Iterable[Vertex]) -> bool:
    """True iff every halfspace holds at every point, cross-multiplied over
    the point's denominators q1, q2 > 0; the Fractions must hold ints."""
    for d1, d2 in points:
        (p1, q1), (p2, q2) = d1.as_integer_ratio(), d2.as_integer_ratio()
        x, y, z = p1 * q2, p2 * q1, q1 * q2
        if any(h.a1 * x + h.a2 * y > h.b * z for h in halfspaces):
            return False
    return True


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


Row = tuple[int, int, int]  # (a1, a2, b) for a1*d1 + a2*d2 <= b
_AXES: list[Row] = [(-1, 0, 0), (0, -1, 0)]
# Shared Fractions for the small whole coordinates that most vertices have.
_WHOLE = tuple(Fraction(n) for n in range(64))


def _corners(rows: list[Row]) -> Optional[set[Row]]:
    """The corners of ``rows`` (axes included), where two rows meet and all
    hold, as (n1, n2, den) in lowest terms for (n1/den, n2/den). None if the
    region is unbounded: some direction (n1, n2) >= 0 holds all rows with b
    read as 0. An extreme one lies along a row; the axes give the axis ones.
    Each point's test stops at the first row that fails."""
    for a1, a2, _ in rows:
        for n1, n2 in ((a2, -a1), (-a2, a1)):
            if n1 >= 0 and n2 >= 0 and all(c1 * n1 + c2 * n2 <= 0 for c1, c2, _ in rows):
                return None
    corners = set()
    for (a1, a2, b), (c1, c2, c) in combinations(rows, 2):
        det = a1 * c2 - a2 * c1
        if det:
            n1, n2 = b * c2 - c * a2, a1 * c - c1 * b
            if det < 0:
                n1, n2, det = -n1, -n2, -det
            for e1, e2, e in rows:
                if e1 * n1 + e2 * n2 > e * det:
                    break
            else:
                g = gcd(n1, n2, det)
                corners.add((n1 // g, n2 // g, det // g))
    return corners


def _reduce(rows: list[Row]) -> tuple[list[Row], tuple[Vertex, ...]]:
    """The irredundant ``rows`` (distinct, sorted, b >= 0) in their order,
    and the vertices: the corners of the rows and the axes. With three or
    more, the facets are the non-axis rows that hold with equality at two
    corners. Fewer make a point or a segment, which only rows with b = 0 cut
    out: each row in turn is dropped if the rest are bounded and it holds at
    all their corners. Vertices sort by (d1, d2) on the ints (n1*L/den,
    n2*L/den), L the lcm of the dens."""
    corners = _corners(rows + _AXES)
    if corners is None:
        raise RegionError("halfspace intersection is unbounded within the quadrant")
    if len(corners) >= 3:
        tight = [sum(a1 * n1 + a2 * n2 == b * den for n1, n2, den in corners) for a1, a2, b in rows]
        kept = [row for row, t in zip(rows, tight) if t >= 2 and row not in _AXES]
    else:
        kept = rows
        for a1, a2, b in rows:
            rest = [r for r in kept if r != (a1, a2, b)]
            if (implied := _corners(rest + _AXES)) and all(a1 * n1 + a2 * n2 <= b * den for n1, n2, den in implied):
                kept = rest
    common = lcm(*(den for _, _, den in corners))
    order = sorted((n1 * (common // den), n2 * (common // den), n1, n2, den) for n1, n2, den in corners)
    top = len(_WHOLE)
    vertices = tuple(
        (_WHOLE[n1], _WHOLE[n2]) if den == 1 and n1 < top > n2 else (Fraction(n1, den), Fraction(n2, den))
        for _, _, n1, n2, den in order
    )
    return kept, vertices


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
    by_row = {(h.a1, h.a2, h.b): h for h in hs}
    kept, vertices = _reduce(sorted(by_row))
    return DofRegion(tuple(by_row[row] for row in kept), vertices, tag)


def contains(region: DofRegion, point: tuple[Rational, Rational]) -> bool:
    """Exact membership test of a (d1, d2) pair."""
    d1, d2 = (_as_fraction(d) for d in point)
    if d1 < 0 or d2 < 0:
        return False
    return _holds(region.halfspaces, ((d1, d2),))


def is_subset(a: DofRegion, b: DofRegion) -> bool:
    """True iff a is contained in b. Both regions are bounded and convex,
    so checking a's vertices against b's facets is exact."""
    return _holds(b.halfspaces, a.vertices)


def equals(a: DofRegion, b: DofRegion) -> bool:
    """Geometric equality, independent of how either region was described.
    A bounded region is the hull of its vertices, which are stored exactly
    and sorted, so equal regions have equal vertex tuples."""
    return a.vertices == b.vertices


def _fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def region_to_dict(region: DofRegion) -> dict:
    """Plain-dict form with "p/q" strings for every rational."""
    return {
        "halfspaces": [{"a1": f"{h.a1}/1", "a2": f"{h.a2}/1", "b": f"{h.b}/1"} for h in region.halfspaces],
        "vertices": [[_fraction_to_str(d1), _fraction_to_str(d2)] for d1, d2 in region.vertices],
        "tag": region.tag,
    }


def region_to_json(region: DofRegion) -> str:
    """Canonical JSON: fixed key order and layout, so serialization
    round-trips byte for byte."""
    return json.dumps(region_to_dict(region), indent=2, sort_keys=True)


# The "p/q" form that _fraction_to_str writes, in ASCII digits.
_CANONICAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, in lowest terms. A
    "p/q" string in lowest terms with q > 0 is read as those ints; any other
    value goes through _as_fraction, with its errors."""
    if type(value) is str:
        m = _CANONICAL.fullmatch(value)
        if m is not None:
            p, q = int(m[1]), int(m[2])
            if q > 0 and gcd(p, q) == 1:
                return p, q
    return _as_fraction(value).as_integer_ratio()


def _coefficient(value) -> Rational:
    """An integer coefficient as an int, so Halfspace takes its all-int path."""
    p, q = _ratio(value)
    return p if q == 1 else Fraction(p, q)


def region_from_json(text: str) -> DofRegion:
    """Rebuild a region from its JSON form.

    Every coefficient and vertex coordinate must be an int or an exact
    string such as "3/2", and the tag a string; a float, a bool, a zero
    denominator or a malformed document raises ValueError. The "p/q"
    strings in lowest terms that :func:`region_to_json` writes are read as
    ints; any other spelling is read by ``Fraction``, with the same values.
    Vertices, when present, are cross-checked against the reconstruction;
    a mismatch means the document was edited inconsistently and raises
    ValueError.
    """
    data = json.loads(text)
    try:
        # Every key is looked up before any value is read.
        halfspaces = [Halfspace(*map(_coefficient, (h["a1"], h["a2"], h["b"]))) for h in data["halfspaces"]]
        tag = data.get("tag", "")
        if not isinstance(tag, str):
            raise TypeError(f"tag must be a string, got {tag!r}")
        given = [(_ratio(d1), _ratio(d2)) for d1, d2 in data.get("vertices", ())]
    except KeyError as exc:
        raise ValueError(f"malformed region document: no key {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:  # Fraction("1/0") raises the last
        raise ValueError(f"malformed region document: {exc}") from None
    region = region_from_halfspaces(halfspaces, tag=tag)
    # Lowest-terms pairs stand for the Fractions one to one, so comparing the
    # sorted pairs compares the document's vertices with the region's.
    if "vertices" in data and sorted(given) != sorted(
        (d1.as_integer_ratio(), d2.as_integer_ratio()) for d1, d2 in region.vertices
    ):
        raise ValueError("vertex list does not match the stated halfspaces")
    return region
