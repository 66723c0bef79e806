"""Exact-geometry tests.

Golden vertex sets below were derived by hand: enumerate all pairwise
intersections of constraint lines (axes included), keep the feasible ones.
Halfspace coefficients are coprime ints and vertices are Fractions, so
assertions are exact.
"""

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodof import (
    Halfspace,
    RegionError,
    contains,
    equals,
    is_subset,
    region_from_halfspaces,
    region_from_json,
    region_to_dict,
    region_to_json,
)
from mimodof.catalog import BcConfig, _sweep, bc_csit_region, bc_region
from mimodof.regions import _as_fraction


def verts(*points):
    return tuple(sorted((F(a), F(b)) for a, b in points))


class TestHalfspace:
    def test_canonical_integer_form(self):
        h = Halfspace(F(1, 2), F(1, 3), 1)
        assert (h.a1, h.a2, h.b) == (3, 2, 6)
        for g in (h, Halfspace(2, "4/3", 0), Halfspace(-1, 1, 0)):
            assert type(g.a1) is int
            assert type(g.a2) is int
            assert type(g.b) is int

    def test_scaling_gives_equal_value(self):
        assert Halfspace(2, 2, 4) == Halfspace(1, 1, 2)
        assert Halfspace(F(1, 2), F(1, 2), 1) == Halfspace(1, 1, 2)

    def test_sign_is_preserved(self):
        h = Halfspace(-1, 1, 0)
        assert (h.a1, h.a2) == (-1, 1)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="normal must be nonzero"):
            Halfspace(0, 0, 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="got float 0.5"):
            Halfspace(0.5, 1, 1)
        with pytest.raises(TypeError, match="got bool True"):
            Halfspace(True, 1, 1)

    def test_numpy_integers_stored_as_int(self):
        # Kept as np.int64, coefficients of this size would wrap silently in
        # the kernel's cross-products and move a vertex to (2**40, 0).
        big = 2**40
        triples = [(big, 1, big), (1, big, big)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = region_from_halfspaces([tuple(np.int64(c) for c in t) for t in triples])
            h = Halfspace(F(np.int64(big), 3), np.int64(1), 1)
            inside = contains(r, (np.int64(1), F(np.int64(0), np.int64(big))))
        assert r == region_from_halfspaces(triples)
        assert (F(1), F(0)) in r.vertices
        assert (h.a1, h.a2, h.b) == (big, 3, 3)
        assert inside
        for g in r.halfspaces + (h,):
            assert all(type(c) is int for c in (g.a1, g.a2, g.b))


class TestConstruction:
    def test_triangle(self):
        r = region_from_halfspaces([Halfspace(F(1, 2), F(1, 3), 1)])
        assert r.vertices == verts((0, 0), (2, 0), (0, 3))

    def test_origin_only(self):
        r = region_from_halfspaces([Halfspace(1, 0, 0), Halfspace(0, 1, 0)])
        assert r.vertices == verts((0, 0))

    def test_pentagon_drops_redundant_cap(self):
        # d1 <= 2 is implied by d1 + d2 <= 2 with d2 >= 0.
        r = region_from_halfspaces(
            [Halfspace(1, 0, 2), Halfspace(0, 1, 1), Halfspace(1, 1, 2)]
        )
        assert r.halfspaces == (Halfspace(0, 1, 1), Halfspace(1, 1, 2))
        assert r.vertices == verts((0, 0), (2, 0), (1, 1), (0, 1))

    def test_halfspace_order_is_irrelevant(self):
        hs = [Halfspace(1, 0, 2), Halfspace(0, 1, 1), Halfspace(1, 1, 2)]
        a = region_from_halfspaces(hs)
        b = region_from_halfspaces(hs[::-1])
        assert a == b

    def test_duplicates_are_merged(self):
        a = region_from_halfspaces([Halfspace(1, 1, 2), Halfspace(2, 2, 4)])
        assert a.halfspaces == (Halfspace(1, 1, 2),)

    def test_accepts_triples(self):
        r = region_from_halfspaces([(1, 1, 1)])
        assert r.vertices == verts((0, 0), (1, 0), (0, 1))

    def test_unbounded_rejected(self):
        with pytest.raises(RegionError, match="unbounded"):
            region_from_halfspaces([Halfspace(1, 0, 2)])
        with pytest.raises(RegionError, match="unbounded"):
            region_from_halfspaces([Halfspace(1, -1, 1)])

    def test_negative_bound_rejected(self):
        with pytest.raises(RegionError, match="excludes the origin"):
            region_from_halfspaces([Halfspace(1, 1, -1)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one halfspace"):
            region_from_halfspaces([])


class TestPredicates:
    def test_contains_boundary_and_interior(self):
        r = region_from_halfspaces([Halfspace(F(1, 2), F(1, 3), 1)])
        assert contains(r, (1, F(3, 2)))
        assert contains(r, (F(1), F(1)))
        assert contains(r, (0, 0))
        assert not contains(r, (2, 1))
        assert not contains(r, (F(-1), F(0)))
        # Both points satisfy the stored facet d1 + d2 <= 1; only the
        # quadrant excludes them.
        tri = region_from_halfspaces([Halfspace(1, 1, 1)])
        assert not contains(tri, (0, -1))
        assert not contains(tri, (-1, 0))

    def test_subset_and_equality(self):
        small = region_from_halfspaces([Halfspace(1, 1, 2)])
        big = region_from_halfspaces([Halfspace(F(1, 2), F(1, 3), 1)])
        assert is_subset(small, big)
        assert not is_subset(big, small)
        assert not equals(small, big)
        assert equals(big, region_from_halfspaces([Halfspace(3, 2, 6)]))

    def test_degenerate_segment_subset(self):
        seg = region_from_halfspaces([Halfspace(0, 1, 0), Halfspace(1, 0, 1)])
        tri = region_from_halfspaces([Halfspace(1, 1, 1)])
        assert is_subset(seg, tri)

    def test_slanted_facets_are_stored_as_coprime_rows(self):
        # A region keeps each facet that bounds it as its canonical coprime
        # integer row and drops the redundant ones: d1 <= 2 here.
        single = region_from_halfspaces([Halfspace(F(1, 2), F(1, 3), 1)])
        assert single.halfspaces == (Halfspace(3, 2, 6),)
        assert all(type(v) is int for v in (single.halfspaces[0].a1, single.halfspaces[0].a2))
        assert region_from_halfspaces([Halfspace(1, 1, 1)]).halfspaces == (Halfspace(1, 1, 1),)
        two_facets = region_from_halfspaces(
            [Halfspace(1, 0, 2), Halfspace(0, 1, 1), Halfspace(1, 1, 2)]
        )
        assert two_facets.halfspaces == (Halfspace(0, 1, 1), Halfspace(1, 1, 2))


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        r = region_from_halfspaces(
            [Halfspace(F(1, 2), F(1, 3), 1), Halfspace(1, 0, 1)], tag="demo"
        )
        text = region_to_json(r)
        again = region_from_json(text)
        assert again == r
        assert region_to_json(again) == text

    def test_vertex_mismatch_rejected(self):
        r = region_from_halfspaces([Halfspace(1, 1, 1)])
        doc = region_to_dict(r)
        doc["vertices"][0] = ["1/2", "1/2"]
        with pytest.raises(ValueError, match="vertex list does not match"):
            region_from_json(__import__("json").dumps(doc))

    def test_catalog_regions_round_trip_byte_for_byte(self):
        # Every distinct region of the [1,6]^4 interference sweep and every
        # broadcast region of [1,8]^3: the canonical reader must rebuild each
        # one and write it back unchanged.
        regions = {id(r): r for _, cr in _sweep(6) for r in (cr.no_csit, cr.outer, cr.inner, cr.csit) if r}
        for antennas in product(range(1, 9), repeat=3):
            for r in (bc_region(BcConfig(*antennas)), bc_csit_region(BcConfig(*antennas))):
                regions[id(r)] = r
        for r in regions.values():
            text = region_to_json(r)
            again = region_from_json(text)
            assert again == r
            assert region_to_json(again) == text

    @pytest.mark.parametrize(
        "value",
        ["2/4", "01/1", "-0/1", "+1/1", " 1/1", "1_0/1", "\u0661/1", "1.5", "3/2", 2],
        ids=["unreduced", "leading-zero", "minus-zero", "plus", "space", "underscore", "arabic-indic",
             "decimal", "non-integer", "json-int"],
    )
    def test_other_spellings_read_as_their_fraction(self, value):
        # Only the exact "p/q" form the writer emits is read as ints; any
        # other spelling must give what its Fraction value gives, or the
        # error reading that value raises.
        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return str(exc)

        def parsed(doc):
            return outcome(lambda: region_from_json(json.dumps(doc)))

        try:
            q = _as_fraction(value)
        except (TypeError, ValueError) as exc:
            q, refused = None, f"malformed region document: {exc}"
        # As a coefficient, beside a cap that keeps the region bounded.
        doc = {"halfspaces": [{"a1": value, "a2": "1/1", "b": "4/1"}, {"a1": "1/1", "a2": "1/1", "b": "6/1"}]}
        want = refused if q is None else outcome(lambda: region_from_halfspaces([(q, 1, 4), (1, 1, 6)]))
        assert parsed(doc) == want
        # As the cap of d1 <= value, d2 <= 1 and as the vertex coordinates
        # that cap gives, which must match unless the cap is 0.
        doc = {
            "halfspaces": [{"a1": "1/1", "a2": "0/1", "b": value}, {"a1": "0/1", "a2": "1/1", "b": "1/1"}],
            "vertices": [[value, "0/1"], [value, "1/1"], ["0/1", "0/1"], ["0/1", "1/1"]],
        }
        want = refused if q is None else outcome(lambda: region_from_halfspaces([(1, 0, q), (0, 1, 1)]))
        if not isinstance(want, str) and want.vertices != verts((q, 0), (q, 1), (0, 0), (0, 1)):
            want = "vertex list does not match the stated halfspaces"
        assert parsed(doc) == want

    @pytest.mark.parametrize(
        "text, rule",
        [
            ("{}", "no key 'halfspaces'"),
            ("[]", "list indices"),
            ('{"halfspaces": [{"a1": 1, "b": 1}]}', "no key 'a2'"),
            ('{"halfspaces": [{"a1": null, "a2": 1, "b": 1}]}', "string or a"),
            ('{"halfspaces": [{"a1": true, "a2": 1, "b": 1}]}', "got bool True"),
            ('{"halfspaces": [{"a1": 0.1, "a2": 1, "b": 1}]}', "got float 0.1"),
            ('{"halfspaces": [{"a1": 1, "a2": 1, "b": 1}], "vertices": [[0]]}', "unpack"),
            # A list tag would make the frozen region unhashable.
            ('{"halfspaces": [{"a1": 1, "a2": 1, "b": 1}], "tag": [1]}', "tag must be a string"),
            ('{"halfspaces": [{"a1": "1/0", "a2": 1, "b": 1}]}', "Fraction(1, 0)"),
            ('{"halfspaces": [{"a1": 1, "a2": 1, "b": 1}], "vertices": [["0/0", "0/1"]]}', "Fraction(0, 0)"),
        ],
        ids=["empty", "list", "missing-key", "null", "bool", "float", "short-vertex", "tag",
             "zero-denominator", "zero-over-zero-vertex"],
    )
    def test_malformed_document_rejected(self, text, rule):
        # A float would enter the kernel as its binary expansion, and a
        # bool as 0 or 1.
        with pytest.raises(ValueError, match="^malformed region document: ") as info:
            region_from_json(text)
        assert rule in str(info.value)


# Strategies: modest coprime coefficients keep the geometry varied but the
# arithmetic small. Every generated list gets one all-positive halfspace so
# the region is bounded.

rationals = st.fractions(min_value=F(0), max_value=F(5), max_denominator=4)
pos_rationals = st.fractions(min_value=F(1, 4), max_value=F(5), max_denominator=4)


@st.composite
def bounded_halfspace_lists(draw):
    cap = Halfspace(draw(pos_rationals), draw(pos_rationals), draw(rationals))
    triples = draw(
        st.lists(
            st.tuples(rationals, rationals, rationals).filter(
                lambda t: t[0] != 0 or t[1] != 0
            ),
            max_size=3,
        )
    )
    return [cap] + [Halfspace(*t) for t in triples]


class TestProperties:
    @given(bounded_halfspace_lists())
    @settings(max_examples=120, deadline=None)
    def test_canonical_reconstruction(self, hs):
        r = region_from_halfspaces(hs, tag="t")
        again = region_from_halfspaces(r.halfspaces, tag="t")
        assert again == r

    @given(bounded_halfspace_lists())
    @settings(max_examples=120, deadline=None)
    def test_vertices_feasible_with_two_active(self, hs):
        r = region_from_halfspaces(hs)
        axes = (Halfspace(-1, 0, 0), Halfspace(0, -1, 0))
        for v in r.vertices:
            assert contains(r, v)
            active = sum(h.a1 * v[0] + h.a2 * v[1] == h.b for h in r.halfspaces + axes)
            assert active >= 2

    @given(bounded_halfspace_lists())
    @settings(max_examples=100, deadline=None)
    def test_subset_reflexive_and_scaling_chain(self, hs):
        r = region_from_halfspaces(hs)
        assert is_subset(r, r)
        half = region_from_halfspaces([Halfspace(h.a1, h.a2, F(h.b, 2)) for h in hs])
        quarter = region_from_halfspaces([Halfspace(h.a1, h.a2, F(h.b, 4)) for h in hs])
        assert is_subset(quarter, half)
        assert is_subset(half, r)
        assert is_subset(quarter, r)

    @given(bounded_halfspace_lists(), bounded_halfspace_lists())
    @settings(max_examples=100, deadline=None)
    def test_subset_antisymmetric(self, hs_a, hs_b):
        a = region_from_halfspaces(hs_a)
        b = region_from_halfspaces(hs_b)
        if is_subset(a, b) and is_subset(b, a):
            assert a.vertices == b.vertices
        assert equals(a, b) == (is_subset(a, b) and is_subset(b, a))

    @given(bounded_halfspace_lists())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, hs):
        r = region_from_halfspaces(hs)
        assert region_from_json(region_to_json(r)) == r


# Reference: the Fraction-based kernel that the integer kernel replaced,
# kept as it was (without its memo) so the two can be compared on inputs
# the catalog never produces: b = 0, negative coefficients, unbounded and
# infeasible lists.


@dataclass(frozen=True)
class _RefHalfspace:
    a1: F
    a2: F
    b: F

    def __post_init__(self) -> None:
        a1 = _as_fraction(self.a1)
        a2 = _as_fraction(self.a2)
        b = _as_fraction(self.b)
        if a1 == 0 and a2 == 0:
            raise ValueError("halfspace normal must be nonzero")
        mult = lcm(a1.denominator, a2.denominator, b.denominator)
        i1, i2, ib = int(a1 * mult), int(a2 * mult), int(b * mult)
        g = gcd(i1, i2, ib)
        object.__setattr__(self, "a1", F(i1 // g))
        object.__setattr__(self, "a2", F(i2 // g))
        object.__setattr__(self, "b", F(ib // g))

    def contains(self, d1, d2) -> bool:
        return self.a1 * _as_fraction(d1) + self.a2 * _as_fraction(d2) <= self.b


_REF_AXES = (_RefHalfspace(-1, 0, 0), _RefHalfspace(0, -1, 0))


def _ref_solve_pair(g, h):
    det = g.a1 * h.a2 - g.a2 * h.a1
    if det == 0:
        return None
    d1 = (g.b * h.a2 - h.b * g.a2) / det
    d2 = (g.a1 * h.b - h.a1 * g.b) / det
    return (d1, d2)


def _ref_feasible_vertices(cons):
    found = set()
    for g, h in combinations(cons, 2):
        point = _ref_solve_pair(g, h)
        if point is None:
            continue
        if all(c.contains(*point) for c in cons):
            found.add(point)
    return sorted(found)


def _ref_ray_candidates(cons):
    cands = {(F(1), F(0)), (F(0), F(1))}
    for h in cons:
        for u in ((h.a2, -h.a1), (-h.a2, h.a1)):
            if u[0] >= 0 and u[1] >= 0 and u != (0, 0):
                cands.add((F(u[0]), F(u[1])))
    return sorted(cands)


def _ref_recession_rays(cons):
    rays = []
    for u in _ref_ray_candidates(cons):
        if all(c.a1 * u[0] + c.a2 * u[1] <= 0 for c in cons):
            rays.append(u)
    return rays


def _ref_implied(h, cons):
    for u in _ref_recession_rays(cons):
        if h.a1 * u[0] + h.a2 * u[1] > 0:
            return False
    return all(h.contains(*v) for v in _ref_feasible_vertices(cons))


def _ref_reduce(halfspaces):
    cons = halfspaces + _REF_AXES
    if _ref_recession_rays(cons):
        raise RegionError("halfspace intersection is unbounded within the quadrant")
    kept = list(halfspaces)
    for h in list(kept):
        rest = tuple(x for x in kept if x is not h) + _REF_AXES
        if _ref_implied(h, rest):
            kept.remove(h)
    vertices = tuple(_ref_feasible_vertices(tuple(kept) + _REF_AXES))
    return tuple(kept), vertices


def _ref_region(triples):
    hs = tuple(_RefHalfspace(*t) for t in triples)
    if not hs:
        raise ValueError("need at least one halfspace")
    for h in hs:
        if h.b < 0:
            raise RegionError(f"halfspace {h} excludes the origin")
    key = tuple(sorted(set(hs), key=lambda h: (h.a1, h.a2, h.b)))
    return _ref_reduce(key)


def _outcome(build, triples):
    """(halfspace triples, vertices) of the built region, or the type of
    the error raised while building it and the rule it names. The two
    kernels print their halfspaces differently, so the rule is a fragment
    of the message, not all of it."""
    try:
        halfspaces, vertices = build(triples)
    except ValueError as exc:
        return type(exc), next((k for k in ("unbounded", "excludes the origin") if k in str(exc)), None)
    return tuple((h.a1, h.a2, h.b) for h in halfspaces), vertices


def _integer_region(triples):
    r = region_from_halfspaces(triples)
    return r.halfspaces, r.vertices


signed = st.one_of(
    st.just(F(0)), st.fractions(min_value=F(-4), max_value=F(4), max_denominator=4)
)


@st.composite
def any_halfspace_lists(draw):
    triples = draw(st.lists(st.tuples(signed, signed, signed), max_size=4))
    if draw(st.booleans()):
        # A positive cap makes a bounded region likely.
        triples.append((draw(pos_rationals), draw(pos_rationals), draw(rationals)))
    return triples


class TestAgainstFractionReference:
    @given(any_halfspace_lists())
    @settings(max_examples=300, deadline=None)
    def test_same_halfspaces_vertices_and_errors(self, triples):
        expected = _outcome(_ref_region, triples)
        got = _outcome(_integer_region, triples)
        assert got == expected
        if not isinstance(got[0], type):  # built, not refused
            assert all(type(c) is int for h in got[0] for c in h)
            assert all(type(c) is F for v in got[1] for c in v)

    # Cases random lists seldom reach, where removing one halfspace at a
    # time in canonical order decides which facets stay: (input, kept
    # facets, vertices).
    @pytest.mark.parametrize(
        "triples, kept, vertices",
        [
            ([(1, 1, 0)], [(1, 1, 0)], [(0, 0)]),
            ([(1, 0, 2), (0, 1, 0)], [(0, 1, 0), (1, 0, 2)], [(0, 0), (2, 0)]),
            ([(0, 1, 3), (1, 0, 0)], [(0, 1, 3), (1, 0, 0)], [(0, 0), (0, 3)]),
            ([(1, 1, 2), (1, 2, 4)], [(1, 1, 2)], [(0, 0), (0, 2), (2, 0)]),
            ([(-1, 0, 0), (1, 1, 2)], [(1, 1, 2)], [(0, 0), (0, 2), (2, 0)]),
            ([(0, -1, 0), (2, 1, 3)], [(2, 1, 3)], [(0, 0), (0, 3), ("3/2", 0)]),
            (
                [(2, 1, 3), (1, 2, 3), (1, 1, 2)],
                [(1, 2, 3), (2, 1, 3)],
                [(0, 0), (0, "3/2"), (1, 1), ("3/2", 0)],
            ),
            ([(0, 1, 0), (1, 0, 1), (1, 1, 1)], [(0, 1, 0), (1, 1, 1)], [(0, 0), (1, 0)]),
            ([(1, 0, 0), (0, 1, 1), (1, 1, 1)], [(1, 0, 0), (1, 1, 1)], [(0, 0), (0, 1)]),
            (
                [(1, -1, 0), (-1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)],
                [(-1, 1, 0), (1, -1, 0), (1, 1, 2)],
                [(0, 0), (1, 1)],
            ),
        ],
        ids=[
            "origin-alone",
            "segment-on-d1-axis",
            "segment-on-d2-axis",
            "cap-touching-one-vertex",
            "user-row-is-d1-axis",
            "user-row-is-d2-axis",
            "three-facets-through-one-vertex",
            "caps-redundant-in-turn-on-d1-axis",
            "caps-redundant-in-turn-on-d2-axis",
            "caps-redundant-in-turn-on-diagonal",
        ],
    )
    def test_degenerate_inputs(self, triples, kept, vertices):
        expected = _outcome(_ref_region, triples)
        assert _outcome(_integer_region, triples) == expected
        assert expected == (tuple(kept), verts(*vertices))

    # Vertex orders that the small strategies above never reach and a float
    # sort key gets wrong: coordinates that round to the same float, and
    # coefficients of 2**60 and more. Vertices are listed in exact order.
    @pytest.mark.parametrize(
        "triples, vertices",
        [
            (
                [(0, 1, 1), (2**53, 1, 2**53 + 1)],
                [(0, 0), (0, 1), (1, 1), (F(2**53 + 1, 2**53), 0)],
            ),
            (
                [(0, 1, 1), (2**62 + 1, 1, 2**62 + 3)],
                [(0, 0), (0, 1), (F(2**62 + 2, 2**62 + 1), 1), (F(2**62 + 3, 2**62 + 1), 0)],
            ),
            (
                [(1, -1, 0), (1, 0, 1), (2**61 - 1, 2**61, 2**62)],
                [(0, 0), (0, 2), (1, 1), (1, F(2**61 + 1, 2**61))],
            ),
        ],
        ids=["d1-within-one-ulp", "coefficients-above-2**60", "d2-within-one-ulp"],
    )
    def test_vertex_order_is_exact(self, triples, vertices):
        expected = _outcome(_ref_region, triples)
        assert _outcome(_integer_region, triples) == expected
        assert expected[1] == tuple((F(d1), F(d2)) for d1, d2 in vertices)

    @given(bounded_halfspace_lists(), bounded_halfspace_lists())
    @settings(max_examples=100, deadline=None)
    def test_subset_and_contains_match_fraction_arithmetic(self, hs_a, hs_b):
        a, b = region_from_halfspaces(hs_a), region_from_halfspaces(hs_b)

        def holds(h, v):
            return F(h.a1) * v[0] + F(h.a2) * v[1] <= F(h.b)

        assert is_subset(a, b) == all(holds(h, v) for v in a.vertices for h in b.halfspaces)
        moved = tuple((v[0] / 2 + 1, v[1] + F(1, 3)) for v in a.vertices)
        for v in a.vertices + moved:
            for h in b.halfspaces:
                assert h.contains(*v) == holds(h, v)
            assert contains(b, v) == all(holds(h, v) for h in b.halfspaces)
