"""Catalog tests: closed-form regions and the case classifier.

Golden vertex sets were derived by hand from the constraint lists (see
test_regions.py for the method) and cross-checked against the classifier's
own invariants by the sweep tests at the bottom.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict, replace
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimodof import (
    BcConfig,
    CasePartitionError,
    Halfspace,
    IcConfig,
    SCHEME_RX_ZF,
    SCHEME_TDM,
    SCHEME_UNKNOWN,
    TABLE_EQUAL,
    TABLE_UNEQUAL,
    bc_csit_region,
    bc_region,
    case_partition_check,
    equals,
    ic_classify,
    ic_csit_region,
    is_subset,
    region_from_halfspaces,
    region_to_dict,
    region_to_json,
)
from mimodof import catalog


def verts(*points):
    return tuple(sorted((F(a), F(b)) for a, b in points))


class TestBroadcast:
    def test_region_goldens(self):
        assert bc_region(BcConfig(4, 2, 3)).vertices == verts((0, 0), (2, 0), (0, 3))
        assert bc_region(BcConfig(1, 2, 3)).vertices == verts((0, 0), (1, 0), (0, 1))
        assert bc_region(BcConfig(2, 2, 2)).vertices == verts((0, 0), (2, 0), (0, 2))

    def test_region_is_single_facet(self):
        assert bc_region(BcConfig(4, 2, 3)).halfspaces == (Halfspace(3, 2, 6),)

    def test_csit_goldens(self):
        assert bc_csit_region(BcConfig(2, 1, 1)).vertices == verts(
            (0, 0), (1, 0), (1, 1), (0, 1)
        )
        assert bc_csit_region(BcConfig(4, 2, 3)).vertices == verts(
            (0, 0), (2, 0), (2, 2), (1, 3), (0, 3)
        )

    def test_equals_csit_iff_enough_receive_antennas(self):
        for m, n1, n2 in product(range(1, 6), repeat=3):
            config = BcConfig(m, n1, n2)
            expect = m <= min(n1, n2)
            assert equals(bc_region(config), bc_csit_region(config)) == expect

    def test_no_csit_always_inside_csit(self):
        for m, n1, n2 in product(range(1, 6), repeat=3):
            config = BcConfig(m, n1, n2)
            assert is_subset(bc_region(config), bc_csit_region(config))

    def test_slope_law(self):
        for m, n1, n2 in product(range(1, 7), repeat=3):
            (facet,) = bc_region(BcConfig(m, n1, n2)).halfspaces
            assert F(-facet.a1, facet.a2) == F(-min(m, n2), min(m, n1))

    def test_bad_antennas_rejected(self):
        with pytest.raises(ValueError, match="M must be an integer >= 1, got 0"):
            BcConfig(0, 1, 1)
        with pytest.raises(ValueError, match="N1 must be an integer >= 1, got -2"):
            BcConfig(1, -2, 1)


class TestInterferenceGoldens:
    def test_case_one_pentagon(self):
        cr = ic_classify(IcConfig(2, 1, 2, 3))
        assert (cr.label.table, cr.label.case_id) == (TABLE_UNEQUAL, "I")
        assert cr.label.scheme == SCHEME_RX_ZF
        assert cr.label.region_known and cr.label.csit_equal
        assert cr.no_csit.vertices == verts((0, 0), (2, 0), (1, 1), (0, 1))

    def test_case_two_triangle(self):
        cr = ic_classify(IcConfig(2, 3, 2, 3))
        assert (cr.label.table, cr.label.case_id) == (TABLE_UNEQUAL, "II")
        assert cr.label.scheme == SCHEME_TDM
        assert cr.label.region_known and not cr.label.csit_equal
        assert cr.no_csit.vertices == verts((0, 0), (2, 0), (0, 3))

    def test_case_three_bounds(self):
        cr = ic_classify(IcConfig(1, 3, 2, 4))
        assert (cr.label.table, cr.label.case_id) == (TABLE_UNEQUAL, "III")
        assert cr.label.scheme == SCHEME_UNKNOWN
        assert not cr.label.region_known and not cr.label.csit_equal
        assert cr.no_csit is None
        assert cr.outer.vertices == verts((0, 0), (1, 0), (1, F(3, 2)), (0, 3))
        assert cr.inner.vertices == verts((0, 0), (1, 0), (1, 1), (0, 3))
        assert is_subset(cr.inner, cr.outer)
        assert not is_subset(cr.outer, cr.inner)

    def test_equal_receivers_case_two(self):
        cr = ic_classify(IcConfig(3, 3, 2, 2))
        assert (cr.label.table, cr.label.case_id) == (TABLE_EQUAL, "II")
        assert cr.no_csit.vertices == verts((0, 0), (2, 0), (0, 2))

    def test_equal_receivers_case_one(self):
        cr = ic_classify(IcConfig(2, 3, 2, 2))
        assert (cr.label.table, cr.label.case_id) == (TABLE_EQUAL, "I")
        assert cr.label.csit_equal
        assert cr.no_csit.vertices == verts((0, 0), (2, 0), (0, 2))

    def test_csit_goldens(self):
        assert ic_csit_region(IcConfig(1, 3, 2, 4)).vertices == verts(
            (0, 0), (1, 0), (1, 2), (0, 3)
        )
        assert ic_csit_region(IcConfig(1, 1, 1, 1)).vertices == verts(
            (0, 0), (1, 0), (0, 1)
        )
        assert ic_csit_region(IcConfig(2, 1, 2, 3)).vertices == verts(
            (0, 0), (2, 0), (1, 1), (0, 1)
        )

    def test_outer_bound_matches_region_when_known(self):
        for ant in [(2, 1, 2, 3), (2, 3, 2, 3), (3, 3, 2, 2), (2, 3, 2, 2), (1, 1, 1, 1)]:
            cr = ic_classify(IcConfig(*ant))
            assert equals(ic_classify(IcConfig(*ant)).outer, cr.no_csit)

    def test_swapped_users_mirror(self):
        cr = ic_classify(IcConfig(3, 1, 3, 2))
        assert cr.label.swapped
        assert (cr.label.table, cr.label.case_id) == (TABLE_UNEQUAL, "III")
        mir = ic_classify(IcConfig(1, 3, 2, 3))
        assert cr.outer.vertices == tuple(
            sorted((v2, v1) for v1, v2 in mir.outer.vertices)
        )


ic_configs = st.builds(
    IcConfig,
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 6),
)


class TestClassifierProperties:
    @given(ic_configs)
    @settings(max_examples=150, deadline=None)
    def test_swap_symmetry(self, config):
        # Exchanging the users mirrors every region as a whole: the stored
        # facets (in canonical order), the vertices and the tag.
        cr = ic_classify(config)
        swapped = ic_classify(config.swapped())

        def whole(region):
            return (
                tuple((h.a1, h.a2, h.b) for h in region.halfspaces),
                region.vertices,
                region.tag,
            )

        def mirror(region):
            return (
                tuple(sorted((h.a2, h.a1, h.b) for h in region.halfspaces)),
                tuple(sorted((b, a) for a, b in region.vertices)),
                region.tag,
            )

        for name in ("no_csit", "outer", "inner", "csit"):
            mine, theirs = getattr(cr, name), getattr(swapped, name)
            assert (mine is None) == (theirs is None), name
            if mine is not None:
                assert whole(mine) == mirror(theirs), name
        for field in ("table", "case_id", "region_known", "csit_equal", "scheme"):
            assert getattr(cr.label, field) == getattr(swapped.label, field), field

    @given(ic_configs)
    @settings(max_examples=150, deadline=None)
    def test_bound_chain(self, config):
        cr = ic_classify(config)
        assert is_subset(cr.inner, cr.outer)
        assert is_subset(cr.outer, cr.csit)

    @given(ic_configs)
    @settings(max_examples=150, deadline=None)
    def test_equal_receivers_collapse(self, config):
        cr = ic_classify(config)
        if config.N1 == config.N2:
            assert cr.label.case_id != "III"
            assert equals(cr.inner, cr.outer)


class TestGolden:
    def test_classifier_documents_sha256(self):
        # One hash over every classifier document in [1,6]^4, so any change
        # to a region, label or tag in either user order shows here.
        h = hashlib.sha256()
        for antennas in product(range(1, 7), repeat=4):
            doc = ic_classify(IcConfig(*antennas)).to_dict()
            h.update(json.dumps(doc, sort_keys=True).encode())
        assert h.hexdigest() == (
            "4c935a7f16e2c6f40d405c0b02b031a6893ac357cab37ee7f40521570c912824"
        )

    def test_broadcast_documents_sha256(self):
        # The same for both broadcast regions of every config in [1,8]^3.
        h = hashlib.sha256()
        for antennas in product(range(1, 9), repeat=3):
            config = BcConfig(*antennas)
            for region in (bc_region(config), bc_csit_region(config)):
                h.update(region_to_json(region).encode())
        assert h.hexdigest() == (
            "c802e7cb0c24d5112cf8d745fcc7da815472fbb5393bbe3522abf5b2ab5a74dc"
        )


def _containers(obj):
    """Every list and dict inside a JSON-like document, the document too."""
    if isinstance(obj, (list, dict)):
        yield obj
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(item)


class TestToDict:
    def test_matches_asdict_and_region_to_dict(self):
        for antennas in product(range(1, 5), repeat=4):
            cr = ic_classify(IcConfig(*antennas))
            reference = {
                "label": asdict(cr.label),
                "no_csit": None if cr.no_csit is None else region_to_dict(cr.no_csit),
                "outer": region_to_dict(cr.outer),
                "inner": region_to_dict(cr.inner),
                "csit": region_to_dict(cr.csit),
            }
            got = json.dumps(cr.to_dict(), sort_keys=True)
            assert got == json.dumps(reference, sort_keys=True), antennas

    def test_keys_share_no_list_or_dict(self):
        for antennas in product(range(1, 5), repeat=4):
            doc = ic_classify(IcConfig(*antennas)).to_dict()
            parts = list(_containers(doc))
            assert len({id(part) for part in parts}) == len(parts), antennas

    def test_editing_one_key_leaves_the_others(self):
        # Case I: one region object is no_csit, outer and inner.
        cr = ic_classify(IcConfig(1, 2, 3, 4))
        assert cr.no_csit is cr.outer is cr.inner
        doc = cr.to_dict()
        before = json.dumps([doc["outer"], doc["no_csit"]])
        doc["inner"]["vertices"][0][0] = "7/1"
        doc["inner"]["vertices"].append(["9/1", "9/1"])
        doc["inner"]["halfspaces"][0]["b"] = "7/1"
        assert json.dumps([doc["outer"], doc["no_csit"]]) == before


# d1 + d2 <= 1/2 lies inside every CSIT region and equals none of them.
SMALL = region_from_halfspaces([(2, 2, 1)])


class TestPartitionCheck:
    def test_small_sweeps_pass(self):
        assert case_partition_check(1) is True
        assert case_partition_check(4) is True

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError, match="limit must be an integer >= 1, got 0"):
            case_partition_check(0)

    def test_violations_carry_the_config(self):
        err = CasePartitionError(IcConfig(1, 2, 3, 4), "demo")
        assert err.config == IcConfig(1, 2, 3, 4)

    def test_sweep_reduces_each_distinct_region_once(self, monkeypatch):
        # 101 distinct (rows, tag) pairs over [1,4]^4; one classification per
        # config, with no memo, makes 524 reductions.
        calls = []
        reduce = catalog.region_from_halfspaces
        monkeypatch.setattr(
            catalog, "region_from_halfspaces", lambda rows, tag: calls.append(tag) or reduce(rows, tag=tag)
        )
        assert case_partition_check(4) is True
        assert len(calls) == 101

    def test_sweep_matches_one_classification_per_config(self):
        swept = list(catalog._sweep(5))
        assert [config for config, _ in swept] == [IcConfig(*c) for c in product(range(1, 6), repeat=4)]
        for config, cr in swept:
            fresh = ic_classify(config)
            assert cr.label == fresh.label
            for name in ("no_csit", "outer", "inner", "csit"):
                assert getattr(cr, name) == getattr(fresh, name)

    def test_a_broken_classifier_names_the_first_violating_config(self, monkeypatch):
        # Claim every case II region equals the CSIT region; the check must
        # stop at the first case II config in sweep order.
        classify = catalog._classify

        def broken(config, memo):
            cr = classify(config, memo)
            if cr.label.case_id == "II":
                cr = replace(cr, label=replace(cr.label, csit_equal=True))
            return cr

        monkeypatch.setattr(catalog, "_classify", broken)
        first = next(
            IcConfig(*c) for c in product(range(1, 4), repeat=4) if ic_classify(IcConfig(*c)).label.case_id == "II"
        )
        with pytest.raises(CasePartitionError) as raised:
            case_partition_check(3)
        assert raised.value.config == first
        assert raised.value.reason == "csit_equal disagrees with comparing the region to the CSIT region"

    # Each fault spoils the classifier's output on the configs it names; the
    # check must stop at the first of them, in sweep order, for the reason
    # given. The last two are the faults of the rules "case III must not
    # appear when N1 = N2" and "bounds must collapse when N1 = N2", which
    # could never fire: the rules before them report both.
    FAULTS = {
        "inner-outside-outer": (
            lambda config, cr: cr.label.case_id == "III",
            lambda cr: replace(cr, inner=cr.outer, outer=cr.inner),
            "inner bound not contained in outer bound",
        ),
        "outer-outside-csit": (
            lambda config, cr: cr.label.case_id == "III",
            lambda cr: replace(cr, csit=cr.inner),
            "outer bound not contained in the CSIT region",
        ),
        "case-one-short-of-csit": (
            lambda config, cr: cr.label.case_id == "I",
            lambda cr: replace(
                cr, no_csit=SMALL, outer=SMALL, inner=SMALL, label=replace(cr.label, csit_equal=False)
            ),
            "case I region must equal the CSIT region",
        ),
        "case-two-equal-to-csit": (
            lambda config, cr: cr.label.case_id == "II",
            lambda cr: replace(
                cr, no_csit=cr.csit, outer=cr.csit, inner=cr.csit, label=replace(cr.label, csit_equal=True)
            ),
            "case II region must shrink strictly from the CSIT region",
        ),
        "equal-receivers-inner-shrinks": (
            lambda config, cr: config.N1 == config.N2,
            lambda cr: replace(cr, inner=SMALL),
            "known region must coincide with both bounds",
        ),
        "equal-receivers-case-three": (
            lambda config, cr: config.N1 == config.N2,
            lambda cr: replace(cr, label=replace(cr.label, case_id="III")),
            "classifier picked a case other than the one its conditions give",
        ),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_relation_fault_is_reported_at_its_first_config(self, fault, monkeypatch):
        applies, spoil, reason = self.FAULTS[fault]
        classify = catalog._classify

        def broken(config, memo):
            cr = classify(config, memo)
            return spoil(cr) if applies(config, cr) else cr

        first = next(config for config, cr in catalog._sweep(4) if applies(config, cr))
        monkeypatch.setattr(catalog, "_classify", broken)
        with pytest.raises(CasePartitionError) as raised:
            case_partition_check(4)
        assert (raised.value.config, raised.value.reason) == (first, reason)

    def test_the_relation_memo_never_answers_for_an_unseen_object(self, monkeypatch):
        # Every config gets fresh copies of its bounds, which die with it, and
        # one late case III config gets the CSIT region as its inner bound.
        # CPython may give a new object the id of a dead one; here that always
        # happens, as each object takes the lowest id no live object holds.
        # A memo keyed on ids that let its objects die would then answer for
        # the bad bound with a dead one's verdict.
        swept = list(catalog._sweep(4))
        target = [config for config, cr in swept if cr.label.case_id == "III" and not is_subset(cr.csit, cr.outer)][-1]
        del swept
        classify = catalog._classify

        def broken(config, memo):
            cr = classify(config, memo)
            inner = cr.csit if config == target else cr.inner
            # replace() with no changes copies a region: same value, new object.
            return replace(cr, inner=replace(inner), outer=replace(cr.outer), csit=replace(cr.csit))

        holders: list = []

        def lowest_free_id(obj):
            for number, ref in enumerate(holders):
                if ref() is obj:
                    return number
            number = next((n for n, ref in enumerate(holders) if ref() is None), None)
            if number is None:
                number = len(holders)
                holders.append(None)
            holders[number] = weakref.ref(obj)
            return number

        monkeypatch.setattr(catalog, "_classify", broken)
        monkeypatch.setattr(catalog, "id", lowest_free_id, raising=False)
        with pytest.raises(CasePartitionError) as raised:
            case_partition_check(4)
        assert (raised.value.config, raised.value.reason) == (target, "inner bound not contained in outer bound")


def load_atlas_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "region_atlas.py"
    spec = importlib.util.spec_from_file_location("region_atlas", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAtlasScript:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--limit", "0"], "limit must be an integer >= 1, got 0"),
            (["--limit", "many"], "invalid int value: 'many'"),
            (["--out", "missing/atlas.jsonl"], "No such file or directory: 'missing/atlas.jsonl'"),
            (["--out", "d"], "Is a directory: 'd'"),
        ],
        ids=["zero-limit", "unparsable-limit", "out-in-missing-dir", "out-is-dir"],
    )
    def test_bad_input_exits_three_before_the_sweep(self, argv, message, capsys, monkeypatch, tmp_path):
        atlas = load_atlas_script()
        monkeypatch.setattr(atlas, "_sweep", lambda limit: pytest.fail("sweep started"))
        # The paths above are relative: under a missing directory, or naming d.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        with pytest.raises(SystemExit) as exited:
            atlas.main(argv)
        captured = capsys.readouterr()
        assert exited.value.code == 3 and captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any((tmp_path / "d").iterdir())

    def test_bad_flag_as_a_script_prints_one_line(self, tmp_path):
        # Run as a program: exit 3, one line on stderr, no usage, no files.
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "region_atlas.py"), "--limit", "x", "--out", "atlas.jsonl"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "region_atlas.py: error: argument --limit: invalid int value: 'x'\n"
        assert list(tmp_path.iterdir()) == []

    def test_check_and_table_share_one_sweep(self, capsys, monkeypatch):
        # The check runs on the rows the table classifies, so each of the 101
        # distinct regions over [1,4]^4 is reduced once, not once per pass.
        calls = []
        reduce = catalog.region_from_halfspaces
        monkeypatch.setattr(
            catalog, "region_from_halfspaces", lambda rows, tag: calls.append(tag) or reduce(rows, tag=tag)
        )
        assert load_atlas_script().main(["--limit", "4", "--check"]) == 0
        assert len(calls) == 101
        assert capsys.readouterr().out.splitlines()[:2] == [
            "partition check passed on [1, 4]^4", "swept 256 configs on [1, 4]^4",
        ]

    def test_writes_one_row_per_config(self, tmp_path):
        out = tmp_path / "atlas.jsonl"
        assert load_atlas_script().main(["--limit", "2", "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["antennas"] for row in rows] == [list(c) for c in product((1, 2), repeat=4)]


class TestRegionShapes:
    def test_case_three_inner_is_a_quadrilateral_hull(self):
        # Hull of (0,0), (M1,0), the zero-forcing corner and the solo
        # endpoint, here for (2,4,3,5): corner (2,1), endpoint (0,4).
        cr = ic_classify(IcConfig(2, 4, 3, 5))
        assert cr.inner.vertices == verts((0, 0), (2, 0), (2, 1), (0, 4))

    def test_case_one_region_built_from_caps(self):
        cr = ic_classify(IcConfig(1, 2, 3, 4))
        expected = region_from_halfspaces([(1, 0, 1), (0, 1, 2), (1, 1, 3)])
        assert equals(cr.no_csit, expected)
