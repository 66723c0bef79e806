"""Command line tests, run in process through main()."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimodof.cli as cli
import mimodof.simulate as simulate
from mimodof import (
    DEFAULT_TOL,
    BcConfig,
    Halfspace,
    IcConfig,
    RateTrace,
    SchemeSpec,
    SlopeEstimate,
    region_from_halfspaces,
    trace_to_csv,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRegionCommand:
    def test_bc_region_json(self, capsys):
        code, out, _ = run(capsys, "region", "--channel", "bc", "--antennas", "4,2,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["tag"] == "bc-no-csit"
        assert ["2/1", "0/1"] in doc["vertices"]
        assert ["0/1", "3/1"] in doc["vertices"]

    def test_round_trip_byte_identical(self, capsys):
        code, out, _ = run(capsys, "region", "--channel", "bc", "--antennas", "4,2,3")
        from mimodof import region_from_json, region_to_json

        assert region_to_json(region_from_json(out)) == out.strip()

    def test_ic_known_region(self, capsys):
        code, out, _ = run(capsys, "region", "--channel", "ic", "--antennas", "2,1,2,3")
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"label", "csit", "no_csit"}
        assert doc["label"]["case_id"] == "I"

    def test_ic_unknown_region_prints_bounds(self, capsys):
        code, out, _ = run(capsys, "region", "--channel", "ic", "--antennas", "1,3,2,4")
        doc = json.loads(out)
        assert set(doc) == {"label", "csit", "inner", "outer"}
        assert ["1/1", "3/2"] in doc["outer"]["vertices"]

    def test_csit_flag(self, capsys):
        code, out, _ = run(capsys, "region", "--channel", "bc", "--antennas", "2,1,1", "--csit")
        doc = json.loads(out)
        assert doc["tag"] == "bc-csit"
        assert ["1/1", "1/1"] in doc["vertices"]

    def test_bad_antennas_exit_three(self, capsys):
        code, _, err = run(capsys, "region", "--channel", "bc", "--antennas", "1,2")
        assert code == 3
        code, _, err = run(capsys, "region", "--channel", "ic", "--antennas", "0,1,1,1")
        assert (code, err) == (3, "mimodof: error: M1 must be an integer >= 1, got 0\n")

    def test_unknown_flag_exit_three(self, capsys):
        code = cli.main(["region", "--nope"])
        capsys.readouterr()
        assert code == 3

    def test_shared_parser_keeps_routing_and_defaults(self, capsys):
        # main reuses one parser per process: a later argparse error still
        # exits 3, and no call leaks its values into the next one.
        assert cli.build_parser() is cli.build_parser()
        assert run(capsys, "region", "--channel", "bc", "--antennas", "2,1,1")[0] == 0
        for _ in range(2):
            code, out, err = run(capsys, "classify", "--antennas", "1,1,1,1", "--nope")
            assert (code, out) == (3, "") and "unrecognized arguments: --nope" in err
        parser = cli.build_parser()
        sim = parser.parse_args(["simulate", *P2P_BC, "--trials", "5", "--out", "x.json"])
        region = parser.parse_args(["region", "--channel", "bc", "--antennas", "2,1,1"])
        again = parser.parse_args(["simulate", *P2P_BC])
        assert (sim.trials, sim.out, sim.func) == (5, "x.json", cli.cmd_simulate)
        assert (region.out, region.csit, region.func) == (None, False, cli.cmd_region)
        assert not hasattr(region, "trials") and not hasattr(region, "format")
        assert (again.trials, again.out, again.format, again.seed) == (10000, None, "json", 7)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "region.json"
        code, out, _ = run(
            capsys, "region", "--channel", "bc", "--antennas", "4,2,3", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["tag"] == "bc-no-csit"


class TestClassifyCommand:
    def test_full_document(self, capsys):
        code, out, _ = run(capsys, "classify", "--antennas", "1,3,2,4")
        doc = json.loads(out)
        assert code == 0
        assert doc["label"] == {
            "table": "N1<N2",
            "case_id": "III",
            "swapped": False,
            "region_known": False,
            "csit_equal": False,
            "scheme": "unknown",
        }
        assert doc["no_csit"] is None
        assert doc["inner"]["tag"] == "ic-inner"


class TestCompareCommand:
    def test_strict_shrink(self, capsys):
        code, out, _ = run(capsys, "compare", "--antennas", "2,3,2,3")
        doc = json.loads(out)
        assert code == 0
        assert doc["subset"] is True
        assert doc["strict"] is True
        assert doc["vertices_lost"] == [["2/1", "1/1"]]

    def test_equal_regions(self, capsys):
        code, out, _ = run(capsys, "compare", "--antennas", "2,1,2,3")
        doc = json.loads(out)
        assert doc["subset"] is True
        assert doc["strict"] is False
        assert doc["vertices_lost"] == []


SIM_FLAGS = [
    "--channel", "ic", "--antennas", "2,1,2,3", "--scheme", "zf",
    "--streams", "1,1", "--snr-db", "10:30:10", "--trials", "60", "--seed", "3",
]
P2P_BC = ("--channel", "bc", "--antennas", "2,2,2", "--scheme", "p2p")
IA_IC = ("--channel", "ic", "--antennas", "1,3,1,4", "--scheme", "ia", "--snr-db", "20:50:10")
CASE_III_TDM = ("--channel", "ic", "--antennas", "1,3,2,4", "--scheme", "tdm")


class TestSimulateCommand:
    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "simulate", *SIM_FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["scheme"]["kind"] == "receiver-zero-forcing"
        assert doc["trials"] == 60
        assert doc["seed"] == 3
        assert doc["window"] == 4
        assert len(doc["trace"]["rate1"]) == 3
        assert "estimate" in doc

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "simulate", *SIM_FLAGS)
        _, second, _ = run(capsys, "simulate", *SIM_FLAGS)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "simulate", *SIM_FLAGS, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,rate1,stderr1,rate2,stderr2,trials"
        assert len(lines) == 4

    def test_trace_out_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "simulate", *SIM_FLAGS, "--trace-out", str(path))
        assert code == 0
        from mimodof import trace_from_csv

        trace = trace_from_csv(path.read_text(), seed=3)
        assert trace.trials == 60

    def test_verify_against_exact(self, capsys):
        code, out, _ = run(capsys, "simulate", *SIM_FLAGS, "--verify-against", "exact")
        doc = json.loads(out)
        assert doc["verify"]["verdict"] in ("inside", "boundary")
        assert code == 0

    def test_infeasible_scheme_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--channel", "ic", "--antennas", "2,1,2,3",
            "--scheme", "zf", "--streams", "2,2", "--trials", "10",
        )
        assert code == 3
        assert "exceeds the transmitter" in err

    def test_exact_unknown_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--channel", "ic", "--antennas", "1,3,2,4",
            "--scheme", "tdm", "--trials", "10", "--snr-db", "10:40:10",
            "--verify-against", "exact",
        )
        assert code == 3
        assert "not known" in err


class TestVerdict:
    @staticmethod
    def estimate(d1, d2):
        return SlopeEstimate(d1_hat=d1, d2_hat=d2, ci=(0.0, 0.0), snr_window=(40.0, 70.0))

    def test_report_fields(self):
        region = region_from_halfspaces([Halfspace(1, 1, 2)], tag="demo-region")
        spec = SchemeSpec("time-division")
        report, code = cli._verdict(BcConfig(2, 1, 1), spec, self.estimate(1.0, 1.0), region, DEFAULT_TOL)
        assert code == cli.EXIT_OK
        assert report["region_tag"] == "demo-region"
        assert report["verdict"] == "boundary"
        assert report["estimate"] == [1.0, 1.0]
        assert report["ci"] == [0.0, 0.0]
        assert report["config"] == {"channel": "bc", "antennas": [2, 1, 1]}
        assert report["scheme"] == spec.to_dict()
        ic, code = cli._verdict(IcConfig(1, 2, 3, 4), spec, self.estimate(1.5, 1.0), region, DEFAULT_TOL)
        assert ic["config"] == {"channel": "ic", "antennas": [1, 2, 3, 4]}
        assert (ic["verdict"], code) == ("outside", cli.EXIT_VERDICT)

    def test_scheme_flags_left_out_keep_the_spec_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["verify", *P2P_BC, "--against", "exact"])
        assert (args.user, args.tau, args.streams, args.beams, args.exponent) == (None,) * 5
        assert cli._scheme_from_args(args) == SchemeSpec("point-to-point")
        # Zeros are given values, not left-out flags.
        zeros = ("--tau", "0", "--streams", "0,0", "--beams", "0", "--exponent", "0", "--user", "2")
        args = parser.parse_args(["simulate", *IA_IC, *zeros])
        assert cli._scheme_from_args(args) == SchemeSpec(
            "ia-power-scaling", tau=0.0, streams=(0, 0), beams=0, power_exponent=0.0, user=2
        )


class TestVerifyCommand:
    def test_verdict_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--channel", "bc", "--antennas", "2,1,2", "--scheme", "tdm",
            "--tau", "0.5", "--snr-db", "20:50:10", "--trials", "300", "--seed", "5",
            "--against", "exact",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] in ("inside", "boundary")
        assert doc["region_tag"] == "bc-no-csit"
        assert doc["config"]["antennas"] == [2, 1, 2]
        assert len(doc["estimate"]) == 2

    def test_same_verdict_as_simulate(self, capsys):
        _, out, _ = run(capsys, "verify", *SIM_FLAGS, "--against", "inner")
        report = json.loads(out)
        _, out, _ = run(capsys, "simulate", *SIM_FLAGS, "--verify-against", "inner")
        doc = json.loads(out)
        assert doc["verify"] == {
            "against": "inner",
            "tol": 0.1,
            "region_tag": report["region_tag"],
            "verdict": report["verdict"],
        }
        assert report["estimate"] == [doc["estimate"]["d1_hat"], doc["estimate"]["d2_hat"]]

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_three(self, capsys, tol):
        code, out, err = run(
            capsys, "verify", *P2P_BC, "--trials", "10", "--against", "exact", f"--tol={tol}"
        )
        assert code == 3
        assert out == ""
        assert "tol must be positive and finite" in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            pytest.param(
                ("verify", *P2P_BC, "--against", "exact", "--tol=nan"),
                "tol must be positive and finite",
                id="verify-tol-nan",
            ),
            pytest.param(
                ("verify", *CASE_III_TDM, "--against", "exact"), "not known", id="verify-exact-unknown"
            ),
            pytest.param(
                ("simulate", *P2P_BC, "--verify-against", "exact", "--tol=nan"),
                "tol must be positive and finite",
                id="simulate-tol-nan",
            ),
            pytest.param(
                ("simulate", *CASE_III_TDM, "--verify-against", "exact"),
                "not known",
                id="simulate-exact-unknown",
            ),
            pytest.param(
                ("verify", *P2P_BC, "--against", "exact", "--window", "2"),
                "window holds 2",
                id="verify-window",
            ),
            pytest.param(("simulate", *P2P_BC, "--window", "2"), "window holds 2", id="simulate-window"),
            pytest.param(
                ("verify", *SIM_FLAGS[:6], "--streams", "1,1,1", "--against", "outer"),
                "streams must be a pair",
                id="verify-three-streams",
            ),
            pytest.param(
                ("verify", *SIM_FLAGS[:6], "--streams=-1,1", "--against", "outer"),
                "s1 must be an integer >= 0, got -1",
                id="verify-negative-streams",
            ),
            # A negative value after a space is a value, not an unknown flag.
            pytest.param(
                ("verify", *SIM_FLAGS[:6], "--streams", "-1,1", "--against", "outer"),
                "s1 must be an integer >= 0, got -1",
                id="verify-negative-streams-space",
            ),
            pytest.param(
                ("verify", "--channel", "bc", "--antennas", "-1,2,2", "--scheme", "p2p", "--against", "exact"),
                "M must be an integer >= 1, got -1",
                id="verify-negative-antennas-space",
            ),
            # So is a minus sign before "inf": the grid and the spec refuse it.
            pytest.param(
                ("verify", *P2P_BC, "--snr-db", "-inf:70:10", "--against", "exact"),
                "--snr-db needs finite SNR grid values, got '-inf:70:10'",
                id="verify-negative-inf-grid-space",
            ),
            pytest.param(
                ("verify", *IA_IC, "--exponent", "-inf", "--against", "inner"),
                "power_exponent must be finite",
                id="verify-negative-inf-exponent-space",
            ),
            # And before "nan".
            pytest.param(
                ("verify", *IA_IC, "--exponent", "-nan", "--against", "inner"),
                "power_exponent must be finite",
                id="verify-negative-nan-exponent-space",
            ),
            pytest.param(
                ("verify", *P2P_BC, "--snr-db", "-nan:70:10", "--against", "exact"),
                "--snr-db needs finite SNR grid values, got '-nan:70:10'",
                id="verify-negative-nan-grid-space",
            ),
            pytest.param(
                ("verify", *P2P_BC, "--user", "3", "--against", "exact"),
                "user must be an integer in [1, 2], got 3",
                id="verify-user-3",
            ),
            pytest.param(
                ("simulate", *IA_IC, "--beams", "-1"),
                "beams must be an integer >= 0, got -1",
                id="simulate-negative-beams",
            ),
            pytest.param(
                ("verify", *P2P_BC, "--against", "exact", "--out", "missing/x.json"),
                "No such file or directory: 'missing/x.json'",
                id="verify-out",
            ),
            pytest.param(
                ("simulate", *P2P_BC, "--out", "missing/x.json"),
                "No such file or directory: 'missing/x.json'",
                id="simulate-out",
            ),
            pytest.param(
                ("simulate", *P2P_BC, "--trace-out", "missing/x.csv"),
                "No such file or directory: 'missing/x.csv'",
                id="simulate-trace-out",
            ),
            pytest.param(
                ("verify", *P2P_BC, "--against", "exact", "--out", "d"),
                "[Errno 21] Is a directory: 'd'",
                id="verify-out-is-dir",
            ),
            pytest.param(
                ("simulate", *P2P_BC, "--trace-out", "t.csv", "--out", "d"),
                "[Errno 21] Is a directory: 'd'",
                id="simulate-out-is-dir",
            ),
        ],
    )
    def test_bad_grading_input_exits_before_any_draw(self, capsys, monkeypatch, tmp_path, argv, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("trials drawn before the input was checked")

        monkeypatch.setattr(cli, "simulate_scheme", no_draws)
        # The output paths above are relative: under a directory that is
        # missing, or naming the existing directory d.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        code, out, err = run(capsys, *argv, "--trials", "10")
        assert code == 3
        assert out == ""
        assert message in err and err.count("\n") == 1
        # Nothing was written: no t.csv, and d is still empty.
        assert list(tmp_path.iterdir()) == [tmp_path / "d"]
        assert list((tmp_path / "d").iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(("--trials", "0"), "trials must be an integer >= 1, got 0", id="no-trials"),
            pytest.param(("--seed", "-1"), "seed must be an integer >= 0, got -1", id="negative-seed"),
        ],
    )
    def test_bad_trials_or_seed_exits_three_before_any_draw(self, capsys, monkeypatch, tmp_path, argv, message):
        monkeypatch.setattr(simulate, "_draw", lambda *args: pytest.fail("trials drawn"))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "simulate", *P2P_BC, "--verify-against", "exact", "--trace-out", "t.csv", "--out", "o.json", *argv
        )
        assert (code, out) == (3, "")
        assert err == f"mimodof: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("verify", *P2P_BC, "--against", "exact", "--out"), id="verify-out"),
            pytest.param(("simulate", *P2P_BC, "--trace-out"), id="simulate-trace-out"),
        ],
    )
    def test_unwritable_output_exits_three(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, str(path), "--trials", "10")
        assert code == 3
        assert out == ""
        assert err.startswith("mimodof: error:") and str(path) in err

    def test_zero_stream_zero_forcing_needs_no_receiver(self, capsys):
        # Receiver 1 has one antenna and decodes nothing; (0, 2) lies on the
        # case II facet d1 + d2/2 <= 1.
        code, out, _ = run(
            capsys,
            "verify", "--channel", "ic", "--antennas", "1,2,1,2", "--scheme", "zf",
            "--streams", "0,2", "--trials", "300", "--against", "outer",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "boundary"

    def test_outside_exits_two(self, capsys, monkeypatch):
        # No honest scheme lands outside a valid bound, so fake a steep
        # trace to exercise the verdict-to-exit-code mapping.
        grid = (20.0, 30.0, 40.0, 50.0)
        x = [s * 0.33219280948873623 for s in grid]

        def fake(spec, config, snr_db, trials, seed):
            return RateTrace(
                snr_db=grid,
                rate1=tuple(5.0 * xi for xi in x),
                stderr1=(0.0,) * 4,
                rate2=(0.0,) * 4,
                stderr2=(0.0,) * 4,
                trials=trials,
                seed=seed,
            )

        monkeypatch.setattr(cli, "simulate_scheme", fake)
        flags = ("--channel", "bc", "--antennas", "2,1,2", "--scheme", "p2p", "--snr-db", "20:50:10", "--trials", "10")
        code, out, _ = run(capsys, "verify", *flags, "--against", "exact")
        assert code == 2
        assert json.loads(out)["verdict"] == "outside"
        code, out, _ = run(capsys, "simulate", *flags, "--verify-against", "exact")
        assert code == 2
        assert json.loads(out)["verify"]["verdict"] == "outside"
        # The CSV carries no verdict, but the exit code does.
        code, out, _ = run(capsys, "simulate", *flags, "--verify-against", "exact", "--format", "csv")
        assert code == 2
        assert out == trace_to_csv(fake(None, None, None, 10, 7))


class TestSnrGridCommand:
    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            pytest.param((*P2P_BC, "--snr-db=inf:70:10"), "SNR grid", id="inf"),
            pytest.param((*P2P_BC, "--snr-db=-inf:70:10"), "SNR grid", id="-inf"),
            pytest.param((*P2P_BC, "--snr-db=30:nan:10"), "SNR grid", id="nan"),
            pytest.param((*IA_IC, "--exponent=inf"), "power_exponent", id="exponent-inf"),
            pytest.param((*IA_IC, "--exponent=nan"), "power_exponent", id="exponent-nan"),
            pytest.param((*IA_IC, "--exponent", "-nan"), "power_exponent must be finite", id="exponent-negative-nan"),
            # 10**(dB/10) overflows a float above about 3082 dB.
            pytest.param((*P2P_BC, "--snr-db", "3000:3100:10"), "overflows", id="p2p-snr-overflow"),
            pytest.param((*IA_IC, "--snr-db", "3000:3100:10"), "overflows", id="ia-snr-overflow"),
            # Powers that fit a float but not times a channel gain: the
            # grid keeps 2**64 of headroom (points up to about 2890 dB).
            pytest.param((*P2P_BC, "--snr-db", "3060:3080:10"), "headroom", id="p2p-snr-headroom"),
            # Alignment's interference power P**exponent overflows.
            pytest.param((*IA_IC, "--exponent", "100"), "exponent 100.0", id="ia-exponent-overflow"),
            pytest.param(
                (*IA_IC, "--exponent", "2", "--snr-db", "2000:2040:10"), "exponent 2.0",
                id="ia-exponent-snr-overflow",
            ),
        ],
    )
    def test_non_finite_point_exits_three(self, capsys, monkeypatch, argv, message):
        def no_draws(*args, **kwargs):
            raise AssertionError("trials drawn before the grid was checked")

        monkeypatch.setattr(simulate, "_draw", no_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "simulate", *argv, "--trials", "10")
        assert code == 3
        assert out == ""
        assert message in err
        assert "Warning" not in err

    def test_negative_start_after_a_space(self, capsys):
        code, out, err = run(capsys, "simulate", *P2P_BC, "--snr-db", "-10:30:10", "--trials", "10")
        assert (code, err) == (0, "")
        assert json.loads(out)["snr_db"] == [-10.0, 0.0, 10.0, 20.0, 30.0]
        assert run(capsys, "simulate", *P2P_BC, "--snr-db=-10:30:10", "--trials", "10")[1] == out

    def test_non_finite_range_exits_three(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--channel", "bc", "--antennas", "2,2,2", "--scheme", "p2p",
            "--snr-db", "10:inf:10", "--trials", "10", "--against", "exact",
        )
        assert code == 3
        assert "--snr-db" in err

    def test_unallocatable_trial_count_exits_three(self, capsys, monkeypatch, tmp_path):
        # numpy refuses the 57 PiB draw array up front, without allocating.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "verify", *P2P_BC, "--against", "exact", "--trials", str(10**15), "--out", "r.json"
        )
        assert (code, out) == (3, "")
        assert err.startswith("mimodof: error: Unable to allocate") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_grid_points_do_not_accumulate_error(self):
        tenths = cli._parse_grid("0:1:0.1")
        assert len(tenths) == 11
        assert tenths[-1] == 1.0
        assert cli._parse_grid("30:70:10") == (30.0, 40.0, 50.0, 60.0, 70.0)
        # Summing 0.01 a hundred thousand times drifts the end point past
        # the 9-digit rounding; start + i*step does not.
        hundredths = cli._parse_grid("0:1000:0.01")
        assert len(hundredths) == 100_001
        assert hundredths[-1] == 1000.0

    @staticmethod
    def counting_grid(start, stop, step):
        # The per-point counting loop the closed-form count replaced.
        count = 0
        while start + count * step <= stop + 1e-9:
            count += 1
        return tuple(round(start + i * step, 9) for i in range(count))

    @pytest.mark.parametrize(
        "start, stop, step",
        [
            (0.0, 1.0, 0.1),
            (30.0, 70.0, 10.0),
            (0.0, 1000.0, 0.01),
            (-5.0, 5.0, 10.0),
            (0.0, 0.3 - 5e-10, 0.1),
            # The quotient says 2 points; rounding to a float's 1- and
            # 2-spaced neighbours gives 4.
            (2.0**53 - 1, 2.0**53, 0.5000001),
        ],
    )
    def test_closed_form_count_matches_counting_loop(self, start, stop, step):
        assert cli._parse_grid(f"{start!r}:{stop!r}:{step!r}") == self.counting_grid(start, stop, step)

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(-100.0, 100.0),
        step=st.floats(0.01, 50.0),
        points=st.integers(0, 500),
        nudge=st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, 2e-9, 1e-7, -1e-7]),
    )
    def test_closed_form_count_matches_on_ordinary_grids(self, start, step, points, nudge):
        stop = max(start, start + points * step + nudge)
        assert cli._parse_grid(f"{start!r}:{stop!r}:{step!r}") == self.counting_grid(start, stop, step)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1e300:1e300:1", "too small to move the start"),
            ("1e16:1e17:0.5", "too small to move the start"),
            ("0:1e300:1e-300", "too many points"),
            ("-1e308:1e308:1e300", "too many points"),
            # A lone point is no range, and no window could fit it.
            ("40", "start:stop:step"),
        ],
    )
    def test_unbounded_grid_exits_three(self, capsys, monkeypatch, grid, message):
        # The four ranges used to spin in the counting loop.
        monkeypatch.setattr(simulate, "_draw", lambda *args: pytest.fail("trials drawn"))
        code, out, err = run(capsys, "simulate", *P2P_BC, f"--snr-db={grid}", "--trials", "10")
        assert (code, out) == (3, "")
        assert "--snr-db" in err and message in err
