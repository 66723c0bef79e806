"""Command line tests, run in process through main()."""

import json
import warnings

import pytest

import mimodof.cli as cli
from mimodof import RateTrace


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
        code, _, _ = run(capsys, "region", "--channel", "ic", "--antennas", "0,1,1,1")
        assert code == 3

    def test_unknown_flag_exit_three(self, capsys):
        code = cli.main(["region", "--nope"])
        capsys.readouterr()
        assert code == 3

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

    def test_outside_exits_two(self, capsys, monkeypatch):
        # No honest scheme lands outside a valid bound, so fake a steep
        # trace to exercise the verdict-to-exit-code mapping.
        grid = (20.0, 30.0, 40.0, 50.0)
        x = [s * 0.33219280948873623 for s in grid]

        def fake(spec, config, snr_db, trials, seed, threads=None):
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
        code, out, _ = run(
            capsys,
            "verify", "--channel", "bc", "--antennas", "2,1,2", "--scheme", "p2p",
            "--snr-db", "20:50:10", "--trials", "10", "--against", "exact",
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "outside"


class TestSnrGridCommand:
    @pytest.mark.parametrize("point", ["inf", "-inf", "nan"])
    def test_non_finite_point_exits_three(self, capsys, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                "simulate", "--channel", "bc", "--antennas", "2,2,2", "--scheme", "p2p",
                f"--snr-db={point}", "--trials", "10",
            )
        assert code == 3
        assert out == ""
        assert "SNR grid" in err
        assert "Warning" not in err

    def test_non_finite_range_exits_three(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--channel", "bc", "--antennas", "2,2,2", "--scheme", "p2p",
            "--snr-db", "10:inf:10", "--trials", "10", "--against", "exact",
        )
        assert code == 3
        assert "--snr-db" in err
