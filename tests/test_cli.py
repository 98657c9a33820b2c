"""End-to-end drive of the command-line interface via ``main(argv)``."""

import logging
import math
from functools import partial

import pytest
from conftest import read_report_csv

from rindler_teleport import cli, spectral_integrals, squeeze_param, teleportation
from rindler_teleport.cli import ENV_OUTDIR, main


class TestFig4:
    def test_shape_and_values(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--a-steps", "10", "--out", str(out)]) == 0
        meta, header, rows = read_report_csv(out)
        assert header == ["omega0", "a", "variance_total", "thermal", "qnl", "status"]
        curves = sorted({row[0] for row in rows}, key=float)
        assert len(curves) == 7 and len(rows) == 70
        assert all(row[5] == "ok" for row in rows)
        assert all(float(row[4]) == 1.0 for row in rows)  # coherent payload is at the noise unit
        for w0 in curves:
            sub = [row for row in rows if row[0] == w0]
            low_a = min(sub, key=lambda row: float(row[1]))
            assert abs(float(low_a[2]) - 3.0) <= 1e-2

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fig4", "--a-steps", "6", "--omega0", "1.0"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_curve_flag(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["fig4", "--a-steps", "5", "--omega0", "2.5", "--out", str(out)]) == 0
        meta, _, rows = read_report_csv(out)
        assert meta["omega0_curves"] == "2.5"
        assert {row[0] for row in rows} == {"2.5"}
        assert len(rows) == 5


class TestFig5:
    def test_columns_and_low_acceleration_limits(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["fig5", "--a-steps", "10", "--out", str(out)]) == 0
        _, header, rows = read_report_csv(out)
        assert header == [
            "a", "thermal", "delta_phi0", "delta_phi90", "total_phi0", "total_phi90", "status",
        ]
        first = min(rows, key=lambda row: float(row[0]))
        assert abs(float(first[1]) - 2.0) <= 1e-3
        assert abs(float(first[2]) - math.e) <= 1e-2  # default payload squeezing 0.5
        assert abs(float(first[3]) - 1.0 / math.e) <= 1e-2
        for row in rows:
            assert float(row[4]) == pytest.approx(float(row[1]) + float(row[2]), rel=1e-9)

    def test_zero_squeezing_collapses_deltas(self, tmp_path):
        out = tmp_path / "rs0.csv"
        assert main(["fig5", "--a-steps", "4", "--rs", "0", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        for row in rows:
            assert float(row[2]) == 1.0
            assert float(row[3]) == 1.0


class TestSweep:
    def test_displaced_with_oracle(self, tmp_path):
        out = tmp_path / "sw.csv"
        argv = [
            "sweep", "--scenario", "displaced", "--a-steps", "4",
            "--oracle", "--bins", "64", "--out", str(out),
        ]
        assert main(argv) == 0
        _, header, rows = read_report_csv(out)
        assert header == [
            "a", "omega0", "sigma", "r_s", "phi", "r_omega",
            "variance_total", "thermal_noise", "qnl_or_decoherence", "purity_product",
            "oracle_deviation", "status",
        ]
        assert len(rows) == 4
        for row in rows:
            assert row[11] == "ok"
            assert row[3] == "" and row[4] == ""  # no payload squeezing knobs in play
            assert float(row[10]) <= 1e-6
            total = float(row[6])
            assert total == pytest.approx(float(row[7]) + float(row[8]), rel=1e-9)
            assert float(row[9]) == pytest.approx(total**2, rel=1e-9)

    def test_clipped_oracle_rows_marked_unresolved(self, tmp_path):
        # sigma > omega0/8: the uniform oracle bins cannot resolve the
        # infrared tail, so the deviation is kept but not called ok
        out = tmp_path / "clipped.csv"
        argv = [
            "sweep", "--omega0", "1", "--sigma", "0.5", "--oracle", "--bins", "64",
            "--a-steps", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        _, _, rows = read_report_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row[11] == "oracle-unresolved"
            assert float(row[10]) > 0.02
            assert float(row[6]) == pytest.approx(float(row[7]) + 1.0, rel=1e-12)

    def test_squeezed_rows_filled(self, tmp_path):
        out = tmp_path / "sq.csv"
        argv = [
            "sweep", "--scenario", "squeezed", "--a-steps", "3",
            "--rs", "0.3", "--phi", "0", "--out", str(out),
        ]
        assert main(argv) == 0
        _, _, rows = read_report_csv(out)
        for row in rows:
            assert float(row[3]) == 0.3
            assert float(row[6]) > float(row[7])  # decoherence rides on top of thermal
            assert row[10] == ""  # oracle not requested

    def test_inertial_ignores_oracle_and_matches_closed_form(self, tmp_path, caplog):
        out = tmp_path / "in.csv"
        argv = ["sweep", "--scenario", "inertial", "--a-steps", "5", "--oracle", "--out", str(out)]
        with caplog.at_level(logging.WARNING, logger="rindler_teleport.cli"):
            assert main(argv) == 0
        assert any("ignores" in rec.getMessage() and "oracle" in rec.getMessage()
                   for rec in caplog.records)
        _, _, rows = read_report_csv(out)
        for row in rows:
            assert row[2] == "" and row[3] == "" and row[4] == "" and row[10] == ""
            r_omega = float(row[5])
            assert r_omega == pytest.approx(squeeze_param(1.0, float(row[0])), rel=1e-9)
            expected = 1.0 + 2.0 * math.exp(-2.0 * r_omega)
            assert float(row[6]) == pytest.approx(expected, rel=1e-9)
            assert float(row[9]) == pytest.approx(expected**2, rel=1e-9)

    def test_inertial_metadata_records_no_oracle(self, tmp_path):
        plain, asked = tmp_path / "plain.csv", tmp_path / "asked.csv"
        argv = ["sweep", "--scenario", "inertial", "--a-steps", "3"]
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--oracle", "--bins", "64", "--out", str(asked)]) == 0
        meta, _, _ = read_report_csv(asked)
        assert meta["oracle"] == "false"
        assert "bins" not in meta and "channel_gain" not in meta
        assert asked.read_bytes() == plain.read_bytes()


class TestOverflowRows:
    """A converged row holding a value past the float range is not ``ok``."""

    def test_fig5_near_the_squeezing_bound(self, tmp_path):
        out = tmp_path / "big.csv"
        assert main(["fig5", "--rs", "354", "--a-steps", "3", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert [row[-1] for row in rows] == ["ok", "ok", "overflow"]
        assert float(rows[2][0]) == 50.0
        assert float(rows[2][1]) == pytest.approx(1.0, abs=1e-2)  # thermal stays finite
        assert all(cell == "inf" for cell in rows[2][2:6])

    def test_sweep_rows_with_an_overflowed_cell(self, tmp_path):
        out = tmp_path / "big.csv"
        argv = ["sweep", "--scenario", "squeezed", "--rs", "354", "--a-steps", "3", "--oracle"]
        assert main(argv + ["--bins", "16", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        for row in rows:
            assert row[-1] == "overflow"
            assert row[9] == "inf"  # purity_product
            assert row[10] == ""  # no oracle run on an overflowed row


@pytest.mark.filterwarnings("error")
class TestOverflowWarnings:
    """An overflowed row is reported by its status, not by a NumPy warning."""

    @pytest.mark.parametrize("command", [["fig5"], ["sweep", "--scenario", "squeezed"]])
    def test_overflow_rows_raise_no_warning(self, command, tmp_path):
        out = tmp_path / "big.csv"
        assert main(command + ["--rs", "354", "--a-steps", "3", "--out", str(out)]) == 0
        _, header, rows = read_report_csv(out)
        assert header[0] == "a"
        (row,) = [row for row in rows if float(row[0]) == 50.0]
        assert row[-1] == "overflow"


class TestNoConvergenceRows:
    """Rows whose spectral integrals never stabilize are written, not raised."""

    @pytest.fixture(autouse=True)
    def unreachable_tolerance(self, monkeypatch):
        strict = partial(spectral_integrals, rel_tol=1e-30)
        monkeypatch.setattr(teleportation, "spectral_integrals", strict)
        monkeypatch.setattr(cli, "spectral_integrals", strict)

    @pytest.mark.parametrize(
        "argv, values",
        [
            (["fig4", "--omega0", "1.0"], slice(2, 5)),
            (["fig5"], slice(1, 6)),
            (["sweep", "--scenario", "displaced", "--oracle", "--bins", "16"], slice(6, 10)),
            (["sweep", "--scenario", "squeezed"], slice(6, 10)),
        ],
    )
    def test_rows_written_as_no_convergence(self, tmp_path, argv, values):
        out = tmp_path / "nc.csv"
        assert main(argv + ["--a-steps", "3", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert row[-1] == "no-convergence"
            assert all(cell == "nan" for cell in row[values])
            if argv[0] == "sweep":
                assert row[10] == ""  # no oracle run on an unconverged row
                assert float(row[5]) == pytest.approx(squeeze_param(1.0, float(row[0])), rel=1e-9)


class TestConfigFile:
    def test_file_values_apply_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a-steps = 6\nomega0 = 2.0  # overridden by the flag\n")
        out = tmp_path / "f.csv"
        argv = ["fig4", "--config", str(cfg), "--omega0", "1.5", "--out", str(out)]
        assert main(argv) == 0
        meta, _, rows = read_report_csv(out)
        assert meta["omega0_curves"] == "1.5"
        assert len(rows) == 6

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", "--config", str(cfg)])
        assert excinfo.value.code == 2

    def test_bad_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("oracle = maybe\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", str(cfg)])
        assert excinfo.value.code == 2

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig4", "--config", str(tmp_path / "absent.cfg")])
        assert excinfo.value.code == 2


# One case per setting: a command that reads it, and a value (None for a
# bare flag; ``OUT`` for the output path of the run itself).
OUT = object()
_SETTING_CASES = {
    "--scenario": (["sweep"], "inertial"),
    "--a-min": (["fig5"], "0.1"),
    "--a-max": (["fig5"], "20"),
    "--a-steps": (["fig5"], "4"),
    "--omega0": (["fig5"], "2"),
    "--sigma": (["fig5"], "0.03"),
    "--rs": (["fig5"], "0.3"),
    "--phi": (["sweep", "--scenario", "squeezed"], "0.4"),
    "--bins": (["sweep", "--oracle"], "16"),
    "--oracle": (["sweep", "--bins", "16"], None),
    "--out": (["fig5"], OUT),
    "--seed": (["fig5"], "7"),
}


class TestConfigFlagParity:
    def test_every_setting_has_a_case(self):
        assert {flag for flag, _, _ in cli._SETTINGS.values()} == set(_SETTING_CASES)

    @pytest.mark.parametrize(
        "flag, key",
        [(flag, flag.lstrip("-")) for flag in sorted(_SETTING_CASES)]
        + [("--a-min", "a_min"), ("--a-max", "a_max"), ("--a-steps", "a_steps"), ("--rs", "r_s")],
    )
    def test_config_key_writes_the_same_csv_as_the_flag(self, tmp_path, flag, key):
        argv, value = _SETTING_CASES[flag]
        if flag != "--a-steps":
            argv = argv + ["--a-steps", "2"]
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"

        flag_args = [flag] if value is None else [flag, str(by_flag) if value is OUT else value]
        out_args = [] if value is OUT else ["--out", str(by_flag)]
        assert main(argv + flag_args + out_args) == 0

        cfg = tmp_path / "run.cfg"
        file_value = "yes" if value is None else str(by_file) if value is OUT else value
        cfg.write_text(f"{key} = {file_value}\n")
        out_args = [] if value is OUT else ["--out", str(by_file)]
        assert main(argv + ["--config", str(cfg)] + out_args) == 0

        assert by_file.read_bytes() == by_flag.read_bytes()


class TestOutputLocation:
    def test_env_outdir_used_for_default_names(self, tmp_path, monkeypatch):
        outdir = tmp_path / "reports"
        monkeypatch.setenv(ENV_OUTDIR, str(outdir))
        assert main(["fig5", "--a-steps", "3"]) == 0
        assert (outdir / "fig5_decoherence_vs_acceleration.csv").exists()

    def test_explicit_out_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUTDIR, str(tmp_path / "ignored"))
        out = tmp_path / "here.csv"
        assert main(["fig5", "--a-steps", "3", "--out", str(out)]) == 0
        assert out.exists()
        assert not (tmp_path / "ignored").exists()


class TestParameterValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--a-min", "0"],
            ["fig4", "--a-min", "2", "--a-max", "1"],
            ["fig4", "--a-steps", "0"],
            ["fig4", "--omega0", "-3"],
            ["fig5", "--rs", "-1"],
            ["fig5", "--sigma", "0"],
            ["verify", "--bins", "2"],
            ["verify", "--seed", "-1"],
            ["fig5", "--rs", "800"],
            ["sweep", "--scenario", "squeezed", "--rs", "800"],
        ],
    )
    def test_rejected_with_usage_exit(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestVerify:
    def test_passes_and_is_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(["verify", "--bins", "64", "--out", str(out1)]) == 0
        assert main(["verify", "--bins", "64", "--out", str(out2)]) == 0
        report = out1.read_text()
        assert out1.read_bytes() == out2.read_bytes()
        assert "result: PASS (5/5 suites)" in report
        assert report.count("\nPASS ") == 5
        assert capsys.readouterr().out.count("result: PASS") == 2

    def test_appendix_suite_checks_every_mass_bearing_pair(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main(["verify", "--bins", "32", "--seed", "5", "--out", str(out)]) == 0
        report = out.read_text()
        line = next(ln for ln in report.splitlines() if "appendix-identities" in ln)
        wp = cli.make_wavepacket(1.0, 0.05)
        pairs = sum(
            len(cli._mass_bearing_bins(build(1.0, wp, 32, **kw))) ** 2
            for build, kw in ((cli.build_displaced_circuit, {}), (cli.build_squeezed_circuit, {"r_s": 0.4}))
        )
        assert f"- {pairs} mass-bearing bin pairs of 2 circuits" in line
        assert "seed = 5" in report

    def test_coarse_grid_fails_with_named_breach(self, tmp_path):
        out = tmp_path / "coarse.txt"
        assert main(["verify", "--bins", "16", "--out", str(out)]) == 1
        report = out.read_text()
        assert "FAIL oracle-vs-closed-form" in report
        assert "result: FAIL (4/5 suites)" in report


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "rindler-teleport" in capsys.readouterr().out
