"""End-to-end drive of the command-line interface via ``main(argv)``."""

import argparse
import ast
import csv
import inspect
import io
import logging
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import faulty_sh_rewrite, fresh_process_env, read_report_csv

import rindler_teleport
from rindler_teleport import (
    build_displaced_circuit,
    cli,
    delta_extremes,
    make_wavepacket,
    spectral,
    squeeze_param,
    teleportation,
    variance_from_integrals,
)
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

    def test_inertial_row_at_the_largest_floats_reads_as_at_one(self, tmp_path):
        # pi omega0 passes the float range at omega0 = 1e308; omega0/a does not.
        rows = []
        for value in ("1e308", "1"):
            out = tmp_path / f"in_{value}.csv"
            argv = ["sweep", "--scenario", "inertial", "--omega0", value, "--a-min", value,
                    "--a-max", value, "--a-steps", "1", "--out", str(out)]
            assert main(argv) == 0
            rows.append(read_report_csv(out)[2][0])
        big, one = rows
        assert big[2:] == one[2:] and big[-1] == "ok"
        assert big[5] == "0.0432408482836"  # r_omega


class TestOverflowRows:
    """A converged row holding a value past the float range is not ``ok``."""

    def test_fig5_near_the_squeezing_bound(self, tmp_path):
        out = tmp_path / "big.csv"
        assert main(["fig5", "--rs", "354", "--a-steps", "3", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert [row[-1] for row in rows] == ["ok", "ok", "overflow"]
        assert float(rows[2][0]) == 50.0
        assert float(rows[2][1]) == pytest.approx(1.0, abs=1e-2)  # thermal stays finite
        # phi = 0 overflows; the minimum at phi = pi/2 stays finite
        assert rows[2][2] == rows[2][4] == "inf"
        assert math.isfinite(float(rows[2][3])) and math.isfinite(float(rows[2][5]))

    def test_sweep_rows_with_an_overflowed_cell(self, tmp_path):
        # Delta(0) overflows once i_c (i_c - 1) passes about 1.5: a >~ 8 at omega0 = 1.
        out = tmp_path / "big.csv"
        argv = ["sweep", "--scenario", "squeezed", "--rs", "354", "--a-steps", "3", "--oracle"]
        assert main(argv + ["--a-min", "10", "--bins", "16", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        for row in rows:
            assert row[-1] == "overflow"
            assert row[9] == "inf"  # purity_product
            assert row[10] == ""  # no oracle run on an overflowed row

    def test_fig5_minimum_is_exact(self, tmp_path, monkeypatch):
        # Delta(pi/2) is the minimum M ~ e^(-2 r_s), with no cos(pi/2) leak
        # of the e^(2 r_s) spread.  Every column is the closed route's kernel
        # at phi = 0 plus that minimum, bit for bit, also on overflow rows.
        honest, written = cli._write_csv, []
        monkeypatch.setattr(cli, "_write_csv", lambda *args: written.append(args[-1]) or honest(*args))
        out = tmp_path / "rs40.csv"
        assert main(["fig5", "--rs", "40", "--a-steps", "5", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert float(rows[0][0]) == 0.05
        assert float(rows[0][3]) < 1e-30
        assert main(["fig5", "--rs", "354", "--a-steps", "5", "--out", str(out)]) == 0
        a = cli.SweepConfig(a_steps=5).a_grid()
        ints = spectral.spectral_integrals(make_wavepacket(1.0, 0.01), a)
        for r_s, rows in zip((40.0, 354.0), written):
            rep = variance_from_integrals(ints.i_c, ints.i_s, ints.i_cs, r_s, 0.0)
            d0, d90 = delta_extremes(r_s, ints.i_c)
            assert rep.qnl_or_decoherence.tobytes() == d0.tobytes()
            columns = (a, rep.thermal_noise, d0, d90, rep.total, rep.thermal_noise + d90)
            assert [row[:-1] for row in rows] == np.transpose(columns).tolist(), r_s
        assert written[1][-1][-1] == "overflow"

    def test_oracle_runs_on_every_finite_row_near_the_float_range(self, tmp_path):
        # The oracle's own r_s bound, (ln f_max - 3 ln(i_c + i_s))/2, lies
        # past the r_s at which a row's closed-form purity product overflows,
        # so the oracle runs on every finite row and never refuses r_s there.
        out = tmp_path / "near.csv"
        argv = ["sweep", "--scenario", "squeezed", "--oracle", "--rs", "354.5"]
        argv += ["--bins", "16", "--a-steps", "3"]
        assert main(argv + ["--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert [row[-1] for row in rows] == ["ok", "ok", "overflow"]
        assert all(float(row[10]) < 1e-10 for row in rows[:2])  # oracle_deviation


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


class TestClosedRoutePastTheFloatRangeOfICSquared:
    """From a ~ 8e154 omega0, where i_c (i_c - 1) overflows, a settled row is
    ``ok`` if its values are finite and ``overflow`` if not, never
    ``no-convergence``."""

    ARGV = ["sweep", "--a-min", "1e150", "--a-max", "1e300", "--a-steps", "7"]

    def test_displaced_rows_stay_ok(self, tmp_path):
        out = tmp_path / "displaced.csv"
        assert main(self.ARGV + ["--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert [row[-1] for row in rows] == ["ok"] * 7
        first = float(rows[0][6])  # variance_total
        assert all(float(row[6]) == pytest.approx(first, rel=1e-12) for row in rows)

    def test_squeezed_rows_read_overflow(self, tmp_path):
        out = tmp_path / "squeezed.csv"
        assert main(self.ARGV + ["--scenario", "squeezed", "--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert [row[-1] for row in rows] == ["overflow"] * 7
        assert all(row[6] == "inf" for row in rows[1:])
        assert all(math.isfinite(float(row[7])) for row in rows)  # thermal_noise


class TestClosedRouteAtTheFloatEdges:
    """Past a/omega0 ~ 1e308, pi omega/a leaves the float range and i_c with
    it: such rows are ``overflow``, not ``no-convergence``.  At a tiny r_s,
    where 16 sinh^2(r_s/2) underflows, h stays finite."""

    EDGE = ["--omega0", "1e-8", "--sigma", "5e-10", "--a-min", "1e306", "--a-max", "1e308", "--a-steps", "3"]

    @pytest.mark.parametrize(
        "argv, values",
        [
            (["fig4"], slice(2, 5)),
            (["fig5"], slice(1, 6)),
            (["sweep", "--scenario", "displaced"], slice(6, 10)),
            (["sweep", "--scenario", "squeezed"], slice(6, 10)),
        ],
    )
    def test_rows_past_the_range_of_pi_omega_over_a_read_overflow(self, tmp_path, argv, values):
        out = tmp_path / "edge.csv"
        assert main(argv + self.EDGE + ["--out", str(out)]) == 0
        _, _, rows = read_report_csv(out)
        assert [row[-1] for row in rows] == ["overflow"] * 3
        assert all("nan" not in row[values] and "inf" in row[values] for row in rows)

    def test_tiny_payload_squeezing_at_huge_acceleration(self, tmp_path):
        outs = [tmp_path / "tiny.csv", tmp_path / "coherent.csv"]
        span = ["--a-min", "1e160", "--a-max", "1e160", "--a-steps", "1"]
        assert main(["sweep", "--scenario", "squeezed", "--rs", "1e-200", *span, "--out", str(outs[0])]) == 0
        assert main(["sweep", *span, "--out", str(outs[1])]) == 0
        (tiny,), (coherent,) = (read_report_csv(out)[2] for out in outs)
        assert tiny[-1] == "ok" and tiny[8] == "1"  # qnl_or_decoherence: 1 + h, h ~ 4e-81
        assert tiny[6] == "2.00010003002"  # variance_total
        assert tiny[6:10] == coherent[6:10]


@pytest.mark.usefixtures("spectra_never_settle")
class TestNoConvergenceRows:
    """Rows whose spectral integrals never stabilize are written, not raised."""

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


class TestOracleRows:
    """``sweep --oracle`` checks every converged row with one batched circuit."""

    ARGV = ["sweep", "--oracle", "--bins", "32", "--a-min", "0.3", "--a-max", "3", "--a-steps", "5"]

    def test_one_build_over_the_converged_rows(self, monkeypatch, tmp_path):
        honest = cli.build_squeezed_circuit
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.asarray(a))
            return honest(a, *args, **kwargs)

        monkeypatch.setattr(cli, "build_squeezed_circuit", counted)
        assert main(["sweep", "--oracle", "--bins", "32", "--out", str(tmp_path / "s.csv")]) == 0
        (a,) = calls
        assert a.tolist() == cli.SweepConfig().a_grid().tolist()

    @pytest.mark.parametrize("scenario", ["displaced", "squeezed"])
    def test_a_row_that_fails_the_audit_is_marked_alone(self, monkeypatch, tmp_path, scenario):
        # A 1% error in sinh r inside the rewrite at one acceleration breaks
        # that row's canonical commutators only: it is written as
        # oracle-no-convergence, and the other rows keep their bits.
        argv = self.ARGV + ["--scenario", scenario]
        honest_out, faulty_out = tmp_path / "honest.csv", tmp_path / "faulty.csv"
        assert main(argv + ["--out", str(honest_out)]) == 0
        faulty_sh_rewrite(monkeypatch, cli.SweepConfig(a_min=0.3, a_max=3.0, a_steps=5).a_grid()[2])
        assert main(argv + ["--out", str(faulty_out)]) == 0
        _, _, honest = read_report_csv(honest_out)
        _, _, faulty = read_report_csv(faulty_out)
        assert [row[-1] for row in honest] == ["ok"] * 5
        assert [row[-1] for row in faulty] == ["ok", "ok", "oracle-no-convergence", "ok", "ok"]
        assert faulty[2][10] == "nan" and faulty[2][:10] == honest[2][:10]
        assert [row for k, row in enumerate(faulty) if k != 2] == [row for k, row in enumerate(honest) if k != 2]


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


class TestSettingFlags:
    def test_every_setting_has_a_case(self):
        assert {flag for flag, _, _ in cli._SETTINGS.values()} == set(_SETTING_CASES)

    @pytest.mark.parametrize("flag", sorted(_SETTING_CASES))
    def test_flag_run_writes_its_csv(self, tmp_path, flag):
        argv, value = _SETTING_CASES[flag]
        if flag != "--a-steps":
            argv = argv + ["--a-steps", "2"]
        out = tmp_path / "flag.csv"
        flag_args = [flag] if value is None else [flag, str(out) if value is OUT else value]
        out_args = [] if value is OUT else ["--out", str(out)]
        assert main(argv + flag_args + out_args) == 0
        assert read_report_csv(out)[2]
        if value is not OUT:  # the setting reaches the output
            bare = tmp_path / "bare.csv"
            assert main(argv + ["--out", str(bare)]) == 0
            assert bare.read_bytes() != out.read_bytes()

    def test_config_file_is_an_unrecognized_argument(self, tmp_path, capsys):
        (tmp_path / "x.cfg").write_text("rs = 0.9\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["fig5", "--config", str(tmp_path / "x.cfg"), "--out", str(tmp_path / "f.csv")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()


class TestOutputLocation:
    def test_env_outdir_used_for_default_names(self, tmp_path, monkeypatch):
        outdir = tmp_path / "reports"
        monkeypatch.setenv(ENV_OUTDIR, str(outdir))
        assert main(["fig5", "--a-steps", "3"]) == 0
        assert (outdir / "fig5_decoherence_vs_acceleration.csv").exists()

    def test_out_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["fig5", "--a-steps", "2", "--out", str(tmp_path / "file" / "f.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_memory_error_exits_2(self, monkeypatch, tmp_path, capsys):
        # A --bins count the machine cannot hold is a named error, not a traceback.
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(cli, "build_squeezed_circuit", unallocatable)
        assert main(["sweep", "--oracle", "--a-steps", "2", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig4", "--a-steps", "x"], "argument --a-steps: expected int, got 'x'"),
            (
                ["sweep", "--oracle", "--a-steps", "2", "--bins", str(2**40)],
                f"bin count must be at most 2**39 = {2**39}, got {2**40}",
            ),
        ],
        ids=["not an int", "bins past the register range"],
    )
    def test_rejected_input_is_named(self, argv, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--out", str(tmp_path / "f.csv")])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr and f"error: {message}\n" in stderr
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--omega0", "1e308"), ("--sigma", "1e-320")])
    def test_packet_floats_cannot_hold_exits_2(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig5", flag, value, "--out", str(tmp_path / "f.csv")])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr and "floats cannot hold the wavepacket" in stderr


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
            for build, kw in ((build_displaced_circuit, {}), (cli.build_squeezed_circuit, {"r_s": 0.4}))
        )
        assert f"- {pairs} mass-bearing bin pairs of 2 circuits" in line
        assert "seed = 5" in report

    def test_one_circuit_per_payload(self, monkeypatch, tmp_path):
        # The appendix and oracle suites share one circuit per payload r_s,
        # over every acceleration of the oracle suite's lattice.
        honest = cli.build_squeezed_circuit
        calls = []

        def counted(a, *args, r_s):
            calls.append((np.asarray(a).tolist(), r_s))
            return honest(a, *args, r_s=r_s)

        monkeypatch.setattr(cli, "build_squeezed_circuit", counted)
        assert main(["verify", "--bins", "32", "--out", str(tmp_path / "r.txt")]) == 0
        assert calls == [([0.3, 1.0, 3.0], 0.0), ([0.3, 1.0, 3.0], 0.4)]

    def test_agreement_suite_integrates_its_packet_once(self, monkeypatch):
        # Every (r_s, phi) of the oracle suite reads one set of spectral
        # integrals over its lattice, through either module's binding.
        honest = spectral.spectral_integrals
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return honest(*args, **kwargs)

        wp = make_wavepacket(1.0, 0.05)
        circuits = {
            r_s: cli.build_squeezed_circuit(np.array(cli.VERIFY_ACCELERATIONS), wp, 32, r_s=r_s)
            for r_s, _ in cli.VERIFY_PAYLOADS
        }
        for module in (cli, teleportation):
            monkeypatch.setattr(module, "spectral_integrals", counted)
        suite = cli._suite_oracle_agreement(cli.SweepConfig(bins=32), wp, circuits.__getitem__)
        assert suite.passed
        assert len(calls) == 1

    @pytest.mark.usefixtures("spectra_never_settle")
    def test_unsettled_rows_fail_their_suites(self, tmp_path):
        # Spectral integrals that never settle are NaN rows; the suites that
        # read them must fail by name (a NaN maximum passes no tolerance), not
        # pass and not crash.
        out = tmp_path / "nan.txt"
        assert main(["verify", "--bins", "32", "--out", str(out)]) == 1
        report = out.read_text()
        assert "FAIL spectral-identity: worst deviation nan" in report
        assert "FAIL oracle-vs-closed-form: worst deviation nan" in report
        assert "suite-error" not in report
        assert "result: FAIL (3/5 suites)" in report

    def test_a_build_that_raises_is_a_suite_error(self, monkeypatch, tmp_path):
        def refused(*args, **kwargs):
            raise ValueError("no circuit here")

        monkeypatch.setattr(cli, "build_squeezed_circuit", refused)
        out = tmp_path / "err.txt"
        assert main(["verify", "--bins", "32", "--out", str(out)]) == 1
        report = out.read_text()
        assert report.count("FAIL suite-error: worst deviation inf (tolerance 0) - ValueError: no circuit here") == 2
        assert "result: FAIL (3/5 suites)" in report

    def test_bins_past_the_register_range_are_named_suite_errors(self, tmp_path):
        out = tmp_path / "huge.txt"
        assert main(["verify", "--bins", str(2**40), "--out", str(out)]) == 1
        report = out.read_text()
        named = f"GridMismatchError: bin count must be at most 2**39 = {2**39}, got {2**40}\n"
        assert report.count("FAIL suite-error: worst deviation inf (tolerance 0) - " + named) == 2
        assert "result: FAIL (3/5 suites)" in report

    def test_appendix_suite_reads_its_table_in_blocks(self, monkeypatch):
        # Blocks of omega bins give the one-call suite's line, worst row included.
        wp = cli.make_wavepacket(1.0, 0.05)
        circuits = {
            r_s: cli.build_squeezed_circuit(np.array(cli.VERIFY_ACCELERATIONS), wp, 32, r_s=r_s)
            for r_s, _ in cli.VERIFY_PAYLOADS
        }
        cfg = cli.SweepConfig(bins=32)
        whole = cli._suite_appendix(cfg, circuits.__getitem__)
        honest = cli.contraction_table
        blocks = []

        def counted(circ, omega_bins, gamma_bins, **kwargs):
            blocks.append(len(omega_bins))
            return honest(circ, omega_bins, gamma_bins, **kwargs)

        assert [len(cli._mass_bearing_bins(circ[1])) for circ in circuits.values()] == [14, 14]
        monkeypatch.setattr(cli, "contraction_table", counted)
        monkeypatch.setattr(cli, "_APPENDIX_BLOCK_PAIRS", 3 * 14)  # three omega bins a block
        assert cli._suite_appendix(cfg, circuits.__getitem__) == whole
        assert blocks == [3, 3, 3, 3, 2] * 2

        def with_a_nan_in_block_2(circ, omega_bins, gamma_bins, **kwargs):
            rows = counted(circ, omega_bins, gamma_bins, **kwargs)
            if len(blocks) % 5 == 2:
                rows["c d†"].rel_deviation[0, 0] = math.nan
            return rows

        monkeypatch.setattr(cli, "contraction_table", with_a_nan_in_block_2)
        suite = cli._suite_appendix(cfg, circuits.__getitem__)
        assert math.isnan(suite.worst) and suite.detail.endswith("worst row 'c d†'")

    def test_appendix_suite_memory_is_bounded(self):
        # 1024 bins hold 440-odd mass-bearing bins: about 170 MiB as one table.
        import tracemalloc

        wp = cli.make_wavepacket(1.0, 0.05)
        circuits = {
            r_s: cli.build_squeezed_circuit(np.array(cli.VERIFY_ACCELERATIONS), wp, 1024, r_s=r_s)
            for r_s, _ in cli.VERIFY_PAYLOADS
        }
        tracemalloc.start()
        try:
            suite = cli._suite_appendix(cli.SweepConfig(bins=1024), circuits.__getitem__)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert suite.passed
        assert peak < 64 * 2**20, peak / 2**20

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


class TestParser:
    """One parser holds the command and every setting."""

    def test_settings_before_the_command(self, tmp_path):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        assert main(["--a-steps", "3", "--omega0", "2", "fig5", "--out", str(before)]) == 0
        assert main(["fig5", "--a-steps", "3", "--omega0", "2", "--out", str(after)]) == 0
        assert before.read_bytes() == after.read_bytes()

    @pytest.mark.parametrize("argv", [[], ["--a-steps", "3"], ["fig6"], ["Fig4", "--a-steps", "3"]], ids=repr)
    def test_missing_or_unknown_command(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "COMMAND" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["fig4", "--help"]], ids=repr)
    def test_one_help_names_every_command_and_setting(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for word in ("fig4", "fig5", "sweep", "verify", "--version"):
            assert word in out
        for flag, _, _ in cli._SETTINGS.values():
            assert flag in out

    def test_one_parser_without_subparsers(self):
        parser = cli.build_parser()
        flags = [s for action in parser._actions for s in action.option_strings]
        assert sorted(flags) == sorted(
            ["-h", "--help", "--version", *(flag for flag, _, _ in cli._SETTINGS.values())]
        )
        assert not any(isinstance(action, argparse._SubParsersAction) for action in parser._actions)

    @pytest.mark.parametrize("command", ["fig4", "fig5", "sweep", "verify"])
    def test_command_looked_up_by_module_name(self, command, monkeypatch):
        # The benchmark's tracer wraps these module attributes, so main must
        # read them when it runs, not when the module is imported.
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg: seen.append(cfg) or 0)
        assert main([command, "--seed", "9"]) == 0
        assert [cfg.seed for cfg in seen] == [9]

    def test_fig4_maps_its_curves_through_parallel(self, monkeypatch, tmp_path):
        honest_cmd, honest_parallel = cli.cmd_fig4, cli._parallel
        calls = []
        monkeypatch.setattr(cli, "cmd_fig4", lambda cfg: calls.append("cmd_fig4") or honest_cmd(cfg))
        monkeypatch.setattr(
            cli, "_parallel", lambda func, points: calls.append(list(points)) or honest_parallel(func, points)
        )
        assert main(["fig4", "--a-steps", "2", "--out", str(tmp_path / "f.csv")]) == 0
        assert calls == ["cmd_fig4", list(cli.FIG4_OMEGA0_CURVES)]



@pytest.fixture
def fresh_parser_cache():
    """Drop the parser ``main`` keeps, before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser_cache")
class TestParserReuse:
    """``main`` builds one parser per process, and no call leaves state in it."""

    def test_many_calls_build_one_parser(self, monkeypatch, tmp_path):
        built = []
        honest_init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            honest_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        for k in range(3):
            assert main(["fig5", "--a-steps", "2", "--out", str(tmp_path / f"f{k}.csv")]) == 0
            assert main(["sweep", "--scenario", "inertial", "--a-steps", "2", "--out", str(tmp_path / "s.csv")]) == 0
        with pytest.raises(SystemExit):
            main(["fig6"])
        assert len(built) == 1
        # build_parser stays a fresh parser for callers that inspect or extend it
        assert cli.build_parser() is not cli.build_parser()
        assert len(built) == 3

    def test_a_setting_never_reaches_the_next_call(self, tmp_path):
        assert main(["fig5", "--rs", "0.9", "--omega0", "2", "--out", str(tmp_path / "earlier.csv")]) == 0
        assert main(["fig5", "--out", str(tmp_path / "later.csv")]) == 0
        fresh = tmp_path / "fresh.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rindler_teleport.cli", "fig5", "--out", str(fresh)],
            env=fresh_process_env(), capture_output=True, check=True,
        )
        assert proc.stderr == b""
        assert (tmp_path / "later.csv").read_bytes() == fresh.read_bytes()
        assert (tmp_path / "earlier.csv").read_bytes() != fresh.read_bytes()

    def test_help_version_and_unknown_command_after_a_run(self, tmp_path, capsys):
        assert main(["fig5", "--a-steps", "2", "--rs", "0.2", "--out", str(tmp_path / "f.csv")]) == 0
        capsys.readouterr()
        for argv, code in ((["--help"], 0), (["--version"], 0), (["fig6"], 2)):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == code, argv
        out = capsys.readouterr().out
        assert out == cli.build_parser().format_help() + f"rindler-teleport {rindler_teleport.__version__}\n"


#: Every status word a CSV row ends with.
STATUS_WORDS = ("ok", "overflow", "no-convergence", "oracle-unresolved", "oracle-no-convergence")
CSV_SPECIALS = (",", '"', "\r", "\n")


class TestCsvWriter:
    """``_write_csv`` joins cells by commas: no cell it is given needs quoting."""

    def reference(self, meta: dict, header: list, rows: list) -> bytes:
        buffer = io.StringIO(newline="")
        for key in sorted(meta):
            buffer.write(f"# {key} = {cli._fmt(meta[key])}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(cell) for cell in row])
        return buffer.getvalue().encode()

    def test_bytes_match_csv_writer(self, tmp_path):
        cells = [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308,
            0.1, -2.5, None, True, False, 0, -7, 10**20, np.float64(0.3), *STATUS_WORDS,
        ]
        rows = [cells[k:] + cells[:k] for k in range(len(cells))]
        header = [f"column_{k}" for k in range(len(cells))]
        cfg = cli.SweepConfig(out=str(tmp_path / "cells.csv"))
        meta = {"omega0": 1.0, "sigma": None, "oracle": False, "curves": "0.5,1"}
        assert cli._write_csv(cfg, "test", "unused.csv", meta, header, rows) == 0
        full_meta = {
            "command": "test", "version": rindler_teleport.__version__, "seed": cfg.seed, "a_min": cfg.a_min,
            "a_max": cfg.a_max, "a_steps": cfg.a_steps, "rows": len(rows), **meta,
        }
        assert (tmp_path / "cells.csv").read_bytes() == self.reference(full_meta, header, rows)

    def test_written_names_need_no_quoting(self, monkeypatch, tmp_path):
        honest = cli._write_csv
        written = []

        def recorded(cfg, command, name, meta, header, rows):
            written.append((header, rows))
            return honest(cfg, command, name, meta, header, rows)

        monkeypatch.setattr(cli, "_write_csv", recorded)
        out = ["--out", str(tmp_path / "run.csv")]
        for argv in (
            ["fig4", "--a-steps", "2"],
            ["fig5", "--rs", "354", "--a-steps", "3"],
            ["sweep", "--scenario", "inertial", "--a-steps", "2"],
            ["sweep", "--scenario", "squeezed", "--rs", "354", "--a-steps", "3"],
            ["sweep", "--oracle", "--bins", "16", "--a-steps", "2"],
            ["sweep", "--oracle", "--bins", "16", "--a-steps", "2", "--sigma", "0.3"],
        ):
            assert main(argv + out) == 0
        with monkeypatch.context() as patch:
            faulty_sh_rewrite(patch, cli.SweepConfig(a_min=1.0, a_max=3.0, a_steps=2).a_grid()[0])
            argv = ["sweep", "--oracle", "--bins", "16", "--a-min", "1", "--a-max", "3", "--a-steps", "2"]
            assert main(argv + out) == 0
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_SETTLE_REL_TOL", -1.0)
            assert main(["fig5", "--a-steps", "2"] + out) == 0

        words = {cell for _, rows in written for row in rows for cell in row if isinstance(cell, str)}
        assert words == set(STATUS_WORDS)  # each run's statuses, and no other string cell
        names = {name for header, _ in written for name in header}
        assert len(names) > 10
        for text in names | words:
            assert not any(special in text for special in CSV_SPECIALS), text


def test_import_loads_no_scipy():
    # SciPy is a test dependency only: a fresh interpreter that imports the
    # package and its CLI must not load it.
    code = (
        "import sys, rindler_teleport, rindler_teleport.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=fresh_process_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
    assert proc.stderr == ""


def test_cli_does_no_arithmetic_on_the_spectral_integrals():
    # The thermal term and the inertial law are written once, in
    # teleportation.variance_from_integrals.  The one function of cli.py that
    # computes with i_c, i_s or i_cs is the verify suite checking their own
    # identity i_c - i_s = 1.
    fields = {"i_c", "i_s", "i_cs"}
    users = set()
    for stmt in ast.parse(inspect.getsource(cli)).body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.AugAssign)):
                operands = [getattr(node, part, None) for part in ("left", "right", "operand", "target", "value")]
                if {getattr(o, "attr", getattr(o, "id", None)) for o in operands} & fields:
                    users.add(getattr(stmt, "name", ast.unparse(stmt)[:40]))
    assert users == {"_suite_spectral"}


def test_cli_compares_the_routes_in_one_place():
    # sweep --oracle and verify judge the oracle against the closed route
    # through _oracle_deviation alone, and only the sweep reads a packet's
    # closed variance through squeezed_variance (verify integrates its packet
    # once and reads each payload from those integrals).
    callers = {"photon_number_variance_lo": set(), "squeezed_variance": set()}
    for stmt in ast.parse(inspect.getsource(cli)).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in callers:
                    callers[name].add(stmt.name)
    assert callers == {"photon_number_variance_lo": {"_oracle_deviation"}, "squeezed_variance": {"_sweep_rows"}}
