"""Edges of the documented domain, driven through ``cli.main`` in process.

Where a check depends on the process (a blocked import, the hash seed) it
runs in a fresh interpreter; the two scripts run through ``runpy``.
"""

import json
import math
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import fresh_process_env, read_report_csv

from rindler_teleport.cli import ENV_OUTDIR, main

ROOT = Path(__file__).resolve().parents[1]


def _rows(path) -> list[dict]:
    _, header, rows = read_report_csv(path)
    return [dict(zip(header, row)) for row in rows]


def _assert_oracle_rows(path, count):
    rows = _rows(path)
    assert len(rows) == count, (path, len(rows))
    for row in rows:
        assert row["status"] == "ok", (path, row)
        assert float(row["oracle_deviation"]) <= 1e-11, (path, row)


def test_squeezing_past_the_float_range_is_rejected(tmp_path):
    argv = ["sweep", "--scenario", "squeezed", "--oracle", "--rs", "400", "--bins", "32", "--a-steps", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "rejected.csv")])
    assert exc.value.code == 2


def test_squeezed_quadrature_keeps_its_precision(tmp_path):
    out = tmp_path / "rs30.csv"
    argv = ["sweep", "--scenario", "squeezed", "--oracle", "--rs", "30", "--phi", "1.5707963267948966"]
    assert main(argv + ["--a-min", "1", "--a-max", "1", "--a-steps", "1", "--out", str(out)]) == 0
    _assert_oracle_rows(out, 1)


@pytest.mark.parametrize(
    "script, argv, written",
    [
        ("make_figure_data.py", ["--a-steps", "5"], ["fig4_variance_vs_acceleration.csv", "fig5_decoherence_vs_acceleration.csv"]),
        ("run_verification.py", ["--bins", "32"], ["verification_report.txt"]),
    ],
)
def test_script_wrappers(script, argv, written, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTDIR, str(tmp_path))
    monkeypatch.setattr(sys, "argv", [script, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert exc.value.code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == written


# SciPy is a test dependency only; with the module blocked, any SciPy import
# on these paths fails. The Fock ladder climbs to cutoff 58.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from rindler_teleport import cli, fock_check_inertial
assert cli.main(["fig4", "--a-steps", "3"]) == 0
assert cli.main(["verify", "--bins", "32"]) == 0
report = fock_check_inertial(1.0, 1.0)
assert report.passed and report.cutoff == 58, report
# The ladder's windows are kept: a fixed check at its rung reads the same window.
fixed = fock_check_inertial(1.0, 1.0, 58)
for field in ("measured_mean", "measured_var", "measured_var_orth", "lost_mass"):
    assert getattr(fixed, field) == getattr(report, field), (field, fixed, report)
"""


def test_runtime_paths_without_scipy(tmp_path):
    env = {**fresh_process_env(), ENV_OUTDIR: str(tmp_path)}
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_a_fresh_interpreter_fails_on_a_runtime_warning():
    # A child's NumPy warning stops it with a non-zero exit, as a warning
    # fails a test in this run, so a check that reads only a child's exit
    # status also sees a warning.
    code = "import numpy; numpy.float64(1e308) * 10.0"
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_process_env(), capture_output=True, text=True)
    assert proc.returncode != 0
    assert "RuntimeWarning: overflow" in proc.stderr, proc.stderr


class TestOracleSweeps:
    """At the defaults (40 accelerations, 256 bins) every row is ok and agrees
    with the closed form to 1e-11."""

    @pytest.mark.parametrize("scenario", ["displaced", "squeezed"])
    def test_default_rows_agree(self, scenario, tmp_path):
        out = tmp_path / f"{scenario}.csv"
        assert main(["sweep", "--scenario", scenario, "--oracle", "--out", str(out)]) == 0
        _assert_oracle_rows(out, 40)

    def test_row_blocks_at_1024_bins(self, tmp_path):
        # At 1024 bins the 40 rows are ten row blocks sharing one register
        # plan: every row is ok and agrees with the closed form to 1e-11, and
        # a row's bits do not depend on its batch: the a = 0.05 row reads the
        # same as a build of that row alone.
        blocks, alone = tmp_path / "blocks.csv", tmp_path / "alone.csv"
        argv = ["sweep", "--scenario", "squeezed", "--oracle", "--bins", "1024"]
        assert main(argv + ["--out", str(blocks)]) == 0
        assert main(argv + ["--a-steps", "1", "--out", str(alone)]) == 0
        first = []
        for path in (blocks, alone):
            data = [line for line in path.read_text().splitlines(keepends=True) if not line.startswith("#")]
            assert data[1].startswith("0.05,"), (path, data[1])
            first.append(data[1])
        assert first[0] == first[1], first
        _assert_oracle_rows(blocks, 40)


_ORACLE_SWEEP = ["sweep", "--scenario", "squeezed", "--oracle", "--a-steps", "5"]
#: The five outputs that must not depend on the process, by file name.
_OUTPUTS = {
    "fig4.csv": ["fig4", "--a-steps", "5"],
    "fig5.csv": ["fig5", "--a-steps", "5"],
    "sweep.csv": [*_ORACLE_SWEEP, "--bins", "32"],
    "sweep64.csv": [*_ORACLE_SWEEP, "--bins", "64"],
    "verify.txt": ["verify", "--bins", "32"],
}
_WRITE_OUTPUTS = """
import json, sys
from rindler_teleport.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def _write_outputs(out, names, seed):
    """A fresh interpreter, with hash seed ``seed``, writing the named outputs into ``out``."""
    out.mkdir()
    argvs = [[*_OUTPUTS[name], "--out", str(out / name)] for name in names]
    env = {**fresh_process_env(), "PYTHONHASHSEED": seed}
    return subprocess.Popen(
        [sys.executable, "-c", _WRITE_OUTPUTS, json.dumps(argvs)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def test_outputs_do_not_depend_on_the_process(tmp_path):
    # Each output is written by two interpreters with different hash seeds,
    # the second running the commands in the reverse order, and once more by
    # consecutive cli.main calls in this one (which reuse one parser, and
    # reuse the bins-32 rewrite plan after making the bins-64 one); all come
    # out byte for byte the same.
    names = list(_OUTPUTS)
    one = tmp_path / "one"
    one.mkdir()
    in_order = list(_OUTPUTS.items())
    in_order.insert(4, ("sweep-again.csv", _OUTPUTS["sweep.csv"]))
    with _write_outputs(tmp_path / "1", names, "1") as first, _write_outputs(tmp_path / "2", names[::-1], "2") as second:
        for name, argv in in_order:
            assert main([*argv, "--out", str(one / name)]) == 0, argv
        for proc in (first, second):
            _, stderr = proc.communicate()
            assert proc.returncode == 0, stderr
            assert stderr == ""
    for name in names:
        written = (tmp_path / "1" / name).read_bytes()
        assert written == (tmp_path / "2" / name).read_bytes(), name
        assert written == (one / name).read_bytes(), name
    assert (tmp_path / "1" / "sweep.csv").read_bytes() == (one / "sweep-again.csv").read_bytes()


class TestSmallAccelerations:
    """Where sinh r underflows, every row still passes the commutator audit
    and agrees with the closed form. Where pi omega/a passes the float range
    (a = 1e-320 ... 1e-300), or only 2 pi omega/a does (a = 2e-308, 3e-308 on
    the oracle sweeps), every row reads the r = 0 limit without a warning."""

    def test_rows_where_sinh_r_underflows(self, tmp_path):
        out = tmp_path / "small.csv"
        argv = ["sweep", "--scenario", "squeezed", "--oracle", "--a-min", "1e-4", "--a-max", "0.05", "--a-steps", "12"]
        assert main(argv + ["--out", str(out)]) == 0
        _assert_oracle_rows(out, 12)

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("displaced", ["sweep", "--oracle", "--bins", "32"]),
            ("squeezed", ["sweep", "--scenario", "squeezed", "--oracle", "--bins", "32"]),
            ("inertial", ["sweep", "--scenario", "inertial"]),
            ("fig4", ["fig4"]),
            ("fig5", ["fig5"]),
        ],
    )
    def test_rows_past_the_float_range_of_pi_omega_over_a(self, name, argv, tmp_path):
        grids = [("1e-320", "1e-300", "5")]
        if "--oracle" in argv:
            grids.append(("2e-308", "3e-308", "2"))
        for a_min, a_max, steps in grids:
            out = tmp_path / f"tiny_{name}_{a_min}.csv"
            assert main(argv + ["--a-min", a_min, "--a-max", a_max, "--a-steps", steps, "--out", str(out)]) == 0
            rows = _rows(out)
            assert len(rows) == int(steps) * (7 if name == "fig4" else 1), (name, len(rows))
            for row in rows:
                assert row["status"] == "ok", (name, row)
                if name in ("displaced", "inertial"):
                    assert row["variance_total"] == "3", (name, row)


class TestLargeAccelerations:
    """Past a of about 1e5 omega0 the difference i_c - i_s carries rounding
    above 1e-8, and past about 8e154 omega0 i_c (i_c - 1) leaves the float
    range; then pi omega/a itself leaves it."""

    @pytest.mark.parametrize("sigma", ["0.01", "0.05"])
    @pytest.mark.parametrize("scenario", ["displaced", "squeezed"])
    def test_rows_up_to_1e300(self, scenario, sigma, tmp_path):
        # Every displaced row up to 1e300 omega0 is ok, with a finite
        # variance; a squeezed row is ok or, where a value overflowed,
        # overflow, and its thermal part stays finite.
        out = tmp_path / f"{scenario}_{sigma}.csv"
        argv = ["sweep", "--scenario", scenario, "--a-min", "1e6", "--a-max", "1e300", "--a-steps", "295"]
        assert main(argv + ["--sigma", sigma, "--out", str(out)]) == 0
        rows = _rows(out)
        assert len(rows) == 295, len(rows)
        for row in rows:
            assert math.isfinite(float(row["thermal_noise"])), row
            if scenario == "displaced":
                assert row["status"] == "ok", row
                assert math.isfinite(float(row["variance_total"])), row
            else:
                assert row["status"] in ("ok", "overflow"), row
        if scenario == "squeezed":
            assert rows[-1]["variance_total"] == "inf", rows[-1]

    @pytest.mark.parametrize("scenario", ["displaced", "squeezed", "fig4", "fig5"])
    def test_one_row_past_the_float_range_of_pi_omega_over_a(self, scenario, tmp_path):
        # Past a/omega0 ~ 1e308 pi omega/a leaves the float range; at a =
        # 1.7e308, omega0 = 0.3 only the sum i_c + i_s does. Either row reads
        # overflow, not no-convergence, without a warning.
        command = [scenario] if scenario.startswith("fig") else ["sweep", "--scenario", scenario]
        total, thermal = {"fig4": ("variance_total", "thermal"), "fig5": ("total_phi0", "thermal")}.get(
            scenario, ("variance_total", "thermal_noise")
        )
        for omega0, sigma, a in [("1e-8", "5e-10", "1e308"), ("0.3", "0.003", "1.7e308")]:
            out = tmp_path / f"edge_{scenario}_{omega0}.csv"
            argv = [*command, "--omega0", omega0, "--sigma", sigma, "--a-min", a, "--a-max", a, "--a-steps", "1"]
            assert main(argv + ["--out", str(out)]) == 0
            (row,) = _rows(out)
            assert row["status"] == "overflow", row
            assert row[total] == row[thermal] == "inf", row


def test_workflow_runs_no_inline_python():
    # Every check runs in the tier-1 tests: the workflow feeds no Python
    # source to an interpreter on its command line or through a heredoc.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    inline = re.compile(r"\bpython3?\b.*\s(?:-c\b|-\s*<<)")
    assert not [line.strip() for line in workflow.splitlines() if inline.search(line)]
