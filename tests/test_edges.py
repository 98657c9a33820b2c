"""Edges of the documented domain, driven through ``cli.main`` in process."""

import csv

import pytest

from rindler_teleport.cli import main


def test_squeezing_past_the_float_range_is_rejected(tmp_path):
    argv = ["sweep", "--scenario", "squeezed", "--oracle", "--rs", "400", "--bins", "32", "--a-steps", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "rejected.csv")])
    assert exc.value.code == 2


def test_squeezed_quadrature_keeps_its_precision(tmp_path):
    out = tmp_path / "rs30.csv"
    argv = ["sweep", "--scenario", "squeezed", "--oracle", "--rs", "30", "--phi", "1.5707963267948966"]
    assert main(argv + ["--a-min", "1", "--a-max", "1", "--a-steps", "1", "--out", str(out)]) == 0
    with open(out) as f:
        (row,) = csv.DictReader(line for line in f if not line.startswith("#"))
    assert row["status"] == "ok", row
    assert float(row["oracle_deviation"]) <= 1e-11, row
