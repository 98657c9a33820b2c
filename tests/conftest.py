"""Shared fixtures: the standard wavepacket and prebuilt oracle circuits."""

import csv

import numpy as np
import pytest

from rindler_teleport import (
    build_displaced_circuit,
    build_squeezed_circuit,
    make_wavepacket,
)


def read_report_csv(path):
    """Split a CSV report into (metadata dict, header list, rows)."""
    meta = {}
    body = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    parsed = list(csv.reader(body))
    return meta, parsed[0], parsed[1:]


def faulty_sh_rewrite(monkeypatch, faulty_a):
    """Make the region rewrite use a 1% error in sinh r at the acceleration
    ``faulty_a`` only, which breaks the canonical commutators there; the
    circuit record's own ch and sh stay honest."""
    from rindler_teleport import mode_algebra

    honest = mode_algebra.unruh_cosh_sinh

    def faulty(omega, a):
        ch, sh = honest(omega, a)
        return ch, sh * np.where(np.asarray(a) == faulty_a, 1.01, 1.0)

    monkeypatch.setattr(mode_algebra, "unruh_cosh_sinh", faulty)


@pytest.fixture
def spectra_never_settle(monkeypatch):
    """Make every spectral integral row run out of refinements unsettled.

    A negative settle tolerance cannot be met, as no relative change between
    levels is negative; a tiny positive one is met whenever every value
    repeats bit for bit between two levels."""
    from rindler_teleport import spectral

    monkeypatch.setattr(spectral, "_SETTLE_REL_TOL", -1.0)


STANDARD_OMEGA0 = 1.0
STANDARD_SIGMA = 0.05
STANDARD_A = 1.0
STANDARD_RS = 0.4
STANDARD_BINS = 256


@pytest.fixture(scope="session")
def wp_standard():
    return make_wavepacket(STANDARD_OMEGA0, STANDARD_SIGMA)


@pytest.fixture(scope="session")
def circ_displaced(wp_standard):
    return build_displaced_circuit(STANDARD_A, wp_standard, STANDARD_BINS)


@pytest.fixture(scope="session")
def circ_squeezed(wp_standard):
    return build_squeezed_circuit(STANDARD_A, wp_standard, STANDARD_BINS, r_s=STANDARD_RS)
