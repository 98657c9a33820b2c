"""Acceptance gate: one test per published capability of the package.

Each test drives the public API or the CLI exactly as a user would and
asserts the advertised tolerance and runtime budget.  Test names carry the
criterion number; ``pytest -v`` therefore prints one pass/fail line per
criterion.
"""

import math
import time

import numpy as np
import pytest
from conftest import read_report_csv

from rindler_teleport import (
    build_displaced_circuit,
    build_squeezed_circuit,
    delta_decoherence,
    displaced_variance,
    fock_check_inertial,
    inertial_teleport_output,
    make_wavepacket,
    narrowband_variance,
    photon_number_variance_lo,
    spectral_integrals,
    squeezed_variance,
)
from rindler_teleport.cli import main
from rindler_teleport.mode_algebra import (
    Chirality,
    ModeLabel,
    Sector,
    annihilator,
    beam_splitter,
    commutator,
    single_mode_squeeze,
    two_mode_squeeze,
)

SEED = 20260816


def test_criterion_1_narrowband_agreement():
    start = time.perf_counter()
    a_grid = np.logspace(math.log10(0.05), math.log10(50.0), 40)
    worst = 0.0
    for omega0 in (0.5, 1.0, 2.0):
        wp = make_wavepacket(omega0, 0.01 * omega0)
        for a in a_grid:
            broadband = displaced_variance(float(a), wp).total
            narrow = narrowband_variance(omega0, float(a))
            worst = max(worst, abs(broadband - narrow))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3, f"worst |broadband - narrowband| = {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s (budget 5s)"


def test_criterion_2_variance_curves_shape(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "fig4.csv"
    assert main(["fig4", "--out", str(out)]) == 0
    _, header, raw = read_report_csv(out)
    rows = [(float(r[0]), float(r[1]), float(r[2])) for r in raw]
    curves = sorted({w0 for w0, _, _ in rows})
    assert len(curves) == 7

    by_curve = {}
    for w0 in curves:
        pts = sorted((a, v) for cw, a, v in rows if cw == w0)
        values = [v for _, v in pts]
        # starts at the no-resource plateau and decays monotonically
        assert abs(values[0] - 3.0) <= 1e-2
        assert values[-1] < 2.2
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))
        by_curve[w0] = values

    # higher carrier frequency keeps more of the plateau at every acceleration
    n_pts = len(next(iter(by_curve.values())))
    for lo, hi in zip(curves, curves[1:]):
        for k in range(n_pts):
            assert by_curve[hi][k] >= by_curve[lo][k] - 1e-12
        assert by_curve[hi][-1] > by_curve[lo][-1]

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


def test_criterion_3_decoherence_crossover(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "fig5.csv"
    assert main(["fig5", "--out", str(out)]) == 0
    _, _, raw = read_report_csv(out)
    rows = sorted((float(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in raw)
    thermal = [t for _, t, _, _ in rows]
    d0 = [x for _, _, x, _ in rows]
    d90 = [x for _, _, _, x in rows]

    assert abs(thermal[0] - 2.0) <= 1e-3
    assert max(thermal) <= 2.0 + 1e-3
    assert all(x1 <= x2 + 1e-12 for x1, x2 in zip(d0, d0[1:]))
    assert all(x1 <= x2 + 1e-12 for x1, x2 in zip(d90, d90[1:]))
    assert d0[-1] > 10.0 * d0[0]
    assert d90[-1] > 10.0 * d90[0]
    # decoherence overtakes the thermal part at large enough acceleration
    assert any(x0 > t and x90 > t for t, x0, x90 in zip(thermal, d0, d90))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


def test_criterion_4_decoherence_closed_forms():
    rng = np.random.default_rng(SEED)
    r_s = rng.uniform(0.0, 2.0, size=1000)
    i_c = rng.uniform(1.0, 10.0, size=1000)
    for rs, ic in zip(r_s, i_c):
        d0 = delta_decoherence(rs, ic, 0.0)
        d90 = delta_decoherence(rs, ic, math.pi / 2)
        c0 = math.exp(2 * rs) + 4 * ic * (ic - 1) * (math.exp(rs) - 1) ** 2
        c90 = math.exp(-2 * rs) + 4 * ic * (ic - 1) * (math.exp(-rs) - 1) ** 2
        assert d0 == pytest.approx(c0, rel=1e-12)
        assert d90 == pytest.approx(c90, rel=1e-12)


def test_criterion_5_contraction_identities(circ_displaced, circ_squeezed):
    from rindler_teleport import appendix_expectations

    rng = np.random.default_rng(SEED)
    worst, worst_where = 0.0, ""
    for circ in (circ_displaced, circ_squeezed):
        carrying = np.flatnonzero(circ.g >= 0.05 * circ.g.max())
        pairs = rng.choice(carrying, size=(50, 2))
        for i, j in pairs:
            rows = appendix_expectations(circ, int(i), int(j), phi=0.3)
            assert len(rows) == 20
            for name, row in rows.items():
                if row.rel_deviation > worst:
                    worst = row.rel_deviation
                    worst_where = f"r_s={circ.r_s} bins ({i},{j}) row {name!r}"
    assert worst <= 1e-8, f"worst relative deviation {worst:.3e} at {worst_where}"


def test_criterion_6_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    worst_point = None
    for omega0 in (0.5, 1.0, 2.0):
        wp = make_wavepacket(omega0, 0.05 * omega0)
        for a in np.logspace(-1.0, 1.0, 5):
            for r_s in (0.0, 0.3, 0.5):
                if r_s == 0.0:
                    circ = build_displaced_circuit(float(a), wp, 512)
                    phases = (0.0,)
                else:
                    circ = build_squeezed_circuit(float(a), wp, 512, r_s=r_s)
                    phases = (0.0, math.pi / 2)
                for phi in phases:
                    oracle = photon_number_variance_lo(circ, phi).total
                    if r_s == 0.0:
                        closed = displaced_variance(float(a), wp).total
                    else:
                        closed = squeezed_variance(float(a), wp, r_s, phi).total
                    dev = abs(oracle - closed) / abs(closed)
                    if dev > worst:
                        worst = dev
                        worst_point = (float(a), omega0, r_s, phi)
    assert worst <= 1e-2, f"worst oracle deviation {worst:.3e} at {worst_point}"

    # refinement: doubling the grid must not move the answer away
    a, omega0, r_s, phi = worst_point
    wp = make_wavepacket(omega0, 0.05 * omega0)
    for n in (512, 1024):
        if r_s == 0.0:
            circ = build_displaced_circuit(a, wp, n)
            closed = displaced_variance(a, wp).total
        else:
            circ = build_squeezed_circuit(a, wp, n, r_s=r_s)
            closed = squeezed_variance(a, wp, r_s, phi).total
        dev = abs(photon_number_variance_lo(circ, phi).total - closed) / abs(closed)
        if n == 512:
            coarse_dev = dev
        else:
            assert dev < coarse_dev or dev <= 1e-9, (
                f"refinement did not shrink: N=512 gives {coarse_dev:.3e}, "
                f"N=1024 gives {dev:.3e}"
            )

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"


A_IN = ModeLabel(Sector.AUX, Chirality.LEFT, 0)
V1 = ModeLabel(Sector.AUX, Chirality.LEFT, 1)
V2 = ModeLabel(Sector.AUX, Chirality.LEFT, 2)

INERTIAL_GAINS = (0.3, 1.0, 2.0, 5.0, math.inf)
INERTIAL_RESOURCES = (0.0, 0.5, 1.5)


def test_criterion_7a_single_frequency_coefficients():
    for r in INERTIAL_GAINS:
        for r_omega in INERTIAL_RESOURCES:
            expr = inertial_teleport_output(r, r_omega)
            residual = math.tanh(r) * math.exp(-r_omega)
            assert abs(expr.coefficient(A_IN) - 1.0) <= 1e-12
            assert abs(expr.coefficient(V1, dagger=True) - residual) <= 1e-12
            assert abs(expr.coefficient(V2) + residual) <= 1e-12


def test_criterion_7b_residual_suppression_factor():
    for r in INERTIAL_GAINS:
        if not math.isfinite(r):
            continue
        for r_omega in INERTIAL_RESOURCES:
            expr = inertial_teleport_output(r, r_omega)
            ratio = expr.coefficient(V1, dagger=True) / math.tanh(r)
            assert abs(ratio - math.exp(-r_omega)) <= 1e-12


def test_criterion_7c_truncated_fock_cross_check():
    points = [
        (0.5, 0.0), (0.5, 0.5), (0.3, 1.0), (0.8, 0.6),
        (1.0, 0.0), (1.0, 0.8), (1.0, 1.0),
    ]
    reports = [fock_check_inertial(r, rw, strict=False) for r, rw in points]
    worst = max(rep.max_deviation for rep in reports)
    detail = "; ".join(
        f"(r={rep.r:g}, r_omega={rep.r_omega:g}) -> {rep.max_deviation:.4e}"
        f" [cutoff {rep.cutoff}, lost mass {rep.lost_mass:.2e}]"
        for rep in reports
    )
    assert worst <= 1e-3, (
        "truncated-Fock simulation cannot hold 1e-3 over the full "
        f"r, r_omega <= 1 square; measured deviations: {detail}. The breach "
        "tracks the truncation itself (lost state mass exceeds the tolerance "
        "wherever the check fails), so a larger Fock window, not a protocol "
        "change, is what the corner needs."
    )


def test_criterion_8a_spectral_sum_rule():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(30):
        omega0 = rng.uniform(0.3, 3.0)
        sigma = omega0 * rng.uniform(0.01, 0.1)
        a = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        ints = spectral_integrals(make_wavepacket(omega0, sigma), a)
        worst = max(worst, abs(ints.i_c - ints.i_s - 1.0))
    assert worst <= 1e-8, f"worst |i_c - i_s - 1| = {worst:.3e}"


def test_criterion_8b_commutator_preservation(circ_displaced, circ_squeezed):
    assert circ_displaced.commutator_audit_max <= 1e-10
    assert circ_squeezed.commutator_audit_max <= 1e-10

    rng = np.random.default_rng(SEED)
    for _ in range(20):
        # random optical bench: the wire meets a fresh vacuum mode per layer
        wire = annihilator(ModeLabel(Sector.AUX, Chirality.LEFT, 0))
        companions = []
        for depth in range(1, 9):
            fresh = annihilator(ModeLabel(Sector.AUX, Chirality.LEFT, depth))
            kind = int(rng.integers(0, 3))
            if kind == 0:
                wire, other = two_mode_squeeze(wire, fresh, float(rng.uniform(0.0, 0.5)))
            elif kind == 1:
                wire, other = beam_splitter(wire, fresh, float(rng.uniform(0.0, 1.0)))
            else:
                wire = single_mode_squeeze(wire, float(rng.uniform(0.0, 0.5)))
                other = fresh
            companions.append(other)
        assert abs(commutator(wire, wire.dagger()) - 1.0) <= 1e-10
        for other in companions:
            assert abs(commutator(other, other.dagger()) - 1.0) <= 1e-10
            assert abs(commutator(wire, other)) <= 1e-10
            assert abs(commutator(wire, other.dagger())) <= 1e-10


def test_criterion_8c_output_state_impurity():
    wp = make_wavepacket(1.0, 0.05)
    for a in np.logspace(math.log10(0.05), math.log10(50.0), 12):
        assert displaced_variance(float(a), wp).purity_product > 1.0
        assert squeezed_variance(float(a), wp, 0.4, 0.7).purity_product > 1.0


def test_criterion_8d_zero_squeezing_reduction():
    rng = np.random.default_rng(SEED)
    wp = make_wavepacket(1.0, 0.05)
    for _ in range(20):
        a = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        phi = rng.uniform(0.0, 2 * math.pi)
        squeezed = squeezed_variance(a, wp, 0.0, phi)
        displaced = displaced_variance(a, wp)
        assert squeezed.total == pytest.approx(displaced.total, rel=1e-12)
        assert squeezed.thermal_noise == pytest.approx(displaced.thermal_noise, rel=1e-12)
        assert squeezed.qnl_or_decoherence == pytest.approx(1.0, rel=1e-12)
