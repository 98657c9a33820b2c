"""Closed-form output statistics of the accelerated teleportation protocol.

The protocol teleports a wavepacket mode of a uniformly accelerated sender
to an inertial receiver using only passive/active Gaussian optics: a strong
two-mode-squeezing amplifier plays the classical channel, a beam splitter
of matched transmissivity performs the displacement, and the receiver-side
half of the acceleration-induced two-mode squeezing is consumed as the
entanglement resource.

With the teleported quadrature measured against a bright local-oscillator
copy of the wavepacket (self-referencing homodyne), its variance splits
exactly into

    total = thermal_noise + qnl_or_decoherence = 2 i_cs (i_c + i_s) + Delta(phi),

all in :func:`variance_from_integrals`.  In the thermal term, i_cs is the
noise reduction bought by the vacuum-entangled resource and i_c + i_s the
Unruh amplification that limits it; the inertial teleporter is the member
(i_c, i_s, i_cs) = (1, 0, e^(-2 r_w)) and the narrowband packet the member
(cosh^2 r0, sinh^2 r0, e^(-2 r0)).  Delta(phi) is the decoherence function
of a squeezed payload; a coherent payload is its r_s = 0 member, Delta = 1,
the quantum-noise limit.  Input states are pure, so any variance product
above 1 diagnoses decoherence inherited from the acceleration.

All formulas here are strong-amplification limits; the discretized circuit
oracle cross-checks them at large finite gain.  Quadrature convention:
X(phi) = e^(-i phi) a + e^(i phi) a^dagger, vacuum variance 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mode_algebra import (
    _MAX_TWO_MODE_STRENGTH,
    Chirality,
    ModeLabel,
    ModeRegister,
    OperatorExpr,
    Sector,
    beam_splitter,
    two_mode_squeeze,
)
from .spectral import WavepacketSpec, spectral_integrals, squeeze_param

#: Largest payload squeezing whose e^(2 r_s) is a finite float.
_MAX_PAYLOAD_SQUEEZING = 0.5 * math.log(np.finfo(float).max)

#: Largest finite amplifier gain whose cosh^2 r, in the transmissivity
#: 1/cosh^2 r of the matched beam splitter, is a finite float.
_MAX_FINITE_GAIN = math.acosh(math.sqrt(np.finfo(float).max))

__all__ = [
    "VarianceReport",
    "delta_decoherence",
    "delta_extremes",
    "displaced_variance",
    "inertial_teleport_output",
    "narrowband_variance",
    "squeezed_variance",
    "variance_from_integrals",
]


@dataclass(frozen=True)
class VarianceReport:
    """Quadrature-variance decomposition of the teleported output.

    Invariants: ``total == thermal_noise + qnl_or_decoherence`` exactly
    (the two parts are built from disjoint mode families), and
    ``purity_product`` - the product of the total variances at phi = 0 and
    phi = pi/2 - is >= 1 for any physical state, with equality only for a
    pure Gaussian output.

    A report built from an array of accelerations holds an array in every
    field, NaN on the rows whose spectral integrals did not converge.
    """

    total: float | np.ndarray
    thermal_noise: float | np.ndarray
    qnl_or_decoherence: float | np.ndarray
    purity_product: float | np.ndarray


def displaced_variance(a: float | np.ndarray, wp: WavepacketSpec) -> VarianceReport:
    """Output variance for a coherent-state payload (phase independent).

    The r_s = 0 report of :func:`squeezed_variance`: Delta = 1, so total =
    2 i_cs (i_c + i_s) + 1 at every phase.  ``a`` is a scalar or a 1-D array
    (see :func:`spectral_integrals`).
    """
    ints = spectral_integrals(wp, a)
    return variance_from_integrals(ints.i_c, ints.i_s, ints.i_cs, 0.0, 0.0)


def narrowband_variance(omega0: float, a: float) -> float:
    """Sigma -> 0 limit of the displaced-payload variance.

    With r0 the acceleration squeezing parameter at the carrier frequency,
    i_cs -> e^(-2 r0) and i_c + i_s -> cosh 2 r0, giving
    (1 + e^(-4 r0)) + 1.  Tends to 3 in the inertial limit (r0 -> 0) and
    to 2 (the quantum-noise limit) for omega0 << a.
    """
    r0 = squeeze_param(omega0, a)
    return 2.0 + math.exp(-4.0 * r0)


def delta_decoherence(r_s: float, i_c: float | np.ndarray, phi: float) -> float | np.ndarray:
    """Phase-dependent payload term Delta(phi) for a squeezed payload.

    Delta(phi) = cosh 2 r_s
               + 4 i_c (i_c - 1) (cosh 2 r_s - 2 cosh r_s + 1)
               + 2 sinh r_s [ (2 i_c - 1)^2 cosh r_s - 4 i_c (i_c - 1) ] cos 2 phi

    Reduces to the pure squeezed-vacuum variance e^(2 r_s cos-profile) at
    i_c = 1 (inertial limit) and to 1 at r_s = 0; the i_c-growing part is
    the decoherence the acceleration inflicts on the payload itself.
    ``i_c`` may be an array, a list or a tuple; NaN entries pass through as NaN.

    Evaluated without cancellation as Delta = M + (P - M) cos^2 phi, with
    h = 16 i_c (i_c - 1) sinh^2(r_s/2), the minimum M = e^(-2 r_s) + h e^(-r_s)
    and the spread P - M = 2 sinh 2 r_s + 2 h sinh r_s, both non-negative.
    ``r_s`` must leave e^(2 r_s) a finite float, and ``phi`` must be finite.
    """
    return _delta_terms(r_s, i_c, phi)[0]


def delta_extremes(r_s: float, i_c: float | np.ndarray) -> tuple:
    """(Delta(0), Delta(pi/2)) = (P, M), the extremes of :func:`delta_decoherence`;
    M exactly, where a float pi/2 would add cos^2(pi/2) (P - M) = 3.7e-33 (P - M)."""
    return _delta_terms(r_s, i_c, 0.0)[1:]


def _delta_terms(r_s: float, i_c: float | np.ndarray, phi: float) -> tuple:
    """(Delta(phi), P, M) of :func:`delta_decoherence`, from one (M, P - M)."""
    if not math.isfinite(phi):
        raise ValueError(f"LO phase phi must be finite, got {phi}")
    if not 0.0 <= r_s <= _MAX_PAYLOAD_SQUEEZING:
        raise ValueError(
            f"payload squeezing r_s must lie in [0, {_MAX_PAYLOAD_SQUEEZING:.6g}] "
            f"(e^(2 r_s) must be finite), got {r_s}"
        )
    given, i_c = i_c, np.asarray(i_c, dtype=float)
    if np.any(i_c < 1.0):
        raise ValueError(f"i_c must be >= 1 (it is 1 + i_s), got {given}")
    half = math.sinh(0.5 * r_s)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed row carries status ``overflow``
        if r_s == 0.0:
            # exactly 0 (NaN rows stay NaN), also where i_c itself overflowed
            h = 0.0 * np.minimum(i_c, 1.0)
        else:
            square = 16.0 * half * half
            grown = i_c * (i_c - 1.0)
            h = square * grown
            # Where 16 sinh^2(r_s/2) underflows (r_s below ~3e-162) or i_c (i_c - 1)
            # overflows (i_c past ~1.3e154), one 4 sinh(r_s/2) per i_c factor keeps
            # h in range; every other row keeps the plain product.
            if square == 0.0 or np.isinf(grown).any():
                paired = np.isinf(grown) | (square == 0.0)
                h = np.where(paired, (4.0 * half * i_c) * (4.0 * half * (i_c - 1.0)), h)
        if np.ndim(h) == 0:
            h = float(h)
        spread = 2.0 * math.sinh(2.0 * r_s) + 2.0 * h * math.sinh(r_s)
    minimum = math.exp(-2.0 * r_s) + h * math.exp(-r_s)
    cos_phi = math.cos(phi)
    return minimum + spread * (cos_phi * cos_phi), minimum + spread, minimum


def squeezed_variance(
    a: float | np.ndarray, wp: WavepacketSpec, r_s: float, phi: float
) -> VarianceReport:
    """Output variance for a squeezed payload at local-oscillator phase phi.

    total(phi) = 2 i_cs (i_c + i_s) + Delta(phi).  The purity product uses
    the extremal phases 0 and pi/2 (:func:`delta_extremes`).  ``a`` is a
    scalar or a 1-D array (see :func:`spectral_integrals`).
    """
    ints = spectral_integrals(wp, a)
    return variance_from_integrals(ints.i_c, ints.i_s, ints.i_cs, r_s, phi)


def variance_from_integrals(
    i_c: float | np.ndarray, i_s: float | np.ndarray, i_cs: float | np.ndarray, r_s: float, phi: float
) -> VarianceReport:
    """Delta(phi) + 2 i_cs (i_c + i_s), the report at phase phi from the spectral integrals.

    i_cs is the resource's noise reduction, i_c + i_s (i_c >= 1) the Unruh amplification
    that limits it.  The inertial teleporter is the member (1, 0, e^(-2 r_w)), the narrowband
    packet (cosh^2 r0, sinh^2 r0, e^(-2 r0)).  A value past the float range is inf.  Both
    payload reports read this; neither calls the other, as the benchmark traces both.
    """
    dec, d0, d90 = _delta_terms(r_s, i_c, phi)
    with np.errstate(over="ignore"):  # as in _delta_terms; i_c + i_s may pass the float range
        thermal = 2.0 * i_cs * (i_c + i_s)
        purity_product = (thermal + d0) * (thermal + d90)
    return VarianceReport(
        total=thermal + dec,
        thermal_noise=thermal,
        qnl_or_decoherence=dec,
        purity_product=purity_product,
    )


# -- single-frequency (inertial) protocol circuit --------------------------

#: Input mode a_in and resource vacuum modes v1, v2 of the single-frequency
#: protocol, on one register so that every gate is a vector operation.
_INERTIAL_MODES = ModeRegister(ModeLabel(Sector.AUX, Chirality.LEFT, i) for i in range(3))


@functools.lru_cache(maxsize=64)
def inertial_teleport_output(r: float, r_omega: float) -> OperatorExpr:
    """Output mode of the single-frequency all-optical teleporter.

    Composes the amplifier (gain ``r``) on the input against one half of a
    two-mode-squeezed resource (strength ``r_omega``), then the matched
    beam splitter (transmissivity 1/cosh^2 r) against the other half:

      a_out = a_in + tanh(r) (a_i^dagger - a_j)
            = a_in + tanh(r) e^(-r_omega) (v1^dagger - v2)

    with (a_i, a_j) the resource halves built from vacuum modes (v1, v2).
    ``r = math.inf`` returns the exact strong-amplification limit
    (tanh r -> 1); the added-noise factor e^(-r_omega) then shows the
    resource squeezing suppressing the teleportation penalty.

    A finite ``r`` past 355.58 (cosh^2 r overflows) or an ``r_omega`` past
    710.48 (cosh r_omega overflows) is a ValueError naming that input.

    The output is a pure function of (r, r_omega) and an immutable
    expression, so the last 64 are kept: a Fock check at several cutoffs
    builds its prediction once.  A rejected input is never kept.
    """
    if not (0.0 <= r <= _MAX_FINITE_GAIN or r == math.inf):
        raise ValueError(f"amplifier gain r must be inf or lie in [0, {_MAX_FINITE_GAIN:.6g}], got {r}")
    if not 0.0 <= r_omega <= _MAX_TWO_MODE_STRENGTH:
        raise ValueError(f"resource squeezing r_omega must lie in [0, {_MAX_TWO_MODE_STRENGTH:.6g}], got {r_omega}")
    a_in, v1, v2 = _INERTIAL_MODES.annihilators()
    res_i, res_j = two_mode_squeeze(v1, v2, r_omega)
    if math.isinf(r):
        return a_in + res_i.dagger() - res_j
    wire, _ = two_mode_squeeze(a_in, res_i, r)
    eta = 1.0 / math.cosh(r) ** 2
    out, _ = beam_splitter(wire, res_j, eta)
    return out
