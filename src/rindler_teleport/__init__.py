"""Continuous-variable teleportation from a uniformly accelerated sender.

The package computes the output statistics of an all-optical teleportation
protocol in which a uniformly accelerated observer sends a wavepacket mode
to an inertial receiver, with the acceleration-induced two-mode squeezing
of the vacuum serving as the entanglement resource:

* :mod:`.spectral` - acceleration squeezing spectrum, wavepacket envelopes
  and the four closed-form integrals (i_c, i_s, i_cs, phi_cs).
* :mod:`.mode_algebra` - affine operator expressions as dense quadrature
  coefficient vectors on mode registers (one constructor,
  ``OperatorExpr(register, u, v, displacement)``), Gaussian gates, Wick
  expectation values, region-to-vacuum-family maps.
* :mod:`.teleportation` - closed-form variance reports for coherent and
  squeezed payloads, plus the single-frequency protocol circuit.
* :mod:`.oracle` - independent numerical cross-checks: a discretized
  gate-by-gate circuit evaluated by mechanical Wick pairing, and a
  truncated-Fock brute-force simulation.
* :mod:`.cli` - ``rindler-teleport`` command line: figure sweeps, generic
  parameter sweeps and the self-verification suite.
"""

from .mode_algebra import (
    Chirality,
    ModeLabel,
    ModeRegister,
    OperatorExpr,
    OperatorRows,
    Sector,
    beam_splitter,
    commutator,
    displace,
    quadrature_variance,
    rindler_to_unruh,
    single_mode_squeeze,
    two_mode_squeeze,
    wick_expectation,
)
from .oracle import (
    DiscretizedCircuit,
    FockCheckReport,
    GridMismatchError,
    IdentityRow,
    OracleConvergenceError,
    TruncationError,
    appendix_expectations,
    build_displaced_circuit,
    build_squeezed_circuit,
    contraction_table,
    fock_check_inertial,
    photon_number_variance_lo,
)
from .spectral import (
    SpectralConvergenceError,
    SpectralIntegrals,
    WavepacketSpec,
    make_wavepacket,
    spectral_integrals,
    squeeze_param,
    unruh_ch_minus_sh,
    unruh_cosh_sinh,
)
from .teleportation import (
    VarianceReport,
    delta_decoherence,
    delta_extremes,
    displaced_variance,
    inertial_teleport_output,
    narrowband_variance,
    squeezed_variance,
)

__version__ = "0.1.0"

__all__ = [
    "Chirality",
    "DiscretizedCircuit",
    "FockCheckReport",
    "GridMismatchError",
    "IdentityRow",
    "ModeLabel",
    "ModeRegister",
    "OperatorExpr",
    "OperatorRows",
    "OracleConvergenceError",
    "Sector",
    "SpectralConvergenceError",
    "SpectralIntegrals",
    "TruncationError",
    "VarianceReport",
    "WavepacketSpec",
    "appendix_expectations",
    "beam_splitter",
    "build_displaced_circuit",
    "build_squeezed_circuit",
    "commutator",
    "contraction_table",
    "delta_decoherence",
    "delta_extremes",
    "displace",
    "displaced_variance",
    "fock_check_inertial",
    "inertial_teleport_output",
    "make_wavepacket",
    "narrowband_variance",
    "photon_number_variance_lo",
    "quadrature_variance",
    "rindler_to_unruh",
    "single_mode_squeeze",
    "spectral_integrals",
    "squeeze_param",
    "squeezed_variance",
    "two_mode_squeeze",
    "unruh_ch_minus_sh",
    "unruh_cosh_sinh",
    "wick_expectation",
]
