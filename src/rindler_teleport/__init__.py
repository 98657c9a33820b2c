"""Continuous-variable teleportation from a uniformly accelerated sender.

The package computes the output statistics of an all-optical teleportation
protocol in which a uniformly accelerated observer sends a wavepacket mode
to an inertial receiver, with the acceleration-induced two-mode squeezing
of the vacuum serving as the entanglement resource:

* :mod:`.spectral` - acceleration squeezing spectrum, wavepacket envelopes
  and the three closed-form integrals (i_c, i_s, i_cs).
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

Each of the first four modules lists its public names in its own
``__all__``; the package root re-exports all of them, in that order.
"""

from . import mode_algebra, oracle, spectral, teleportation
from .mode_algebra import *  # noqa: F403
from .oracle import *  # noqa: F403
from .spectral import *  # noqa: F403
from .teleportation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += spectral.__all__
__all__ += mode_algebra.__all__
__all__ += teleportation.__all__
__all__ += oracle.__all__
