"""Frequency-domain building blocks for accelerated-observer optics.

A uniformly accelerated observer (proper acceleration ``a``) sees the
inertial vacuum as a two-mode-squeezed state pairing each of her frequency
modes with a partner behind the horizon.  The per-frequency squeezing
parameter is

    r(omega) = arctanh(exp(-pi * omega / a)),

which diverges logarithmically as omega -> 0 and dies off exponentially for
omega >> a.  Everything downstream (mode transformations, teleportation
variances, the discretized circuit oracle) consumes r(omega) only through
cosh r and sinh r, or through (cosh r - sinh r)^2 = tanh(pi omega/(2a)) inside
i_cs, so this module provides numerically stable forms of the pair, plus
Gaussian wavepacket envelopes and the three spectral integrals that the
closed-form variance expressions are built from:

    i_c  = integral |g|^2 cosh^2 r          (>= 1)
    i_s  = integral |g|^2 sinh^2 r          (= i_c - 1 exactly)
    i_cs = integral |g|^2 (cosh r - sinh r)^2

Conventions
-----------
* ``sigma`` is the standard deviation of the *intensity* profile |g|^2, so
  the amplitude envelope is g(omega) ∝ exp(-(omega - omega0)^2 / (4 sigma^2))
  and the window ``omega0 ± 8 sigma`` carries all but ~1e-14 of the mass.
* Wavepackets are truncated below at ``1e-12 * omega0`` because i_c is
  log-divergent whenever g(0) != 0.  A wavepacket whose window starts at
  that cutoff rather than at ``omega0 - 8 sigma`` is ``clipped`` (roughly
  sigma > omega0/8): its integrands carry a 1/omega tail down to the
  cutoff, so its integral values depend on the cutoff by construction.
  ``truncated_mass`` records the intensity mass the truncation removed.
* All integrals use composite Gauss-Legendre panels, refined (panel
  doubling) until successive values agree to 1e-10 relative, which leaves
  comfortable headroom under the 1e-8 accuracy contract.
* The acceleration ``a`` may be a scalar or an array everywhere; it must be
  finite and positive.  ``spectral_integrals`` evaluates a whole 1-D grid of
  accelerations in one pass, each with its own refinement stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "SpectralConvergenceError",
    "SpectralIntegrals",
    "WavepacketSpec",
    "make_wavepacket",
    "spectral_integrals",
    "squeeze_param",
    "unruh_cosh_sinh",
]

#: Relative frequency below which wavepackets are truncated (infrared cutoff).
OMEGA_MIN_FACTOR = 1e-12

#: Gauss-Legendre rule of every panel, and the number of uniform panels
#: across the wavepacket's Gaussian bulk.
_GL_RULE = leggauss(16)
_LINEAR_PANELS = 16

#: Panel halvings after the wavepacket's own panels before giving up.
_MAX_REFINEMENTS = 7

#: Relative change between successive levels at which a value is settled.
_SETTLE_REL_TOL = 1e-10

#: Largest (acceleration x node) block evaluated at once: 64 KB per
#: temporary array, however long the acceleration grid or fine the level.
#: Larger blocks measured slower and raised the peak resident memory.
_BLOCK_ELEMENTS = 1 << 13


class SpectralConvergenceError(RuntimeError):
    """Raised when panel-doubling refinement fails to stabilize an integral."""


def _frequencies(omega) -> np.ndarray:
    """``omega`` as a float array, checked finite and positive."""
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"frequency omega must be finite, got {omega}")
    if np.any(w <= 0):
        raise ValueError("frequencies must be strictly positive")
    return w


def _accelerations(a) -> np.ndarray:
    """``a`` as a float array, checked finite and positive."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"acceleration a must be finite, got {a}")
    if np.any(arr <= 0):
        raise ValueError(f"acceleration a must be positive, got {a}")
    return arr


def _unwrap(x):
    return float(x) if np.ndim(x) == 0 else x


def _unruh_x(omega, a) -> np.ndarray:
    """x = pi*omega/a of checked inputs; inf past the float range (a below about
    1.75e-308 omega), which every formula here reads as r = 0.  Just inside it
    (a/omega up to about 3.5e-308) 2x passes the range; at the other end (a above
    about 1.1e309 omega) 1/(1 - e^(-2x)), and with it cosh^2 r, does.

    Formed as (pi*omega)/a times 1, except where pi*omega alone leaves the float
    range (omega above about 5.7e307): there as (omega/a) times pi."""
    omega, a = _frequencies(omega), _accelerations(a)
    with np.errstate(over="ignore"):
        scaled = math.pi * omega
        edge = np.isinf(scaled)  # one division and one product over the broadcast shape
        return np.where(edge, math.pi, 1.0) * (np.where(edge, omega, scaled) / a)


def _unruh_squares(x):
    """(cosh^2 r, sinh^2 r) at x = pi*omega/a: 1/(1 - e^(-2x)) and e^(-2x) times it."""
    ch2 = 1.0 / (-np.expm1(-2.0 * x))
    return ch2, np.exp(-2.0 * x) * ch2


def squeeze_param(omega, a):
    """Per-frequency squeezing parameter r(omega) = arctanh(e^(-pi omega / a)).

    Accepts scalars or arrays, broadcast against each other; frequencies
    must be finite and strictly positive (the parameter diverges at
    omega = 0) and ``a`` finite and positive.

    Evaluated in two stable branches: ``arctanh(e^(-x))`` directly when the
    argument is small (x = pi*omega/a >= ln 2), and the equivalent
    ``-(1/2) ln tanh(x/2)`` otherwise, so both the deep-exponential tail and
    the logarithmic divergence keep full relative precision.
    """
    x = _unruh_x(omega, a)
    u = np.exp(-x)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.arctanh(np.where(u < 0.75, u, 0.0))
        head = -0.5 * np.log(np.tanh(0.5 * x))
    return _unwrap(np.where(x >= math.log(2.0), tail, head))


def unruh_cosh_sinh(omega, a):
    """(cosh r, sinh r) of the acceleration squeezing parameter, stably.

    Uses cosh^2 r = 1 / (1 - e^(-2x)) and sinh^2 r = e^(-2x) cosh^2 r with
    x = pi*omega/a, avoiding the catastrophic cancellation of evaluating
    cosh(arctanh(...)) near either limit.  At the float ends of a (see
    :func:`_unruh_x`) it reads (1, 0) and (inf, inf), without a warning.
    """
    x = _unruh_x(omega, a)
    with np.errstate(over="ignore", divide="ignore"):
        ch2, sh2 = _unruh_squares(x)
    return _unwrap(np.sqrt(ch2)), _unwrap(np.sqrt(sh2))


@dataclass(frozen=True)
class WavepacketSpec:
    """Truncated Gaussian wavepacket with its quadrature panels.

    Fields
    ------
    omega0, sigma:
        Center frequency and intensity-profile standard deviation.
    window:
        (lo, hi) truncation interval, lo = max(1e-12*omega0, omega0 - 8 sigma),
        hi = omega0 + 8 sigma.
    norm_const:
        C such that g(omega) = C exp(-(omega-omega0)^2/(4 sigma^2)) has unit
        intensity integral_window |g|^2 = 1 on the panels' quadrature.
    truncated_mass:
        Intensity mass of the untruncated Gaussian lying below the window.
    panel_edges:
        Edges of the composite 16-node Gauss-Legendre panels on the window,
        the wavepacket's one quadrature description: integrators build
        their nodes, and refined versions of them, from these edges.
    """

    omega0: float
    sigma: float
    window: tuple[float, float]
    norm_const: float
    truncated_mass: float
    panel_edges: tuple[float, ...]

    def envelope(self, omega) -> np.ndarray:
        """Unnormalized amplitude envelope exp(-(omega-omega0)^2/(4 sigma^2))."""
        w = np.asarray(omega, dtype=float)
        return np.exp(-((w - self.omega0) ** 2) / (4.0 * self.sigma**2))

    @property
    def clipped(self) -> bool:
        """True when the infrared cutoff, not omega0 - 8 sigma, bounds the window
        (roughly sigma > omega0/8); the integrands then carry a 1/omega tail."""
        return _is_clipped(self.window[0], self.omega0, self.sigma)

    def amplitude(self, omega) -> np.ndarray:
        """Normalized amplitude g(omega), zero outside the window."""
        w = np.asarray(omega, dtype=float)
        lo, hi = self.window
        mask = (w >= lo) & (w <= hi)
        return np.where(mask, self.norm_const * self.envelope(w), 0.0)


def _panel_nodes(edges: np.ndarray) -> np.ndarray:
    """Composite Gauss-Legendre (frequency, weight) rows over given edges."""
    xg, wg = _GL_RULE
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * xg[None, :]).ravel()
    weights = (half * wg[None, :]).ravel()
    return np.column_stack([nodes, weights])


def _is_clipped(lo: float, omega0: float, sigma: float) -> bool:
    return lo > omega0 - 8.0 * sigma


def _build_edges(lo: float, hi: float, omega0: float, sigma: float) -> np.ndarray:
    """Panel edges: geometric grading into a clipped infrared tail, else uniform.

    When the window is clipped at the infrared cutoff the integrands behave
    like 1/omega near the lower edge, so each decade needs its own panels;
    a geometric ladder from lo up to ~sigma captures that, and uniform
    panels cover the Gaussian bulk.
    """
    if not _is_clipped(lo, omega0, sigma):
        return np.linspace(lo, hi, _LINEAR_PANELS + 1)
    breakpoint_ = min(sigma, 0.25 * hi)
    breakpoint_ = max(breakpoint_, lo * 10.0)
    decades = math.log10(breakpoint_ / lo)
    n_log = max(8, int(math.ceil(1.5 * decades)))
    log_edges = np.geomspace(lo, breakpoint_, n_log + 1)
    lin_edges = np.linspace(breakpoint_, hi, _LINEAR_PANELS + 1)
    return np.concatenate([log_edges[:-1], lin_edges])


def make_wavepacket(omega0: float, sigma: float) -> WavepacketSpec:
    """Build a truncated Gaussian wavepacket and its quadrature panels.

    Its quadrature is 16 uniform 16-node Gauss-Legendre panels; a clipped
    window also receives infrared panels so that the 1/omega tail is
    resolved decade by decade.  A packet that floats cannot hold - its
    variance or window past the float range, or its panels too narrow to
    carry any weight - is a :class:`ValueError` naming omega0 and sigma.
    """
    if not (math.isfinite(omega0) and omega0 > 0):
        raise ValueError(f"omega0 must be finite and positive, got {omega0}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")

    lo = max(OMEGA_MIN_FACTOR * omega0, omega0 - 8.0 * sigma)
    hi = omega0 + 8.0 * sigma
    unheld = f"floats cannot hold the wavepacket at omega0={omega0}, sigma={sigma}"
    # 2 sigma^2 and lo must not vanish; (8 sigma)^2, the panel midpoints (below
    # 2 hi) and the span sigma/lo of a clipped window's infrared ladder must be finite.
    variance = sigma * sigma
    if not (
        0.0 < 2.0 * variance and 64.0 * variance < math.inf and 2.0 * hi < math.inf
        and 0.0 < lo and sigma / lo < math.inf
    ):
        raise ValueError(f"{unheld}: its variance or window leaves the float range")
    edges = _build_edges(lo, hi, omega0, sigma)
    nodes = _panel_nodes(edges)

    intensity = np.exp(-((nodes[:, 0] - omega0) ** 2) / (2.0 * sigma**2))
    norm = float(nodes[:, 1] @ intensity)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"{unheld}: its normalization is {norm}")

    # Intensity mass the positive-frequency truncation removed, measured on
    # the untruncated unit-mass Gaussian N(omega0, sigma^2).
    truncated_mass = 0.5 * math.erfc((omega0 - lo) / (sigma * math.sqrt(2.0)))

    return WavepacketSpec(
        omega0=float(omega0),
        sigma=float(sigma),
        window=(lo, hi),
        norm_const=norm**-0.5,
        truncated_mass=truncated_mass,
        panel_edges=tuple(float(e) for e in edges),
    )


@dataclass(frozen=True)
class SpectralIntegrals:
    """The three wavepacket integrals entering the variance closed forms.

    For a scalar ``a`` every field is a number.  For an array ``a`` every
    field is an array over the accelerations, and the three integrals are
    NaN on a row that did not stabilize.  They are inf on a row whose i_c
    left the float range (pi omega/a too small for cosh^2 r =
    1/(1 - e^(-2 pi omega/a))).  i_cs is far below 1 there but underflows in
    the same sums; inf in all three makes every value built from the row
    read as overflowed, not as unsettled.

    ``level`` is the number of panel halvings after which a row stopped, and
    ``last_change`` the largest relative change of the three values between
    that level and the one before it.
    """

    i_c: float | np.ndarray
    i_s: float | np.ndarray
    i_cs: float | np.ndarray
    a: float | np.ndarray
    level: int | np.ndarray
    last_change: float | np.ndarray


def _integrals_on_edges(edges: np.ndarray, wp: WavepacketSpec, accel: np.ndarray) -> np.ndarray:
    """(len(accel), 3) array of (i_c, i_s, i_cs) on one panel set.

    The nodes, weights, envelope and norm do not depend on the acceleration
    and are built once.  The integrands are evaluated for blocks of at most
    ``_BLOCK_ELEMENTS`` (acceleration x node) elements at a time; each row
    is then summed by its own dot with the strided weight column
    (``np.vecdot``, one BLAS dot per row), so a row's value is the same bits
    whether ``a`` came alone or in a grid.  A matrix-vector product would
    block the sum differently and is not bit-identical.
    """
    grid = _panel_nodes(edges)
    w = grid[:, 0]
    q = grid[:, 1]
    intensity = wp.envelope(w) ** 2
    norm = q @ intensity
    pw = math.pi * w
    out = np.empty((accel.size, 3))
    step = max(1, _BLOCK_ELEMENTS // w.size)
    for start in range(0, accel.size, step):
        x = pw / accel[start:start + step, None]
        ch2, sh2 = _unruh_squares(x)
        cms2 = np.tanh(0.5 * x)  # (cosh r - sinh r)^2
        for j, f in enumerate((intensity * ch2, intensity * sh2, intensity * cms2)):
            out[start:start + step, j] = np.vecdot(f, q)
    out /= norm
    return out


def _split_edges(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


def spectral_integrals(wp: WavepacketSpec, a: float | np.ndarray) -> SpectralIntegrals:
    """Evaluate i_c, i_s and i_cs for a wavepacket at acceleration ``a``.

    Refines the wavepacket's own panel set by repeated halving until all
    three values are stable to ``_SETTLE_REL_TOL`` (1e-10) relative between
    successive levels.  The intensity is renormalized per level, which keeps
    the i_c - i_s = 1 identity exact on every grid.

    ``a`` is a scalar or a 1-D array of accelerations, each refined until it
    alone is stable.  For a scalar, :class:`SpectralConvergenceError` is
    raised if seven refinements are not enough or the identity fails past
    rounding; for an array such a row is NaN instead, with its level and last change kept.
    Where pi omega/a is so small that i_c leaves the float range, a scalar
    raises :class:`OverflowError` and an array row is inf (see
    :class:`SpectralIntegrals`).
    """
    accel = _accelerations(a)
    if accel.ndim > 1:
        raise ValueError(f"acceleration a must be a scalar or a 1-D array, got shape {accel.shape}")
    scalar = accel.ndim == 0
    accel = np.atleast_1d(accel)

    # Past the float range i_c reads inf: every inf test below is false inside it.
    with np.errstate(all="ignore"):
        edges = np.asarray(wp.panel_edges, dtype=float)
        values = _integrals_on_edges(edges, wp, accel)
        level = np.zeros(accel.size, dtype=int)
        last_change = np.full(accel.size, math.nan)
        unsettled = np.arange(accel.size)
        for refinement in range(1, _MAX_REFINEMENTS + 1):
            if not unsettled.size:
                break
            edges = _split_edges(edges)
            refined = _integrals_on_edges(edges, wp, accel[unsettled])
            scale = np.maximum(np.abs(refined), 1e-300)
            change = np.max(np.abs(refined - values[unsettled]) / scale, axis=1)
            values[unsettled] = refined
            level[unsettled] = refinement
            last_change[unsettled] = change
            # A NaN change never settles, and an inf i_c ends its row: no finer
            # level, nearer the window's lower edge, brings it back.
            done = (change <= _SETTLE_REL_TOL) | np.isinf(refined[:, 0])
            unsettled = unsettled[~done]

        i_c, i_s = values[:, 0], values[:, 1]
        # 1e-8, or past it the worst-case rounding n eps (i_c + i_s) of sums over a row's n nodes
        nodes = (len(wp.panel_edges) - 1) * len(_GL_RULE[0]) * 2.0**level
        broken = np.abs(i_c - i_s - 1.0) > np.maximum(1e-8, nodes * np.finfo(float).eps * (i_c + i_s))
    if scalar:
        if math.isinf(i_c[0]):
            raise OverflowError(
                f"pi*omega/a left the float range ({math.pi * wp.window[0] / float(accel[0]):.3e} at the "
                f"window's lower edge), so cosh^2 r and the spectral integrals i_c, i_s exceed "
                f"the largest float, for omega0={wp.omega0}, sigma={wp.sigma}, a={float(accel[0])}"
            )
        if unsettled.size:
            raise SpectralConvergenceError(
                f"spectral integrals did not stabilize to {_SETTLE_REL_TOL:g} relative "
                f"(last inter-level change {last_change[0]:.3e}) for omega0={wp.omega0}, "
                f"sigma={wp.sigma}, a={float(accel[0])}"
            )
        if broken[0]:
            raise SpectralConvergenceError(
                f"normalization identity violated: i_c - i_s = {float(i_c[0] - i_s[0])!r} "
                "(expected 1)"
            )
        return SpectralIntegrals(
            *(float(v) for v in values[0]), a=float(accel[0]),
            level=int(level[0]), last_change=float(last_change[0]),
        )
    values[unsettled] = math.nan
    values[broken] = math.nan
    values[np.isinf(i_c)] = math.inf
    return SpectralIntegrals(
        *values.T.copy(), a=accel, level=level, last_change=last_change,
    )
