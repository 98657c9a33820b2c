"""Independent numerical oracles for the teleportation closed forms.

Two cross-check routes live here, both deliberately avoiding the
closed-form integrals they validate:

1. A *discretized circuit*: the wavepacket is binned onto a given number
   of uniform frequency bins, every region wire becomes an explicit sum of
   labelled modes, and the protocol is composed gate by gate with the
   affine mode algebra (at large finite amplifier gain - the
   strong-amplification limit is never substituted analytically).  Output
   statistics then follow from mechanical Wick pairing: the
   local-oscillator-referenced quadrature variance, and the full table of
   quadratic/quartic mode contractions.

2. A *truncated-Fock simulation* of the single-frequency protocol: three
   oscillators in a hard photon-number cutoff, with displacement and
   two-mode-squeeze gates applied through their exact normal-ordered
   factorizations (so the only approximation is the projection onto the
   retained Fock window, whose lost mass is reported) and the beam splitter
   exponentiated exactly in the truncated space, one block of conserved
   n0 + n2 at a time.  By default the window sizes itself: it grows until
   the next window no longer moves the simulated moments, up to a fixed
   limit on the state's size.

Scaling notes: the 3N region wires of an N-bin circuit share one mode
register, and every output operator lives on the register of the 4N
vacuum-family modes, so each gate, commutator and Wick pairing is a few
O(N) vector operations.  A build rewrites the wire's change and the three
wire outputs into the vacuum families in one vectorized pass, and the LO
variance forms the field's quadrature covariance once and reads every
phase it reports from it.  Every bin's output is a unit mode plus a
multiple of one shared fluctuation W; the build holds that rank-one form
once, so the commutator audit checks every bin in O(N) and the
contraction table over M bins costs O(N + M**2).  A
squeezed build plus its LO variance takes about 1, 1.5 and 4 to 5 ms of
CPU at N = 32, 256 and 1024 (best of 30 on a shared 2-CPU Xeon, CPython
3.11.7, NumPy 2.4.6), of which the LO variance is 0.1 to 0.3 ms.  A Fock
window of cutoff C holds (C + 1)**3 real amplitudes and costs O(C**4)
operations.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .mode_algebra import (
    Chirality,
    ModeLabel,
    ModeRegister,
    OperatorExpr,
    Sector,
    beam_splitter,
    commutator,
    displace,
    quadrature_variance,
    rindler_to_unruh,
    single_mode_squeeze,
    two_mode_squeeze,
)
from .spectral import WavepacketSpec, unruh_cosh_sinh
from .teleportation import VarianceReport, inertial_teleport_output

__all__ = [
    "DiscretizedCircuit",
    "FockCheckReport",
    "GridMismatchError",
    "IdentityRow",
    "OracleConvergenceError",
    "TruncationError",
    "appendix_expectations",
    "build_displaced_circuit",
    "build_squeezed_circuit",
    "contraction_table",
    "fock_check_inertial",
    "photon_number_variance_lo",
]

#: Default "infinite" amplifier gain: tanh(14) = 1 - 2.8e-12, far below every
#: comparison tolerance while keeping the circuit a genuine finite gate.
DEFAULT_CHANNEL_GAIN = 14.0

_COMMUTATOR_TOL = 1e-10


class GridMismatchError(ValueError):
    """Grid and wavepacket do not describe the same frequency window."""


class OracleConvergenceError(RuntimeError):
    """Discretized-circuit statistics failed an internal consistency bound."""


class TruncationError(RuntimeError):
    """Fock-space truncation error exceeded the requested tolerance."""

    def __init__(self, message: str, report: "FockCheckReport"):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Discretized circuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscretizedCircuit:
    """Binned protocol instance plus its composed output algebra.

    ``wire_delta`` is the fluctuation change of the wavepacket wire, on the
    register of the four vacuum families (c, d) x (left, right) over the
    grid's bins, from which every per-bin output operator follows:

        c_out[i] = c_i + g_i ch_i * wire_delta
        d_out[i] = d_i - g_i sh_i * wire_delta^dagger

    ``outputs`` is that layout in rank-one form (:class:`_RankOneOutputs`),
    built once per circuit and read by the audit, the LO variance and the
    contraction table.  ``disp_gain`` is the mechanically measured
    displacement transmission of the channel for a unit input displacement
    (1 up to rounding, by the gain/transmissivity matching).
    """

    scenario: str
    a: float
    wavepacket: WavepacketSpec
    r_s: float
    r_channel: float
    bins: np.ndarray
    g: np.ndarray
    ch: np.ndarray
    sh: np.ndarray
    wire_delta: OperatorExpr
    disp_gain: complex
    outputs: _RankOneOutputs
    commutator_audit_max: float

    @property
    def n_bins(self) -> int:
        return len(self.bins)


#: The region wires of the protocol: the wavepacket left-mover, and the two
#: right-mover wires it consumes (amplifier idler and beam-splitter port).
_WIRE_FAMILIES = (
    (Sector.RINDLER_IV, Chirality.LEFT),
    (Sector.RINDLER_III, Chirality.RIGHT),
    (Sector.RINDLER_I, Chirality.RIGHT),
)


def _packet_wire(
    register: ModeRegister, sector: Sector, chirality: Chirality, g: np.ndarray
) -> OperatorExpr:
    u = np.zeros(len(register))
    u[register.slots(sector, chirality, np.arange(len(g)))] = g
    return OperatorExpr.from_vectors(register, u)


def _bin_centers(wp: WavepacketSpec, grid) -> tuple[np.ndarray, float]:
    """Centers and width of ``grid`` uniform bins across the wavepacket window."""
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 4:
        raise GridMismatchError(f"grid must be a bin count of at least 4, got {grid!r}")
    lo, hi = wp.window
    delta = (hi - lo) / grid
    return lo + (np.arange(grid) + 0.5) * delta, delta


def _build_circuit(
    scenario: str,
    a: float,
    wp: WavepacketSpec,
    grid,
    r_s: float,
    r_channel: float,
) -> DiscretizedCircuit:
    if a <= 0:
        raise ValueError(f"acceleration must be positive, got {a}")
    if not math.isfinite(r_channel) or r_channel <= 0:
        raise ValueError(f"channel gain must be finite and positive, got {r_channel}")
    centers, delta = _bin_centers(wp, grid)
    g = wp.amplitude(centers) * math.sqrt(delta)
    norm = float(np.linalg.norm(g))
    if norm <= 0:
        raise GridMismatchError("wavepacket amplitude vanishes on every grid bin")
    g = g / norm
    ch, sh = unruh_cosh_sinh(centers, a)

    # Every region wire lives on one register, so each gate below is a
    # handful of vector operations.
    register = ModeRegister.grid(_WIRE_FAMILIES, len(centers))
    wire_in, idler, port = (_packet_wire(register, s, c, g) for s, c in _WIRE_FAMILIES)

    wire = wire_in
    if r_s != 0.0:
        wire = single_mode_squeeze(wire, r_s)
    # Unit displacement probe: the measured output displacement is the
    # channel's displacement gain.
    wire = displace(wire, 1.0)
    wire, idler_out = two_mode_squeeze(wire, idler, r_channel)
    wire, port_out = beam_splitter(wire, port, 1.0 / math.cosh(r_channel) ** 2)

    # One rewrite of the wire's change and the three wire outputs the audit checks.
    delta_expr = wire - wire_in
    wire_delta, *wire_outputs = rindler_to_unruh(
        (delta_expr.centered(), wire, idler_out, port_out), a, centers
    )
    outputs = _RankOneOutputs(wire_delta, g * ch, g * sh)
    audit_max = _audit_commutators(outputs, *wire_outputs)
    if not audit_max <= _COMMUTATOR_TOL:  # a NaN deviation fails too
        raise OracleConvergenceError(
            f"gate composition broke canonical commutators by "
            f"{audit_max:.3e} (> {_COMMUTATOR_TOL:g})"
        )
    return DiscretizedCircuit(
        scenario=scenario,
        a=float(a),
        wavepacket=wp,
        r_s=float(r_s),
        r_channel=float(r_channel),
        bins=centers,
        g=g,
        ch=ch,
        sh=sh,
        wire_delta=wire_delta,
        disp_gain=delta_expr.displacement,
        outputs=outputs,
        commutator_audit_max=audit_max,
    )


#: The four centered output operators of a bin, with their mode family
#: (0 = c, 1 = d), creator flag, and whether they carry W or W† (c + sW,
#: d + tW† and their adjoints).
_KINDS = ("c", "c†", "d", "d†")
_FAMILY = np.array([0, 0, 1, 1])
_CREATOR = np.array([False, True, False, True])
_ADJOINT = np.array([0, 1, 1, 0])


class _RankOneOutputs:
    """Every bin's centered output operators, in rank-one form.

    With W = ``wire_delta``, kind x (an index into ``_KINDS``) of bin i has
    annihilator vector ``[not creator] 1_x + k[x, i] U[x]`` and creator
    vector ``[creator] 1_x + k[x, i] V[x]``: the unit vector of its own mode
    plus k = g ch (c kinds) or -g sh (d kinds) times the vectors (U, V) of W
    or W†.  A bilinear of kinds x, y at bins i, j is therefore

        kx[i] ky[j] z + ky[j] p[i] + kx[i] q[j] + e δ_ij,

    with z = U[x] . V[y], p and q reads of V[y] and U[x] at the c/d slots,
    and e from the unit vectors.  :meth:`pairing` and :meth:`commutator`
    return these terms per kind pair; :func:`_bilinear_at` evaluates them.
    """

    def __init__(self, wire_delta: OperatorExpr, g_ch: np.ndarray, g_sh: np.ndarray):
        w = wire_delta
        bins = np.arange(len(g_ch))
        families = (Sector.UNRUH_C, Sector.UNRUH_D)
        # register slots of the c and d modes, by family and bin
        self.slots = np.stack([w.register.slots(f, Chirality.LEFT, bins) for f in families])
        # complex k: complex-by-complex products are the fast ones
        self.k = np.stack([g_ch, -g_sh]).astype(complex)[_FAMILY]
        # (U, V) is (W.u, W.v) for W and (conj W.v, conj W.u) for W†.
        wu, wv = w.u, w.v
        uv, uu, vv = complex(wu @ wv), np.vdot(wu, wu).real, np.vdot(wv, wv).real
        self.z = np.array([[uv, uu], [vv, uv.conjugate()]])
        self.u_at = np.stack([wu[self.slots], wv[self.slots].conj()])  # (W or W†, family, bin)
        self.v_at = np.stack([wv[self.slots], wu[self.slots].conj()])
        # |u|^2 + |v|^2 of each output operator, by kind and bin: the unit
        # vector, its overlap with k U (or k V for a creator), and |k W|^2.
        own = np.where(_CREATOR[:, None], self.v_at[_ADJOINT, _FAMILY], self.u_at[_ADJOINT, _FAMILY]).real
        k = self.k.real
        self.norm = np.sqrt(1.0 + 2.0 * k * own + k**2 * (uu + vv))

    def pairing(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Terms (kx, ky, z, p, q, e) of <X_i Y_j> = u . v per kind pair (x[m], y[m])."""
        annihilator, creator = ~_CREATOR[x], _CREATOR[y]
        p = annihilator[:, None] * self.v_at[_ADJOINT[y], _FAMILY[x]]
        q = creator[:, None] * self.u_at[_ADJOINT[x], _FAMILY[y]]
        e = 1.0 * (annihilator & creator & (_FAMILY[x] == _FAMILY[y]))
        return self.k[x], self.k[y], self.z[_ADJOINT[x], _ADJOINT[y]], p, q, e

    def commutator(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """Terms of [X_i, Y_j] = <X_i Y_j> - <Y_j X_i>, as :meth:`pairing`."""
        kx, ky, z, p, q, e = self.pairing(x, y)
        _, _, z_r, p_r, q_r, e_r = self.pairing(y, x)
        return kx, ky, z - z_r, p - q_r, q - p_r, e - e_r


def _bilinear_at(terms: tuple, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Values of a bilinear's terms at bin arrays ``i``, ``j`` (equal ndim,
    broadcast against each other), shaped (kind pair, *bins)."""
    kx, ky, z, p, q, e = terms
    kx, ky = kx[:, i], ky[:, j]
    value = kx * (ky * z.reshape((-1,) + (1,) * i.ndim) + q[:, j])
    value += ky * p[:, i]
    if e.any():
        value[:, np.broadcast_to(i == j, value.shape[1:])] += e[:, None]
    return value


def _audit_commutators(
    outputs: _RankOneOutputs,
    wire: OperatorExpr,
    idler_out: OperatorExpr,
    port_out: OperatorExpr,
) -> float:
    """Max relative deviation of the canonical commutators: every bin's
    outputs (:func:`_bin_commutator_deviation`), and the three wire outputs,
    already rewritten into the vacuum families, pairwise.

    A commutator of expressions with coefficients of size ``M`` is assembled
    from cancelling products of size ``M**2``; float error must be judged
    relative to that scale, not absolutely (strong-gain branches carry
    cosh(r) ~ 1e6 coefficients whose canonical cancellation is exact only in
    real arithmetic).  The scale is the product of the two expressions'
    coefficient-vector norms, at least 1.  Any NaN deviation makes the
    result NaN.
    """
    deviations = [_bin_commutator_deviation(outputs)]
    outs = (wire, idler_out, port_out)
    norms = [math.sqrt(np.vdot(e.u, e.u).real + np.vdot(e.v, e.v).real) for e in outs]
    for (i, e1), (j, e2) in itertools.product(enumerate(outs), repeat=2):
        scale = max(1.0, norms[i] * norms[j])
        deviations.append(abs(commutator(e1, e2)) / scale)
        deviations.append(abs(commutator(e1, e2.dagger()) - (i == j)) / scale)
    return float(np.max(deviations))


def _bin_commutator_deviation(outputs: _RankOneOutputs) -> float:
    """Max relative deviation of the output commutators of every bin.

    Each bin meets itself and the anchor bins {0, N/2, N-1}, both ways
    round, for c-c†, d-d†, c-d and c-d†: O(N) vector operations on the
    rank-one form of the outputs.  Any NaN deviation makes the result NaN.
    """
    # Kind pairs c-c†, d-d†, c-d and c-d†, and the last two with the bins
    # swapped, as [X_j, Y_i] = -[Y_i, X_j] (for c-c† and d-d† that is the
    # complex conjugate).
    x, y = np.array([0, 2, 0, 0, 2, 3]), np.array([1, 3, 2, 3, 0, 0])
    # The unit-vector part of a commutator is its canonical value exactly
    # ([c_i, c_j†] = δ_ij, ...), so the deviation is the rest.
    kx, ky, z, p, q, _ = outputs.commutator(x, y)
    rest = (kx, ky, z, p, q, np.zeros(len(x)))
    n = outputs.k.shape[1]
    bins = np.arange(n)
    deviations = []
    for j in (bins, *(np.array([anchor]) for anchor in (0, n // 2, n - 1))):
        deviation = np.abs(_bilinear_at(rest, bins, j))
        deviation /= np.maximum(1.0, outputs.norm[x] * outputs.norm[y][:, j])
        deviations.append(deviation.max())
    return float(np.max(deviations))


def build_displaced_circuit(
    a: float,
    wp: WavepacketSpec,
    grid: int,
    *,
    r_channel: float = DEFAULT_CHANNEL_GAIN,
) -> DiscretizedCircuit:
    """Discretize the coherent-payload protocol on ``grid`` bins.

    ``grid`` is the number of uniform bins across the wavepacket window, an
    integer of at least 4; anything else is a :class:`GridMismatchError`.
    Quantitative agreement with the continuum closed forms needs N >= 64
    (callers may go coarser deliberately, e.g. to demonstrate
    discretization failure; the algebraic identity table is exact at any N).
    """
    return _build_circuit("displaced", a, wp, grid, 0.0, r_channel)


def build_squeezed_circuit(
    a: float,
    wp: WavepacketSpec,
    grid: int,
    *,
    r_s: float,
    r_channel: float = DEFAULT_CHANNEL_GAIN,
) -> DiscretizedCircuit:
    """Discretize the squeezed-payload protocol (payload squeezing ``r_s``)
    on ``grid`` bins, as :func:`build_displaced_circuit`."""
    if not math.isfinite(r_s) or r_s < 0:
        raise ValueError(f"payload squeezing must be finite and non-negative, got {r_s}")
    return _build_circuit("squeezed", a, wp, grid, r_s, r_channel)


# ---------------------------------------------------------------------------
# Local-oscillator-referenced variance
# ---------------------------------------------------------------------------


def _lo_parts(circ: DiscretizedCircuit) -> tuple[np.ndarray, float]:
    """Quadrature covariance of the LO-referenced field, per part of it.

    Writing each output as |alpha| * l + fluctuation, the photon number's
    linear-in-|alpha| part at LO phase phi is |alpha| * F(phi) with

        F(phi) = sum_i conj(l_i) (fluct_i) + h.c.   over both output families
               = e^(-i phi) P + e^(i phi) P^dagger = cos(phi) X + sin(phi) Y,

    P independent of phi, X = F(0) and Y = F(pi/2).  The homodyne variance
    is <F^2>_connected / n0 with n0 = sum_i |l_i|^2, and

        <F(phi)^2> = cos^2(phi) <X^2> + sin^2(phi) <Y^2> + sin(2 phi) <XY + YX>/2,

    the Gaussian second-moment form; it equals A + 2 Re(B e^(-2i phi)) with
    A = (<X^2> + <Y^2>)/2 and B = (<X^2> - <Y^2>)/4 + i <XY + YX>/4.  The
    covariance is evaluated instead of A and B: a strongly squeezed
    quadrature is A - 2|B|, a cancellation that multiplies the rounding
    error by about e^(4 r_s).
    Returns (<X^2>, <Y^2>, <XY + YX>/2) of the right-movers, the left-movers
    and the whole field, as rows in that order, and n0.
    """
    out = circ.outputs
    k_c, k_d = out.k[0], out.k[2]  # g ch and -g sh
    lo_c = circ.disp_gain * k_c  # l of the c outputs is e^(i phi) lo_c,
    lo_d = circ.disp_gain.conjugate() * k_d  # that of the d outputs e^(-i phi) lo_d
    n0 = float(np.sum(np.abs(lo_c) ** 2) + np.sum(np.abs(lo_d) ** 2))
    w = circ.wire_delta
    # P = sum_i conj(lo_c_i) c_out[i] + lo_d_i d_out[i]^dagger, centered.
    weight = complex(np.sum(lo_c.conjugate() * k_c) + np.sum(lo_d * k_d))
    pu, pv = weight * w.u, weight * w.v
    pu[out.slots[0]] += lo_c.conjugate()
    pv[out.slots[1]] += lo_d
    # X and Y are Hermitian with annihilator vectors x = P.u + conj(P.v) and
    # -i y, y = P.u - conj(P.v), so <X^2> = |x|^2, <Y^2> = |y|^2 and
    # <XY + YX>/2 = Im(conj(x) . y).
    x, y = pu + pv.conj(), pu - pv.conj()
    left = w.register.chirality_mask(Chirality.LEFT)
    moments = np.empty((3, 3))
    for k, part in enumerate((~left, left, slice(None))):
        xp, yp = x[part], y[part]
        moments[k] = np.vdot(xp, xp).real, np.vdot(yp, yp).real, np.vdot(xp, yp).imag
    return moments, n0


def _variance_at(parts: tuple[np.ndarray, float], phi: float) -> tuple[float, float]:
    """(far-side thermal part, payload part) of the output variance at phi.

    The split is by propagation direction: right-mover modes only ever enter
    through the horizon-straddling resource, so their contribution is the
    thermal noise; left-movers carry the payload (quantum-noise limit or
    squeezed-payload decoherence).  The parts add exactly - the two mode
    families never share a label - which is checked against the whole field
    (a NaN or infinite part fails the check).
    """
    moments, n0 = parts
    c, s = math.cos(phi), math.sin(phi)
    thermal, payload, total = moments @ np.array([c * c, s * s, 2.0 * c * s]) / n0
    if not abs(total - (payload + thermal)) <= 1e-9 * max(1.0, abs(total)):
        raise OracleConvergenceError(
            f"variance split lost additivity: {total!r} != {payload!r} + {thermal!r}"
        )
    return float(thermal), float(payload)


def photon_number_variance_lo(circ: DiscretizedCircuit, phi: float = 0.0) -> VarianceReport:
    """Homodyne variance of the teleported output at LO phase ``phi``.

    Computed entirely from Wick pairs of the composed circuit; no continuum
    integral enters.  The LO field is decomposed once (:func:`_lo_parts`)
    and evaluated at ``phi`` and at the purity product's phases 0 and pi/2.
    """
    parts = _lo_parts(circ)
    thermal, payload = _variance_at(parts, phi)
    t0, p0 = _variance_at(parts, 0.0)
    t90, p90 = _variance_at(parts, 0.5 * math.pi)
    return VarianceReport(
        total=thermal + payload,
        thermal_noise=thermal,
        qnl_or_decoherence=payload,
        purity_product=(t0 + p0) * (t90 + p90),
    )


# ---------------------------------------------------------------------------
# Contraction-identity table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityRow:
    """One contraction identity: mechanical Wick value vs closed form
    (arrays over the bin pairs of a :func:`contraction_table`)."""

    name: str
    numeric: complex | np.ndarray
    closed: complex | np.ndarray
    abs_deviation: float | np.ndarray
    rel_deviation: float | np.ndarray


def _row(name: str, numeric: np.ndarray, closed: np.ndarray) -> IdentityRow:
    abs_dev = np.abs(numeric - closed)
    rel = np.where(abs_dev < 1e-12, 0.0, math.inf)
    magnitude = np.abs(closed)
    np.divide(abs_dev, magnitude, out=rel, where=magnitude > 1e-12)
    return IdentityRow(name, numeric, closed, abs_dev, rel)


def contraction_table(
    circ: DiscretizedCircuit,
    omega_bins,
    gamma_bins,
    phi: float = 0.0,
) -> dict[str, IdentityRow]:
    """Contraction table of output bin pairs: Wick values vs closed forms.

    Every row is an array over the pairs (omega_bins[k], gamma_bins[l]).
    Sixteen quadratic contractions of the centered output operators plus the
    four quartic photon-number assembly rows: the |alpha|^2 coefficients of
    the connected correlators <n_x(omega) n_z(gamma)> - <n_x><n_z> at LO
    amplitude alpha = |alpha| e^(i phi), assembled from the pair rows by
    Wick's theorem.  Closed forms use the discrete bin sums of the same
    grid, so agreement is limited only by roundoff and by the finite
    channel gain (~1e-12 at the default), not by discretization.

    The coherent-payload (r_s = 0) table is the exact reduction of the
    squeezed one: the squeezing-odd rows collapse to zero and the rest
    to the shared thermal coefficient.
    """
    n = circ.n_bins
    w, y = (np.asarray(b, dtype=np.intp).reshape(-1) for b in (omega_bins, gamma_bins))
    every = np.concatenate([w, y])
    outside = every[(every < 0) | (every >= n)]
    if len(outside):
        raise ValueError(f"bin {outside[0]} outside grid of {n} bins")
    w, y = w[:, None], y[None, :]

    first, second = np.divmod(np.arange(len(_KINDS) ** 2), len(_KINDS))
    table = _bilinear_at(circ.outputs.pairing(first, second), w, y)
    pair = {f"{_KINDS[a]} {_KINDS[b]}": row for a, b, row in zip(first, second, table)}

    # Quartic assembly: with x = x~ + D (D the LO shift at |alpha| = 1), the
    # |alpha|^2 part of the connected <x_w† x_w z_y† z_y> is the covariance
    # of the linear terms conj(D_w) x~_w + D_w x~_w† and the same for z_y.
    # D is disp_gain k for c and its conjugate's for d, turned by the LO phase.
    gain, k = circ.disp_gain, circ.outputs.k
    shift = {
        "c": gain * k[0] * cmath.exp(1j * phi),
        "d": gain.conjugate() * k[2] * cmath.exp(-1j * phi),
    }

    def quartic(a: str, b: str) -> np.ndarray:
        dw, dy = shift[a][w], shift[b][y]
        return (
            dw.conjugate() * dy.conjugate() * pair[f"{a} {b}"]
            + dw.conjugate() * dy * pair[f"{a} {b}†"]
            + dw * dy.conjugate() * pair[f"{a}† {b}"]
            + dw * dy * pair[f"{a}† {b}†"]
        )

    delta_wg = (w == y).astype(float)
    g, ch, sh = circ.g, circ.ch, circ.sh
    i_c = float(np.sum(g**2 * ch**2))
    i_s = float(np.sum(g**2 * sh**2))
    i_cs = float(np.sum(g**2 * (ch - sh) ** 2))
    cs = math.cosh(circ.r_s)
    ss = math.sinh(circ.r_s)

    phi_cc = (cs - 1.0) ** 2 * i_s + ss**2 * i_c + i_cs
    phib_cc = 2.0 * (cs - 1.0) + (cs - 1.0) ** 2 * i_c + ss**2 * i_s + i_cs
    phi_dd = (cs - 1.0) ** 2 * i_c + ss**2 * i_s + i_cs
    phib_dd = -2.0 * (cs - 1.0) + (cs - 1.0) ** 2 * i_s + ss**2 * i_c + i_cs
    psi_cc = ss * ((cs - 1.0) * (i_c + i_s) + 1.0)
    psi_dd = ss * ((cs - 1.0) * (i_c + i_s) - 1.0)
    gamma_cd = (cs - 1.0) * ss * (i_c + i_s)

    A_cc = g[w] * g[y] * ch[w] * ch[y]
    A_dd = g[w] * g[y] * sh[w] * sh[y]
    A_cd = g[w] * g[y] * ch[w] * sh[y]
    A_dc = g[w] * g[y] * sh[w] * ch[y]

    cos2 = math.cos(2.0 * phi)
    cross = phib_cc + phib_dd + 2.0 * cos2 * gamma_cd
    closed = {
        "c c": A_cc * psi_cc,
        "c† c†": A_cc * psi_cc,
        "c c†": delta_wg + A_cc * phib_cc,
        "c† c": A_cc * phi_cc,
        "d d": A_dd * psi_dd,
        "d† d†": A_dd * psi_dd,
        "d d†": delta_wg + A_dd * phib_dd,
        "d† d": A_dd * phi_dd,
        "c d": -A_cd * (phib_cc - (cs - 1.0)),
        "c† d†": -A_cd * (phib_dd + (cs - 1.0)),
        "d c": -A_dc * (phib_dd + (cs - 1.0)),
        "d† c†": -A_dc * (phib_cc - (cs - 1.0)),
        "c d†": -A_cd * gamma_cd,
        "c† d": -A_cd * gamma_cd,
        "d c†": -A_dc * gamma_cd,
        "d† c": -A_dc * gamma_cd,
    }
    rows = {name: _row(name, pair[name], value) for name, value in closed.items()}
    for a, b, value in (
        ("c", "c", delta_wg * A_cc + A_cc**2 * (phi_cc + phib_cc + 2.0 * cos2 * psi_cc)),
        ("d", "d", delta_wg * A_dd + A_dd**2 * (phi_dd + phib_dd + 2.0 * cos2 * psi_dd)),
        ("c", "d", A_cd**2 * cross),
        ("d", "c", A_dc**2 * cross),
    ):
        name = f"n_{a} n_{b} |α|²"
        rows[name] = _row(name, quartic(a, b), value)
    return rows


def appendix_expectations(
    circ: DiscretizedCircuit,
    omega_bin: int,
    gamma_bin: int,
    phi: float = 0.0,
) -> dict[str, IdentityRow]:
    """The :func:`contraction_table` of one bin pair, as scalars."""
    table = contraction_table(circ, [omega_bin], [gamma_bin], phi)
    return {
        name: IdentityRow(
            name, row.numeric.item(), row.closed.item(), row.abs_deviation.item(), row.rel_deviation.item()
        )
        for name, row in table.items()
    }


# ---------------------------------------------------------------------------
# Truncated-Fock simulation of the single-frequency protocol
# ---------------------------------------------------------------------------

_MAX_FOCK_PARAM = 1.5
_MIN_FOCK_CUTOFF = 4
#: Largest Fock state the check builds, in amplitudes of the three modes,
#: ``(cutoff + 1)**3``; it bounds an explicit cutoff and the adaptive window.
_MAX_FOCK_DIM = 64**3
_MAX_FOCK_CUTOFF = round(_MAX_FOCK_DIM ** (1 / 3)) - 1
#: First window of the adaptive ladder.
_FIRST_FOCK_CUTOFF = 12
#: The adaptive window is settled once the next window moves the mean and both
#: variances by at most this fraction of ``tol``.
_FOCK_SETTLE_FRACTION = 0.1


@dataclass(frozen=True)
class FockCheckReport:
    """Truncated-Fock vs mode-algebra comparison for one parameter point.

    ``cutoff`` is the photon window the measured values come from.
    ``passed`` means ``max_deviation <= tol`` and, for an adaptive window,
    that the window settled; an unsettled adaptive window reports the
    largest cutoff the dimension limit allows.
    """

    r: float
    r_omega: float
    cutoff: int
    beta: complex
    phi: float
    tol: float
    predicted_mean: float
    measured_mean: float
    predicted_var: float
    measured_var: float
    predicted_var_orth: float
    measured_var_orth: float
    lost_mass: float
    max_deviation: float
    passed: bool


@functools.lru_cache(maxsize=4096)
def _beam_splitter_modes(s: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of the beam splitter's coupling on block s = n0 + n2.

    The block holds n0 = lo..hi, and the coupling T is real symmetric
    tridiagonal with entries sqrt((n0 + 1)(s - n0)).  It does not depend on
    the beam splitter's angle, so windows of later checks reuse it.
    """
    n0 = np.arange(lo, hi)
    evals, evecs = eigh_tridiagonal(np.zeros(hi - lo + 1), np.sqrt((n0 + 1.0) * (s - n0)))
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def _fock_window(r: float, r_omega: float, b: float, cutoff: int) -> tuple[float, ...]:
    """Mode-0 statistics of the protocol's state in a ``cutoff``-photon window.

    The displacement ``b`` is real, so every amplitude is real.  Returns
    ``(|psi|², <a>, <a a>, |a psi|², |a† psi|²)`` with ``a`` the window's
    mode-0 lowering operator.

    Each gate conserves Q = n0 - n1 + n2, and only the first displacement
    fills the Q-sectors.  The squeezers meet the vacuum or single Fock
    states of their modes, so the state before the beam splitter is written
    directly from the amplifier's window matrix elements; the beam splitter
    then acts block by block.
    """
    m = cutoff + 1
    n = np.arange(m)
    sqrt_n = np.sqrt(n)
    # D(b)|0>: the series of e^(b a†) on the vacuum, times e^(-b²/2).
    coherent = math.exp(-0.5 * b * b) * np.cumprod(np.r_[1.0, b / sqrt_n[1:]])
    # Resource squeezer on the vacuum of modes 1, 2: sech(r_w) tanh(r_w)^k |k, k>.
    pair = np.tanh(r_omega) ** n / math.cosh(r_omega)
    amp = np.outer(coherent, pair)  # amplitude of |j, k, k> in (n0, n1, n2)

    # Amplifier on modes 0, 1: S(r) = exp(L a†b†) sech^(n_a + n_b + 1) exp(-L a b)
    # with L = tanh r.  Sector d = |n0 - n1| holds |d + w, w> (or its mirror),
    # w < m - d; the raising factor takes w to v >= w with weight
    # R[v, w] = L^(v-w)/(v-w)! sqrt((d+v)! v! / ((d+w)! w!)) and the lowering
    # factor is R at -L, transposed.  Input |d+u, u> carries n2 = u, its
    # mirror |u, d+u> carries n2 = d+u.
    sqrt_fact = np.cumprod(np.r_[1.0, sqrt_n[1:]])
    gap = np.subtract.outer(n, n).clip(0)
    series = np.tril(np.tanh(r) ** gap / sqrt_fact[gap] ** 2)  # L^(v-w) / (v-w)!
    alternate = np.where(n % 2, -1.0, 1.0)
    psi = np.zeros((m, m, m))  # (n0, n1, n2)
    for d in range(m):
        k = n[: m - d]
        root = sqrt_fact[d + k] * sqrt_fact[k]
        raising = series[: m - d, : m - d] * np.outer(root, 1.0 / root)
        weight = alternate[: m - d] * (1.0 / math.cosh(r)) ** (d + 2 * k + 1)
        sector = (raising * weight) @ raising.T * alternate[: m - d]  # [v, u]
        np.einsum("iij->ij", psi[d:, : m - d, : m - d])[...] = sector * np.diagonal(amp, -d)
        if d:
            np.einsum("iij->ij", psi[: m - d, d:, d:])[...] = sector * np.diagonal(amp, d)

    if r > 0:
        # exp(theta (a0† a2 - a2† a0)) on block s is D^-1 exp(i theta T) D with
        # D = diag(i^n0): entry (p, q) is i^(q-p) times the cosine part of
        # exp(i theta T) at even q - p, i^(q-p+1) times its sine part at odd.
        theta = -math.acos(1.0 / math.cosh(r))  # transmissivity sech² r
        signs = np.where((1 - np.subtract.outer(n, n)) // 2 % 2, -1.0, 1.0)
        flipped = psi[:, :, ::-1]
        for s in range(1, 2 * cutoff):
            lo, hi = max(0, s - cutoff), min(s, cutoff)
            evals, evecs = _beam_splitter_modes(s, lo, hi)
            phase = theta * evals
            size = hi - lo + 1
            block = signs[:size, :size] * ((evecs * (np.cos(phase) + np.sin(phase))) @ evecs.T)
            # Rows n0 = lo..hi of the block; Q = s - n1 lies in 0..cutoff, so
            # only n1 = lo..hi is populated.
            rows = np.einsum("iji->ij", flipped[lo : hi + 1, :, cutoff - s + lo :][:, :, :size])
            rows[:, lo : hi + 1] = block @ rows[:, lo : hi + 1]

    pop = np.einsum("ijk,ijk->i", psi, psi)
    a1 = np.einsum("ijk,ijk->i", psi[:-1], psi[1:]) @ sqrt_n[1:]
    a2 = np.einsum("ijk,ijk->i", psi[:-2], psi[2:]) @ (sqrt_n[1:-1] * sqrt_n[2:])
    norm2 = float(pop.sum())
    lowered = float(n @ pop)
    return norm2, float(a1), float(a2), lowered, lowered + norm2 - m * float(pop[-1])


def _window_moments(
    r: float, r_omega: float, beta: complex, phi: float, cutoff: int
) -> tuple[tuple[float, float, float], float]:
    """((mean, variance, orthogonal variance), lost mass) in one window.

    Q-rotation e^(i arg(beta) Q) commutes with every gate after the
    displacement and maps D(|beta|) to D(beta), so the state at ``beta`` is
    the real state at ``|beta|`` rotated: its quadrature at ``phi`` is the
    real state's at ``phi - arg(beta)``.
    """
    norm2, a1, a2, lowered, raised = _fock_window(r, r_omega, abs(beta), cutoff)

    def moments(phase: float) -> tuple[float, float]:
        mean = 2.0 * math.cos(phase) * a1 / norm2
        second = (lowered + raised + 2.0 * math.cos(2.0 * phase) * a2) / norm2
        return mean, second - mean**2

    phase = phi - cmath.phase(beta)
    mean, var = moments(phase)
    _, var_orth = moments(phase + 0.5 * math.pi)
    return (mean, var, var_orth), 1.0 - norm2


def _settled_window(
    r: float, r_omega: float, beta: complex, phi: float, tol: float
) -> tuple[int, tuple[float, float, float], float, bool]:
    """Grow the window until the next one confirms it.

    Starting at 12 photons, each window is compared with the next one on the
    ladder (a quarter larger, at least 4 more photons).  The first window
    whose mean and variances the next one moves by at most
    ``_FOCK_SETTLE_FRACTION * tol`` is returned with ``True``.  Only the
    simulation's own numbers decide; the prediction it is checked against
    never does.  Reaching the dimension limit unsettled returns the largest
    window with ``False``.
    """
    cutoff = _FIRST_FOCK_CUTOFF
    current, lost = _window_moments(r, r_omega, beta, phi, cutoff)
    while cutoff < _MAX_FOCK_CUTOFF:
        following = min(cutoff + max(4, cutoff // 4), _MAX_FOCK_CUTOFF)
        nxt, nxt_lost = _window_moments(r, r_omega, beta, phi, following)
        if max(abs(x - y) for x, y in zip(current, nxt)) <= _FOCK_SETTLE_FRACTION * tol:
            return cutoff, current, lost, True
        cutoff, current, lost = following, nxt, nxt_lost
    return cutoff, current, lost, False


def fock_check_inertial(
    r: float,
    r_omega: float,
    cutoff: int | None = None,
    *,
    beta: complex = 0.2,
    phi: float = 0.0,
    tol: float = 1e-3,
    strict: bool = True,
) -> FockCheckReport:
    """Brute-force Fock cross-check of the single-frequency teleporter.

    Simulates displacement -> resource squeezer -> amplifier -> matched beam
    splitter on three oscillators truncated at ``cutoff`` photons per mode
    and compares the output quadrature mean and variances (at ``phi`` and
    the orthogonal phase) against the mode-algebra prediction.

    Gates use exact normal-ordered factorizations, so every deviation is
    attributable to the retained Fock window; ``lost_mass`` reports the norm
    the projection removed.  With ``cutoff=None`` the window sizes itself:
    it starts at 12 photons and grows until the next window changes the
    simulated mean and variances by at most a tenth of ``tol`` (the
    prediction never decides); ``cutoff`` on the report is the window
    chosen.  The state may hold at most 64**3 amplitudes, ``(cutoff + 1)**3``,
    so the cutoff is at most 63: a larger explicit cutoff is a
    :class:`ValueError`, and an adaptive window that reaches the limit
    unsettled fails the report.  A non-integer cutoff, and a NaN or
    infinite ``beta``, ``phi`` or ``tol``, each raise a :class:`ValueError`
    that names the input.
    With ``strict`` a failed report raises :class:`TruncationError` (the
    report rides on the exception); pass ``strict=False`` to inspect failing
    reports.  Parameters are capped at 1.5.
    """
    if not (0.0 <= r <= _MAX_FOCK_PARAM) or not (0.0 <= r_omega <= _MAX_FOCK_PARAM):
        raise ValueError(
            f"squeezing parameters must lie in [0, {_MAX_FOCK_PARAM}], got r={r}, r_omega={r_omega}"
        )
    if cutoff is not None:
        if isinstance(cutoff, bool) or not isinstance(cutoff, (int, np.integer)):
            raise ValueError(f"cutoff must be an integer photon number, got {cutoff!r}")
        if not (_MIN_FOCK_CUTOFF <= cutoff <= _MAX_FOCK_CUTOFF):
            raise ValueError(
                f"cutoff must lie in [{_MIN_FOCK_CUTOFF}, {_MAX_FOCK_CUTOFF}] "
                f"(at most {_MAX_FOCK_DIM} amplitudes), got {cutoff}"
            )
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValueError(f"displacement beta must be finite, got {beta}")
    if not math.isfinite(phi):
        raise ValueError(f"LO phase phi must be finite, got {phi}")

    if cutoff is None:
        cutoff, measured, lost_mass, settled = _settled_window(r, r_omega, beta, phi, tol)
    else:
        cutoff = int(cutoff)
        measured, lost_mass = _window_moments(r, r_omega, beta, phi, cutoff)
        settled = True
    meas_mean, meas_var, meas_var_orth = measured

    out_expr = inertial_teleport_output(r, r_omega)
    gain = out_expr.coefficient(ModeLabel(Sector.AUX, Chirality.LEFT, 0))
    pred_mean = 2.0 * (beta * gain * cmath.exp(-1j * phi)).real
    pred_var = quadrature_variance(out_expr, phi)
    pred_var_orth = quadrature_variance(out_expr, phi + 0.5 * math.pi)

    max_dev = max(
        abs(meas_mean - pred_mean),
        abs(meas_var - pred_var),
        abs(meas_var_orth - pred_var_orth),
    )
    report = FockCheckReport(
        r=float(r),
        r_omega=float(r_omega),
        cutoff=cutoff,
        beta=beta,
        phi=float(phi),
        tol=float(tol),
        predicted_mean=pred_mean,
        measured_mean=meas_mean,
        predicted_var=pred_var,
        measured_var=meas_var,
        predicted_var_orth=pred_var_orth,
        measured_var_orth=meas_var_orth,
        lost_mass=lost_mass,
        max_deviation=max_dev,
        passed=settled and max_dev <= tol,
    )
    if strict and not report.passed:
        reason = f"max deviation {max_dev:.3e} > {tol:g}"
        if not settled:
            reason = f"no window of at most {_MAX_FOCK_DIM} amplitudes settled ({max_dev:.3e})"
        raise TruncationError(
            f"Fock window (cutoff {cutoff}) cannot reproduce the point "
            f"r={r}, r_omega={r_omega}: {reason} (lost norm mass {lost_mass:.3e})",
            report,
        )
    return report
