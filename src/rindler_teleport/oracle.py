"""Independent numerical oracles for the teleportation closed forms.

Two cross-check routes live here, both deliberately avoiding the
closed-form integrals they validate:

1. A *discretized circuit*: the wavepacket is binned onto a given number
   of uniform frequency bins, every region wire becomes an explicit sum of
   labelled modes, and the protocol is composed gate by gate with the
   affine mode algebra at the one finite amplifier gain
   ``DEFAULT_CHANNEL_GAIN`` (the strong-amplification limit is never
   substituted analytically).  Output
   statistics then follow from mechanical Wick pairing: the
   local-oscillator-referenced quadrature variance, and the full table of
   quadratic/quartic mode contractions.

2. A *truncated-Fock simulation* of the single-frequency protocol: three
   oscillators in a hard photon-number cutoff, with displacement and
   two-mode-squeeze gates applied through their exact normal-ordered
   factorizations (so the only approximation is the projection onto the
   retained Fock window, whose lost mass is reported) and the beam splitter
   exponentiated exactly in the truncated space, on every block of conserved
   n0 + n2 in one stacked product.  By default the window sizes itself: it
   grows until the next window no longer moves the simulated moments, up to
   a fixed limit on the state's size.  The last 64 windows are kept, so a
   check at a cutoff its point's ladder already simulated reuses that window.

Scaling notes: the 3N region wires of an N-bin circuit share one mode
register, and every output operator lives on the register of the 4N
vacuum-family modes, so each gate, commutator and Wick pairing is a few
O(N) vector operations.  No gate depends on the acceleration a, so a build
takes a scalar a or a 1-D array of them and composes the gates once; only
the region rewrite and what follows it - W, the commutator audit and the
LO weights - carry a leading acceleration axis, one row per a, each row
bit for bit the build at that a alone.  A build rewrites the wire's
change and the three wire outputs into the vacuum families in one
vectorized pass per block of rows (blocks of a fixed number of row x bin
elements keep the temporaries in cache at any N) and audits that block;
the circuit keeps only W's rows, concatenated once.  Builds at one N share
one register and the rewrite plan cached for it.  The gate intermediates die
with the composition, the gate outputs after the last block's rewrite, and
the rewritten wire outputs once the audit has their pairwise commutators,
so the per-bin audit runs beside W's rows and its rank-one form alone.  The
LO variance forms the field's quadrature covariance from W's rows once and
reads every phase it reports from it with the mode algebra's phase reader.
The audit gives one maximum per row: a scalar build that fails it raises,
while in an array build that row's LO variance is NaN and the other rows
report.  Every bin's output is a unit
mode plus a multiple of one shared fluctuation W; in that rank-one form,
built per row block by the audit and per call by the contraction table,
the commutator audit checks every bin in O(N) and the contraction table
over M bins costs O(N + M**2).  A Fock window of cutoff C holds
(C + 1)**3 real amplitudes and costs O(C**4) operations in a few stacked
matrix products, with no Python loop over photon numbers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .mode_algebra import (
    Chirality,
    ModeLabel,
    ModeRegister,
    OperatorExpr,
    OperatorRows,
    Sector,
    beam_splitter,
    displace,
    phase_variance,
    quadrature_covariance,
    rindler_to_unruh,
    single_mode_squeeze,
    two_mode_squeeze,
    _chirality_parts,
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

#: Floor of a rounding bound: a zero one means exactly vanishing products.
_TINY = np.finfo(float).tiny

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

#: Largest (acceleration row x bin) block a build rewrites and audits at
#: once, so that the block's temporaries stay in cache at any bin count.
#: Over 40 rows, blocks of 4096 elements measured fastest or tied at both
#: N = 256 and N = 1024; one block of all 40 rows ran 1.1-1.3x and
#: 1.4-1.5x slower.
_BLOCK_ELEMENTS = 1 << 12


class GridMismatchError(ValueError):
    """Grid and wavepacket do not describe the same frequency window."""


class OracleConvergenceError(RuntimeError):
    """Discretized-circuit statistics failed an internal consistency bound."""


class TruncationError(RuntimeError):
    """Fock-space truncation error exceeded the check's tolerance."""

    def __init__(self, message: str, report: "FockCheckReport"):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Discretized circuit
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscretizedCircuit:
    """Binned protocol instance plus its composed output algebra.

    ``g``, ``ch`` and ``sh`` are the normalized wavepacket amplitude and
    the Unruh cosh r, sinh r at the bin centers.  ``wire_delta`` is the
    fluctuation change of the wavepacket wire, on the register of the four
    vacuum families (c, d) x (left, right) over the bins, from which every
    per-bin output operator follows:

        c_out[i] = c_i + g_i ch_i * wire_delta
        d_out[i] = d_i - g_i sh_i * wire_delta^dagger

    The record holds W = ``wire_delta`` once.  The LO variance reads W's
    rows and the bin weights directly; the commutator audit and the
    contraction table build the rank-one form of that layout
    (:class:`_RankOneOutputs`) from them when they run.  ``disp_gain`` is
    the mechanically measured displacement transmission of the channel for
    a unit input displacement (1 up to rounding, by the gain/transmissivity
    matching).

    A circuit built at one acceleration is one row: ``ch`` and ``sh`` have
    the shape of ``g``, ``wire_delta`` is an :class:`OperatorExpr` and the
    audit maximum a float.  Built over an array of accelerations, ``ch``
    and ``sh`` are (acceleration, bin) arrays, ``wire_delta`` is an
    :class:`OperatorRows` and ``commutator_audit_max`` holds each row's
    maximum; ``circuit[k]`` is row k as a one-row circuit, and raises
    :class:`OracleConvergenceError` for a row that failed the audit.
    """

    r_s: float
    g: np.ndarray
    ch: np.ndarray
    sh: np.ndarray
    wire_delta: OperatorExpr | OperatorRows
    disp_gain: complex
    commutator_audit_max: float | np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.g)

    def __getitem__(self, k: int) -> DiscretizedCircuit:
        if self.ch.ndim == 1:
            raise TypeError("a circuit built at one acceleration has no rows to index")
        if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)):
            raise TypeError(f"circuit row index must be an integer, got {k!r}")
        audit = float(self.commutator_audit_max[k])
        if not audit <= _COMMUTATOR_TOL:  # a NaN deviation fails too
            raise OracleConvergenceError(
                f"gate composition broke canonical commutators by "
                f"{audit:.3e} (> {_COMMUTATOR_TOL:g})"
            )
        return replace(
            self,
            ch=self.ch[k],
            sh=self.sh[k],
            wire_delta=self.wire_delta[k],
            commutator_audit_max=audit,
        )


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
    """The wire sum_i g_i a_i of one family: quadrature rows (g/2, i g/2) at its slots."""
    w = np.zeros((2, len(register)), dtype=complex)
    span = register._span(sector, chirality)
    w.real[0, span] = 0.5 * g
    w.imag[1, span] = 0.5 * g
    return OperatorExpr._new(register, 0j, w, float(np.max(np.abs(g))))


def _compose_protocol(register: ModeRegister, g: np.ndarray, r_s: float) -> tuple[list, complex]:
    """The wire's centered change and the three wire outputs, in that order,
    and the channel's displacement gain; the gate intermediates die here."""
    wire_in, idler, port = (_packet_wire(register, s, c, g) for s, c in _WIRE_FAMILIES)

    # Unit displacement probe: the measured output displacement is the
    # channel's displacement gain.
    wire = displace(single_mode_squeeze(wire_in, r_s), 1.0)
    wire, idler_out = two_mode_squeeze(wire, idler, DEFAULT_CHANNEL_GAIN)
    wire, port_out = beam_splitter(wire, port, 1.0 / math.cosh(DEFAULT_CHANNEL_GAIN) ** 2)
    delta_expr = wire - wire_in
    return [delta_expr.centered(), wire, idler_out, port_out], delta_expr.displacement


def _bin_centers(wp: WavepacketSpec, grid) -> tuple[np.ndarray, float]:
    """Centers and width of ``grid`` uniform bins across the wavepacket window."""
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 4:
        raise GridMismatchError(f"grid must be a bin count of at least 4, got {grid!r}")
    lo, hi = wp.window
    delta = (hi - lo) / grid
    return lo + (np.arange(grid) + 0.5) * delta, delta


def _build_circuit(a, wp: WavepacketSpec, grid, r_s: float) -> DiscretizedCircuit:
    """The circuit at a scalar ``a`` (one row) or at each of a 1-D array."""
    accel = np.asarray(a, dtype=float)
    if accel.ndim > 1 or accel.size == 0:
        raise ValueError(f"acceleration must be a scalar or a non-empty 1-D array, got shape {accel.shape}")
    if not np.all(np.isfinite(accel)):
        raise ValueError(f"acceleration must be finite, got {a}")
    if np.any(accel <= 0):
        raise ValueError(f"acceleration must be positive, got {a}")
    rows = np.atleast_1d(accel)
    centers, delta = _bin_centers(wp, grid)
    g = wp.amplitude(centers) * math.sqrt(delta)
    norm = float(np.linalg.norm(g))
    if norm <= 0:
        raise GridMismatchError("wavepacket amplitude vanishes on every grid bin")
    g = g / norm
    ch, sh = unruh_cosh_sinh(centers, rows[:, None])
    weight = np.sum(g * g * (ch * ch + sh * sh), axis=1)  # i_c + i_s of the grid, per row
    max_r_s = float(np.min(0.5 * (_LOG_FLOAT_MAX - 3.0 * np.log(weight))))
    if max_r_s < 0:
        raise ValueError(
            f"acceleration a = {rows[np.argmax(weight)]:.6g} is too large for this grid: the LO "
            f"variance's quadrature moments leave the float range at any payload squeezing r_s"
        )
    if r_s > max_r_s:
        raise ValueError(
            f"payload squeezing r_s must be at most {max_r_s:.6g} on this grid "
            f"(the LO variance's quadrature moments must be finite floats), got {r_s}"
        )

    # Every region wire lives on one register, so each gate is a handful of
    # vector operations.  No gate depends on the acceleration: the protocol
    # is composed once for every row.
    register = ModeRegister.grid(_WIRE_FAMILIES, len(centers))
    exprs, disp_gain = _compose_protocol(register, g, r_s)

    # One rewrite of the wire's change and the three wire outputs the audit
    # checks, and the audit, per block of acceleration rows.  After the last
    # rewrite the gate outputs are dropped, and the audit drops the wire
    # outputs once it has their commutators, so neither is alive in the
    # per-bin audit.
    step = max(1, _BLOCK_ELEMENTS // len(centers))
    blocks, audits = [], []
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        wire_delta, *wire_outputs = rindler_to_unruh(exprs, rows[block], centers)
        if block.stop >= len(rows):
            exprs = None
        outputs = _RankOneOutputs(wire_delta.register, wire_delta.rows, g * ch[block], g * sh[block])
        audits.append(_audit_commutators(outputs, wire_outputs))
        blocks.append(wire_delta)
    if len(blocks) > 1:
        stacked = np.concatenate([b.rows for b in blocks])
        stacked.flags.writeable = False
        wire_delta = replace(wire_delta, rows=stacked)
    circuit = DiscretizedCircuit(
        r_s=float(r_s),
        g=g,
        ch=ch,
        sh=sh,
        wire_delta=wire_delta,
        disp_gain=disp_gain,
        commutator_audit_max=np.concatenate(audits),
    )
    return circuit if accel.ndim else circuit[0]


#: The four centered output operators of a bin, with their mode family
#: (0 = c, 1 = d), creator flag, and whether they carry W or W† (c + sW,
#: d + tW† and their adjoints).
_KINDS = ("c", "c†", "d", "d†")
_FAMILY = np.array([0, 0, 1, 1])
_CREATOR = np.array([False, True, False, True])
_ADJOINT = np.array([0, 1, 1, 0])


def _term_layout(x: np.ndarray, y: np.ndarray, commutator: bool) -> tuple:
    """Where :meth:`_RankOneOutputs.terms` reads the terms of <X_i Y_j> or,
    with ``commutator``, of [X_i, Y_j] = <X_i Y_j> - <Y_j X_i>, per kind
    pair (x[m], y[m]): p reads the V of y at an annihilator x's slot, and
    the reverse order's minus the U of y at a creator x's; q the U of x at a
    creator y's slot, and the reverse order's minus the V of x at an
    annihilator y's.  Each read is a (``uv_at`` index, sign) pair."""
    cx, cy = _CREATOR[x], _CREATOR[y]
    reverse = -1.0 if commutator else 0.0  # the sign of the reverse order's reads
    p = (4 * ~cx + 2 * _ADJOINT[y] + _FAMILY[x], np.where(cx, reverse, 1.0)[:, None])
    q = (4 * ~cy + 2 * _ADJOINT[x] + _FAMILY[y], np.where(cy, 1.0, reverse)[:, None])
    e = (_FAMILY[x] == _FAMILY[y]) * np.where(cx, reverse * ~cy, 1.0 * cy)
    return x, y, p, q, 2 * _ADJOINT[x] + _ADJOINT[y], e, commutator


#: The contraction table's terms: every kind pair, x-major.
_TABLE_TERMS = _term_layout(*np.divmod(np.arange(len(_KINDS) ** 2), len(_KINDS)), commutator=False)


class _RankOneOutputs:
    """Every bin's centered output operators, in rank-one form, per row.

    With W = ``wire_delta``, kind x (an index into ``_KINDS``) of bin i has
    annihilator vector ``[not creator] 1_x + k[x, i] U[x]`` and creator
    vector ``[creator] 1_x + k[x, i] V[x]``: the unit vector of its own mode
    plus k = g ch (c kinds) or -g sh (d kinds) times the vectors (U, V) of W
    or W†.  A bilinear of kinds x, y at bins i, j is therefore

        kx[i] ky[j] z + ky[j] p[i] + kx[i] q[j] + e δ_ij,

    with z = U[x] . V[y], p and q reads of V[y] and U[x] at the c/d slots,
    and e from the unit vectors.  :meth:`terms` gathers these terms per kind
    pair, as :func:`_term_layout` places them, for the pairing <X_i Y_j>
    (read by the contraction table) or the commutator [X_i, Y_j] (read by
    the audit), and :func:`_bilinear_at` evaluates them.  The commutator's
    z is ``z_commutator``, formed from W's X and P coefficients (alpha,
    beta); the pairing's z is formed only when a pairing's terms are read.

    It is built from W's (alpha, beta) ``rows`` on ``register`` and the
    (row, bin) arrays g ch and g sh, and keeps ``rows`` and ``at`` (W on the
    c and d slots).  No circuit stores it: the build
    makes one per row block for the commutator audit, and
    :func:`contraction_table` one per call.  Every array has a leading
    acceleration axis, one entry per row of W.
    """

    def __init__(self, register: ModeRegister, rows: np.ndarray, g_ch: np.ndarray, g_sh: np.ndarray):
        # complex k: complex-by-complex products are the fast ones
        self.k = np.empty((len(g_ch), 4, g_ch.shape[1]), dtype=complex)
        self.k[:, :2], self.k[:, 2:] = g_ch[:, None], -g_sh[:, None]
        # (U, V) is (W.u, W.v) for W and (conj W.v, conj W.u) for W†; with
        # c = alpha . conj(beta), [W, W†] = -4 Im c.
        self.rows = rows
        self.c_imag = np.vecdot(rows[:, 1], rows[:, 0]).imag
        # W on the runs of c and d slots: (row, alpha or beta, family, bin).
        c, d = (register._span(f, Chirality.LEFT) for f in (Sector.UNRUH_C, Sector.UNRUH_D))
        self.at = at = np.stack([rows[..., c], rows[..., d]], axis=2)
        # Flat layouts, read by ``take``: the commutator's z at
        # [row, 2 adjoint(x) + adjoint(y)], U and V at the slots at
        # [row, 4 (U or V) + 2 (W or W†) + family, bin].
        j_beta = 1j * at[:, 1]
        self.uv_at = np.empty((len(rows), 8, at.shape[-1]), dtype=complex)
        uv = self.uv_at.reshape(len(rows), 2, 2, 2, -1)  # (row, U or V, W or W†, family, bin)
        np.subtract(at[:, 0], j_beta, out=uv[:, 0, 0])
        np.add(at[:, 0], j_beta, out=uv[:, 1, 0])
        np.conjugate(uv[:, ::-1, 0], out=uv[:, :, 1])  # W†'s (U, V) is conj of W's (V, U)
        # [W, W†] = -[W†, W] = -4 Im c, not |U|^2 - |V|^2; [W, W] = [W†, W†] = 0.
        self.z_commutator = np.zeros((len(rows), 4))
        self.z_commutator[:, 1], self.z_commutator[:, 2] = -4.0 * self.c_imag, 4.0 * self.c_imag

    def terms(self, layout: tuple) -> tuple:
        """Terms (kx, ky, z, p, q, e) of the kind pairs of a :func:`_term_layout`."""
        x, y, (p_at, p_sign), (q_at, q_sign), z_at, e, commutator = layout
        z = self.z_commutator
        if not commutator:  # the pairing's: U.V = alpha.alpha + beta.beta and
            # |U|^2, |V|^2 = |alpha|^2 + |beta|^2 -+ 2 Im c, at the same places
            alpha, beta = self.rows[:, 0], self.rows[:, 1]
            norms = np.vecdot(alpha, alpha).real + np.vecdot(beta, beta).real
            uv = _dotu(alpha, alpha) + _dotu(beta, beta)
            z = np.empty((len(uv), 4), dtype=complex)
            z[:, 0], z[:, 1] = uv, norms - 2.0 * self.c_imag
            z[:, 2], z[:, 3] = norms + 2.0 * self.c_imag, uv.conj()
        p, q = self.uv_at.take(p_at, axis=1) * p_sign, self.uv_at.take(q_at, axis=1) * q_sign
        return self.k.take(x, axis=1), self.k.take(y, axis=1), z.take(z_at, axis=1), p, q, e


def _w_rows(circ: DiscretizedCircuit) -> tuple[ModeRegister, np.ndarray]:
    """W's register and its (row, X or P, slot) coefficient rows; a one-row
    circuit's W is one row, viewed with a leading axis of length 1."""
    w = circ.wire_delta
    return w.register, (w.rows if isinstance(w, OperatorRows) else w._w[None])


def _dotu(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unconjugated x . y along the last axis, per row."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _bilinear_at(terms: tuple, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Values of a bilinear's terms at bin arrays ``i``, ``j`` (equal ndim,
    broadcast against each other), shaped (row, kind pair, *bins)."""
    kx, ky, z, p, q, e = terms
    kx, ky = kx[..., i], ky[..., j]
    value = kx * (ky * z.reshape(z.shape + (1,) * i.ndim) + q[..., j])
    value += ky * p[..., i]
    if e.any():
        value[..., np.broadcast_to(i == j, value.shape[2:])] += e[:, None]
    return value


def _audit_commutators(outputs: _RankOneOutputs, wire_outputs: list) -> np.ndarray:
    """Max relative deviation of the canonical commutators per row: the
    three wire outputs of ``wire_outputs`` (:class:`OperatorRows`, already
    rewritten into the vacuum families) pairwise, and then every bin's
    outputs (:func:`_bin_commutator_deviation`, from ``outputs``).  The list
    is emptied once the pairwise commutators are formed, so that the wire
    outputs are freed before the per-bin part.

    A commutator 2i (alpha1 . beta2 - beta1 . alpha2) is assembled from
    cancelling products (strong-gain branches carry cosh(r) ~ 1e6
    coefficients), so float error is judged relative to the elementwise
    rounding bound 2 (|alpha1| . |beta2| + |beta1| . |alpha2|), which a
    squeezer leaves of order one: it shrinks one quadrature by e^(-r_s) as it
    stretches the other by e^(r_s).  The wire outputs share one register,
    so each product is one vector dot per row and output pair (only
    alpha-beta products are formed: a squeezed alpha . alpha can pass the
    float range).  Any NaN deviation makes its row NaN.
    """
    e = np.concatenate([w.rows for w in wire_outputs], axis=1)
    wire_outputs.clear()
    alpha, beta = e[:, ::2, None, :], e[:, None, 1::2, :]  # (row, i, j, slot) for pair (i, j)
    ab = np.vecdot(alpha.conj(), beta)  # alpha_i . beta_j (vecdot conjugates its first argument)
    ab_conj = np.vecdot(beta, alpha)  # conj(beta_j) . alpha_i
    m = np.abs(e)
    del e, alpha, beta
    bound = np.vecdot(m[:, ::2, None, :], m[:, None, 1::2, :])  # |alpha_i| . |beta_j|
    del m
    scale = np.maximum(2.0 * (bound + bound.transpose(0, 2, 1)), _TINY)
    plain = 2j * (ab - ab.transpose(0, 2, 1))  # [E_i, E_j]
    # [E_i, E_j^dagger] = 2i (conj(beta_j) . alpha_i - conj(alpha_j) . beta_i)
    dagger = 2j * (ab_conj - ab_conj.conj().transpose(0, 2, 1)) - np.eye(3)
    deviation = np.maximum(np.abs(plain), np.abs(dagger)) / scale
    return np.maximum(_bin_commutator_deviation(outputs), deviation.max(axis=(1, 2)))


# The kind pairs the per-bin audit checks: c-c†, d-d†, c-d and c-d†, and the
# last two with the bins swapped, as [X_j, Y_i] = -[Y_i, X_j] (for c-c† and
# d-d† that is the complex conjugate).  Their terms are the commutator's:
# those of the pairing <X_i Y_j> less those of the reverse order.
_AUDIT_X, _AUDIT_Y = np.array([0, 2, 0, 0, 2, 3]), np.array([1, 3, 2, 3, 0, 0])
_AUDIT_TERMS = _term_layout(_AUDIT_X, _AUDIT_Y, commutator=True)


def _bin_commutator_deviation(outputs: _RankOneOutputs) -> np.ndarray:
    """Max relative deviation of the output commutators of every bin, per row.

    Each bin meets itself and the anchor bins {0, N/2, N-1}, both ways
    round, for c-c†, d-d†, c-d and c-d†: O(N) vector operations on the
    rank-one form of the outputs, whose commutator terms are gathered once
    per kind pair, each judged relative to its bound
    ``size[x, i] size[y, j]``.  That product bounds
    the rounding bound of [X_i, Y_j] less its exact unit part, |kx| |ky| Z +
    |ky| m_x[i] + |kx| m_y[j] with Z = 4 |alpha| . |beta| over W's
    (alpha, beta) ``outputs.rows`` and m = |alpha| + |beta| at the
    operator's slot (``outputs.at``):
    size = |k| sqrt(Z) + m / sqrt(Z).  Any NaN deviation makes its row NaN.
    """
    m = np.abs(outputs.rows)
    root_z = np.sqrt(np.maximum(4.0 * np.vecdot(m[:, 0], m[:, 1]), _TINY))[:, None, None]
    m_at = np.abs(outputs.at)
    own = (m_at[:, 0] + m_at[:, 1]).take(_FAMILY, axis=1)  # (row, kind, bin)
    size = np.maximum(np.abs(outputs.k) * root_z + own / root_z, _TINY)
    # The unit-vector part of a commutator is its canonical value exactly
    # ([c_i, c_j†] = δ_ij, ...), so the deviation is the rest.
    kx, ky, z, p, q, _ = outputs.terms(_AUDIT_TERMS)
    size_x, size_y = size.take(_AUDIT_X, axis=1), size.take(_AUDIT_Y, axis=1)
    n = kx.shape[2]
    deviations = []
    for j in (slice(None), [0], [n // 2], [n - 1]):  # every bin itself, then each anchor
        value = kx * (ky[..., j] * z[..., None] + q[..., j]) + ky[..., j] * p
        # One factor at a time: their product underflows to 0 where sinh r does.
        deviations.append((np.abs(value) / size_x / size_y[..., j]).max(axis=(1, 2)))
    return np.max(deviations, axis=0)


def build_displaced_circuit(a, wp: WavepacketSpec, grid: int) -> DiscretizedCircuit:
    """Discretize the coherent-payload protocol on ``grid`` bins.

    ``grid`` is the number of uniform bins across the wavepacket window, an
    integer of at least 4; anything else is a :class:`GridMismatchError`.
    Quantitative agreement with the continuum closed forms needs N >= 64
    (callers may go coarser deliberately, e.g. to demonstrate
    discretization failure; the algebraic identity table is exact at any N).

    ``a`` is a scalar or a 1-D array of accelerations.  The gates are
    composed once; the region rewrite and the commutator audit are formed
    per acceleration row, each row bit for bit the circuit built at that
    acceleration alone.  A scalar build whose audit
    fails raises :class:`OracleConvergenceError`; in an array build that row
    keeps its audit maximum, indexing it raises, and its LO variance is NaN
    (see :class:`DiscretizedCircuit` and :func:`photon_number_variance_lo`).
    """
    return _build_circuit(a, wp, grid, 0.0)


def build_squeezed_circuit(
    a,
    wp: WavepacketSpec,
    grid: int,
    *,
    r_s: float,
) -> DiscretizedCircuit:
    """Discretize the squeezed-payload protocol (payload squeezing ``r_s``)
    on ``grid`` bins, as :func:`build_displaced_circuit` (``a`` a scalar or
    a 1-D array); at ``r_s = 0`` it is that coherent-payload circuit.

    ``r_s`` is bounded by the float range: the LO variance forms the
    stretched quadrature's second moment <X^2> = n0 V(0), about
    (i_c + i_s)^3 e^(2 r_s) with i_c + i_s = sum g^2 (ch^2 + sh^2) over the
    grid, which stays below the largest float f_max for
    r_s <= (ln f_max - 3 ln(i_c + i_s))/2: 354.89 for a << omega0, 346.25 at
    a = 1000 (omega0 = 1, sigma = 0.01).  A larger ``r_s`` is a
    :class:`ValueError` that names it; an array build takes the smallest
    bound of its rows.
    """
    if not math.isfinite(r_s) or r_s < 0:
        raise ValueError(f"payload squeezing must be finite and non-negative, got {r_s}")
    return _build_circuit(a, wp, grid, r_s)


# ---------------------------------------------------------------------------
# Local-oscillator-referenced variance
# ---------------------------------------------------------------------------


def _lo_parts(circ: DiscretizedCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature covariance of the LO-referenced field, per part of it.

    Writing each output as |alpha| * l + fluctuation, the photon number's
    linear-in-|alpha| part at LO phase phi is |alpha| * F(phi) with

        F(phi) = sum_i conj(l_i) (fluct_i) + h.c.   over both output families
               = e^(-i phi) P + e^(i phi) P^dagger = cos(phi) X + sin(phi) Y,

    P independent of phi, X = F(0) and Y = F(pi/2).  The homodyne variance
    is <F^2>_connected / n0 with n0 = sum_i |l_i|^2, and <F(phi)^2> is the
    covariance read at (cos phi, sin phi) by :func:`phase_variance`, the
    Gaussian second-moment form; it equals A + 2 Re(B e^(-2i phi)) with
    A = (<X^2> + <Y^2>)/2 and B = (<X^2> - <Y^2>)/4 + i <XY + YX>/4.  The
    covariance is evaluated instead of A and B: a strongly squeezed
    quadrature is A - 2|B|, a cancellation that multiplies the rounding
    error by about e^(4 r_s).  X and Y are twice the real and imaginary parts
    of the field P's quadrature coefficients, so a squeezed Y keeps its precision.
    Returns (<X^2>, <Y^2>, <XY + YX>/2) of the right-movers, the left-movers
    and the whole field, in that order, and n0, both with a leading
    acceleration axis (of length 1 for a one-row circuit): moments of shape
    (row, part, moment), NaN on a row that failed the commutator audit.
    They are read straight from W's rows, the weights g ch and -g sh of the
    c and d outputs, and the runs of register slots of the c and d modes.
    """
    register, rows = _w_rows(circ)
    k_c, k_d = np.atleast_2d(circ.g * circ.ch), -np.atleast_2d(circ.g * circ.sh)
    lo_c = circ.disp_gain * k_c  # l of the c outputs is e^(i phi) lo_c,
    lo_d = circ.disp_gain.conjugate() * k_d  # that of the d outputs e^(-i phi) lo_d
    n0 = (np.abs(lo_c) ** 2).sum(axis=1) + (np.abs(lo_d) ** 2).sum(axis=1)
    # P = sum_i conj(lo_c_i) c_out[i] + lo_d_i d_out[i]^dagger, centered, in
    # quadrature coefficients: c = (X + iP)/2 and d^dagger = (X - iP)/2.
    weight = (lo_c.conjugate() * k_c).sum(axis=1) + (lo_d * k_d).sum(axis=1)
    field = weight[:, None, None] * rows  # (row, alpha or beta, slot)
    # The unit parts, on the runs of c and d slots.
    c, d = (register._span(f, Chirality.LEFT) for f in (Sector.UNRUH_C, Sector.UNRUH_D))
    field[:, 0, c] += 0.5 * lo_c.conjugate()
    field[:, 1, c] += 0.5j * lo_c.conjugate()
    field[:, 0, d] += 0.5 * lo_d
    field[:, 1, d] += -0.5j * lo_d
    # X and Y are Hermitian with coefficients x = 2 Re and y = 2 Im of P's:
    # <X^2> = x.x, <Y^2> = y.y and <XY + YX>/2 = x.y over both rows.
    x, y = field.real, field.imag
    per_slot = np.stack([(x * x).sum(axis=1), (y * y).sum(axis=1), (x * y).sum(axis=1)], axis=1)
    moments = 4.0 * (per_slot @ _chirality_parts(register)).transpose(0, 2, 1)  # right, left, whole
    moments[~(np.atleast_1d(circ.commutator_audit_max) <= _COMMUTATOR_TOL)] = math.nan
    return moments, n0


def _variance_at(parts: tuple, c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(far-side thermal part, payload part) of the output variance at the
    LO phases phi with (cos phi, sin phi) = (c, s), shaped (row, phase).

    The split is by propagation direction: right-mover modes only ever enter
    through the horizon-straddling resource, so their contribution is the
    thermal noise; left-movers carry the payload (quantum-noise limit or
    squeezed-payload decoherence).  The parts add exactly - the two mode
    families never share a label - which is checked against the whole field
    at every row and phase; an entry that fails the check (a NaN or infinite
    part fails it too) reads NaN in both parts.
    """
    moments, n0 = parts
    cov = moments.transpose(2, 0, 1)  # (<X^2>, <Y^2>, <XY + YX>/2), each (row, part)
    values = np.array([phase_variance(cov, *phase) for phase in np.broadcast(c, s)])  # (phase, row, part)
    thermal, payload, total = (values / n0[:, None]).T
    additive = np.abs(total - (payload + thermal)) <= 1e-9 * np.maximum(1.0, np.abs(total))
    return np.where(additive, thermal, math.nan), np.where(additive, payload, math.nan)


def photon_number_variance_lo(circ: DiscretizedCircuit, phi: float = 0.0) -> VarianceReport:
    """Homodyne variance of the teleported output at LO phase ``phi``.

    Computed entirely from Wick pairs of the composed circuit; no continuum
    integral enters.  The LO field is decomposed once (:func:`_lo_parts`)
    and evaluated in one pass at ``phi`` and at the purity product's phases
    0 and pi/2, the latter at exactly (cos, sin) = (1, 0) and (0, 1).  For
    an array circuit every field is an array over its rows, NaN on a row
    that failed the commutator audit or the additivity check of the split; a
    one-row circuit gives floats, and raises :class:`OracleConvergenceError`
    where its split fails.  A purity product past the float range is
    infinite.  A NaN or infinite ``phi`` is a :class:`ValueError`.
    """
    if not math.isfinite(phi):
        raise ValueError(f"LO phase phi must be finite, got {phi}")
    parts = _lo_parts(circ)
    c, s = np.array([math.cos(phi), 1.0, 0.0]), np.array([math.sin(phi), 0.0, 1.0])
    thermal, payload = _variance_at(parts, c, s)  # (row, phase) at phi, 0 and pi/2
    variance = thermal + payload
    with np.errstate(over="ignore"):
        purity = variance[:, 1] * variance[:, 2]
    total, thermal, payload = variance[:, 0], thermal[:, 0], payload[:, 0]
    if circ.ch.ndim == 1:
        if np.isnan(total[0]) or np.isnan(purity[0]):
            right, left, whole = (parts[0][0] / parts[1][0]).tolist()
            raise OracleConvergenceError(
                f"variance split lost additivity: right-movers {right} + left-movers {left} "
                f"!= whole field {whole} (V(0), V(pi/2) and cross term)"
            )
        total, thermal, payload, purity = (float(x[0]) for x in (total, thermal, payload, purity))
    return VarianceReport(total=total, thermal_noise=thermal, qnl_or_decoherence=payload, purity_product=purity)


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


def _bin_indices(bins) -> np.ndarray:
    """``bins`` as a flat index array; a value that is not an integer is a ValueError."""
    flat = np.asarray(bins, dtype=object).reshape(-1)
    for b in flat:
        if isinstance(b, (bool, np.bool_)) or not isinstance(b, (int, np.integer)):
            raise ValueError(f"bin index must be an integer, got {b!r}")
    return flat.astype(np.intp)


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
    to the shared thermal coefficient.  Bins must be integers (not booleans)
    inside the grid, and ``phi`` finite; anything else is a
    :class:`ValueError` that names it.
    """
    if circ.ch.ndim != 1:
        raise ValueError("contraction_table reads a one-row circuit; index an array circuit by its row")
    if not math.isfinite(phi):
        raise ValueError(f"LO phase phi must be finite, got {phi}")
    n = circ.n_bins
    w, y = (_bin_indices(b) for b in (omega_bins, gamma_bins))
    every = np.concatenate([w, y])
    outside = every[(every < 0) | (every >= n)]
    if len(outside):
        raise ValueError(f"bin {outside[0]} outside grid of {n} bins")
    w, y = w[:, None], y[None, :]

    outputs = _RankOneOutputs(*_w_rows(circ), (circ.g * circ.ch)[None], (circ.g * circ.sh)[None])
    (table,) = _bilinear_at(outputs.terms(_TABLE_TERMS), w, y)
    pair = {f"{_KINDS[a]} {_KINDS[b]}": row for a, b, row in zip(*_TABLE_TERMS[:2], table)}

    # Quartic assembly: with x = x~ + D (D the LO shift at |alpha| = 1), the
    # |alpha|^2 part of the connected <x_w† x_w z_y† z_y> is the covariance
    # of the linear terms conj(D_w) x~_w + D_w x~_w† and the same for z_y.
    # D is disp_gain k for c and its conjugate's for d, turned by the LO phase.
    gain, (k,) = circ.disp_gain, outputs.k
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
#: Largest deviation from the prediction a passing report may show
#: (reported as ``FockCheckReport.tol``).
_FOCK_TOL = 1e-3
#: The adaptive window is settled once the next window moves the mean and both
#: variances by at most this, a tenth of ``_FOCK_TOL`` (1e-4).
_FOCK_SETTLE_TOL = 0.1 * _FOCK_TOL
#: The input mode of ``inertial_teleport_output``; its coefficient in the
#: output is the gain the displacement sees.
_FOCK_INPUT_MODE = ModeLabel(Sector.AUX, Chirality.LEFT, 0)


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


@dataclass(frozen=True)
class _WindowTables:
    """Photon-number tables of one window size, and its beam splitter's modes.

    Indices: d = n0 - n1 >= 0 labels an amplifier sector and k, v, w, u photon
    numbers inside it; t = (n0 + n2) mod m labels a beam-splitter block.
    """

    gap: np.ndarray  # [v, w]: v - w, and 0 above the diagonal
    inv_gap_fact: np.ndarray  # [v, w]: 1 / (v - w)!, and 0 above the diagonal
    exponent: np.ndarray  # [d, w]: d + 2w + 1
    root: np.ndarray  # [d, k]: sqrt((d + k)! k!)
    signed_inv_root2: np.ndarray  # [d, w]: (-1)^w / ((d + w)! w!)
    column: np.ndarray  # [u]: sqrt(u!) (-1)^u
    mirror_sign: np.ndarray  # [d + m - 1]: (-1)^max(-d, 0), for d in -(m - 1)..m - 1
    shift: np.ndarray  # [i, j]: i + j, for i < 2m - 1
    amplitude_base: np.ndarray  # [n0, n1]: flat index of sector [|d|, n1 - s, -s], s = max(-d, 0)
    factor_base: np.ndarray  # [n0, n1]: flat index of factor [d + m - 1, 0]
    block_n2: np.ndarray  # [t, n0, 1]: (t - n0) mod m, the n2 that block t adds to both
    modes: np.ndarray  # [t, j, even n0]: P_t^T, P_t the left singular vectors of Y_t
    sigma: np.ndarray  # [t, j]: singular values of Y_t
    coupled: np.ndarray  # [t, j, odd n0]: Q_t^T, Q_t the right singular vectors of Y_t
    raising: np.ndarray  # [n0]: sqrt(n0 + 1), n0 < m - 1
    raising2: np.ndarray  # [n0]: sqrt((n0 + 1)(n0 + 2)), n0 < m - 2


@functools.lru_cache(maxsize=16)
def _window_tables(cutoff: int) -> _WindowTables:
    """The tables of an m = cutoff + 1 window; later windows of its size reuse them.

    Block t of the beam splitter joins the conserved sums s = t (rows
    n0 <= t) and s = t + m (rows n0 > t).  On it the generator a0† a2 - a2† a0
    is the real antisymmetric tridiagonal G_t with
    G_t[p + 1, p] = -G_t[p, p + 1] = sqrt((p + 1) ((t - p) mod m)), which is 0
    at p = t, between the two sums.  G_t couples even n0 only to odd n0, as
    G_t = [[0, Y_t], [-Y_t^T, 0]] on (even, odd) rows; the reduced SVD
    Y_t = P_t diag(sigma_t) Q_t^T gives its eigenvalues ±i sigma_t.  P_t^T,
    sigma_t and Q_t^T are kept, each C-contiguous: a right matmul operand
    that is a transposed view takes a slower BLAS path.
    """
    m = cutoff + 1
    n = np.arange(m)
    sqrt_fact = np.sqrt(np.arange(2 * m - 1.0))
    sqrt_fact[0] = 1.0
    np.cumprod(sqrt_fact, out=sqrt_fact)  # sqrt(k!), k < 2m - 1
    d = np.subtract.outer(n, n)  # [n0, n1]: n0 - n1, or [t, n0]: t - n0
    gap = d.clip(0)
    inv_gap_fact = np.tril(1.0 / sqrt_fact[gap] ** 2)
    alternate = np.where(n % 2, -1.0, 1.0)
    shift = np.add.outer(np.arange(2 * m - 1), n)
    root = sqrt_fact[shift[:m]] * sqrt_fact[:m]
    mirror_sign = np.ones(2 * m - 1)
    mirror_sign[m - 2 :: -2] = -1.0
    s = (-d).clip(0)
    coupling = np.sqrt(n[1:] * (np.subtract.outer(n, n[:-1]) % m))  # [t, p]: G_t[p + 1, p]
    odd = m // 2
    y = np.zeros((m, m - odd, odd))
    np.einsum("tii->ti", y[:, :odd])[...] = -coupling[:, ::2]  # G_t[2j, 2j + 1]
    np.einsum("tii->ti", y[:, 1:, : m - odd - 1])[...] = coupling[:, 1::2]  # G_t[2j + 2, 2j + 1]
    modes, sigma, q_t = np.linalg.svd(y, full_matrices=False)
    raising = np.sqrt(n[1:])
    tables = _WindowTables(
        gap=gap,
        inv_gap_fact=inv_gap_fact,
        exponent=n[:, None] + 2 * n + 1,
        root=root,
        signed_inv_root2=alternate / root**2,
        column=sqrt_fact[:m] * alternate,
        mirror_sign=mirror_sign,
        shift=shift,
        amplitude_base=abs(d) * m * m + (n - s) * m - s,
        factor_base=(d + m - 1) * m,
        block_n2=(d % m)[:, :, None],
        modes=np.ascontiguousarray(modes.transpose(0, 2, 1)),
        sigma=sigma,
        coupled=q_t,
        raising=raising,
        raising2=raising[:-1] * raising[1:],
    )
    for array in vars(tables).values():
        array.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=64)
def _fock_window(r: float, r_omega: float, b: float, cutoff: int) -> tuple[float, ...]:
    """Mode-0 statistics of the protocol's state in a ``cutoff``-photon window.

    The displacement ``b`` is real, so every amplitude is real.  Returns
    ``(|psi|², <a>, <a a>, |a psi|², |a† psi|²)`` with ``a`` the window's
    mode-0 lowering operator.  A pure function of its four numbers, so the
    last 64 windows are kept: a fixed-cutoff check on a rung its point's
    adaptive ladder already simulated costs no second window.

    Each gate conserves Q = n0 - n1 + n2, and only the first displacement
    fills the Q-sectors.  The squeezers meet the vacuum or single Fock
    states of their modes, so the state before the beam splitter is written
    directly from the amplifier's window matrix elements, every sector
    d = n0 - n1 in one stacked product.  The beam splitter conserves n1 and
    s = n0 + n2; the state is held as m = cutoff + 1 matrices, one per
    t = s mod m with rows n0 and columns n1, and each is multiplied by the
    exact exponential of the truncated generator on its two sums at once.
    """
    m = cutoff + 1
    tables = _window_tables(cutoff)
    n = np.arange(m)

    # Amplifier on modes 0, 1: S(r) = exp(L a†b†) sech^(n_a + n_b + 1) exp(-L a b)
    # with L = tanh r keeps d = n0 - n1.  For d >= 0, with E[v, w] =
    # L^(v-w)/(v-w)! and rho[k] = sqrt((d+k)! k!), its element from |d+u, u>
    # to |d+v, v> (and from |u, d+u> to |v, d+v>) is
    # rho[v] rho[u] (-1)^u sum_w E[v, w] x[w] E[u, w], x[w] = (-1)^w sech^(d+2w+1) / rho[w]².
    # Sector d is padded to m rows and columns; entries with v or u >= m - d
    # lie outside the window and stay finite: rows v >= m - d are never read,
    # and columns u >= m - d only times coherent[j >= m] = 0.
    series = math.tanh(r) ** tables.gap * tables.inv_gap_fact  # E[v, w]
    x = (1.0 / math.cosh(r)) ** tables.exponent * tables.signed_inv_root2  # [d, w]
    # One buffer for the large arrays, each part reused once spent: the left
    # factor, then the state; the sectors, then the rotation; the rotated state.
    work = np.empty((3 * m + 2, m, m))
    left, sectors, wrapped = work[:m], work[m : 2 * m], work[2 * m :]
    np.multiply(series, x[:, None, :], out=left)
    left *= tables.root[:, :, None]  # [d, v, w]

    # Block t, row n0, column n1 holds psi[n0, n1, (t - n0) mod m]: sector |d|,
    # shifted by max(-d, 0) along both axes for d < 0, times coherent[n0 - n1 + n2]
    # pair[n2] rho[u] (-1)^u, u = n2 - max(n1 - n0, 0), where coherent[j] sqrt(j!)
    # = e^(-b²/2) b^j inside the window (u < 0 reads a finite entry times 0).
    np.matmul(left, series.T.copy(), out=sectors)  # a transposed view is a slower BLAS operand
    powers = np.zeros(3 * m - 2)
    with np.errstate(over="ignore", invalid="ignore"):  # b**n past the float range reads NaN
        powers[m - 1 : 2 * m - 1] = math.exp(-0.5 * b * b) * b**n
    pair = np.tanh(r_omega) ** n / math.cosh(r_omega)  # resource squeezer: sech(r_w) tanh(r_w)^k |k, k>
    factor = powers[tables.shift] * (pair * tables.column)  # [d + m - 1, n2]
    factor *= tables.mirror_sign[:, None]
    # Every index is in range: "clip" lets take fill its output unbuffered.
    state = np.take(sectors, tables.amplitude_base + tables.block_n2, out=left, mode="clip")
    state *= np.take(factor, tables.factor_base + tables.block_n2, out=sectors, mode="clip")

    # exp(theta G_t) on (even, odd) rows, from Y = P diag(sigma) Q^T:
    # [[1 + P c P^T, P s Q^T], [-Q s P^T, 1 + Q c Q^T]] where
    # c = cos(theta sigma) - 1 = -2 sin²(theta sigma / 2) and s = sin(theta sigma).
    theta = -math.acos(1.0 / math.cosh(r))  # transmissivity sech² r
    pt, qt = tables.modes, tables.coupled
    p, q = pt.transpose(0, 2, 1), qt.transpose(0, 2, 1)
    angle = theta * tables.sigma
    c = -2.0 * np.sin(0.5 * angle) ** 2
    rotation = sectors  # every entry is written below
    np.matmul(p * c[:, None, :], pt, out=rotation[:, ::2, ::2])
    np.matmul(q * c[:, None, :], qt, out=rotation[:, 1::2, 1::2])
    np.matmul(p * np.sin(angle)[:, None, :], qt, out=rotation[:, ::2, 1::2])
    np.negative(rotation[:, ::2, 1::2].transpose(0, 2, 1), out=rotation[:, 1::2, ::2])
    rotation.reshape(m, m * m)[:, :: m + 1] += 1.0

    # psi[n0 + k] for k = 1, 2 sits in block t + k (mod m): blocks 0 and 1
    # repeat after block m - 1, so each overlap is one product of shifted views.
    state = np.matmul(rotation, state, out=wrapped[:m])
    wrapped[m:] = state[:2]
    pop = np.einsum("tpq,tpq->p", state, state)
    a1 = np.einsum("tpq,tpq->p", state[:, :-1], wrapped[1:-1, 1:]) @ tables.raising
    a2 = np.einsum("tpq,tpq->p", state[:, :-2], wrapped[2:, 2:]) @ tables.raising2
    norm2 = float(pop.sum())
    lowered = float(n @ pop)
    return norm2, float(a1), float(a2), lowered, lowered + norm2 - m * float(pop[-1])


def _window_moments(
    r: float, r_omega: float, beta: complex, phi: float, cutoff: int
) -> tuple[tuple[float, float, float], float]:
    """((mean, variance, orthogonal variance), lost mass) in one window, or
    NaN moments and lost mass 1 where it holds no norm or finite moments.

    Q-rotation e^(i arg(beta) Q) commutes with every gate after the
    displacement and maps D(|beta|) to D(beta), so the state at ``beta`` is
    the real state at ``|beta|`` rotated: its quadrature at ``phi`` is the
    real state's at ``phi - arg(beta)``.
    """
    norm2, a1, a2, lowered, raised = _fock_window(r, r_omega, abs(beta), cutoff)
    if not (norm2 > 0.0 and math.isfinite(a1 + a2 + lowered + raised)):
        return (math.nan,) * 3, 1.0
    # The real state's covariance: <a> = a1 and <a a> = a2 are real, so no cross term.
    cov = ((lowered + raised + 2.0 * a2) / norm2 - (2.0 * a1 / norm2) ** 2,
           (lowered + raised - 2.0 * a2) / norm2, 0.0)
    phase = phi - cmath.phase(beta)
    c, s = math.cos(phase), math.sin(phase)
    mean = 2.0 * c * a1 / norm2
    return (mean, phase_variance(cov, c, s), phase_variance(cov, -s, c)), 1.0 - norm2


def _settled_window(
    r: float, r_omega: float, beta: complex, phi: float
) -> tuple[int, tuple[float, float, float], float, bool]:
    """Grow the window until the next one confirms it.

    Starting at 12 photons, each window is compared with the next one on the
    ladder (a quarter larger, at least 4 more photons).  The first window
    whose mean and variances the next one moves by at most
    ``_FOCK_SETTLE_TOL`` (1e-4) is returned with ``True``.  Only the
    simulation's own numbers decide; the prediction it is checked against
    never does.  Reaching the dimension limit unsettled returns the largest
    window with ``False``.
    """
    cutoff = _FIRST_FOCK_CUTOFF
    current, lost = _window_moments(r, r_omega, beta, phi, cutoff)
    while cutoff < _MAX_FOCK_CUTOFF:
        following = min(cutoff + max(4, cutoff // 4), _MAX_FOCK_CUTOFF)
        nxt, nxt_lost = _window_moments(r, r_omega, beta, phi, following)
        if max(abs(x - y) for x, y in zip(current, nxt)) <= _FOCK_SETTLE_TOL:
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
    strict: bool = True,
) -> FockCheckReport:
    """Brute-force Fock cross-check of the single-frequency teleporter.

    Simulates displacement -> resource squeezer -> amplifier -> matched beam
    splitter on three oscillators truncated at ``cutoff`` photons per mode
    and compares the output quadrature mean and variances (at ``phi`` and
    the orthogonal phase) against the mode-algebra prediction; the report
    passes when each deviation is at most 1e-3 (its ``tol``).

    Gates use exact normal-ordered factorizations, so every deviation is
    attributable to the retained Fock window; ``lost_mass`` reports the norm
    the projection removed.  With ``cutoff=None`` the window sizes itself:
    it starts at 12 photons and grows until the next window changes the
    simulated mean and variances by at most 1e-4 (the prediction never
    decides); ``cutoff`` on the report is the window
    chosen.  The state may hold at most 64**3 amplitudes, ``(cutoff + 1)**3``,
    so the cutoff is at most 63: a larger explicit cutoff is a
    :class:`ValueError`, and an adaptive window that reaches the limit
    unsettled fails the report.  A window that holds no norm (a displacement
    too large for it) reads NaN moments and lost mass 1, and fails the
    report too.  A non-integer cutoff, and a NaN or
    infinite ``beta`` or ``phi``, each raise a :class:`ValueError` that
    names the input.
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
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValueError(f"displacement beta must be finite, got {beta}")
    if not math.isfinite(phi):
        raise ValueError(f"LO phase phi must be finite, got {phi}")

    if cutoff is None:
        cutoff, measured, lost_mass, settled = _settled_window(r, r_omega, beta, phi)
    else:
        cutoff = int(cutoff)
        measured, lost_mass = _window_moments(r, r_omega, beta, phi, cutoff)
        settled = True
    meas_mean, meas_var, meas_var_orth = measured

    out_expr = inertial_teleport_output(r, r_omega)
    gain = out_expr.coefficient(_FOCK_INPUT_MODE)
    pred_mean = 2.0 * (beta * gain * cmath.exp(-1j * phi)).real
    cov, c, s = quadrature_covariance(out_expr), math.cos(phi), math.sin(phi)
    pred_var, pred_var_orth = phase_variance(cov, c, s), phase_variance(cov, -s, c)

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
        tol=_FOCK_TOL,
        predicted_mean=pred_mean,
        measured_mean=meas_mean,
        predicted_var=pred_var,
        measured_var=meas_var,
        predicted_var_orth=pred_var_orth,
        measured_var_orth=meas_var_orth,
        lost_mass=lost_mass,
        max_deviation=max_dev,
        passed=settled and max_dev <= _FOCK_TOL,
    )
    if strict and not report.passed:
        reason = f"max deviation {max_dev:.3e} > {_FOCK_TOL:g}"
        if not settled:
            reason = f"no window of at most {_MAX_FOCK_DIM} amplitudes settled ({max_dev:.3e})"
        raise TruncationError(
            f"Fock window (cutoff {cutoff}) cannot reproduce the point "
            f"r={r}, r_omega={r_omega}: {reason} (lost norm mass {lost_mass:.3e})",
            report,
        )
    return report
