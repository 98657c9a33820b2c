"""Affine Gaussian mode algebra on dense mode registers.

Every operator handled here is an affine combination

    E = d + sum_m ( u_m * a_m + v_m * a_m^dagger )

of annihilation/creation operators of labelled modes plus a c-number
displacement ``d``.  An expression is built from the vectors (u, v) on a
register, ``OperatorExpr(register, u, v, d)``, or as a sum of
:func:`annihilator` terms and their adjoints.  Gaussian circuits
(displacements, one- and two-mode squeezers, beam splitters) map such
expressions to each other, so an entire protocol can be composed by ordinary
arithmetic on :class:`OperatorExpr` values, and vacuum expectation values of
products follow from Wick pairing.

In the symplectic picture a Gaussian unitary is an affine map on the
quadratures X_m = a_m + a_m^dagger and P_m = -i (a_m - a_m^dagger)
(Weedbrook et al., RMP 84, 621 (2012), Sec. II), so an expression is stored
as E = d + sum_m (alpha_m X_m + beta_m P_m): one complex ``(2, n)`` array of
rows (alpha, beta), indexed by an immutable, ordered :class:`ModeRegister`;
then u = alpha - i beta and v = alpha + i beta.  Expressions on one register
combine by vector arithmetic; expressions on different registers are first
spread onto the union of their registers.  The adjoint conjugates the rows,
[E1, E2] = 2i (alpha1.beta2 - beta1.alpha2), the vacuum pairing is
<E1 E2> = alpha1.alpha2 + beta1.beta2 + i (alpha1.beta2 - beta1.alpha2), and
a squeezer scales real parts by e^r_s and imaginary parts by e^(-r_s), so a
squeezed quadrature keeps its relative precision at any squeezing.

No expression holds a non-finite coefficient.  Coefficients that come from
outside the algebra - the constructor's vectors and the rows of a region
rewrite - are tested, and a non-finite one is a ValueError naming its mode.
Coefficients made by arithmetic on tested expressions carry a bound on their
magnitudes instead, and are tested only once that bound passes 1e300; such
arithmetic runs with NumPy's overflow warnings off, so that an overflow is
that named error even where warnings are errors.

Mode labels carry a sector, a chirality (propagation direction) and a
frequency-bin index:

* ``UNRUH_C`` / ``UNRUH_D`` - the two global vacuum-annihilating families an
  accelerated observer's modes decompose into; these ARE vacuum modes, and
  expectation values are taken in their joint vacuum.
* ``RINDLER_I..IV`` - wedge/region modes of the accelerated observer.  They
  do NOT annihilate the global vacuum; :func:`wick_expectation`,
  :func:`pair_contraction` and :func:`quadrature_variance` reject them,
  and :func:`rindler_to_unruh` rewrites them into the Unruh families with
  the standard thermal Bogoliubov coefficients cosh r(omega), sinh r(omega).
* ``AUX`` - ordinary inertial vacuum modes (circuit inputs, resource modes).

Quadrature convention: X(phi) = e^(-i phi) a + e^(i phi) a^dagger, so the
vacuum variance of any quadrature is 1.

Region-to-family mapping (left-movers live in regions IV and II,
right-movers in III and I):

    b_IV  = cosh r * c_left  + sinh r * d_left^dagger
    b_II  = cosh r * d_left  + sinh r * c_left^dagger
    b_III = cosh r * c_right + sinh r * d_right^dagger
    b_I   = cosh r * d_right + sinh r * c_right^dagger
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .spectral import _accelerations, unruh_cosh_sinh

__all__ = [
    "Chirality",
    "ModeLabel",
    "ModeRegister",
    "OperatorExpr",
    "OperatorRows",
    "Sector",
    "annihilator",
    "beam_splitter",
    "commutator",
    "displace",
    "pair_contraction",
    "phase_variance",
    "quadrature_covariance",
    "quadrature_variance",
    "rindler_to_unruh",
    "single_mode_squeeze",
    "two_mode_squeeze",
    "wick_expectation",
]

#: Coefficients at or below this magnitude count as zero wherever an
#: expression is read: ``coefficient``, and the support checks (on the stored
#: X and P coefficients) of the gates, the Wick engine and the region map.
PRUNE_TOL = 1e-15

#: Coefficient magnitude bound below which arithmetic results need no
#: finiteness test: sums and scalar products of such vectors cannot overflow.
_SAFE_PEAK = 1e300

#: Largest |strength| whose gate factors are finite floats: e^|r_s| for
#: the single-mode squeezer, cosh r and sinh r for the two-mode one.
_MAX_SINGLE_MODE_STRENGTH = math.log(np.finfo(float).max)
_MAX_TWO_MODE_STRENGTH = math.acosh(np.finfo(float).max)


class Sector(Enum):
    UNRUH_C = "unruh_c"
    UNRUH_D = "unruh_d"
    RINDLER_I = "rindler_i"
    RINDLER_II = "rindler_ii"
    RINDLER_III = "rindler_iii"
    RINDLER_IV = "rindler_iv"
    AUX = "aux"


class Chirality(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class ModeLabel:
    """Identity of one bosonic mode: sector, propagation direction, bin."""

    sector: Sector
    chirality: Chirality
    bin: int

    def __repr__(self) -> str:  # compact: c_L[3], b4_R[0], aux[1]
        short = {
            Sector.UNRUH_C: "c",
            Sector.UNRUH_D: "d",
            Sector.RINDLER_I: "b1",
            Sector.RINDLER_II: "b2",
            Sector.RINDLER_III: "b3",
            Sector.RINDLER_IV: "b4",
            Sector.AUX: "aux",
        }[self.sector]
        wing = {Chirality.LEFT: "L", Chirality.RIGHT: "R"}[self.chirality]
        return f"{short}_{wing}[{self.bin}]"


# -- mode registers ---------------------------------------------------------
#
# A register stores each mode as one int64 key, family << _BIN_BITS | bin
# offset, with family = 2 * sector index + chirality index.  Sorted keys give
# every register a canonical order, equal registers equal key arrays, and a
# union is a sorted merge instead of label hashing.  A grid register (each of
# its families at each of its bins) lays its vectors out as whole blocks.

_SECTORS = tuple(Sector)
_CHIRALITIES = tuple(Chirality)
_SECTOR_INDEX = {s: i for i, s in enumerate(_SECTORS)}
_CHIRALITY_INDEX = {c: i for i, c in enumerate(_CHIRALITIES)}
_BIN_BITS = 40
_BIN_OFFSET = 1 << (_BIN_BITS - 1)
_BIN_MASK = (1 << _BIN_BITS) - 1


def _family(sector: Sector, chirality: Chirality) -> int:
    return 2 * _SECTOR_INDEX[sector] + _CHIRALITY_INDEX[chirality]


def _grid_keys(families, bins) -> np.ndarray:
    """Keys of each family code at each bin, family by family (sorted when both inputs are)."""
    bins = np.asarray(bins, dtype=np.int64)
    if bins.size and (bins.min() < -_BIN_OFFSET or bins.max() >= _BIN_OFFSET):
        raise ValueError(f"mode bins must lie in [{-_BIN_OFFSET}, {_BIN_OFFSET})")
    return ((np.asarray(families, dtype=np.int64)[:, None] << _BIN_BITS) | (bins + _BIN_OFFSET)).ravel()


def _label_key(label: ModeLabel) -> int:
    b = label.bin
    if not -_BIN_OFFSET <= b < _BIN_OFFSET:
        raise ValueError(f"mode bin of {label!r} outside [{-_BIN_OFFSET}, {_BIN_OFFSET})")
    return (_family(label.sector, label.chirality) << _BIN_BITS) | (b + _BIN_OFFSET)


def _key_label(key: int) -> ModeLabel:
    family = key >> _BIN_BITS
    return ModeLabel(
        _SECTORS[family >> 1], _CHIRALITIES[family & 1], (key & _BIN_MASK) - _BIN_OFFSET
    )


class ModeRegister:
    """Immutable ordered set of modes that expression vectors are indexed by.

    ``labels`` is the tuple of :class:`ModeLabel` in register order (sorted
    by sector, chirality, bin), derived from the register's key array on
    each read.  Keys sort family-major, so each (sector, chirality) family
    is one contiguous run of slots in bin order: ``slots`` gives its
    positions from two binary searches of the keys.  A register holds its
    keys alone; ``grid`` returns one shared register per (families, bin
    count), so builds on one grid share the tables that bounded caches keep
    by register (region rewrite plans, chirality parts).  Bins must lie in
    [-2**39, 2**39).
    """

    __slots__ = ("keys",)

    def __new__(cls, labels: Iterable[ModeLabel] = ()):
        return cls._from_keys(_sorted_unique(np.fromiter((_label_key(lb) for lb in labels), dtype=np.int64)))

    @classmethod
    def _from_keys(cls, keys: np.ndarray) -> "ModeRegister":
        """Register over sorted, unique int64 keys (not checked)."""
        reg = object.__new__(cls)
        keys.flags.writeable = False
        object.__setattr__(reg, "keys", keys)
        return reg

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("ModeRegister is immutable")

    def __reduce__(self):  # pickle and copy rebuild from the keys, past the guard
        return ModeRegister._from_keys, (self.keys,)

    @classmethod
    def grid(cls, families: Sequence[tuple[Sector, Chirality]], n_bins: int) -> "ModeRegister":
        """Every (sector, chirality) family of ``families`` at bins 0..n_bins-1;
        equal calls return one shared register."""
        return _grid_register(tuple(sorted({_family(s, c) for s, c in families})), int(n_bins))

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def labels(self) -> tuple[ModeLabel, ...]:
        return tuple(_key_label(int(k)) for k in self.keys)

    def _span(self, sector: Sector, chirality: Chirality) -> slice:
        """The run of slots the (sector, chirality) modes take, in bin order."""
        family = _family(sector, chirality)
        start, stop = np.searchsorted(self.keys, (family << _BIN_BITS, (family + 1) << _BIN_BITS)).tolist()
        return slice(start, stop)

    def slots(self, sector: Sector, chirality: Chirality) -> np.ndarray:
        """Register positions of the (sector, chirality) modes, in bin order
        (empty when the register holds none)."""
        span = self._span(sector, chirality)
        return np.arange(span.start, span.stop)

    def annihilators(self) -> tuple["OperatorExpr", ...]:
        """The annihilation operator of each mode, in register order.

        Each is a dense vector over the whole register, so this suits the
        small registers of hand-built circuits.
        """
        n = len(self)
        unit = np.zeros((n, 2, n), dtype=complex)
        unit[np.arange(n), :, np.arange(n)] = (0.5, 0.5j)  # a = (X + iP)/2
        return tuple(OperatorExpr._new(self, 0j, w, 0.5) for w in unit)

    def chirality_mask(self, chirality: Chirality) -> np.ndarray:
        """Boolean mask of the register's modes with ``chirality``."""
        return ((self.keys >> _BIN_BITS) & 1) == _CHIRALITY_INDEX[chirality]

    def __repr__(self) -> str:
        return f"ModeRegister({len(self)} modes)"


@functools.lru_cache(maxsize=32)
def _grid_register(families: tuple[int, ...], n_bins: int) -> ModeRegister:
    return ModeRegister._from_keys(_grid_keys(families, np.arange(n_bins)))


@functools.lru_cache(maxsize=32)
def _chirality_parts(reg: ModeRegister) -> np.ndarray:
    """Read-only (modes, 3) float columns that pick the right-movers, the
    left-movers and every mode of ``reg``."""
    left = reg.chirality_mask(Chirality.LEFT)
    parts = np.empty((len(left), 3))
    parts[:, 0], parts[:, 1], parts[:, 2] = ~left, left, 1.0
    return _read_only(parts)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (a plain sort: ``np.unique`` hashes, which is slower here)."""
    keys = np.sort(keys)
    return keys[np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1]))]


def _merge(r1: ModeRegister, r2: ModeRegister):
    """The union of two registers, with the slots each one's modes take in it.

    Returns ``(register, slots1, slots2)``.  Equal registers are their own
    union, with both slot arrays None; otherwise the union is a new register
    over the sorted keys of both.
    """
    k1, k2 = r1.keys, r2.keys
    if len(k1) == len(k2) and np.array_equal(k1, k2):
        return r1, None, None
    keys = _sorted_unique(np.concatenate((k1, k2)))
    return ModeRegister._from_keys(keys), np.searchsorted(keys, k1), np.searchsorted(keys, k2)


def _spread(w: np.ndarray, size: int, slots: np.ndarray | None) -> np.ndarray:
    if slots is None:
        return w
    out = np.zeros((2, size), dtype=complex)
    out[:, slots] = w
    return out


#: (alpha, beta) = ((u + v)/2, i (u - v)/2) from ladder coefficients (u, v); the
#: halves are exact, so finite ones give finite sums.
_LADDER_TO_QUADRATURES = np.array([[0.5, 0.5], [0.5j, -0.5j]])


def _max_magnitude(register: ModeRegister, w: np.ndarray) -> float:
    """Largest magnitude in ``w``, of shape ``(..., len(register))``; a
    non-finite entry is a ValueError naming its mode."""
    peak = float(np.abs(w).max()) if w.size else 0.0
    if not math.isfinite(peak):
        index = tuple(np.argwhere(~np.isfinite(w))[0])
        label = _key_label(int(register.keys[index[-1]]))
        raise ValueError(f"non-finite coefficient {complex(w[index])!r} for {label!r}")
    return peak


def _finite_displacement(value) -> complex:
    d = complex(value)
    if not cmath.isfinite(d):
        raise ValueError(f"non-finite displacement {d!r}")
    return d


class OperatorExpr:
    """Affine operator: displacement + X and P coefficients on a mode register.

    ``register`` is the :class:`ModeRegister` the coefficients are indexed
    by; ``u`` (annihilator) and ``v`` (creator coefficients) are read-only
    arrays derived from them on each read.  The constructor takes the ladder
    coefficients ``u`` and ``v`` on ``register`` (scalars broadcast) and the
    displacement; a hand-built expression is otherwise a sum of
    :func:`annihilator` terms and their adjoints.  Stored coefficients at or
    below ``PRUNE_TOL`` count as zero everywhere an expression is read,
    while the vectors carry them as computed.
    Instances are immutable; every operation returns a new expression, and
    no expression holds a non-finite coefficient: coefficients from outside
    the algebra are tested, and those made by arithmetic carry a bound.
    """

    __slots__ = ("displacement", "register", "_w", "_peak")

    def __init__(self, register, u=0.0, v=0.0, displacement=0.0):
        for name, given in (("u", u), ("v", v)):
            if np.shape(given) not in ((), (len(register),)):
                raise ValueError(
                    f"{name} must be a scalar or a vector of the register's length {len(register)}, "
                    f"got shape {np.shape(given)}"
                )
        uv = np.empty((2, len(register)), dtype=complex)
        uv[0] = u
        uv[1] = v
        peak = _max_magnitude(register, uv)
        _set_slots(self, _finite_displacement(displacement), register, _LADDER_TO_QUADRATURES @ uv, peak)

    @classmethod
    def _new(cls, register: ModeRegister, d, w: np.ndarray, bound: float) -> "OperatorExpr":
        """Expression over a ``(2, len(register))`` array ``w``, owned by the
        expression and never written again.

        ``bound`` is an upper bound on the magnitudes of ``w`` known from how
        it was computed (each expression keeps its own as ``_peak``).  Up to
        ``_SAFE_PEAK`` it proves them finite without a pass over the vectors;
        past it (``math.inf`` when nothing is known) they are tested and the
        bound replaced by their maximum.  The displacement is always tested.
        """
        if not bound <= _SAFE_PEAK:
            bound = _max_magnitude(register, w)
        expr = object.__new__(cls)
        _set_slots(expr, _finite_displacement(d), register, w, bound)
        return expr

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("OperatorExpr is immutable")

    def __reduce__(self):  # pickle and copy rebuild from the stored state, past the guard
        return OperatorExpr._new, (self.register, self.displacement, self._w, self._peak)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, OperatorExpr):
            reg, w1, w2 = _align(self, other)
            bound = self._peak + other._peak
            w = w1 + w2 if bound <= _SAFE_PEAK else _quiet(np.add, w1, w2)
            return OperatorExpr._new(reg, self.displacement + other.displacement, w, bound)
        return OperatorExpr._new(self.register, self.displacement + complex(other), self._w, self._peak)

    __radd__ = __add__

    def __sub__(self, other):
        # x - y is x + (-y) in IEEE arithmetic, signed zeros included.
        return self + (-other if isinstance(other, OperatorExpr) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, scalar):
        if isinstance(scalar, OperatorExpr):
            raise TypeError(
                "operator products are not expressions; pass a sequence to wick_expectation"
            )
        s = complex(scalar)
        bound = self._peak * abs(s)
        w = self._w * s if bound <= _SAFE_PEAK else _quiet(np.multiply, self._w, s)
        return OperatorExpr._new(self.register, self.displacement * s, w, bound)

    __rmul__ = __mul__

    def __neg__(self):
        return OperatorExpr._new(self.register, -self.displacement, -self._w, self._peak)

    def dagger(self) -> "OperatorExpr":
        """Hermitian adjoint: X and P are Hermitian, so conjugate every coefficient."""
        return OperatorExpr._new(self.register, self.displacement.conjugate(), self._w.conj(), self._peak)

    def centered(self) -> "OperatorExpr":
        """The fluctuation part: same coefficients, zero displacement."""
        return OperatorExpr._new(self.register, 0j, self._w, self._peak)

    # -- inspection -------------------------------------------------------

    @property
    def u(self) -> np.ndarray:
        """Annihilator coefficients alpha - i beta."""
        return _read_only(self._w[0] - 1j * self._w[1])

    @property
    def v(self) -> np.ndarray:
        """Creator coefficients alpha + i beta."""
        return _read_only(self._w[0] + 1j * self._w[1])

    def coefficient(self, label: ModeLabel, dagger: bool = False) -> complex:
        """The annihilator (or, with ``dagger``, creator) coefficient of ``label``."""
        key = _label_key(label)
        pos = int(np.searchsorted(self.register.keys, key))
        if pos < len(self.register) and self.register.keys[pos] == key:
            alpha, beta = self._w[:, pos]
            c = complex(alpha + (1j if dagger else -1j) * beta)
            if abs(c) > PRUNE_TOL:
                return c
        return 0.0

    def __repr__(self) -> str:
        parts = [f"{self.displacement:.6g}"] if self.displacement != 0 else []
        labels, u, v = self.register.labels, self.u, self.v
        for slot in np.flatnonzero(_support(self._w)):
            for c, mark in ((u[slot], ""), (v[slot], "†")):
                if abs(c) > PRUNE_TOL:
                    parts.append(f"({c:.6g})·{labels[slot]!r}{mark}")
        return "OperatorExpr(" + (" + ".join(parts) if parts else "0") + ")"


def _set_slots(expr: OperatorExpr, d, register, w, peak) -> None:
    object.__setattr__(expr, "displacement", d)
    object.__setattr__(expr, "register", register)
    object.__setattr__(expr, "_w", w)
    object.__setattr__(expr, "_peak", peak)


def _quiet(ufunc, *args, **kwargs) -> np.ndarray:
    """``ufunc(*args, **kwargs)`` with overflow warnings off.  Arithmetic runs
    through it when its result's bound passes ``_SAFE_PEAK``, the only case in
    which it can overflow: :meth:`OperatorExpr._new` then tests the result
    and names a non-finite coefficient's mode."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ufunc(*args, **kwargs)


def _support(w: np.ndarray) -> np.ndarray:
    """Boolean mask of the register slots with a coefficient above ``PRUNE_TOL``."""
    return (np.abs(w) > PRUNE_TOL).any(axis=0)


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _align(e1: OperatorExpr, e2: OperatorExpr) -> tuple[ModeRegister, np.ndarray, np.ndarray]:
    """Both expressions' coefficient arrays on one shared register."""
    reg = e1.register
    if reg is e2.register:
        return reg, e1._w, e2._w
    reg, s1, s2 = _merge(reg, e2.register)
    return reg, _spread(e1._w, len(reg.keys), s1), _spread(e2._w, len(reg.keys), s2)


# -- constructors ---------------------------------------------------------


def annihilator(label: ModeLabel) -> OperatorExpr:
    """Annihilation operator of the mode ``label``, on a register of that mode alone."""
    return OperatorExpr(ModeRegister([label]), 1.0)


# -- canonical bilinears --------------------------------------------------


def commutator(e1: OperatorExpr, e2: OperatorExpr) -> complex:
    """[E1, E2] as a c-number (exact for affine expressions):
    2i (alpha1.beta2 - beta1.alpha2), from [X_m, P_m] = 2i."""
    _, w1, w2 = _align(e1, e2)
    return complex(2j * (w1[0] @ w2[1] - w1[1] @ w2[0]))


def pair_contraction(e1: OperatorExpr, e2: OperatorExpr) -> complex:
    """Connected vacuum pairing <F1 F2> of the fluctuation parts.

    With <X X> = <P P> = 1 and <X P> = -<P X> = i in the vacuum this is
    alpha1.alpha2 + beta1.beta2 + i (alpha1.beta2 - beta1.alpha2).
    Displacements are ignored, and Rindler-sector labels are rejected as in
    :func:`wick_expectation`.
    """
    _reject_non_vacuum((e1,) if e1 is e2 else (e1, e2))  # a variance pairs X with itself
    return _pairing(e1, e2)


def _pairing(e1: OperatorExpr, e2: OperatorExpr) -> complex:
    """<F1 F2> of two expressions, on their aligned coefficient arrays (no
    region check: the caller makes it)."""
    _, w1, w2 = _align(e1, e2)
    (aa, ab), (ba, bb) = (w1 @ w2.T).tolist()
    return aa + bb + 1j * (ab - ba)


def _reject_non_vacuum(product: Iterable[OperatorExpr]) -> None:
    for expr in product:
        _reject_regions(expr.register, expr._w)


def _reject_regions(register: ModeRegister, w: np.ndarray) -> None:
    """ValueError naming the region sectors of ``register`` whose coefficients
    in ``w`` (its rows over the register) lie above ``PRUNE_TOL``."""
    shift = _BIN_BITS + 1  # a key's sector index
    keys = register.keys
    # Keys sort by sector, so when no region sector lies between the first
    # and last key's the register holds no region mode: no support pass.
    if not len(keys):
        return
    spanned = _IS_RINDLER[int(keys[0]) >> shift : (int(keys[-1]) >> shift) + 1]
    if True not in spanned.tolist():
        return
    sectors = keys[_support(w) & _IS_RINDLER[keys >> shift]] >> shift
    if not len(sectors):
        return
    names = ", ".join(sorted({_SECTORS[i].value for i in sectors}))
    raise ValueError(
        f"expectation over non-vacuum sectors [{names}]: rewrite with "
        "rindler_to_unruh before taking vacuum expectation values"
    )


def wick_expectation(product: Sequence[OperatorExpr]) -> complex:
    """Vacuum expectation of an ordered product of 1, 2 or 4 expressions.

    Displacements are kept (the state is the displaced Gaussian vacuum the
    expressions encode), and the Gaussian moment expansion is exact:
    scalars times even-order pairings, odd fluctuation moments vanishing.
    Rindler-sector labels are rejected - they do not annihilate the vacuum.
    """
    exprs = list(product)
    if len(exprs) not in (1, 2, 4):
        raise ValueError(f"wick_expectation supports products of length 1, 2 or 4, got {len(exprs)}")
    _reject_non_vacuum(exprs)
    d = [e.displacement for e in exprs]
    if len(exprs) == 1:
        return d[0]
    if len(exprs) == 2:
        return d[0] * d[1] + _pairing(exprs[0], exprs[1])
    e1, e2, e3, e4 = exprs
    p12, p13, p14 = (_pairing(e1, x) for x in (e2, e3, e4))
    p23, p24 = (_pairing(e2, x) for x in (e3, e4))
    p34 = _pairing(e3, e4)
    return (
        d[0] * d[1] * d[2] * d[3]
        + d[0] * d[1] * p34
        + d[0] * d[2] * p24
        + d[0] * d[3] * p23
        + d[1] * d[2] * p14
        + d[1] * d[3] * p13
        + d[2] * d[3] * p12
        + p12 * p34
        + p13 * p24
        + p14 * p23
    )


def quadrature_covariance(expr: OperatorExpr) -> tuple[float, float, float]:
    """Vacuum covariance (<X^2>, <Y^2>, <XY + YX>/2) of X = X(0) and Y = X(pi/2):
    with real X and P coefficients x = 2 Re and y = 2 Im of E's rows, it is
    (x.x, y.y, x.y), read in one pass.  A Rindler-sector label in X or Y is a
    :class:`ValueError`, as in :func:`wick_expectation`."""
    w = expr._w
    if 2.0 * expr._peak <= _SAFE_PEAK:
        x, y = 2.0 * w.real, 2.0 * w.imag
    else:  # computed quietly and tested, as arithmetic past the bound is
        x, y = xy = _quiet(np.multiply, (w.real, w.imag), 2.0)
        _max_magnitude(expr.register, xy)
    _reject_regions(expr.register, w)
    return float(np.vdot(x, x)), float(np.vdot(y, y)), float(np.vdot(x, y))


def phase_variance(cov, c, s):
    """c^2 <X^2> + s^2 <Y^2> + 2 c s <XY + YX>/2: the variance at the phase with
    (cos, sin) = (c, s), two floats, of a covariance ``cov`` held as three floats
    or three same-shaped arrays.  Every route reads its phases here.  A term
    whose weight is exactly 0 adds nothing, even against an infinite moment."""
    terms = [m * w for m, w in zip(cov, (c * c, s * s, 2.0 * c * s)) if w]
    return sum(terms[1:], terms[0])


def quadrature_variance(expr: OperatorExpr, phi: float = 0.0) -> float:
    """Variance of X(phi) = e^(-i phi) E + e^(i phi) E^dagger in the vacuum, the
    covariance read at (cos phi, sin phi); a NaN or infinite ``phi`` is a ValueError."""
    if not math.isfinite(phi):
        raise ValueError(f"LO phase phi must be finite, got {phi}")
    return phase_variance(quadrature_covariance(expr), math.cos(phi), math.sin(phi))


# -- Gaussian circuit elements -------------------------------------------


def displace(expr: OperatorExpr, alpha: complex) -> OperatorExpr:
    """Displacement: E -> E + alpha (the mode acquires amplitude alpha)."""
    return expr + complex(alpha)


def two_mode_squeeze(
    a1: OperatorExpr, a2: OperatorExpr, r: float
) -> tuple[OperatorExpr, OperatorExpr]:
    """Two-mode squeezer: a1 -> ch a1 + sh a2^dagger, and symmetrically.

    ``r`` is the squeezing strength (our amplifier/EPR convention is the
    real + sign).  The two inputs must not share any mode label - squeezing
    a wire against itself is not a two-mode operation.  A strength whose
    cosh r passes the float range is a ValueError naming it.
    """
    if not abs(r) <= _MAX_TWO_MODE_STRENGTH:
        raise ValueError(f"squeezing strength must have |r| <= {_MAX_TWO_MODE_STRENGTH:.6g}, got {r}")
    reg, w1, w2 = _align(a1, a2)
    shared = reg.keys[_support(w1) & _support(w2)]  # both above PRUNE_TOL
    if len(shared):
        labels = sorted(repr(_key_label(int(k))) for k in shared)
        raise ValueError(f"two_mode_squeeze inputs share mode labels: {labels}")
    ch = math.cosh(r)
    sh = math.sinh(r)
    out1 = ch * a1 + sh * a2.dagger()
    out2 = ch * a2 + sh * a1.dagger()
    return out1, out2


def single_mode_squeeze(a: OperatorExpr, r_s: float) -> OperatorExpr:
    """Single-mode squeezer: a -> ch a + sh a^dagger (X(0) stretched by e^r_s),
    exactly: real parts times e^r_s and imaginary parts times e^(-r_s).  A
    strength whose e^|r_s| passes the float range is a ValueError naming it."""
    if not abs(r_s) <= _MAX_SINGLE_MODE_STRENGTH:
        raise ValueError(f"squeezing strength must have |r_s| <= {_MAX_SINGLE_MODE_STRENGTH:.6g}, got {r_s}")
    stretch, squeeze = math.exp(r_s), math.exp(-r_s)
    bound = a._peak * max(stretch, squeeze)
    multiply = np.multiply if bound <= _SAFE_PEAK else functools.partial(_quiet, np.multiply)
    w = np.empty_like(a._w)
    multiply(a._w.real, stretch, out=w.real)
    multiply(a._w.imag, squeeze, out=w.imag)
    d = complex(a.displacement.real * stretch, a.displacement.imag * squeeze)
    return OperatorExpr._new(a.register, d, w, bound)


def beam_splitter(
    a1: OperatorExpr, a2: OperatorExpr, eta: float
) -> tuple[OperatorExpr, OperatorExpr]:
    """Beam splitter of transmissivity eta:

        a1 -> sqrt(eta) a1 - sqrt(1-eta) a2
        a2 -> sqrt(1-eta) a1 + sqrt(eta) a2
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    t = math.sqrt(eta)
    s = math.sqrt(1.0 - eta)
    return t * a1 - s * a2, s * a1 + t * a2


# -- region -> vacuum-family rewriting -------------------------------------


def _rule_table(pick) -> np.ndarray:
    table = np.full(len(_SECTORS), -1, dtype=np.int64)
    for region, rule in _REGION_RULES.items():
        table[_SECTOR_INDEX[region]] = pick(rule)
    return table


_REGION_RULES: dict[Sector, tuple[Chirality, Sector, Sector]] = {
    # region: (required chirality, family of the direct term, family of the dagger term)
    Sector.RINDLER_IV: (Chirality.LEFT, Sector.UNRUH_C, Sector.UNRUH_D),
    Sector.RINDLER_II: (Chirality.LEFT, Sector.UNRUH_D, Sector.UNRUH_C),
    Sector.RINDLER_III: (Chirality.RIGHT, Sector.UNRUH_C, Sector.UNRUH_D),
    Sector.RINDLER_I: (Chirality.RIGHT, Sector.UNRUH_D, Sector.UNRUH_C),
}
# The rules as arrays over sector index (-1 outside the four regions), so
# the sectors with a rule are the regions.
_REQUIRED_CHIRALITY = _rule_table(lambda rule: _CHIRALITY_INDEX[rule[0]])
_IS_RINDLER = _REQUIRED_CHIRALITY >= 0
_DIRECT_SECTOR = _rule_table(lambda rule: _SECTOR_INDEX[rule[1]])
_PARTNER_SECTOR = _rule_table(lambda rule: _SECTOR_INDEX[rule[2]])


@dataclass(frozen=True, eq=False)
class OperatorRows:
    """Expressions alike but for their coefficients, one per row.

    :func:`rindler_to_unruh` forms one per expression: ``rows`` is a
    read-only ``(A, 2, n)`` array of finite X and P coefficient rows on
    ``register``, one per acceleration, each row with ``displacement``.
    Indexing by an integer (not a bool) gives a row as an
    :class:`OperatorExpr` over a view of ``rows``, bounded by that row's
    largest magnitude; any other index is a :class:`TypeError`.
    """

    register: ModeRegister
    displacement: complex
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> OperatorExpr:
        if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)):
            raise TypeError(f"operator row index must be an integer, got {k!r}")
        return OperatorExpr._new(self.register, self.displacement, self.rows[k], math.inf)


def rindler_to_unruh(expr: OperatorExpr | Sequence[OperatorExpr], a, grid: np.ndarray):
    """Rewrite region-mode labels into the vacuum-annihilating families.

    ``grid`` maps bin indices to frequencies; each region annihilator of
    frequency omega becomes ch(omega) * (family op) + sh(omega) * (partner
    family op)^dagger per the table in the module docstring, with
    (ch, sh) = (cosh, sinh) of the acceleration squeezing parameter at
    acceleration ``a``.  Non-region labels keep their coefficients (a -0.0
    may come back as +0.0).  Every result is on a new register: the image
    families at each bin the input register holds, zero where nothing maps.

    ``expr`` is one :class:`OperatorExpr`, or a sequence of expressions on
    one register, rewritten together into a tuple on one register of
    images; expressions on different registers are a :class:`ValueError`.
    ``a`` is a scalar, or a 1-D array of accelerations: then each result is
    an :class:`OperatorRows` with one row per acceleration (none for an
    empty array).  Each result, and each row, is bit for bit what rewriting
    its expression alone at its acceleration gives.  An acceleration that is
    not finite and positive is a :class:`ValueError` that names ``a``.

    What depends only on the register and the grid length is a plan, one of
    the last 32 kept: its block closure (each of its families at each of its
    bins), the chirality and bin-range tables, the result register and each
    result block's terms.  A call evaluates (ch, sh) once on the
    (acceleration, grid) array, reads each expression's family blocks as
    views, and writes each result block as a sum of products (ch or sh times
    a region block, 1 times a passing one): the first writes it, the others
    add in place, so each result is one array, tested once for finiteness.
    Chirality and bin range are checked on every call, for every region
    label carrying a non-zero coefficient in any of the expressions.
    """
    accel = _accelerations(a)
    if accel.ndim > 1:
        raise ValueError(f"acceleration a must be a scalar or a 1-D array, got shape {accel.shape}")
    exprs = (expr,) if isinstance(expr, OperatorExpr) else tuple(expr)
    rewritten = _rewrite_regions(exprs, np.atleast_1d(accel), grid)
    if accel.ndim == 0:
        rewritten = tuple(e[0] for e in rewritten)
    return rewritten[0] if isinstance(expr, OperatorExpr) else rewritten


@dataclass(frozen=True, eq=False)
class _RewritePlan:
    """What a region rewrite needs from its register and grid length alone.

    On the register's block closure (each of its families at each of its
    bins, keys ``closure``, ``slots`` the input's positions in it or None
    when the register is whole) the coefficients are (X or P, family, bin)
    blocks of ``shape``.  ``wrong`` flags the (family, bin) blocks of a
    region family with the wrong chirality, ``off_grid`` those of a region
    family at a bin off the grid, and ``checked`` whether either flags any.
    ``on_grid`` picks the bins on the grid, and ``grid_bins`` their grid
    indices.  The result lives on ``register``; output block o is the sum of
    ``terms[o]``, each (input family, factor) with factor 0 for a family
    that passes as it is (times 1), 1 for a direct image (times ch) and 2
    for a partner image (times sh).
    """

    closure: np.ndarray
    slots: np.ndarray | None
    shape: tuple[int, int]
    wrong: np.ndarray
    off_grid: np.ndarray
    checked: bool
    on_grid: slice | np.ndarray
    grid_bins: np.ndarray
    register: ModeRegister
    terms: tuple[tuple[tuple[int, int], ...], ...]


@functools.lru_cache(maxsize=32)
def _rewrite_plan(reg: ModeRegister, n_grid: int) -> _RewritePlan:
    """The plan of a rewrite on ``reg`` over a grid of ``n_grid`` bins."""
    keys = reg.keys
    families = _sorted_unique(keys >> _BIN_BITS)
    bins = _sorted_unique((keys & _BIN_MASK) - _BIN_OFFSET)
    closure = _grid_keys(families, bins)
    sector, chirality = families >> 1, families & 1
    region = _IS_RINDLER[sector]
    wrong = region & (chirality != _REQUIRED_CHIRALITY[sector])
    mapped = np.flatnonzero(region & ~wrong)
    outside = (bins < 0) | (bins >= n_grid)
    passing = np.flatnonzero(~region)
    direct = 2 * _DIRECT_SECTOR[sector[mapped]] + chirality[mapped]
    partner = 2 * _PARTNER_SECTOR[sector[mapped]] + chirality[mapped]
    images = (families[passing], direct, partner)
    out_families = _sorted_unique(np.concatenate(images))
    # Every output block takes one to three terms: at most one passing, one
    # direct and one partner, summed in that order.
    terms = [[] for _ in out_families]
    for factor, (sources, image) in enumerate(zip((passing, mapped, mapped), images)):
        for i, o in zip(sources.tolist(), np.searchsorted(out_families, image).tolist()):
            terms[o].append((i, factor))
    return _RewritePlan(
        closure=closure,
        slots=None if len(closure) == len(keys) else np.searchsorted(closure, keys),
        shape=(len(families), len(bins)),
        wrong=wrong[:, None],
        off_grid=region[:, None] & outside,
        checked=bool(wrong.any() or (region.any() and outside.any())),
        on_grid=np.s_[:] if not outside.any() else ~outside,
        grid_bins=bins[~outside],
        register=ModeRegister._from_keys(_grid_keys(out_families, bins)),
        terms=tuple(map(tuple, terms)),
    )


def _rewrite_regions(
    exprs: tuple[OperatorExpr, ...], accel: np.ndarray, grid: np.ndarray
) -> tuple[OperatorRows, ...]:
    """The rewrite at the 1-D ``accel``: one :class:`OperatorRows` per
    expression, whether or not the register holds region modes.  Each
    result array is tested once, so an overflowing coefficient is a
    :class:`ValueError` that names its mode."""
    freqs = np.asarray(grid, dtype=float)
    if freqs.ndim != 1 or len(freqs) == 0:
        raise ValueError("grid must be a non-empty 1-D array of bin frequencies")
    if not exprs:
        return ()
    reg = exprs[0].register
    for k, e in enumerate(exprs):
        if e.register is not reg and not np.array_equal(e.register.keys, reg.keys):
            raise ValueError(
                f"rindler_to_unruh rewrites expressions on one register; expression {k} "
                f"is on {e.register!r}, expression 0 on {reg!r}"
            )
    plan = _rewrite_plan(reg, len(freqs))
    n_families, n_bins = plan.shape
    # Each expression's (X or P, family, bin) blocks, as a view of its rows.
    blocks = [_spread(e._w, n_families * n_bins, plan.slots).reshape(2, n_families, n_bins) for e in exprs]
    if plan.checked:
        support = np.logical_or.reduce([_support(x) for x in blocks])  # in any expression
        hit = np.flatnonzero(plan.wrong & support)
        if len(hit):
            label = _key_label(int(plan.closure[hit[0]]))
            required = _REGION_RULES[label.sector][0]
            raise ValueError(
                f"label {label!r} has chirality {label.chirality.value} but region "
                f"{label.sector.value} holds {required.value}-movers; no mapping exists"
            )
        hit = np.flatnonzero(plan.off_grid & support)  # no wrong family is supported
        if len(hit):
            label = _key_label(int(plan.closure[hit[0]]))
            raise ValueError(f"label {label!r} has no grid coefficient (grid holds {len(freqs)} bins)")

    # (direct or partner, acceleration, X or P, bin) weights, zero off the
    # grid: the image of X_b is ch X_direct + sh X_partner, that of P_b is
    # ch P_direct - sh P_partner.  Complex, as complex-by-complex products are fast.
    weights = np.zeros((2, len(accel), 2, n_bins), dtype=complex)
    ch, sh = (x[:, None, plan.grid_bins] for x in unruh_cosh_sinh(freqs, accel[:, None]))
    weights[0][..., plan.on_grid] = ch
    weights[1][..., plan.on_grid] = sh * np.array([[1.0], [-1.0]])
    factors = (1.0, weights[0], weights[1])  # by a term's factor index
    product = np.empty((len(accel), 2, n_bins), dtype=complex)
    results = []
    # Overflowing products are left to the finiteness test, which names the mode.
    with np.errstate(over="ignore", invalid="ignore"):
        for e, x in zip(exprs, blocks):
            out = np.empty((len(accel), 2, len(plan.terms), n_bins), dtype=complex)
            for o, terms in enumerate(plan.terms):
                # The first term writes the block, the others are added in place.
                (i, factor), *rest = terms
                block = np.multiply(x[:, i], factors[factor], out=out[:, :, o])
                for i, factor in rest:
                    block += np.multiply(x[:, i], factors[factor], out=product)
            out = _read_only(out.reshape(len(accel), 2, len(plan.register)))
            if not np.isfinite(out).all():
                _max_magnitude(plan.register, out)
            results.append(OperatorRows(plan.register, e.displacement, out))
    return tuple(results)
