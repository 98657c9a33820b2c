"""Acceleration squeezing spectrum, wavepacket grids and spectral integrals."""

import dataclasses
import math
import re
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_teleport import (
    SpectralConvergenceError,
    displaced_variance,
    make_wavepacket,
    spectral,
    spectral_integrals,
    squeeze_param,
    squeezed_variance,
    unruh_cosh_sinh,
)

# acceleration for which the squeezing at omega = 1 is arctanh(1/2)
A_HALF_TANH = math.pi / math.log(2.0)


class TestSqueezeParam:
    def test_frozen_values(self):
        assert squeeze_param(1.0, 1.0) == pytest.approx(0.04324084828357018, rel=1e-14)
        # far tail: arctanh(x) = x to double precision
        assert squeeze_param(10.0, 1.0) == pytest.approx(math.exp(-10 * math.pi), rel=1e-13)
        assert squeeze_param(1.0, A_HALF_TANH) == pytest.approx(math.atanh(0.5), rel=1e-14)

    def test_branch_continuity(self):
        # the two evaluation branches meet at pi*omega/a = ln 2
        x0 = math.log(2.0)
        for eps in (1e-9, 1e-12):
            lo = squeeze_param(1.0, math.pi / (x0 + eps))
            hi = squeeze_param(1.0, math.pi / (x0 - eps))
            assert lo == pytest.approx(hi, rel=1e-7)

    def test_small_frequency_branch(self):
        # x = 0.01: r = -0.5 ln tanh(0.005)
        r = squeeze_param(0.01, math.pi)
        assert r == pytest.approx(-0.5 * math.log(math.tanh(0.005)), rel=1e-14)

    @given(st.floats(0.05, 50.0), st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_acceleration(self, a, omega):
        assert squeeze_param(omega, a * 1.01) > squeeze_param(omega, a)

    def test_vectorized(self):
        omegas = np.array([0.5, 1.0, 2.0])
        rs = squeeze_param(omegas, 1.0)
        assert rs.shape == (3,)
        assert np.all(np.diff(rs) < 0)


class TestUnruhFactors:
    def test_frozen_pair(self):
        ch, sh = unruh_cosh_sinh(1.0, A_HALF_TANH)
        assert ch == pytest.approx(1.1547005383792515, rel=1e-14)
        assert sh == pytest.approx(0.5773502691896258, rel=1e-14)

    @given(st.floats(0.05, 50.0), st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_hyperbolic_identity(self, a, omega):
        ch, sh = unruh_cosh_sinh(omega, a)
        assert ch * ch - sh * sh == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, 50.0), st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_difference_stable_form(self, a, omega):
        # i_cs integrates (cosh r - sinh r)^2 as tanh(x/2); the pair agrees with it
        # wherever the naive difference is well conditioned
        ch, sh = unruh_cosh_sinh(omega, a)
        x = math.pi * omega / a
        if ch < 1e3:
            assert ch - sh == pytest.approx(math.sqrt(math.tanh(0.5 * x)), rel=1e-9)


def _panel_quadrature(wp):
    """(nodes, weights) of 16-node Gauss-Legendre rules on ``wp.panel_edges``."""
    xg, wg = leggauss(16)
    edges = np.asarray(wp.panel_edges)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo) + half * xg).ravel(), (half * wg).ravel()


class TestWavepacket:
    def test_basic_fields(self):
        wp = make_wavepacket(1.0, 0.05)
        assert wp.omega0 == 1.0
        assert wp.sigma == 0.05
        assert not wp.clipped
        assert wp.panel_edges[0] == wp.window[0] and wp.panel_edges[-1] == wp.window[1]
        nodes, weights = _panel_quadrature(wp)
        assert nodes.size == weights.size
        assert np.all(np.diff(nodes) > 0)

    def test_normalization(self):
        wp = make_wavepacket(1.0, 0.05)
        nodes, weights = _panel_quadrature(wp)
        mass = float(weights @ wp.amplitude(nodes) ** 2)
        assert mass == pytest.approx(1.0, rel=1e-10)

    def test_truncation_flag_near_origin(self):
        wp = make_wavepacket(0.1, 0.08)
        assert wp.clipped
        assert wp.truncated_mass == pytest.approx(0.10564977366708361, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_wavepacket(-1.0, 0.05)
        with pytest.raises(ValueError):
            make_wavepacket(1.0, 0.0)

    @pytest.mark.parametrize(
        "omega0, sigma, name",
        [(math.nan, 0.05, "omega0"), (math.inf, 0.05, "omega0"),
         (1.0, math.nan, "sigma"), (1.0, math.inf, "sigma")],
    )
    def test_non_finite_rejected_by_name(self, omega0, sigma, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_wavepacket(omega0, sigma)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "omega0, sigma",
        [
            (1.0, 1e155),  # sigma**2 past the float range
            (1e308, 1e306),  # fig5 --omega0 1e308: (8 sigma)^2 past it
            (1.0, 1e-150),  # panels narrower than one ulp of omega0
            (1.0, 1e-320),  # 2 sigma^2 underflows
            (1e-300, 1e-302),  # sigma^2 underflows at a tiny carrier
            (1e-150, 1e153),  # the clipped window's infrared ladder spans past it
            (1e-320, 1.0),  # the infrared cutoff underflows
        ],
    )
    def test_packet_floats_cannot_hold_rejected_by_name(self, omega0, sigma):
        named = re.escape(f"floats cannot hold the wavepacket at omega0={omega0}, sigma={sigma}")
        with pytest.raises(ValueError, match=f"^{named}: "):
            make_wavepacket(omega0, sigma)

    @pytest.mark.filterwarnings("error")
    def test_wide_packet_within_the_float_range_builds(self):
        wp = make_wavepacket(1.0, 1e150)
        assert wp.clipped and 0.0 < wp.norm_const < math.inf


class TestSpectralIntegrals:
    def test_frozen_values(self):
        ints = spectral_integrals(make_wavepacket(1.0, 0.01), 1.0)
        assert ints.i_cs == pytest.approx(0.917116387711201, rel=1e-10)
        assert ints.i_c - ints.i_s == pytest.approx(1.0, abs=1e-10)

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(spectral.SpectralIntegrals)]
        assert names == ["i_c", "i_s", "i_cs", "a", "level", "last_change"]

    def test_narrowband_limit(self):
        # sigma -> 0: i_cs -> tanh(pi omega0 / (2 a)) at the carrier
        ints = spectral_integrals(make_wavepacket(1.0, 0.01), 1.0)
        assert ints.i_cs == pytest.approx(math.tanh(math.pi / 2), abs=1e-4)
        ints2 = spectral_integrals(make_wavepacket(1.0, 0.002), 1.0)
        assert ints2.i_cs == pytest.approx(math.tanh(math.pi / 2), abs=5e-6)

    @given(
        st.floats(0.05, 50.0),
        st.floats(0.3, 3.0),
        st.floats(0.005, 0.1),
    )
    @settings(max_examples=25, deadline=None)
    def test_unit_norm_identity(self, a, omega0, rel_sigma):
        ints = spectral_integrals(make_wavepacket(omega0, rel_sigma * omega0), a)
        assert ints.i_c - ints.i_s == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.usefixtures("spectra_never_settle")
    def test_nonconvergence_raises(self):
        wp = make_wavepacket(1.0, 0.05)
        with pytest.raises(SpectralConvergenceError):
            spectral_integrals(wp, 1.0)

    def test_invalid_acceleration(self):
        wp = make_wavepacket(1.0, 0.05)
        with pytest.raises(ValueError):
            spectral_integrals(wp, -1.0)

    def test_broken_identity_is_named_or_nan(self, monkeypatch):
        # Rows that settle yet break i_c - i_s = 1 past rounding: a scalar
        # call names the identity, and an array call reads NaN on those rows.
        honest = spectral._integrals_on_edges

        def shifted(*args):
            values = honest(*args)
            values[:, 0] += 1e-6
            return values

        monkeypatch.setattr(spectral, "_integrals_on_edges", shifted)
        wp = make_wavepacket(1.0, 0.05)
        with pytest.raises(SpectralConvergenceError, match="normalization identity violated"):
            spectral_integrals(wp, 1.0)
        ints = spectral_integrals(wp, np.array([0.5, 1.0]))
        for field in ("i_c", "i_s", "i_cs"):
            assert np.all(np.isnan(getattr(ints, field)))
        assert np.all(ints.last_change <= spectral._SETTLE_REL_TOL)


def _quad_thermal_parts(omega0: float, sigma: float, a: float) -> tuple[float, float, float]:
    """(i_c, i_s, i_cs) by adaptive quadrature over the wavepacket's window.

    Integrates in log-frequency, where the 1/omega infrared tail of a
    clipped window is flat, independently of the package's panels.
    """
    from scipy.integrate import quad

    lo = max(1e-12 * omega0, omega0 - 8.0 * sigma)
    hi = omega0 + 8.0 * sigma

    def integral(f):
        def integrand(t):
            w = math.exp(t)
            return w * math.exp(-((w - omega0) ** 2) / (2.0 * sigma**2)) * f(math.pi * w / a)

        return quad(integrand, math.log(lo), math.log(hi), points=[math.log(omega0)],
                    limit=500, epsabs=0.0, epsrel=1e-13)[0]

    norm = integral(lambda x: 1.0)
    i_c = integral(lambda x: 1.0 / -math.expm1(-2.0 * x)) / norm
    i_s = integral(lambda x: math.exp(-2.0 * x) / -math.expm1(-2.0 * x)) / norm
    i_cs = integral(lambda x: math.tanh(0.5 * x)) / norm
    return i_c, i_s, i_cs


class TestClippedWavepackets:
    """Packets wider than omega0/8 reach the infrared cutoff; the geometric
    ladder of panels below the bulk must resolve their 1/omega tail."""

    @pytest.mark.parametrize(
        "omega0, sigma, a", [(1.3, 0.4, 1.0), (1.0, 0.5, 1.0), (2.0, 0.5, 0.3), (0.8, 0.2, 5.0)]
    )
    def test_displaced_variance_matches_quadrature(self, omega0, sigma, a):
        wp = make_wavepacket(omega0, sigma)
        assert wp.window[0] > omega0 - 8.0 * sigma  # clipped
        i_c, i_s, i_cs = _quad_thermal_parts(omega0, sigma, a)
        rep = displaced_variance(a, wp)
        thermal = 2.0 * i_cs * (i_c + i_s)
        assert rep.thermal_noise == pytest.approx(thermal, rel=1e-12)
        assert rep.total == pytest.approx(thermal + 1.0, rel=1e-12)


def _mp_displaced_variance(omega0: float, sigma: float, a: float) -> float:
    """2 i_cs (i_c + i_s) + 1 by 40-digit quadrature over the wavepacket's window,
    with i_c + i_s = <coth x> and i_cs = <tanh(x/2)> at x = pi omega / a."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lo, hi = make_wavepacket(omega0, sigma).window
        w0, s, a = mpmath.mpf(omega0), mpmath.mpf(sigma), mpmath.mpf(a)

        def integral(f):
            return mpmath.quad(
                lambda w: mpmath.exp(-((w - w0) ** 2) / (2 * s**2)) * f(mpmath.pi * w / a),
                [mpmath.mpf(lo), w0, mpmath.mpf(hi)],
            )

        norm = integral(lambda x: 1)
        return float(2 * integral(lambda x: mpmath.tanh(x / 2)) * integral(mpmath.coth) / norm**2 + 1)


class TestLargeAccelerations:
    """At a >> omega0, i_c and i_s grow like a / (pi omega0) and their
    difference carries rounding of that size: the identity check must not
    take it for a broken normalization."""

    @pytest.mark.parametrize("sigma", [0.01, 0.05])
    @pytest.mark.parametrize("a", [1e6, 1e8, 3e8])
    def test_closed_form_matches_high_precision_quadrature(self, a, sigma):
        total = displaced_variance(a, make_wavepacket(1.0, sigma)).total
        assert total == pytest.approx(_mp_displaced_variance(1.0, sigma, a), rel=1e-14, abs=0.0)


class TestPastTheFloatRangeOfPiOmegaOverA:
    """Where pi omega/a is so small that cosh^2 r = 1/(1 - e^(-2 pi omega/a))
    and i_c pass the largest float, a scalar call says so and an array row
    reads inf; neither warns, and every row inside the range keeps its bits."""

    WP = (1e-8, 5e-10)

    def test_scalar_names_the_float_range(self):
        with pytest.raises(OverflowError, match=r"pi\*omega/a left the float range .*a=1e\+308"):
            spectral_integrals(make_wavepacket(*self.WP), 1e308)

    def test_array_rows_read_inf_and_the_rest_keep_their_bits(self):
        wp = make_wavepacket(*self.WP)
        a = np.array([1e-9, 1e290, 1e300, 1e306, 1e308])
        ints = spectral_integrals(wp, a)
        for field in ("i_c", "i_s", "i_cs"):
            assert np.all(np.isinf(getattr(ints, field)[3:]))
        assert np.all(ints.level[3:] == 1)
        for k in range(3):
            assert _bits(ints, k) == _bits(spectral_integrals(wp, float(a[k])))
            assert _bits(ints, k) == _bits(spectral_integrals(wp, a[:3]), k)

    @pytest.mark.parametrize("omega0, sigma", [(1e-8, 5e-10), (1e-8, 1e-8), (1e-6, 1e-8), (1e-3, 1e-3)])
    def test_every_row_near_the_edge_is_settled_or_inf(self, omega0, sigma):
        # Clipped and unclipped packets up to the largest acceleration: no NaN row.
        ints = spectral_integrals(make_wavepacket(omega0, sigma), np.logspace(280, 308, 57))
        values = np.column_stack([ints.i_c, ints.i_s, ints.i_cs])
        past = np.isinf(values[:, 0])
        assert past.any() and not np.isnan(values).any()
        assert np.all(np.isinf(values[past])) and np.all(np.isfinite(values[~past]))
        assert np.all(ints.last_change[~past] <= spectral._SETTLE_REL_TOL)


# Each function of the acceleration, reduced to one call with a valid omega; the
# two payload reports check a through spectral_integrals and must name it too.
_ACCELERATION_FUNCTIONS = {
    "squeeze_param": partial(squeeze_param, 1.0),
    "unruh_cosh_sinh": partial(unruh_cosh_sinh, 1.0),
    "spectral_integrals": partial(spectral_integrals, make_wavepacket(1.0, 0.05)),
    "displaced_variance": partial(displaced_variance, wp=make_wavepacket(1.0, 0.05)),
    "squeezed_variance": partial(squeezed_variance, wp=make_wavepacket(1.0, 0.05), r_s=0.5, phi=0.3),
}


class TestAccelerationInput:
    @pytest.mark.parametrize("name", sorted(_ACCELERATION_FUNCTIONS))
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, name, a):
        with pytest.raises(ValueError, match="acceleration a must be finite"):
            _ACCELERATION_FUNCTIONS[name](a)

    @pytest.mark.parametrize("name", sorted(_ACCELERATION_FUNCTIONS))
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_array_with_a_bad_entry_rejected_by_name(self, name, bad):
        with pytest.raises(ValueError, match="acceleration a must be"):
            _ACCELERATION_FUNCTIONS[name](np.array([0.5, bad, 2.0]))

    @pytest.mark.parametrize("name", ["squeeze_param", "unruh_cosh_sinh"])
    def test_array_matches_scalar_calls(self, name):
        func = _ACCELERATION_FUNCTIONS[name]
        a = np.array([0.05, 0.5, 1.0, 7.0, 50.0])
        got = np.asarray(func(a))
        expected = np.array([func(float(x)) for x in a]).T
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name, limit", [("squeeze_param", 0.0), ("unruh_cosh_sinh", (1.0, 0.0))])
    def test_tiny_acceleration_reads_r_zero_without_a_warning(self, name, limit):
        # pi omega/a passes the float range at a = 1e-320, and 2 pi omega/a at
        # 2e-308 and 3e-308: exactly r = 0
        func = _ACCELERATION_FUNCTIONS[name]
        for a in (1e-320, 2e-308, 3e-308):
            assert func(a) == limit
            rows = np.asarray(func(np.array([a, 1.0]))).T
            assert np.array_equal(rows[0], limit)
            assert np.array_equal(rows[1], func(1.0))  # a 1.0 row keeps its bits

    def test_frequency_and_acceleration_arrays_broadcast(self):
        r = squeeze_param(np.array([[0.5], [2.0]]), np.array([1.0, 3.0, 9.0]))
        assert r.shape == (2, 3)
        assert r[1, 2] == squeeze_param(2.0, 9.0)

    def test_two_dimensional_acceleration_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            spectral_integrals(make_wavepacket(1.0, 0.05), np.ones((2, 2)))


# Each function of the frequency, reduced to one call with a valid a.
_FREQUENCY_FUNCTIONS = {
    "squeeze_param": partial(squeeze_param, a=1.0),
    "unruh_cosh_sinh": partial(unruh_cosh_sinh, a=1.0),
}


class TestFrequencyInput:
    @pytest.mark.parametrize("name", sorted(_FREQUENCY_FUNCTIONS))
    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, np.array([0.5, math.inf, 2.0])])
    def test_non_finite_rejected_by_name(self, name, omega):
        with pytest.raises(ValueError, match="frequency omega must be finite"):
            _FREQUENCY_FUNCTIONS[name](omega)

    @pytest.mark.parametrize("name", sorted(_FREQUENCY_FUNCTIONS))
    @pytest.mark.parametrize("omega", [0.0, -1.0, np.array([1.0, 0.0])])
    def test_non_positive_rejected_by_name(self, name, omega):
        with pytest.raises(ValueError, match=f"^frequency omega must be positive, got {re.escape(str(omega))}$"):
            _FREQUENCY_FUNCTIONS[name](omega)


class TestLargeFrequency:
    """Above about 5.7e307 pi*omega alone passes the float range, although
    pi*omega/a need not: x is then formed as pi*(omega/a)."""

    @staticmethod
    def mp_values(omega, a):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.pi * mpmath.mpf(omega) / mpmath.mpf(a)
            r = mpmath.atanh(mpmath.exp(-x))
            return {
                "squeeze_param": float(r),
                "unruh_cosh_sinh": (float(mpmath.cosh(r)), float(mpmath.sinh(r))),
            }

    @pytest.mark.parametrize("omega", [1e308, 1.7e308])
    @pytest.mark.parametrize("name", sorted(_FREQUENCY_FUNCTIONS))
    def test_matches_high_precision_at_the_largest_floats(self, name, omega):
        func = getattr(spectral, name)
        expected = self.mp_values(omega, omega)[name]
        assert func(omega, omega) == pytest.approx(expected, rel=4e-16, abs=0.0)
        assert func(omega, omega) == func(1.0, 1.0)
        rows = np.asarray(func(np.array([omega, 2.0]), np.array([omega, 3.0]))).T
        assert np.array_equal(rows[0], func(omega, omega))
        assert np.array_equal(rows[1], func(2.0, 3.0))  # a row inside the range keeps its bits


def _reference_integrals(wp, a: float, rel_tol: float = 1e-10):
    """One acceleration at a time, the loop the array path replaces.

    Returns ((i_c, i_s, i_cs), level), level being the number of panel
    halvings after which the values stabilized, or None when seven were not
    enough.  The stop rule still also waits for phi_cs = integral
    g (cosh r - sinh r), which ``spectral_integrals`` no longer computes:
    equal levels show that phi_cs never decided where a row stopped.
    """
    xg, wg = leggauss(16)

    def integrals(edges):
        lo, hi = edges[:-1, None], edges[1:, None]
        half = 0.5 * (hi - lo)
        w = (0.5 * (hi + lo) + half * xg).ravel()
        q = (half * wg).ravel()
        envelope = np.exp(-((w - wp.omega0) ** 2) / (4.0 * wp.sigma**2))
        intensity = envelope**2
        norm = q @ intensity
        x = math.pi * w / a
        ch2 = 1.0 / -np.expm1(-2.0 * x)
        cms2 = np.tanh(0.5 * x)
        return np.array([
            q @ (intensity * ch2) / norm,
            q @ (intensity * (np.exp(-2.0 * x) * ch2)) / norm,
            q @ (intensity * cms2) / norm,
            q @ (envelope * np.sqrt(cms2)) / math.sqrt(norm),
        ])

    edges = np.asarray(wp.panel_edges)
    values = integrals(edges)
    for level in range(1, 8):
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.sort(np.concatenate([edges, mids]))
        refined = integrals(edges)
        change = np.max(np.abs(refined - values) / np.maximum(np.abs(refined), 1e-300))
        values = refined
        if change <= rel_tol:
            return values[:3], level
    return values[:3], None


# The eight carriers (omega0, sigma) of one benchmark closed-sweep round
# (seed 1, first round); the fourth is clipped (sigma > omega0/8).
SWEEP_CARRIERS = [
    (3.178374086327776, 0.05942022228113641),
    (3.1671730463252996, 0.10966016136301511),
    (1.1395210617506022, 0.09530013646853276),
    (1.1086217441627257, 0.44047444229842797),
    (2.1665187681647815, 0.12159286470575865),
    (2.3188334483850896, 0.07838470683811845),
    (1.2084263369121397, 0.021430185818359048),
    (0.8330105355621951, 0.06354591207018954),
]


def _sweep_grid(steps: int = 48) -> np.ndarray:
    return np.logspace(math.log10(0.05), math.log10(50.0), steps)


_ROW_FIELDS = ("i_c", "i_s", "i_cs", "level", "last_change")


def _bits(ints, k=None) -> list:
    """The bytes of every per-row field of a scalar result, or of row ``k``
    of an array result."""
    return [
        np.float64(value if k is None else value[k]).tobytes()
        for value in (getattr(ints, field) for field in _ROW_FIELDS)
    ]


class TestArrayAcceleration:
    """``spectral_integrals`` over a grid of accelerations: one pass, each
    row with its own refinement stop."""

    @pytest.mark.parametrize("omega0, sigma", SWEEP_CARRIERS)
    def test_rows_match_scalar_loop_in_order(self, omega0, sigma):
        wp = make_wavepacket(omega0, sigma)
        a = _sweep_grid()
        ints = spectral_integrals(wp, a)
        assert np.array_equal(ints.a, a)
        got = np.column_stack([ints.i_c, ints.i_s, ints.i_cs])
        for k, ak in enumerate(a):
            expected, level = _reference_integrals(wp, float(ak))
            np.testing.assert_allclose(got[k], expected, rtol=1e-14, atol=0)
            assert ints.level[k] == level
            assert _bits(ints, k) == _bits(spectral_integrals(wp, float(ak)))
            assert ints.last_change[k] <= 1e-10

    def test_sweep_carriers_include_a_clipped_one(self):
        assert [make_wavepacket(*c).clipped for c in SWEEP_CARRIERS].count(True) == 1

    def test_grid_longer_than_a_block(self):
        # 600 accelerations x 256 nodes span several evaluation blocks
        wp = make_wavepacket(1.0, 0.05)
        a = _sweep_grid(600)
        ints = spectral_integrals(wp, a)
        for k in range(600):
            assert _bits(ints, k) == _bits(spectral_integrals(wp, float(a[k])))

    def test_length_one_array_matches_scalar(self):
        wp = make_wavepacket(1.0, 0.01)
        single = spectral_integrals(wp, 1.0)
        ints = spectral_integrals(wp, np.array([1.0]))
        for field in ("a", *_ROW_FIELDS):
            assert getattr(ints, field).shape == (1,)
        assert ints.a[0] == single.a
        assert _bits(ints, 0) == _bits(single)

    @pytest.mark.usefixtures("spectra_never_settle")
    def test_unsettled_rows_are_nan_and_scalar_still_raises(self):
        wp = make_wavepacket(1.0, 0.05)
        a = np.array([0.1, 1.0, 10.0])
        ints = spectral_integrals(wp, a)
        for field in ("i_c", "i_s", "i_cs"):
            assert np.all(np.isnan(getattr(ints, field)))
        assert np.all(ints.level == 7)
        assert np.all(np.isfinite(ints.last_change) & (ints.last_change > spectral._SETTLE_REL_TOL))
        with pytest.raises(SpectralConvergenceError, match="did not stabilize"):
            spectral_integrals(wp, 1.0)

    def test_empty_grid(self):
        ints = spectral_integrals(make_wavepacket(1.0, 0.05), np.array([]))
        assert ints.i_c.shape == (0,) and ints.level.shape == (0,)
