"""Acceleration squeezing spectrum, wavepacket grids and spectral integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_teleport import (
    SpectralConvergenceError,
    displaced_variance,
    make_wavepacket,
    spectral_integrals,
    squeeze_param,
    unruh_ch_minus_sh,
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
        ch, sh = unruh_cosh_sinh(omega, a)
        cms = unruh_ch_minus_sh(omega, a)
        x = math.pi * omega / a
        assert cms**2 == pytest.approx(math.tanh(0.5 * x), rel=1e-13)
        # agrees with the naive difference wherever that is well conditioned
        if ch < 1e3:
            assert cms == pytest.approx(ch - sh, rel=1e-9)


class TestWavepacket:
    def test_basic_fields(self):
        wp = make_wavepacket(1.0, 0.05)
        assert wp.omega0 == 1.0
        assert wp.sigma == 0.05
        assert not wp.truncation_warning
        assert wp.nodes.ndim == 1
        assert wp.nodes.size == wp.weights.size
        assert np.all(np.diff(wp.nodes) > 0)

    def test_normalization(self):
        wp = make_wavepacket(1.0, 0.05)
        mass = float(wp.weights @ wp.amplitude(wp.nodes) ** 2)
        assert mass == pytest.approx(1.0, rel=1e-10)

    def test_truncation_flag_near_origin(self):
        wp = make_wavepacket(0.1, 0.08)
        assert wp.truncation_warning
        assert wp.truncated_mass == pytest.approx(0.10564977366708361, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_wavepacket(-1.0, 0.05)
        with pytest.raises(ValueError):
            make_wavepacket(1.0, 0.0)
        with pytest.raises(ValueError):
            make_wavepacket(1.0, 0.05, resolution=8)


class TestSpectralIntegrals:
    def test_frozen_values(self):
        ints = spectral_integrals(make_wavepacket(1.0, 0.01), 1.0)
        assert ints.i_cs == pytest.approx(0.917116387711201, rel=1e-10)
        assert ints.phi_cs == pytest.approx(0.2144188022339703, rel=1e-10)
        assert ints.i_c - ints.i_s == pytest.approx(1.0, abs=1e-10)

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

    def test_nonconvergence_raises(self):
        wp = make_wavepacket(1.0, 0.05)
        with pytest.raises(SpectralConvergenceError):
            spectral_integrals(wp, 1.0, rel_tol=1e-30)

    def test_invalid_acceleration(self):
        wp = make_wavepacket(1.0, 0.05)
        with pytest.raises(ValueError):
            spectral_integrals(wp, -1.0)


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
