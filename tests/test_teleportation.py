"""Closed-form variance reports and the single-frequency protocol circuit."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_teleport import (
    Chirality,
    SpectralConvergenceError,
    ModeLabel,
    Sector,
    delta_decoherence,
    delta_extremes,
    displaced_variance,
    inertial_teleport_output,
    make_wavepacket,
    narrowband_variance,
    quadrature_variance,
    spectral,
    squeeze_param,
    squeezed_variance,
    unruh_cosh_sinh,
    variance_from_integrals,
)

A_IN = ModeLabel(Sector.AUX, Chirality.LEFT, 0)
V1 = ModeLabel(Sector.AUX, Chirality.LEFT, 1)
V2 = ModeLabel(Sector.AUX, Chirality.LEFT, 2)


class TestNarrowband:
    def test_frozen_value(self):
        assert narrowband_variance(1.0, 1.0) == pytest.approx(2.8411684068199365, rel=1e-14)

    def test_limits(self):
        # zero acceleration: no squeezing, variance 3 (QNL + twice vacuum)
        assert narrowband_variance(1.0, 1e-6) == pytest.approx(3.0, abs=1e-12)
        # extreme acceleration: thermal squeezing destroys the excess, -> 2
        assert narrowband_variance(1.0, 1e6) == pytest.approx(2.0, abs=1e-9)

    def test_matches_formula(self):
        for a in (0.3, 1.0, 7.0):
            r0 = squeeze_param(1.0, a)
            assert narrowband_variance(1.0, a) == pytest.approx(
                2.0 + math.exp(-4.0 * r0), rel=1e-14
            )

    def test_is_the_kernel_at_the_carrier(self):
        # The sigma -> 0 member of the closed route: (i_c, i_s, i_cs) =
        # (cosh^2 r0, sinh^2 r0, e^(-2 r0)) at the carrier.
        a = np.logspace(-3, 6, 400)
        ch, sh = unruh_cosh_sinh(1.0, a)
        rep = variance_from_integrals(ch * ch, sh * sh, np.exp(-2.0 * squeeze_param(1.0, a)), 0.0, 0.0)
        expected = [narrowband_variance(1.0, x) for x in a.tolist()]
        np.testing.assert_allclose(rep.total, expected, rtol=2e-15, atol=0.0)


class TestDisplacedVariance:
    def test_frozen_report(self):
        wp = make_wavepacket(1.0, 0.01)
        rep = displaced_variance(1.0, wp)
        assert rep.total == pytest.approx(2.841109879717754, rel=1e-12)
        assert rep.thermal_noise == pytest.approx(1.841109879717754, rel=1e-12)
        assert rep.qnl_or_decoherence == 1.0
        assert rep.purity_product == pytest.approx(rep.total**2, rel=1e-14)

    def test_component_sum(self):
        wp = make_wavepacket(2.0, 0.1)
        rep = displaced_variance(0.5, wp)
        assert rep.total == pytest.approx(rep.thermal_noise + rep.qnl_or_decoherence, rel=1e-14)

    def test_narrowband_agreement(self):
        for a in (0.1, 1.0, 10.0):
            wp = make_wavepacket(1.0, 0.01)
            assert displaced_variance(a, wp).total == pytest.approx(
                narrowband_variance(1.0, a), abs=1e-3
            )


class TestDeltaDecoherence:
    def test_no_squeezing_is_unity(self):
        for i_c in (1.0, 2.5, 8.0):
            for phi in (0.0, 0.7, math.pi / 2):
                assert delta_decoherence(0.0, i_c, phi) == 1.0

    def test_frozen_reference(self):
        # ideal spectrum (i_c = 1): pure squeezed-state variances
        assert delta_decoherence(0.5, 1.0, 0.0) == pytest.approx(math.e, rel=1e-14)
        assert delta_decoherence(0.5, 1.0, math.pi / 2) == pytest.approx(1 / math.e, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_decoherence(-0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            delta_decoherence(0.5, 0.5, 0.0)

    @pytest.mark.parametrize("sequence", [list, tuple])
    def test_sequence_i_c_reads_as_an_array(self, sequence):
        i_c = np.array([1.0, 2.0, 7.5])
        got = delta_decoherence(0.5, sequence(i_c.tolist()), 0.3)
        assert got.tobytes() == delta_decoherence(0.5, i_c, 0.3).tobytes()
        for x, y in zip(delta_extremes(0.5, sequence(i_c.tolist())), delta_extremes(0.5, i_c)):
            assert x.tobytes() == y.tobytes()

    @given(st.floats(0.0, 2.0), st.floats(1.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_phase_extrema(self, r_s, i_c):
        # phi = 0 maximizes and phi = pi/2 minimizes the decoherence term
        d0 = delta_decoherence(r_s, i_c, 0.0)
        d90 = delta_decoherence(r_s, i_c, math.pi / 2)
        dmid = delta_decoherence(r_s, i_c, 0.777)
        assert d90 - 1e-12 <= dmid <= d0 + 1e-12


def _delta_reference(r_s: float, i_c: float, phi: float) -> float:
    """The docstring's cosh/sinh form of Delta(phi), at 80 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        r, i, p = mpmath.mpf(r_s), mpmath.mpf(i_c), mpmath.mpf(phi)
        ii = i * (i - 1)
        c1, s1, c2 = mpmath.cosh(r), mpmath.sinh(r), mpmath.cosh(2 * r)
        delta = (
            c2
            + 4 * ii * (c2 - 2 * c1 + 1)
            + 2 * s1 * ((2 * i - 1) ** 2 * c1 - 4 * ii) * mpmath.cos(2 * p)
        )
        return float(delta)


class TestDeltaDecoherencePrecision:
    @pytest.mark.parametrize("r_s", [0.01, 0.3, 1.0, 5.0, 12.0, 20.0, 30.0])
    @pytest.mark.parametrize("i_c", [1.0, 1.0 + 1e-9, 1.7, 11.0])
    @pytest.mark.parametrize("phi", [0.0, 0.9, math.pi / 2, 2.5])
    def test_matches_high_precision_reference(self, r_s, i_c, phi):
        assert delta_decoherence(r_s, i_c, phi) == pytest.approx(
            _delta_reference(r_s, i_c, phi), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("r_s", [0.0, 0.5, 40.0, 354.0])
    @pytest.mark.parametrize("i_c", [1.0, 1.7, np.array([1.0, 1.7, math.nan])])
    def test_extremes(self, r_s, i_c):
        # Delta(0) is the phi = 0 value bit for bit; Delta(pi/2) is the minimum,
        # at no point above the float-pi/2 value.
        d0, d90 = delta_extremes(r_s, i_c)
        np.testing.assert_array_equal(d0, delta_decoherence(r_s, i_c, 0.0))
        assert not np.any(d90 > delta_decoherence(r_s, i_c, math.pi / 2))

    def test_inertial_extremes_are_exact(self):
        # At i_c = 1 the payload is a squeezed vacuum: (e^(2 r_s), e^(-2 r_s)).
        d0, d90 = delta_extremes(40.0, 1.0)
        assert d0 == pytest.approx(math.exp(80.0), rel=1e-14)
        assert d90 == pytest.approx(math.exp(-80.0), rel=1e-14)

    def test_largest_representable_squeezing(self):
        assert math.isfinite(delta_decoherence(354.0, 1.0, 0.0))
        for r_s in (355.0, 800.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="r_s"):
                delta_decoherence(r_s, 1.0, 0.0)


class TestSqueezedVariance:
    def test_frozen_report(self):
        wp = make_wavepacket(1.0, 0.05)
        rep = squeezed_variance(1.0, wp, 0.5, 0.0)
        assert rep.total == pytest.approx(4.561305848798099, rel=1e-12)
        assert rep.thermal_noise == pytest.approx(1.8397077505654362, rel=1e-12)
        assert rep.qnl_or_decoherence == pytest.approx(2.721598098232663, rel=1e-12)
        assert rep.purity_product == pytest.approx(10.075045105388549, rel=1e-12)

    @given(st.floats(0.05, 20.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=20, deadline=None)
    def test_reduces_to_displaced_at_zero_squeezing(self, a, phi):
        wp = make_wavepacket(1.0, 0.05)
        sq = squeezed_variance(a, wp, 0.0, phi)
        disp = displaced_variance(a, wp)
        assert sq.total == pytest.approx(disp.total, rel=1e-12)
        assert sq.thermal_noise == pytest.approx(disp.thermal_noise, rel=1e-12)
        assert sq.purity_product == pytest.approx(disp.purity_product, rel=1e-12)

    def test_purity_product_of_the_extremes(self):
        wp = make_wavepacket(1.0, 0.05)
        rep = squeezed_variance(1.0, wp, 40.0, 0.0)
        d0, d90 = delta_extremes(40.0, spectral.spectral_integrals(wp, 1.0).i_c)
        assert d90 == pytest.approx(0.00788013, rel=1e-6)
        assert rep.purity_product == pytest.approx(
            (rep.thermal_noise + d0) * (rep.thermal_noise + d90), rel=1e-12
        )
        assert rep.purity_product == pytest.approx(1.0317e35, rel=1e-4)

    def test_purity_not_pure(self):
        wp = make_wavepacket(1.0, 0.05)
        for a in (0.2, 1.0, 5.0):
            assert squeezed_variance(a, wp, 0.5, 0.0).purity_product > 1.0
            assert displaced_variance(a, wp).purity_product > 1.0


class TestAccelerationGrid:
    """The closed forms over an array of accelerations: one report whose
    fields are arrays, row for row the scalar reports."""

    A = np.array([0.05, 0.3, 1.0, 4.0, 50.0])
    FIELDS = ("total", "thermal_noise", "qnl_or_decoherence", "purity_product")

    @pytest.mark.parametrize("omega0, sigma", [(1.0, 0.05), (1.1086217441627257, 0.44047444229842797)])
    @pytest.mark.parametrize("r_s, phi", [(None, None), (0.4, 0.0), (0.4, 1.1)])
    def test_rows_match_scalar_reports(self, omega0, sigma, r_s, phi):
        wp = make_wavepacket(omega0, sigma)
        if r_s is None:
            report = partial(displaced_variance, wp=wp)
        else:
            report = partial(squeezed_variance, wp=wp, r_s=r_s, phi=phi)
        grid = report(self.A)
        for k, a in enumerate(self.A):
            single = report(float(a))
            for field in self.FIELDS:
                values = getattr(grid, field)
                assert values.shape == self.A.shape
                assert values[k] == pytest.approx(getattr(single, field), rel=1e-14)

    @pytest.mark.parametrize("omega0, sigma", [(1.0, 0.05), (1.1086217441627257, 0.44047444229842797)])
    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2])
    @pytest.mark.parametrize("converged", [True, False])
    def test_displaced_is_squeezed_at_zero_squeezing(self, request, omega0, sigma, phi, converged):
        # One payload path: the coherent report is the r_s = 0 squeezed one,
        # bit for bit and type for type, on scalars and on grids (all rows
        # NaN when nothing converges).
        if not converged:
            request.getfixturevalue("spectra_never_settle")
        wp = make_wavepacket(omega0, sigma)
        for a in [self.A, *map(float, self.A)] if converged else [self.A]:
            disp, sq = displaced_variance(a, wp), squeezed_variance(a, wp, 0.0, phi)
            for field in self.FIELDS:
                d, s = getattr(disp, field), getattr(sq, field)
                assert type(d) is type(s)
                assert np.asarray(d).dtype == np.asarray(s).dtype
                assert np.asarray(d).tobytes() == np.asarray(s).tobytes()

    @pytest.mark.parametrize("r_s, phi", [(0.0, 0.3), (0.4, 0.0), (0.4, 1.1), (40.0, math.pi / 2), (354.0, 0.7)])
    @pytest.mark.parametrize("a", [1.0, np.concatenate([np.geomspace(0.05, 50.0, 40), np.logspace(3, 200, 5)])])
    def test_report_fields_are_the_bits_of_the_delta_functions(self, r_s, phi, a):
        # One evaluation of (M, P - M) per report, read as Delta(phi), P and M.
        wp = make_wavepacket(1.0, 0.05)
        ints = spectral.spectral_integrals(wp, a)
        with np.errstate(over="ignore", invalid="ignore"):
            dec = delta_decoherence(r_s, ints.i_c, phi)
            d0, d90 = delta_extremes(r_s, ints.i_c)
            thermal = 2.0 * ints.i_cs * (ints.i_c + ints.i_s)
            expected = (thermal + dec, thermal, dec, (thermal + d0) * (thermal + d90))
        rep = squeezed_variance(a, wp, r_s, phi)
        for field, value in zip(self.FIELDS, expected):
            assert np.asarray(getattr(rep, field)).tobytes() == np.asarray(value).tobytes(), field

    def test_past_the_float_range_of_i_c_squared(self):
        # From a ~ 8e154 omega0, i_c (i_c - 1) leaves the float range. The
        # coherent payload's Delta is 1 whatever i_c, so its total stays
        # flat on grids and scalars; a squeezed payload's reads inf, and
        # neither raises a warning.
        wp = make_wavepacket(1.0, 0.01)
        a = np.logspace(150, 300, 7)
        flat = displaced_variance(a, wp).total
        assert flat == pytest.approx(np.full(a.shape, flat[0]), rel=1e-12)
        assert displaced_variance(1e200, wp).total == pytest.approx(flat[0], rel=1e-12)
        squeezed = squeezed_variance(a[1:], wp, 0.5, 0.0)
        assert np.all(np.isinf(squeezed.total)) and np.all(np.isfinite(squeezed.thermal_noise))
        assert math.isinf(squeezed_variance(1e200, wp, 0.5, 0.0).total)

    @pytest.mark.parametrize(
        "r_s, i_c",
        [
            (1e-170, 1e170),  # 16 sinh^2(r_s/2) underflows and i_c (i_c - 1) overflows
            (1e-200, 4e199),
            (1e-160, 1e160),  # 16 sinh^2(r_s/2) is subnormal
            (1e-150, 1e160),  # only i_c (i_c - 1) overflows: h = 4e20
        ],
    )
    def test_h_at_tiny_squeezing_and_huge_i_c(self, r_s, i_c):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            rs, ic = mpmath.mpf(r_s), mpmath.mpf(i_c)
            h = 16 * mpmath.sinh(rs / 2) ** 2 * ic * (ic - 1)
            minimum = mpmath.exp(-2 * rs) + h * mpmath.exp(-rs)
            spread = 2 * mpmath.sinh(2 * rs) + 2 * h * mpmath.sinh(rs)
            expected = (float(minimum + spread), float(minimum))
        for got in (delta_extremes(r_s, i_c), [v[0] for v in delta_extremes(r_s, np.array([i_c]))]):
            assert got == pytest.approx(expected, rel=1e-14)

    def test_h_keeps_the_bits_of_a_finite_product(self):
        # Where 16 sinh^2(r_s/2) i_c (i_c - 1) is finite and non-zero, h is that product.
        i_c = np.concatenate([[1.0, 1.0 + 2e-16], np.logspace(0.01, 150, 61), [1e154, 1e300, math.nan]])
        for r_s in (1e-160, 1e-100, 1e-8, 0.3, 2.0, 40.0):
            half = math.sinh(0.5 * r_s)
            with np.errstate(over="ignore"):
                h = 16.0 * half * half * (i_c * (i_c - 1.0))
            plain = np.isfinite(h) & (h != 0.0)
            minimum = math.exp(-2.0 * r_s) + h * math.exp(-r_s)
            got = delta_extremes(r_s, i_c)[1]
            assert got[plain].tobytes() == minimum[plain].tobytes()
            assert np.isnan(got[-1])

    def test_coherent_payload_where_i_c_overflowed(self):
        # Past the float range of i_c (an inf row of spectral_integrals) Delta
        # of a coherent payload is still 1, and a squeezed one's is inf.
        i_c = np.array([2.0, math.inf, math.nan])
        d = delta_decoherence(0.0, i_c, 0.4)
        assert d[:2].tolist() == [1.0, 1.0] and math.isnan(d[2])
        assert delta_decoherence(0.0, math.inf, 0.4) == 1.0
        assert type(delta_decoherence(0.0, 2.0, 0.4)) is float
        assert delta_extremes(1e-200, np.array([math.inf]))[1].tolist() == [math.inf]

    def test_delta_decoherence_passes_nan_rows(self):
        i_c = np.array([1.0, math.nan, 2.5])
        d = delta_decoherence(0.5, i_c, 0.3)
        assert math.isnan(d[1])
        assert d[0] == delta_decoherence(0.5, 1.0, 0.3)
        assert d[2] == pytest.approx(delta_decoherence(0.5, 2.5, 0.3), rel=1e-15)
        with pytest.raises(ValueError, match="i_c must be >= 1"):
            delta_decoherence(0.5, np.array([1.0, 0.5]), 0.3)

    @pytest.mark.usefixtures("spectra_never_settle")
    def test_unsettled_rows_pass_through_as_nan(self):
        wp = make_wavepacket(1.0, 0.05)
        for rep in (displaced_variance(self.A, wp), squeezed_variance(self.A, wp, 0.4, 0.2)):
            for field in self.FIELDS:
                assert np.all(np.isnan(getattr(rep, field)))
        with pytest.raises(SpectralConvergenceError):
            displaced_variance(1.0, wp)


class TestInertialProtocol:
    def test_exact_coefficients_finite_gain(self):
        out = inertial_teleport_output(2.0, 1.5)
        t = math.tanh(2.0)
        res = math.exp(-1.5)
        assert out.coefficient(A_IN) == pytest.approx(1.0, abs=1e-14)
        assert out.coefficient(V1, dagger=True) == pytest.approx(t * res, abs=1e-14)
        assert out.coefficient(V2) == pytest.approx(-t * res, abs=1e-14)
        assert out.displacement == 0.0

    def test_strong_amplification_limit(self):
        out = inertial_teleport_output(math.inf, 3.0)
        res = math.exp(-3.0)
        assert out.coefficient(A_IN) == pytest.approx(1.0, abs=1e-15)
        # the residual is composed as cosh - sinh, so it carries e^(2 r) ulp
        assert out.coefficient(V1, dagger=True) == pytest.approx(res, rel=5e-13)
        assert out.coefficient(V2) == pytest.approx(-res, rel=5e-13)

    def test_output_variance(self):
        out = inertial_teleport_output(math.inf, 3.0)
        expected = 1.0 + 2.0 * math.exp(-6.0)
        for phi in (0.0, 0.9, math.pi / 2):
            assert quadrature_variance(out, phi) == pytest.approx(expected, rel=1e-12)
        assert quadrature_variance(out, 0.0) == pytest.approx(1.0049575043533325, rel=1e-14)

    def test_kernel_reads_the_inertial_law_bit_for_bit(self):
        # (i_c, i_s, i_cs) = (1, 0, e^(-2 r_omega)): the resource without the
        # Unruh amplification, from both float ends of a.
        r = squeeze_param(1.0, np.array([5e-324, 1e-300, 0.3, 1.0, 7.0, 1e6, 1e300, 1.79e308]))
        assert r[0] == 0.0 and r[-1] > 354.0
        i_cs = np.exp(-2.0 * r)
        rep = variance_from_integrals(np.ones_like(i_cs), 0.0, i_cs, 0.0, 0.0)
        law = 1.0 + 2.0 * np.exp(-2.0 * r)
        expected = (law, 2.0 * np.exp(-2.0 * r), np.ones_like(r), law * law)
        for field, value in zip(TestAccelerationGrid.FIELDS, expected):
            assert np.asarray(getattr(rep, field)).tobytes() == value.tobytes(), field

    def test_perfect_resource_restores_qnl(self):
        out = inertial_teleport_output(math.inf, 30.0)
        assert quadrature_variance(out, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            inertial_teleport_output(-1.0, 0.5)
        with pytest.raises(ValueError):
            inertial_teleport_output(1.0, -0.5)
        with pytest.raises(ValueError):
            inertial_teleport_output(1.0, math.inf)

    @pytest.mark.parametrize(
        "r, r_omega, name",
        [(-1.0, 0.5, "gain"), (math.nan, 0.5, "gain"), (1.0, -0.5, "resource"), (1.0, math.inf, "resource")]
        # cosh^2 r (matched transmissivity) or cosh r_omega past the float range
        + [(r, 0.1, "gain r") for r in (356.0, 711.0, 800.0)] + [(0.1, r_w, "r_omega") for r_w in (711.0, 800.0)],
    )
    def test_rejected_input_raises_on_every_call(self, r, r_omega, name):
        # The kept outputs never hold a rejected input's error or result.
        for _ in range(3):
            with pytest.raises(ValueError, match=name):
                inertial_teleport_output(r, r_omega)

    def test_largest_finite_gain_reads_the_strong_amplification_limit(self):
        bound = math.acosh(math.sqrt(np.finfo(float).max))
        limit = inertial_teleport_output(math.inf, 0.1)
        out = inertial_teleport_output(354.0, 0.1)
        assert np.array_equal(out.u, limit.u) and np.array_equal(out.v, limit.v)
        out = inertial_teleport_output(bound, 0.1)
        assert out.u == pytest.approx(limit.u, abs=1e-15) and out.v == pytest.approx(limit.v, abs=1e-15)
        with pytest.raises(ValueError, match="gain r"):
            inertial_teleport_output(math.nextafter(bound, math.inf), 0.1)
        inertial_teleport_output(0.1, 356.0)

    def test_kept_outputs_are_bounded(self):
        maxsize = inertial_teleport_output.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize <= 1024
        for k in range(maxsize + 5):
            inertial_teleport_output(0.25, 1.0 + k / 997.0)
        assert inertial_teleport_output.cache_info().currsize == maxsize
