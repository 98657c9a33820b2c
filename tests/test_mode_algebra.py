"""Operator expressions, Gaussian gates, Wick engine, region-to-family map.

The Wick engine is cross-checked against an exact dense Fock evaluation:
affine operators applied to the two-mode vacuum populate at most four
quanta, so a cutoff-6 matrix representation is exact, not truncated.
"""

import copy
import dataclasses
import inspect
import math
import pickle
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_teleport import (
    Chirality,
    ModeLabel,
    ModeRegister,
    OperatorExpr,
    OperatorRows,
    Sector,
    beam_splitter,
    commutator,
    displace,
    phase_variance,
    quadrature_covariance,
    quadrature_variance,
    rindler_to_unruh,
    single_mode_squeeze,
    two_mode_squeeze,
    unruh_cosh_sinh,
    wick_expectation,
)
from rindler_teleport.mode_algebra import PRUNE_TOL, annihilator, pair_contraction

A_LBL = ModeLabel(Sector.AUX, Chirality.LEFT, 0)
B_LBL = ModeLabel(Sector.AUX, Chirality.LEFT, 1)
C_LBL = ModeLabel(Sector.AUX, Chirality.LEFT, 2)


def aux(i: int) -> OperatorExpr:
    return annihilator(ModeLabel(Sector.AUX, Chirality.LEFT, i))


small_complex = st.builds(
    complex, st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)
)


def ladder_terms(e: OperatorExpr) -> dict:
    """{(label, is_dagger): coefficient} of the ladder coefficients above PRUNE_TOL."""
    return {
        (label, dag): complex(c)
        for dag, row in ((False, e.u), (True, e.v))
        for label, c in zip(e.register.labels, row)
        if abs(c) > PRUNE_TOL
    }


def same_ladder(e1: OperatorExpr, e2: OperatorExpr) -> bool:
    return np.array_equal(e1.u, e2.u) and np.array_equal(e1.v, e2.v)


def random_expr(rng: np.random.Generator) -> OperatorExpr:
    """Random affine expression over two fixed modes."""
    coeff = rng.standard_normal(10) * 0.5
    return OperatorExpr(
        ModeRegister([A_LBL, B_LBL]),
        [complex(coeff[2], coeff[3]), complex(coeff[6], coeff[7])],
        [complex(coeff[4], coeff[5]), complex(coeff[8], coeff[9])],
        complex(coeff[0], coeff[1]),
    )


class TestExpressionAlgebra:
    def test_linear_arithmetic(self):
        a, b = aux(0), aux(1)
        e = 2.0 * a + (1.0 - 0.5j) * b.dagger() + 3.0
        assert e.displacement == 3.0
        assert e.coefficient(A_LBL) == 2.0
        assert e.coefficient(B_LBL, dagger=True) == 1.0 - 0.5j
        diff = e - e
        assert diff.displacement == 0.0 and not diff.u.any() and not diff.v.any()

    def test_dagger_involution(self):
        e = (0.3 + 1j) * aux(0) + 0.7 * aux(1).dagger() + (2 - 1j)
        back = e.dagger().dagger()
        assert back.displacement == e.displacement
        assert same_ladder(back, e)

    def test_immutability(self):
        e = aux(0)
        with pytest.raises(AttributeError):
            e.displacement = 1.0

    def test_pruning_and_validation(self):
        e = OperatorExpr(ModeRegister([A_LBL]), 1e-16)
        assert e.coefficient(A_LBL) == 0.0
        with pytest.raises(ValueError):
            OperatorExpr(ModeRegister(), displacement=math.nan)
        with pytest.raises(ValueError):
            OperatorExpr(ModeRegister([A_LBL]), complex(math.inf, 0))

    def test_centered_strips_displacement(self):
        e = aux(0) + (3 - 2j)
        assert e.centered().displacement == 0.0
        assert same_ladder(e.centered(), e)

    def test_operator_product_rejected(self):
        with pytest.raises(TypeError):
            aux(0) * aux(1)

    def test_constructor_takes_register_and_ladder_vectors(self):
        assert str(inspect.signature(OperatorExpr)) == "(register, u=0.0, v=0.0, displacement=0.0)"
        reg = ModeRegister([A_LBL, B_LBL])
        u, v = np.array([1.0 + 2.0j, -0.5j]), np.array([0.25, 3.0 - 1.0j])
        e = OperatorExpr(reg, u, v, 0.5 - 1.5j)
        assert e.register is reg and e.displacement == 0.5 - 1.5j
        assert np.array_equal(e.u, u) and np.array_equal(e.v, v)
        assert e.coefficient(B_LBL, dagger=True) == 3.0 - 1.0j
        # Scalars broadcast over the register; the defaults are zero.
        flat = OperatorExpr(reg, 2.0)
        assert np.array_equal(flat.u, [2.0, 2.0]) and np.array_equal(flat.v, [0.0, 0.0])
        assert flat.displacement == 0.0
        assert ladder_terms(OperatorExpr(reg, v=-1j)) == {(A_LBL, True): -1j, (B_LBL, True): -1j}
        assert same_ladder(OperatorExpr(ModeRegister([A_LBL]), 1.0), aux(0))

    @pytest.mark.parametrize(
        "name, given, shape",
        [("u", [1.0, 2.0, 3.0], (3,)), ("v", [[1.0, 2.0], [3.0, 4.0]], (2, 2)), ("u", [1.0], (1,))],
    )
    def test_vector_that_misfits_its_register_is_named(self, name, given, shape):
        reg = ModeRegister([A_LBL, B_LBL])
        named = rf"^{name} must be .* register's length 2, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=named):
            OperatorExpr(reg, **{name: given})

    def test_subtraction_is_the_negated_sum_bit_for_bit(self):
        # x - y is x + (-y) in IEEE arithmetic, signed zeros included, on a
        # shared register, across two merged ones and for a scalar.  Merged,
        # -y is padded with +0.0 where x has a slot y lacks, so such a -0.0
        # of x reads +0.0 in x - y.
        def bits(e):
            return e.register.keys.tobytes(), e._w.tobytes(), repr(e.displacement)

        signed = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 0j]
        reg = ModeRegister([A_LBL, B_LBL])
        e1 = OperatorExpr._new(reg, complex(-0.0, 0.0), np.array([signed[:2], signed[2:]]), 0.0)
        e2 = OperatorExpr._new(reg, complex(0.0, -0.0), np.array([signed[1::2], signed[::2]]), 0.0)
        on_bc = ModeRegister([B_LBL, C_LBL])
        e3 = OperatorExpr._new(on_bc, 0.5 - 0j, np.array([[-0.0, 2.0 - 1j], [0.25j, -0.0]]), 3.0)
        for x in (e1, e2, e3, e1 + 0.3 * e3):
            for y in (e1, e2, e3, (1.0 - 0.5j) * e3):
                assert bits(x - y) == bits(x + (-y))
            for s in (0.0, -0.0, 1.0 - 2j, complex(-0.0, 0.0)):
                assert bits(x - s) == bits(x + (-complex(s)))
        assert np.signbit(e3._w.real[1, 1]) and not np.signbit((e3 - e1)._w.real[1, 2])  # beta at C
        huge = (aux(0) + aux(0).dagger()) * 1e308
        with pytest.raises(ValueError, match="non-finite coefficient"):
            huge - (-huge)
        with pytest.raises(ValueError):
            aux(0) - "x"


class TestCommutators:
    def test_canonical(self):
        a, b = aux(0), aux(1)
        assert commutator(a, a.dagger()) == pytest.approx(1.0)
        assert commutator(a.dagger(), a) == pytest.approx(-1.0)
        assert commutator(a, b.dagger()) == pytest.approx(0.0)
        assert commutator(a, b) == pytest.approx(0.0)

    @given(small_complex, small_complex)
    @settings(max_examples=25, deadline=None)
    def test_bilinearity(self, u, v):
        a, b = aux(0), aux(1)
        e = u * a + v * b.dagger()
        assert commutator(e, e.dagger()) == pytest.approx(
            abs(u) ** 2 - abs(v) ** 2, abs=1e-12
        )


class TestGates:
    @given(st.floats(0.0, 3.0), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_gates_preserve_commutators(self, r, eta):
        a, b = aux(0), aux(1)
        o1, o2 = two_mode_squeeze(a, b, r)
        assert commutator(o1, o1.dagger()) == pytest.approx(1.0, abs=1e-10)
        assert commutator(o2, o2.dagger()) == pytest.approx(1.0, abs=1e-10)
        assert abs(commutator(o1, o2)) < 1e-10
        assert abs(commutator(o1, o2.dagger())) < 1e-10

        b1, b2 = beam_splitter(o1, o2, eta)
        assert commutator(b1, b1.dagger()) == pytest.approx(1.0, abs=1e-10)
        assert abs(commutator(b1, b2.dagger())) < 1e-10

        s = single_mode_squeeze(b1, r)
        assert commutator(s, s.dagger()) == pytest.approx(1.0, abs=1e-10)

    def test_displace_shifts_only(self):
        e = displace(aux(0), 1.5 - 0.5j)
        assert e.displacement == 1.5 - 0.5j
        assert e.coefficient(A_LBL) == 1.0

    def test_two_mode_squeeze_rejects_shared_modes(self):
        a = aux(0)
        with pytest.raises(ValueError):
            two_mode_squeeze(a, a + aux(1), 0.5)

    def test_beam_splitter_domain(self):
        with pytest.raises(ValueError):
            beam_splitter(aux(0), aux(1), 1.2)

    @pytest.mark.parametrize("strength", [711.0, 800.0, -800.0, math.inf, math.nan])
    def test_squeezers_past_the_float_range_name_the_strength(self, strength):
        # e^|r_s| and cosh r would overflow; the error names the strength
        for gate in (partial(single_mode_squeeze, aux(0)), partial(two_mode_squeeze, aux(0), aux(1))):
            with pytest.raises(ValueError, match=f"squeezing strength .*got {strength}$"):
                gate(strength)

    def test_squeezers_at_their_float_bounds(self):
        a, b = aux(0), aux(1)
        for gate, bound in (
            (partial(single_mode_squeeze, a), math.log(np.finfo(float).max)),
            (partial(two_mode_squeeze, a, b), math.acosh(np.finfo(float).max)),
        ):
            gate(356.0)
            gate(bound)
            gate(-bound)
            with pytest.raises(ValueError, match="squeezing strength"):
                gate(math.nextafter(bound, math.inf))


class TestWickEngine:
    def test_first_moments(self):
        a = aux(0)
        assert wick_expectation([a]) == 0.0
        assert wick_expectation([displace(a, 0.3 + 0.2j)]) == pytest.approx(0.3 + 0.2j)

    def test_second_moments(self):
        a, b = aux(0), aux(1)
        assert wick_expectation([a, a.dagger()]) == pytest.approx(1.0)
        assert wick_expectation([a.dagger(), a]) == pytest.approx(0.0)
        assert wick_expectation([a, b.dagger()]) == pytest.approx(0.0)
        d = displace(a, 0.5)
        assert wick_expectation([d.dagger(), d]) == pytest.approx(0.25)

    def test_vacuum_quartic_quadrature(self):
        x = aux(0) + aux(0).dagger()
        assert wick_expectation([x, x, x, x]) == pytest.approx(3.0)

    def test_rejects_region_sectors(self):
        b4 = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0))
        with pytest.raises(ValueError):
            wick_expectation([b4, b4.dagger()])

    def test_every_vacuum_statistic_rejects_region_sectors(self):
        # A region mode is found alone and between vacuum sectors in register
        # order (unruh_c before the regions, aux after them); a rewritten one
        # has the thermal variance cosh 2r.
        b4 = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0))
        between = annihilator(ModeLabel(Sector.UNRUH_C, Chirality.LEFT, 0)) + b4 + aux(0)
        message = r"^expectation over non-vacuum sectors \[rindler_iv\]: rewrite with rindler_to_unruh"
        for e in (b4, between):
            with pytest.raises(ValueError, match=message):
                quadrature_variance(e)
            with pytest.raises(ValueError, match=message):
                pair_contraction(aux(0), e)
            with pytest.raises(ValueError, match=message):
                wick_expectation([e])
        ch, sh = unruh_cosh_sinh(1.0, 1.0)
        assert quadrature_variance(rindler_to_unruh(b4, 1.0, np.array([1.0]))) == pytest.approx(ch**2 + sh**2)
        assert quadrature_variance(aux(0) + 1e-16 * b4) == pytest.approx(1.0)  # a pruned coefficient is absent

    def test_pair_contraction_matches_two_point(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            e1 = random_expr(rng).centered()
            e2 = random_expr(rng).centered()
            assert pair_contraction(e1, e2) == pytest.approx(
                wick_expectation([e1, e2]), abs=1e-13
            )

    def test_against_exact_fock_matrices(self):
        """Mechanical Wick pairing vs exact dense-Fock evaluation."""
        cutoff = 6
        low = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
        eye = np.eye(cutoff)
        ladders = {
            (A_LBL, False): np.kron(low, eye),
            (A_LBL, True): np.kron(low.T, eye),
            (B_LBL, False): np.kron(eye, low),
            (B_LBL, True): np.kron(eye, low.T),
        }
        vac = np.zeros(cutoff * cutoff)
        vac[0] = 1.0

        def to_matrix(e: OperatorExpr) -> np.ndarray:
            m = e.displacement * np.eye(cutoff * cutoff, dtype=complex)
            for label, u, v in zip(e.register.labels, e.u, e.v):
                m = m + u * ladders[(label, False)] + v * ladders[(label, True)]
            return m

        rng = np.random.default_rng(20260816)
        for n_ops in (2, 4):
            for _ in range(12):
                exprs = [random_expr(rng) for _ in range(n_ops)]
                matrix = np.eye(cutoff * cutoff, dtype=complex)
                for e in exprs:
                    matrix = matrix @ to_matrix(e)
                exact = complex(vac @ matrix @ vac)
                assert wick_expectation(exprs) == pytest.approx(exact, abs=1e-11)

    def test_quadrature_variance_vacuum(self):
        for phi in (0.0, 0.4, math.pi / 2):
            assert quadrature_variance(aux(0), phi) == pytest.approx(1.0)
            assert quadrature_variance(displace(aux(0), 2.0), phi) == pytest.approx(1.0)

    def test_quadrature_variance_squeezed(self):
        s = single_mode_squeeze(aux(0), 0.5)
        assert quadrature_variance(s, 0.0) == pytest.approx(math.exp(1.0), rel=1e-12)
        assert quadrature_variance(s, math.pi / 2) == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestQuadratureCovariance:
    """One covariance (<X^2>, <Y^2>, <XY + YX>/2) per expression, read at any phase."""

    @staticmethod
    def seeded_exprs(count):
        rng = np.random.default_rng(20261020)
        for _ in range(count):
            e = random_expr(rng) + complex(*rng.standard_normal(2)) * aux(2).dagger()
            e = single_mode_squeeze(e, rng.uniform(-2.0, 2.0))
            yield beam_splitter(e, aux(3), rng.uniform(0.1, 0.9))[0]

    def test_equals_the_connected_wick_pairings(self):
        for e in self.seeded_exprs(200):
            x, y = e + e.dagger(), -1j * e + 1j * e.dagger()
            xx, yy, xy = quadrature_covariance(e)
            assert xx == pytest.approx(pair_contraction(x, x).real, rel=1e-12)
            assert yy == pytest.approx(pair_contraction(y, y).real, rel=1e-12)
            assert abs(xy - pair_contraction(x, y).real) <= 1e-12 * math.sqrt(xx * yy)

    def test_variance_at_zero_is_the_x_pairing(self):
        for e in self.seeded_exprs(50):
            x = 2.0 * e._w.real
            assert quadrature_variance(e, 0.0) == float(np.vdot(x, x))

    def test_a_zero_weight_ignores_an_infinite_moment(self):
        # Squeezed past the float range in one quadrature, the other one's
        # variance stays readable at the phase that does not see the first.
        assert quadrature_variance(single_mode_squeeze(aux(0), 400.0), 0.0) == math.inf
        assert quadrature_variance(single_mode_squeeze(aux(0), -400.0), 0.0) == 0.0
        assert phase_variance((math.inf, 2.0, math.inf), 0.0, 1.0) == 2.0
        assert phase_variance((3.0, math.inf, -math.inf), -1.0, 0.0) == 3.0

    def test_one_region_check_over_both_quadratures(self):
        # X(0) of 1j (b4 + b4^dagger) has no region coefficient and Y does: the
        # covariance holds both, so every phase rejects it.
        b4 = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0))
        for e in (b4, 1j * (b4 + b4.dagger())):
            with pytest.raises(ValueError, match="non-vacuum sectors"):
                quadrature_variance(aux(0) + e, 0.0)


class TestRegionMap:
    def test_region_operator_coefficients(self):
        a = 1.0
        centers = np.array([0.8, 1.0, 1.2])
        b4 = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 1))
        out = rindler_to_unruh(b4, a, centers)
        ch, sh = unruh_cosh_sinh(1.0, a)
        c_lbl = ModeLabel(Sector.UNRUH_C, Chirality.LEFT, 1)
        d_lbl = ModeLabel(Sector.UNRUH_D, Chirality.LEFT, 1)
        assert out.coefficient(c_lbl) == pytest.approx(ch, rel=1e-14)
        assert out.coefficient(d_lbl, dagger=True) == pytest.approx(sh, rel=1e-14)

    def test_all_regions_canonical(self):
        a = 0.7
        centers = np.array([0.9, 1.1])
        for sector, wing in (
            (Sector.RINDLER_IV, Chirality.LEFT),
            (Sector.RINDLER_II, Chirality.LEFT),
            (Sector.RINDLER_III, Chirality.RIGHT),
            (Sector.RINDLER_I, Chirality.RIGHT),
        ):
            b = annihilator(ModeLabel(sector, wing, 0))
            out = rindler_to_unruh(b, a, centers)
            assert commutator(out, out.dagger()) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_regions_commute(self):
        a = 0.7
        centers = np.array([0.9, 1.1])
        b3 = rindler_to_unruh(annihilator(ModeLabel(Sector.RINDLER_III, Chirality.RIGHT, 0)), a, centers)
        b1 = rindler_to_unruh(annihilator(ModeLabel(Sector.RINDLER_I, Chirality.RIGHT, 0)), a, centers)
        assert abs(commutator(b3, b1)) < 1e-12
        assert abs(commutator(b3, b1.dagger())) < 1e-12

    def test_wrong_chirality_raises(self):
        centers = np.array([1.0])
        with pytest.raises(ValueError):
            rindler_to_unruh(annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.RIGHT, 0)), 1.0, centers)

    def test_bin_out_of_range_raises(self):
        centers = np.array([1.0])
        with pytest.raises(ValueError):
            rindler_to_unruh(annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 3)), 1.0, centers)


class TestRegionMapSequence:
    """``rindler_to_unruh`` over a sequence of expressions on one register."""

    CENTERS = np.array([0.8, 0.95, 1.1, 1.3])

    def register(self):
        # Every region family, plus two pass-through modes; c_L[1] is also
        # the image of b4_L[1] and b2_L[1], so passing and mapped terms add.
        labels = [
            ModeLabel(sector, wing, b)
            for sector, wing in (
                (Sector.RINDLER_IV, Chirality.LEFT),
                (Sector.RINDLER_II, Chirality.LEFT),
                (Sector.RINDLER_III, Chirality.RIGHT),
                (Sector.RINDLER_I, Chirality.RIGHT),
            )
            for b in range(4)
        ]
        labels += [A_LBL, ModeLabel(Sector.UNRUH_C, Chirality.LEFT, 1)]
        return ModeRegister(labels)

    def mixed_exprs(self, register):
        rng = np.random.default_rng(3)
        n = len(register)

        def draw():
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        region_only = OperatorExpr(register, draw() * ~self.passing_mask(register), 0.0, 0.5)
        mixed = OperatorExpr(register, draw(), draw(), -1.0 + 2.0j)
        annihilators = register.annihilators()
        passing_only = annihilators[register.labels.index(A_LBL)] * (0.3 - 0.1j) + 4.0
        return [region_only, mixed, mixed.dagger(), passing_only, region_only.dagger() * 2.5]

    @staticmethod
    def passing_mask(register):
        return np.array([lb.sector in (Sector.AUX, Sector.UNRUH_C) for lb in register.labels])

    def test_matches_one_at_a_time_bit_for_bit(self):
        exprs = self.mixed_exprs(self.register())
        together = rindler_to_unruh(exprs, 0.7, self.CENTERS)
        assert isinstance(together, tuple) and len(together) == len(exprs)
        for expr, out in zip(exprs, together):
            alone = rindler_to_unruh(expr, 0.7, self.CENTERS)
            assert out.register.keys.tobytes() == alone.register.keys.tobytes()
            assert out.u.tobytes() == alone.u.tobytes()
            assert out.v.tobytes() == alone.v.tobytes()
            assert complex(out.displacement) == complex(alone.displacement)
        assert len({id(out.register) for out in together}) == 1

    def test_matches_the_region_table(self):
        # b_IV = ch c_L + sh d_L†, b_II = ch d_L + sh c_L† (and the right-movers
        # alike), term by term against the rewritten coefficient vectors.
        register = self.register()
        expr = self.mixed_exprs(register)[1]
        out = rindler_to_unruh([expr], 0.7, self.CENTERS)[0]
        ch, sh = unruh_cosh_sinh(self.CENTERS, 0.7)
        images = {
            Sector.RINDLER_IV: (Sector.UNRUH_C, Sector.UNRUH_D),
            Sector.RINDLER_II: (Sector.UNRUH_D, Sector.UNRUH_C),
            Sector.RINDLER_III: (Sector.UNRUH_C, Sector.UNRUH_D),
            Sector.RINDLER_I: (Sector.UNRUH_D, Sector.UNRUH_C),
        }
        expected = {}
        for (label, dag), c in ladder_terms(expr).items():
            if label.sector not in images:
                expected[(label, dag)] = expected.get((label, dag), 0) + c
                continue
            direct, partner = images[label.sector]
            b = label.bin
            for sector, dagger, weight in ((direct, dag, ch[b]), (partner, not dag, sh[b])):
                key = (ModeLabel(sector, label.chirality, b), dagger)
                expected[key] = expected.get(key, 0) + weight * c
        terms = ladder_terms(out)
        assert set(terms) == set(expected)
        for key, value in expected.items():
            assert terms[key] == pytest.approx(value, rel=1e-14, abs=1e-15)
        assert out.displacement == expr.displacement

    def test_empty_and_region_free_sequences(self):
        assert rindler_to_unruh([], 1.0, self.CENTERS) == ()
        plain = [aux(0), aux(0).dagger()]
        out = rindler_to_unruh(plain, 1.0, self.CENTERS)
        for image, expr in zip(out, plain, strict=True):
            assert image.register.keys.tobytes() == expr.register.keys.tobytes()
            assert same_ladder(image, expr) and image.displacement == expr.displacement

    def test_different_registers_raise(self):
        b4 = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0))
        b3 = annihilator(ModeLabel(Sector.RINDLER_III, Chirality.RIGHT, 0))
        with pytest.raises(ValueError, match="on one register; expression 1"):
            rindler_to_unruh([b4, b3], 1.0, self.CENTERS)

    def test_label_checks_cover_every_expression(self):
        register = ModeRegister(
            [ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0), ModeLabel(Sector.RINDLER_IV, Chirality.RIGHT, 0)]
        )
        good, wrong = register.annihilators()
        with pytest.raises(ValueError, match="no mapping exists"):
            rindler_to_unruh([good, 2.0 * good, wrong], 1.0, self.CENTERS)
        # An unsupported wrong-chirality slot is dropped, as in a single call.
        (out,) = rindler_to_unruh([good], 1.0, self.CENTERS)
        assert out.register.keys.tobytes() == rindler_to_unruh(good, 1.0, self.CENTERS).register.keys.tobytes()


    def test_result_register_is_the_image_families_at_every_bin(self):
        # The passing families c_L and aux_L and the images c_L, c_R, d_L and
        # d_R of the four region families, at each of bins 0..3: 20 slots,
        # though the input holds aux_L at bin 0 alone.
        register = self.register()
        families = [(s, c) for s in (Sector.UNRUH_C, Sector.UNRUH_D) for c in Chirality]
        expected = ModeRegister.grid([*families, (Sector.AUX, Chirality.LEFT)], 4)
        assert len(expected) == 20
        for out in rindler_to_unruh(self.mixed_exprs(register), 0.7, self.CENTERS):
            assert out.register.keys.tobytes() == expected.keys.tobytes()

    def test_slots_the_closure_adds_take_zero(self):
        # The register {b4_L[0], aux_L[5]} is taken at both of its bins for
        # both of its families, so b4_L[5] lies outside the one-bin grid
        # without raising; every slot nothing maps to reads 0.
        label = partial(ModeLabel, chirality=Chirality.LEFT)
        expr = annihilator(label(Sector.RINDLER_IV, bin=0)) + 2.0 * annihilator(label(Sector.AUX, bin=5))
        out = rindler_to_unruh(expr, 1.0, np.array([1.0]))
        ch, sh = unruh_cosh_sinh(1.0, 1.0)
        assert out.register.labels == tuple(
            label(sector, bin=b) for sector in (Sector.UNRUH_C, Sector.UNRUH_D, Sector.AUX) for b in (0, 5)
        )
        np.testing.assert_allclose(out.u, [ch, 0, 0, 0, 0, 2], rtol=1e-15, atol=0)
        np.testing.assert_allclose(out.v, [0, 0, sh, 0, 0, 0], rtol=1e-15, atol=0)

    def test_wrong_chirality_is_reported_before_a_bin_off_the_grid(self):
        off_grid = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 3))
        wrong = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.RIGHT, 0))
        centers = np.array([1.0])
        with pytest.raises(ValueError, match=r"^label b4_R\[0\] has chirality right .* no mapping exists$"):
            rindler_to_unruh(off_grid + wrong, 1.0, centers)
        with pytest.raises(ValueError, match=r"^label b4_L\[3\] has no grid coefficient \(grid holds 1 bins\)$"):
            rindler_to_unruh(off_grid + 0.0 * wrong, 1.0, centers)

    def test_rows_match_scalar_calls_bit_for_bit(self):
        # Over an array of accelerations each expression becomes one row per
        # acceleration, each row what a scalar call at that acceleration gives.
        exprs = self.mixed_exprs(self.register())
        accelerations = np.array([0.2, 0.7, 5.0])
        batches = rindler_to_unruh(exprs, accelerations, self.CENTERS)
        assert isinstance(batches, tuple) and len(batches) == len(exprs)
        assert len({id(batch.register) for batch in batches}) == 1
        for expr, batch in zip(exprs, batches):
            assert isinstance(batch, OperatorRows) and len(batch) == len(accelerations)
            assert not batch.rows.flags.writeable
            for k, a in enumerate(accelerations.tolist()):
                alone = rindler_to_unruh(expr, a, self.CENTERS)
                assert batch[k].register.keys.tobytes() == alone.register.keys.tobytes()
                assert batch[k].u.tobytes() == alone.u.tobytes()
                assert batch[k].v.tobytes() == alone.v.tobytes()
                assert complex(batch[k].displacement) == complex(alone.displacement)
        one = rindler_to_unruh(exprs[1], np.array([0.7]), self.CENTERS)
        assert isinstance(one, OperatorRows) and same_ladder(one[0], rindler_to_unruh(exprs[1], 0.7, self.CENTERS))

    def test_region_free_rows_repeat_the_expression(self):
        plain = aux(0) * (0.5 - 1j) + 2.0
        (rows,) = rindler_to_unruh([plain], np.array([1.0, 2.0]), self.CENTERS)
        assert len(rows) == 2
        for k in range(2):
            assert same_ladder(rows[k], plain) and rows[k].displacement == plain.displacement

    @pytest.mark.parametrize("index", [slice(0, 2), True, np.array([0, 1])], ids=repr)
    def test_rows_are_indexed_by_an_integer_only(self, index):
        rows = rindler_to_unruh(self.mixed_exprs(self.register())[0], np.array([0.2, 0.7, 5.0]), self.CENTERS)
        assert same_ladder(rows[np.int64(1)], rows[1])
        with pytest.raises(TypeError, match=r"^operator row index must be an integer, got "):
            rows[index]

    def test_acceleration_is_a_scalar_or_one_dimensional(self):
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            rindler_to_unruh(annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0)), np.ones((2, 2)), self.CENTERS)

    @pytest.mark.parametrize(
        "a, message",
        [
            (0.0, "positive, got 0.0"),
            (math.nan, "finite, got nan"),
            (math.inf, "finite, got inf"),
            (-math.inf, "finite, got -inf"),
            ([1.0, -1.0], r"positive, got \[1.0, -1.0\]"),
        ],
        ids=repr,
    )
    def test_bad_acceleration_is_named_as_given(self, a, message):
        # The error names the caller's value, not the array broadcast
        # against the grid.
        with pytest.raises(ValueError, match=f"^acceleration a must be {message}$"):
            rindler_to_unruh(annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0)), a, self.CENTERS)

    def test_empty_accelerations_give_empty_rows(self):
        exprs = self.mixed_exprs(self.register())
        batches = rindler_to_unruh(exprs, np.array([]), self.CENTERS)
        assert len(batches) == len(exprs)
        for batch in batches:
            assert isinstance(batch, OperatorRows) and len(batch) == 0
            assert batch.rows.shape[:2] == (0, 2)


class TestRegisters:
    """Expressions on different registers meet on the union of the two."""

    def mixed_pair(self):
        # e1 on {A, B} as a sum of annihilators, e2 on {B, C} from a register's modes.
        e1 = 2.0 * annihilator(A_LBL) + (1.0 - 0.5j) * annihilator(B_LBL).dagger() + 0.5
        b, c = ModeRegister([B_LBL, C_LBL]).annihilators()
        e2 = 3j * b + 0.25 * b.dagger() - c.dagger() + 1.0
        return e1, e2

    def test_register_order_and_index(self):
        reg = ModeRegister([C_LBL, A_LBL, ModeLabel(Sector.UNRUH_C, Chirality.RIGHT, 4)])
        assert reg.labels == (ModeLabel(Sector.UNRUH_C, Chirality.RIGHT, 4), A_LBL, C_LBL)
        assert list(reg.slots(Sector.AUX, Chirality.LEFT)) == [1, 2]
        assert reg.slots(Sector.UNRUH_D, Chirality.LEFT).shape == (0,)
        with pytest.raises(AttributeError):
            reg.keys = None

    def test_slots_are_the_sorted_search_of_a_family(self):
        # Families interleaved with gaps, negative bins and an empty register.
        bins = {
            (Sector.AUX, Chirality.LEFT): [-3, 0, 2, 7],
            (Sector.UNRUH_C, Chirality.RIGHT): [4],
            (Sector.UNRUH_D, Chirality.LEFT): [1, 5, 6],
            (Sector.RINDLER_I, Chirality.RIGHT): [0, 2**39 - 1],
        }
        labels = [ModeLabel(s, c, b) for (s, c), family in bins.items() for b in family]
        reg = ModeRegister(labels[::-1])
        for sector in Sector:
            for chirality in Chirality:
                family = bins.get((sector, chirality), [])
                keys = ModeRegister([ModeLabel(sector, chirality, b) for b in family]).keys
                expected = np.searchsorted(reg.keys, keys)
                assert np.array_equal(reg.keys[expected], keys)
                assert np.array_equal(reg.slots(sector, chirality), expected)
                assert [reg.labels[k].bin for k in reg.slots(sector, chirality)] == family
                assert ModeRegister().slots(sector, chirality).shape == (0,)

    def test_mixed_sum(self):
        e1, e2 = self.mixed_pair()
        total = e1 + e2
        assert total.register.labels == (A_LBL, B_LBL, C_LBL)
        assert total.displacement == 1.5
        assert ladder_terms(total) == {
            (A_LBL, False): 2.0,
            (B_LBL, False): 3j,
            (B_LBL, True): 1.25 - 0.5j,
            (C_LBL, True): -1.0,
        }
        assert ladder_terms(e1 - e2) == {
            (A_LBL, False): 2.0,
            (B_LBL, False): -3j,
            (B_LBL, True): 0.75 - 0.5j,
            (C_LBL, True): 1.0,
        }
        assert e1.register.labels == (A_LBL, B_LBL)  # inputs untouched

    def test_mixed_commutator_and_pairing(self):
        e1, e2 = self.mixed_pair()
        # Only B is shared: [e1, e2] = -v1_B u2_B = -(1 - 0.5j) * 3j.
        assert commutator(e1, e2) == pytest.approx(-1.5 - 3j, abs=1e-15)
        assert commutator(e2, e1) == pytest.approx(1.5 + 3j, abs=1e-15)
        assert pair_contraction(e1, e2) == 0.0
        assert pair_contraction(e2, e1) == pytest.approx(3j * (1.0 - 0.5j), abs=1e-15)
        assert wick_expectation([e2, e1]) == pytest.approx(0.5 + 1.5 + 3j, abs=1e-15)
        # <e1 e2 e1 e2>: displacements (0.5, 1, 0.5, 1); the non-zero pairings
        # are p23 = <e2 e1> = 1.5 + 3j and p24 = <e2 e2> = 3j * 0.25.
        p23, p24 = 1.5 + 3j, 0.75j
        expected = 0.5 * 1.0 * 0.5 * 1.0 + 0.5 * 0.5 * p24 + 0.5 * 1.0 * p23
        assert wick_expectation([e1, e2, e1, e2]) == pytest.approx(expected, abs=1e-14)

    def test_scalar_only_expressions(self):
        scalar = OperatorExpr(ModeRegister(), displacement=3.0)
        assert len(scalar.register) == 0 and not ladder_terms(scalar)
        assert len(ModeRegister([])) == 0 and len(ModeRegister.grid([], 4)) == 0
        assert wick_expectation([scalar, scalar]) == 9.0
        shifted = scalar + aux(1)
        assert shifted.displacement == 3.0 and ladder_terms(shifted) == {(B_LBL, False): 1.0}
        assert commutator(scalar, aux(1)) == 0.0

    def test_union_with_contained_register(self):
        # A union with a register that e1's holds has e1's keys, and adding
        # a zero multiple of a held mode changes no coefficient.
        e1, _ = self.mixed_pair()
        for total in (e1 + 0.0 * annihilator(A_LBL), annihilator(B_LBL) * 0.0 + e1):
            assert np.array_equal(total.register.keys, e1.register.keys)
            assert np.array_equal(total._w, e1._w) and total.displacement == e1.displacement


class TestPickling:
    """Registers and expressions copy and pickle by their stored state."""

    ROUND_TRIPS = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]

    @pytest.mark.parametrize("trip", ROUND_TRIPS, ids=["copy", "deepcopy", "pickle"])
    def test_round_trips_keep_keys_and_bits(self, trip):
        e = single_mode_squeeze(random_expr(np.random.default_rng(3)), 0.7) + aux(2).dagger()
        for expr in (annihilator(A_LBL), e):
            back = trip(expr)
            assert np.array_equal(back.register.keys, expr.register.keys)
            assert back._w.tobytes() == expr._w.tobytes() and back._peak == expr._peak
            assert back.displacement == expr.displacement
            with pytest.raises(AttributeError, match="OperatorExpr is immutable"):
                back.displacement = 0.0
            with pytest.raises(AttributeError, match="ModeRegister is immutable"):
                back.register.keys = None
            assert not back.register.keys.flags.writeable


class TestFiniteness:
    """No expression holds a non-finite coefficient, however it was made."""

    def test_overflowing_arithmetic_rejected(self):
        big = aux(0) * 1e200  # finite
        with pytest.raises(ValueError, match="non-finite coefficient"):
            big * 1e200
        huge = (aux(0) + aux(0).dagger()) * 1e308  # X coefficient 1e308
        with pytest.raises(ValueError, match="non-finite coefficient"):
            huge + huge
        with pytest.raises(ValueError, match="non-finite displacement"):
            (aux(0) + 1e308) * 1e10

    @pytest.mark.parametrize("a", [1.0, np.array([1.0, 2.0])], ids=["scalar", "array"])
    def test_overflowing_rewrite_rejected_by_mode(self, a):
        # cosh r(1e-3) at a = 1 is about 12.6, so c_L[0] takes 1e308 times it.
        big = 1e308 * annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0))
        with pytest.raises(ValueError, match=r"^non-finite coefficient .* for c_L\[0\]$"):
            rindler_to_unruh(big, a, np.array([1e-3]))

    def test_one_private_constructor_and_unbounded_rows(self):
        assert list(inspect.signature(OperatorExpr._new).parameters) == ["register", "d", "w", "bound"]
        assert not hasattr(OperatorExpr, "_checked")
        assert [f.name for f in dataclasses.fields(OperatorRows)] == ["register", "displacement", "rows"]

    def test_non_finite_vectors_rejected(self):
        reg = ModeRegister([A_LBL, B_LBL])
        with pytest.raises(ValueError, match="non-finite coefficient"):
            OperatorExpr(reg, [1.0, math.nan])
        with pytest.raises(ValueError, match="non-finite coefficient"):
            OperatorExpr(reg, 0.0, [math.inf, 0.0])


class TestPruning:
    """Coefficients at or below PRUNE_TOL count as absent wherever read."""

    REGION = ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0)

    @pytest.mark.parametrize("tiny", [1e-16, PRUNE_TOL])
    def test_tiny_region_coefficient_hidden(self, tiny):
        e = annihilator(A_LBL) + tiny * annihilator(self.REGION).dagger()
        assert ladder_terms(e) == {(A_LBL, False): 1.0}
        assert e.coefficient(self.REGION) == 0.0
        assert e.coefficient(self.REGION, dagger=True) == 0.0
        assert wick_expectation([e, e.dagger()]) == pytest.approx(1.0)

    def test_tiny_region_coefficient_from_arithmetic_hidden(self):
        b4 = annihilator(ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, 0))
        hidden = aux(0) + 1e-16 * b4
        assert set(ladder_terms(hidden)) == {(A_LBL, False)}
        assert wick_expectation([hidden, hidden.dagger()]) == pytest.approx(1.0)
        visible = aux(0) + 1e-14 * b4
        assert set(ladder_terms(visible)) == {(A_LBL, False), (self.REGION, False)}
        with pytest.raises(ValueError, match="rindler_iv"):
            wick_expectation([visible, visible.dagger()])

    def test_shared_label_check_over_non_pruned_support(self):
        a, b = aux(0), aux(1)
        out1, out2 = two_mode_squeeze(a + 1e-16 * b, b, 0.5)
        assert commutator(out1, out2) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="share mode labels"):
            two_mode_squeeze(a + 1e-14 * b, b, 0.5)

    def test_pruned_region_label_skips_region_checks(self):
        # A wrong-chirality region label carrying only a pruned coefficient
        # is not mapped and raises nothing, as if absent.
        wrong = ModeLabel(Sector.RINDLER_IV, Chirality.RIGHT, 0)
        e = annihilator(A_LBL) + 1e-16 * annihilator(wrong)
        out = rindler_to_unruh(e, 1.0, np.array([1.0]))
        assert ladder_terms(out) == {(A_LBL, False): 1.0}


class TestRegisterPlans:
    """Register work done once: ``slots`` by binary search, one shared grid
    register per shape, and a bounded cache of rewrite plans."""

    WIRES = (
        (Sector.RINDLER_IV, Chirality.LEFT),
        (Sector.RINDLER_III, Chirality.RIGHT),
        (Sector.RINDLER_I, Chirality.RIGHT),
    )

    @staticmethod
    def seeded_registers():
        rng = np.random.default_rng(22)
        families = [(s, c) for s in Sector for c in Chirality]
        yield ModeRegister()
        yield ModeRegister([ModeLabel(Sector.RINDLER_II, Chirality.LEFT, -7)])
        yield ModeRegister.grid(families, 5)
        yield ModeRegister.grid([(Sector.UNRUH_C, Chirality.RIGHT), (Sector.AUX, Chirality.LEFT)], 1)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            picked = rng.integers(0, len(families), n)
            if rng.uniform() < 0.5:
                bins = rng.integers(-6, 6, n)  # dense, with negative bins
            else:
                bins = rng.integers(-(2**39), 2**39, n)  # sparse over the whole range
            yield ModeRegister([ModeLabel(*families[k], int(b)) for k, b in zip(picked, bins)])

    def test_slots_equal_the_family_comparison(self):
        from rindler_teleport import mode_algebra

        for reg in self.seeded_registers():
            for sector in Sector:
                for chirality in Chirality:
                    family = mode_algebra._family(sector, chirality)
                    expected = np.flatnonzero((reg.keys >> mode_algebra._BIN_BITS) == family)
                    slots = reg.slots(sector, chirality)
                    assert slots.dtype == expected.dtype
                    assert np.array_equal(slots, expected)

    def test_equal_grid_calls_share_one_register(self):
        grid = ModeRegister.grid(self.WIRES, 16)
        assert ModeRegister.grid(self.WIRES[::-1], 16) is grid
        assert ModeRegister.grid(self.WIRES, 17) is not grid
        rng = np.random.default_rng(5)
        exprs = [OperatorExpr(grid, rng.normal(size=48) + 1j * rng.normal(size=48), rng.normal(size=48))
                 for _ in range(3)]
        centers = np.linspace(0.5, 2.0, 16)
        first = rindler_to_unruh(exprs, np.array([0.3, 2.0]), centers)
        second = rindler_to_unruh(exprs, np.array([0.3, 2.0]), centers)
        for x, y in zip(first, second):
            assert x.register is y.register
            assert x.rows.tobytes() == y.rows.tobytes()

    def test_the_plan_is_made_once_per_register_and_grid_length(self):
        from rindler_teleport import mode_algebra

        def plans_made():  # a plan is made on each miss of the plan cache
            return mode_algebra._rewrite_plan.cache_info().misses - misses

        misses = mode_algebra._rewrite_plan.cache_info().misses
        reg = ModeRegister([ModeLabel(Sector.RINDLER_IV, Chirality.LEFT, b) for b in range(3)])
        b4 = OperatorExpr(reg, [1.0, 0.5, 0.25])
        for a in (0.5, 1.0, np.array([0.5, 1.0])):
            rindler_to_unruh(b4, a, np.array([0.8, 1.0, 1.2]))
        assert plans_made() == 1
        rindler_to_unruh(b4, 1.0, np.array([0.8, 1.0, 1.2, 1.4]))
        assert plans_made() == 2
        # The chirality and bin-range checks still read each call's support.
        with pytest.raises(ValueError, match="has no grid coefficient"):
            rindler_to_unruh(b4, 1.0, np.array([0.8, 1.0]))
        rindler_to_unruh(OperatorExpr(reg, [1.0, 0.5, 0.0]), 1.0, np.array([0.8, 1.0]))

    def test_kept_plans_are_bounded(self):
        # One grid register rewritten at 300 grid lengths keeps at most the
        # cache's plans, not one plan per length.
        import tracemalloc

        from rindler_teleport import mode_algebra

        reg = ModeRegister.grid(self.WIRES, 256)
        expr = OperatorExpr(reg, np.linspace(0.5, 1.5, len(reg)))
        tracemalloc.start()
        try:
            for n_grid in range(256, 556):
                rindler_to_unruh(expr, 1.0, np.linspace(0.5, 2.0, n_grid))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 << 20
        info = mode_algebra._rewrite_plan.cache_info()
        assert info.currsize <= info.maxsize


class TestWickRegionCheck:
    def test_a_four_product_is_checked_once(self, monkeypatch):
        from rindler_teleport import mode_algebra

        honest = mode_algebra._reject_non_vacuum
        calls = []

        def counted(product):
            calls.append(product)
            return honest(product)

        monkeypatch.setattr(mode_algebra, "_reject_non_vacuum", counted)
        x = aux(0) + aux(0).dagger()
        assert wick_expectation([x, x, x, x]) == pytest.approx(3.0)
        assert len(calls) == 1
        pair_contraction(x, aux(1))
        assert len(calls) == 2
