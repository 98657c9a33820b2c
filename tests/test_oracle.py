"""Discretized-circuit oracle and truncated-Fock protocol verification."""

import ast
import cmath
import dataclasses
import inspect
import math
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import faulty_sh_rewrite
from scipy.sparse.linalg import expm_multiply

from rindler_teleport import (
    Chirality,
    DiscretizedCircuit,
    GridMismatchError,
    ModeLabel,
    ModeRegister,
    OperatorExpr,
    OracleConvergenceError,
    Sector,
    TruncationError,
    appendix_expectations,
    build_displaced_circuit,
    build_squeezed_circuit,
    contraction_table,
    delta_decoherence,
    delta_extremes,
    displaced_variance,
    fock_check_inertial,
    inertial_teleport_output,
    make_wavepacket,
    photon_number_variance_lo,
    spectral_integrals,
    squeezed_variance,
    variance_from_integrals,
    wick_expectation,
)
from rindler_teleport.cli import VERIFY_ORACLE_TOL
from rindler_teleport.mode_algebra import (
    annihilator,
    pair_contraction,
    phase_variance,
    quadrature_covariance,
    quadrature_variance,
)
from rindler_teleport.oracle import DEFAULT_CHANNEL_GAIN, _fock_window


class TestRouteIndependence:
    """The oracle never substitutes a closed form for what it checks: the
    Wick route takes from the closed-form modules only the report type and
    the Unruh weights, and the prediction the Fock route is compared with
    is read by ``fock_check_inertial`` alone."""

    @staticmethod
    def oracle_tree():
        from rindler_teleport import oracle

        return ast.parse(inspect.getsource(oracle))

    def test_imports_from_the_closed_form_modules(self):
        imported = {}
        for node in ast.walk(self.oracle_tree()):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("rindler_teleport") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rindler_teleport")):
                assert node.level == 1 and node.module is not None, ast.unparse(node)
                imported.setdefault(node.module, set()).update(a.name for a in node.names)
        assert imported["teleportation"] == {"VarianceReport", "inertial_teleport_output"}
        assert imported["spectral"] == {"WavepacketSpec", "unruh_cosh_sinh"}
        assert set(imported) == {"mode_algebra", "spectral", "teleportation"}

    @pytest.mark.parametrize("name", ["inertial_teleport_output", "quadrature_covariance"])
    def test_only_the_fock_check_reads_the_prediction(self, name):
        users = [
            getattr(stmt, "name", ast.unparse(stmt)[:40])
            for stmt in self.oracle_tree().body
            if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(stmt))
        ]
        assert users == ["fock_check_inertial"]


class TestCircuitBuild:
    def test_commutator_audit(self, circ_displaced, circ_squeezed):
        assert circ_displaced.commutator_audit_max <= 1e-10
        assert circ_squeezed.commutator_audit_max <= 1e-10

    def test_displacement_gain_is_unity(self, circ_displaced):
        assert circ_displaced.disp_gain == pytest.approx(1.0, abs=1e-12)

    def test_grid_arrays(self, circ_displaced):
        n = circ_displaced.n_bins
        assert n == 256
        for arr in (circ_displaced.g, circ_displaced.ch, circ_displaced.sh):
            assert arr.shape == (n,)
        assert np.all(np.abs(circ_displaced.ch**2 - circ_displaced.sh**2 - 1.0) < 1e-10)
        # discrete unit norm of the packet
        assert float(np.sum(circ_displaced.g**2)) == pytest.approx(1.0, rel=1e-12)

    def test_too_few_bins_rejected(self, wp_standard):
        with pytest.raises(ValueError):
            build_displaced_circuit(1.0, wp_standard, 2)

    @pytest.mark.parametrize("grid", [64.7, "16", True, np.linspace(0.7, 1.3, 16)], ids=repr)
    def test_grid_must_be_a_bin_count(self, wp_standard, grid):
        with pytest.raises(GridMismatchError, match="bin count"):
            build_displaced_circuit(1.0, wp_standard, grid)

    def test_numpy_integer_bin_count(self, wp_standard):
        circ = build_displaced_circuit(1.0, wp_standard, np.int64(8))
        assert circ.n_bins == 8
        assert circ.commutator_audit_max <= 1e-10

    def test_circuit_record_fields(self):
        names = [f.name for f in dataclasses.fields(DiscretizedCircuit)]
        assert names == [
            "r_s", "g", "ch", "sh", "wire_delta", "disp_gain", "commutator_audit_max",
        ]

    def test_circuit_is_frozen(self, circ_displaced):
        with pytest.raises(dataclasses.FrozenInstanceError):
            circ_displaced.commutator_audit_max = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            circ_displaced.disp_gain = 2.0

    def test_rank_one_views_are_made_by_their_readers(self, monkeypatch, wp_standard):
        # The circuit stores W alone: the build makes one rank-one view per
        # row block for the audit, the LO variance reads W's rows without
        # one, and the contraction table makes one per call.
        from rindler_teleport import oracle

        made = []

        class CountedOutputs(oracle._RankOneOutputs):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(oracle, "_RankOneOutputs", CountedOutputs)
        circ = build_squeezed_circuit(1.0, wp_standard, 64, r_s=0.4)
        assert len(made) == 1
        accelerations = np.linspace(0.2, 3.0, 3 * oracle._BLOCK_ELEMENTS // 256)
        batch = build_squeezed_circuit(accelerations, wp_standard, 256, r_s=0.4)
        assert len(made) == 1 + 3
        made.clear()
        photon_number_variance_lo(circ, 0.3)
        photon_number_variance_lo(batch, 0.3)
        assert made == []
        contraction_table(circ, [10, 30], [20, 40], phi=0.3)
        appendix_expectations(circ, 30, 32)
        assert len(made) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_payload_squeezing_raises(self, monkeypatch, wp_standard):
        # A wire whose squared coefficients pass the float range makes the
        # audit's commutators NaN; the audit must not read that as zero.
        # The r_s bound keeps a real build from getting there, so the
        # overflow is injected.
        from rindler_teleport import oracle

        honest_splitter = oracle.beam_splitter

        def overflowing_splitter(a1, a2, eta):
            out1, out2 = honest_splitter(a1, a2, eta)
            return 1e300 * out1, out2

        monkeypatch.setattr(oracle, "beam_splitter", overflowing_splitter)
        with pytest.raises(OracleConvergenceError, match="broke canonical commutators by nan"):
            build_squeezed_circuit(1.0, wp_standard, 32, r_s=0.4)

    @pytest.mark.parametrize("bins", [32, 1024])
    def test_payload_squeezing_bound(self, wp_standard, bins):
        # The LO variance's stretched-quadrature moment is about
        # (i_c + i_s)^3 e^(2 r_s); just below the bound that keeps it finite,
        # the build and its LO variance run clean, and past it r_s is named.
        ref = build_displaced_circuit(1.0, wp_standard, bins)
        weight = float(np.sum(ref.g**2 * (ref.ch**2 + ref.sh**2)))
        bound = 0.5 * (math.log(np.finfo(float).max) - 3.0 * math.log(weight))
        assert bound == pytest.approx(354.885, abs=0.005)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            circ = build_squeezed_circuit(1.0, wp_standard, bins, r_s=bound - 1e-6)
            for phi in (0.0, 0.5 * math.pi):
                assert math.isfinite(photon_number_variance_lo(circ, phi).total)
        for r_s in (bound + 1e-6, 360.0, 400.0):
            with pytest.raises(ValueError, match="payload squeezing r_s must be at most"):
                build_squeezed_circuit(1.0, wp_standard, bins, r_s=r_s)

    def test_displaced_circuit_is_squeezed_at_zero_squeezing(self, wp_standard):
        # One payload path: the coherent circuit is the r_s = 0 squeezed one.
        disp = build_displaced_circuit(1.0, wp_standard, 32)
        sq = build_squeezed_circuit(1.0, wp_standard, 32, r_s=0.0)
        assert disp.commutator_audit_max == sq.commutator_audit_max
        for phi in (0.0, 0.9):
            assert photon_number_variance_lo(disp, phi) == photon_number_variance_lo(sq, phi)
        bins = np.arange(32)
        table = contraction_table(sq, bins, bins, phi=0.3)
        for name, row in contraction_table(disp, bins, bins, phi=0.3).items():
            for field in ("numeric", "closed", "abs_deviation", "rel_deviation"):
                assert np.array_equal(getattr(row, field), getattr(table[name], field))

    def test_audit_fires_on_non_canonical_wire(self, monkeypatch, wp_standard):
        from rindler_teleport import oracle

        honest_splitter = oracle.beam_splitter
        honest_audit = oracle._audit_commutators
        seen = []

        def leaky_splitter(a1, a2, eta):
            out1, out2 = honest_splitter(a1, a2, eta)
            return 1.01 * out1, out2

        def recorded_audit(*args):
            seen.append(honest_audit(*args))
            return seen[-1]

        monkeypatch.setattr(oracle, "beam_splitter", leaky_splitter)
        monkeypatch.setattr(oracle, "_audit_commutators", recorded_audit)
        with pytest.raises(OracleConvergenceError, match="broke canonical commutators"):
            build_displaced_circuit(1.0, wp_standard, 64)
        assert len(seen) == 1 and seen[0] > 1e-10

    @pytest.mark.parametrize("r_s", [0.0, 0.4, 10.0, 40.0, 100.0, 300.0])
    def test_audit_is_tight_at_any_squeezing(self, wp_standard, r_s):
        # Each commutator is judged against its elementwise rounding bound,
        # which a squeezer leaves of order one, so the audit reads rounding
        # error at every r_s instead of vanishing as e^(-2 r_s).
        circ = build_squeezed_circuit(1.0, wp_standard, 256, r_s=r_s)
        assert 1e-18 < circ.commutator_audit_max <= 1e-14

    def test_audit_holds_at_small_accelerations(self, wp_standard):
        # Once sinh r underflows, the d kinds' commutator bounds sit at the
        # smallest normal float, and a product of two of them is 0: the audit
        # must not read 0/0 there.
        a = np.array([1e-300, 1e-3, 0.3, 1.0])
        circ = build_squeezed_circuit(a, wp_standard, 256, r_s=0.4)
        assert np.all(circ.commutator_audit_max <= 1e-10)
        total = photon_number_variance_lo(circ).total
        closed = np.array([squeezed_variance(x, wp_standard, 0.4, 0.0).total for x in a])
        assert np.all(np.abs(total - closed) <= VERIFY_ORACLE_TOL * closed)

    def test_audit_fires_on_a_squeezed_quadrature_fault(self, monkeypatch, wp_standard):
        # A squeezer whose P coefficient is 1% too large breaks [a, a†] by 1%
        # in the squeezed quadrature only, at e^(-r_s) of the stretched one.
        from rindler_teleport import oracle

        def faulty_squeeze(a, r):
            return 0.5 * math.exp(r) * (a + a.dagger()) + 0.505 * math.exp(-r) * (a - a.dagger())

        monkeypatch.setattr(oracle, "single_mode_squeeze", faulty_squeeze)
        with pytest.raises(OracleConvergenceError, match="broke canonical commutators"):
            build_squeezed_circuit(1.0, wp_standard, 64, r_s=40.0)

    def test_audit_fires_on_a_single_non_anchor_bin(self, monkeypatch, wp_standard):
        # Scale W.u at the c-slot of bin 20 of 64 by 1 + 1e-5; the anchor
        # bins are 0, 32 and 63.  [c_20, c_20†] moves by about 1e-8, while
        # the change of [W, W†] moves the anchors' commutators by about
        # 2e-11, under the 1e-10 bound.
        from rindler_teleport import oracle

        honest_map = oracle.rindler_to_unruh
        honest_audit = oracle._audit_commutators
        calls, seen = [], []

        def leaky_map(exprs, a, grid):
            # The build rewrites wire_delta and the three wire outputs in
            # one call, one row per acceleration; the fault goes into
            # element 0, wire_delta, only.
            wire_delta, *outputs = honest_map(exprs, a, grid)
            calls.append(exprs)
            row = wire_delta[0]
            u = row.u.copy()
            u[row.register.slots(Sector.UNRUH_C, Chirality.LEFT)[20]] *= 1.0 + 1e-5
            leaky = OperatorExpr(row.register, u, row.v, row.displacement)
            return (dataclasses.replace(wire_delta, rows=leaky._w[None]), *outputs)

        def recorded_audit(*args):
            seen.append(honest_audit(*args))
            return seen[-1]

        monkeypatch.setattr(oracle, "rindler_to_unruh", leaky_map)
        monkeypatch.setattr(oracle, "_audit_commutators", recorded_audit)
        with pytest.raises(OracleConvergenceError, match="broke canonical commutators"):
            build_squeezed_circuit(1.0, wp_standard, 64, r_s=0.4)
        assert len(seen) == 1 and seen[0] > 1e-10
        assert len(calls) == 1  # one rewrite per build


def _seeded_packet(seed):
    rng = np.random.default_rng(seed)
    omega0 = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    return make_wavepacket(omega0, omega0 * float(rng.uniform(0.01, 0.1)))


class TestBatchedBuild:
    """A build over an array of accelerations holds one row per acceleration."""

    ACCELERATIONS = np.geomspace(0.05, 50.0, 20)  # more rows than one block at N = 256

    @staticmethod
    def same_bits(x, y):
        return np.asarray(x).tobytes() == np.asarray(y).tobytes()

    @pytest.mark.parametrize("r_s", [0.0, 0.4, 3.0])
    @pytest.mark.parametrize("bins", [32, 256])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_rows_are_scalar_builds_bit_for_bit(self, seed, bins, r_s):
        wp = _seeded_packet(seed)
        batch = build_squeezed_circuit(self.ACCELERATIONS, wp, bins, r_s=r_s)
        assert batch.ch.shape == batch.sh.shape == (len(self.ACCELERATIONS), bins)
        assert np.all(batch.commutator_audit_max <= 1e-10)
        reports = {phi: photon_number_variance_lo(batch, phi) for phi in (0.0, 0.3, math.pi / 2)}
        for k, a in enumerate(self.ACCELERATIONS.tolist()):
            alone = build_squeezed_circuit(a, wp, bins, r_s=r_s)
            assert alone.commutator_audit_max <= 1e-10
            row = batch.wire_delta[k]
            assert row.register.keys.tobytes() == alone.wire_delta.register.keys.tobytes()
            assert self.same_bits(row._w, alone.wire_delta._w)
            assert complex(row.displacement) == complex(alone.wire_delta.displacement)
            assert batch.disp_gain == alone.disp_gain
            for name in ("g", "ch", "sh"):
                value = getattr(batch, name)
                assert self.same_bits(value if name == "g" else value[k], getattr(alone, name))
            for phi, report in reports.items():
                single = photon_number_variance_lo(alone, phi)
                for field in dataclasses.fields(report):
                    assert self.same_bits(getattr(report, field.name)[k], getattr(single, field.name))
            one_row = batch[k]
            assert self.same_bits(one_row.ch, alone.ch) and self.same_bits(one_row.wire_delta._w, alone.wire_delta._w)
            assert photon_number_variance_lo(one_row, 0.3) == photon_number_variance_lo(alone, 0.3)

    def test_blocks_share_one_read_only_copy_of_w(self, wp_standard):
        # 20 rows at N = 256 are two row blocks; W's rows are concatenated
        # once, and every row of the circuit is a view of that one array.
        from rindler_teleport import oracle

        batch = build_squeezed_circuit(self.ACCELERATIONS, wp_standard, 256, r_s=0.4)
        assert len(self.ACCELERATIONS) * 256 > oracle._BLOCK_ELEMENTS
        rows = batch.wire_delta.rows
        assert rows.shape[0] == len(self.ACCELERATIONS) and rows.flags.owndata
        assert not rows.flags.writeable
        for k in (0, len(self.ACCELERATIONS) - 1):
            assert batch[k].wire_delta._w.base is rows

    def test_scalar_is_a_batch_of_one(self, wp_standard):
        alone = build_displaced_circuit(1.0, wp_standard, 32)
        assert alone.ch.shape == (32,) and isinstance(alone.wire_delta, OperatorExpr)
        assert isinstance(alone.commutator_audit_max, float)
        assert isinstance(photon_number_variance_lo(alone).total, float)
        batch = build_displaced_circuit(np.array([1.0]), wp_standard, 32)
        assert batch.ch.shape == (1, 32) and batch.commutator_audit_max.shape == (1,)
        assert photon_number_variance_lo(batch).total.shape == (1,)
        assert photon_number_variance_lo(batch[0]) == photon_number_variance_lo(alone)
        with pytest.raises(TypeError, match="no rows"):
            alone[0]

    @pytest.mark.parametrize("index", [slice(1, None), 1.0, True, np.bool_(False), "1", None, [0]])
    def test_row_index_must_be_an_integer(self, wp_standard, index):
        batch = build_displaced_circuit(np.array([0.5, 1.0, 2.0]), wp_standard, 32)
        with pytest.raises(TypeError, match=re.escape(f"circuit row index must be an integer, got {index!r}")):
            batch[index]

    def test_row_index_of_any_integer_kind(self, wp_standard):
        batch = build_displaced_circuit(np.array([0.5, 1.0, 2.0]), wp_standard, 32)
        last = photon_number_variance_lo(batch[2])
        for k in (np.int64(2), np.int32(2), np.uint8(2), -1, np.intp(-1)):
            assert photon_number_variance_lo(batch[k]) == last
        with pytest.raises(IndexError):
            batch[3]
        with pytest.raises(IndexError):
            batch[-4]

    def test_slots_are_the_sorted_search_of_a_family(self, wp_standard):
        # On the rewritten register of a one-row circuit every vacuum family
        # holds bins 0..N-1, and slots reads them in bin order.
        register = build_squeezed_circuit(1.0, wp_standard, 64, r_s=0.4).wire_delta.register
        for sector in (Sector.UNRUH_C, Sector.UNRUH_D):
            for chirality in Chirality:
                keys = ModeRegister([ModeLabel(sector, chirality, b) for b in range(64)]).keys
                expected = np.searchsorted(register.keys, keys)
                assert np.array_equal(register.keys[expected], keys)
                assert np.array_equal(register.slots(sector, chirality), expected)

    def test_contraction_table_reads_one_row(self, wp_standard):
        batch = build_squeezed_circuit(np.array([0.3, 1.0]), wp_standard, 32, r_s=0.4)
        with pytest.raises(ValueError, match="one-row circuit"):
            contraction_table(batch, [10], [12])
        table = contraction_table(batch[1], [10, 14], [12])
        alone = contraction_table(build_squeezed_circuit(1.0, wp_standard, 32, r_s=0.4), [10, 14], [12])
        for name, row in table.items():
            assert np.array_equal(row.numeric, alone[name].numeric)

    @pytest.mark.parametrize(
        "a, match",
        [
            (0.0, "positive, got 0.0"),
            (-1.0, "positive, got -1.0"),
            (math.nan, "finite, got nan"),
            (math.inf, "finite, got inf"),
            (-math.inf, "finite, got -inf"),
            (np.array([1.0, 0.0]), "positive"),
            (np.array([1.0, math.nan]), "finite"),
            (np.ones((2, 2)), "a scalar or a non-empty 1-D array"),
            (np.array([]), "a scalar or a non-empty 1-D array"),
        ],
    )
    def test_bad_accelerations_rejected(self, wp_standard, a, match):
        with pytest.raises(ValueError, match=f"acceleration must be {match}"):
            build_displaced_circuit(a, wp_standard, 16)

    def test_payload_squeezing_bound_is_the_tightest_row(self):
        # At a = 1000 the bound is 346.247 (a << omega0 allows 354.89); an
        # array build holding that row is refused by that row's bound, as the
        # scalar build is.  The bound lies past the r_s at which a sweep row's
        # closed-form purity product overflows, so no sweep reaches it.
        wp = make_wavepacket(1.0, 0.01)
        for a in (np.array([1.0, 1000.0]), 1000.0):
            with pytest.raises(ValueError, match=re.escape("payload squeezing r_s must be at most 346.247")):
                build_squeezed_circuit(a, wp, 32, r_s=348.0)

    @pytest.mark.parametrize("r_s", [0.0, 0.4])
    def test_acceleration_past_every_payload_bound_is_named(self, r_s):
        # From a ~ 1e104 omega0 the r_s bound is negative: no payload fits,
        # so the refusal names the acceleration, not r_s.  At omega0 = 0.01 and
        # a = 1.7e308 cosh^2 r itself passes the float range, without a warning.
        for omega0, a, named in [(1.0, 1e110, r"1e\+110"), (0.01, 1.7e308, r"1\.7e\+308")]:
            wp = make_wavepacket(omega0, 0.01 * omega0)
            with pytest.raises(ValueError, match=f"acceleration a = {named} is too large .* at any payload squeezing"):
                build_squeezed_circuit(np.array([1e20, a, 1e50]), wp, 256, r_s=r_s)

    def test_a_row_that_fails_the_audit_is_nan(self, monkeypatch, wp_standard):
        # A 1% error in sinh r breaks [b, b†] at one acceleration only: that
        # row keeps its audit maximum and reads NaN, indexing it raises as a
        # scalar build there does, and the other rows are unchanged.
        accelerations = np.array([0.3, 1.0, 3.0])
        honest = build_squeezed_circuit(accelerations, wp_standard, 64, r_s=0.4)
        faulty_sh_rewrite(monkeypatch, 1.0)
        batch = build_squeezed_circuit(accelerations, wp_standard, 64, r_s=0.4)
        audit = batch.commutator_audit_max
        assert audit[1] > 1e-10 and audit[0] <= 1e-10 and audit[2] <= 1e-10
        with pytest.raises(OracleConvergenceError, match="broke canonical commutators"):
            batch[1]
        with pytest.raises(OracleConvergenceError, match="broke canonical commutators"):
            build_squeezed_circuit(1.0, wp_standard, 64, r_s=0.4)
        for phi in (0.0, 0.3):
            report, reference = photon_number_variance_lo(batch, phi), photon_number_variance_lo(honest, phi)
            for field in dataclasses.fields(report):
                value, expected = getattr(report, field.name), getattr(reference, field.name)
                assert math.isnan(value[1])
                assert value[[0, 2]].tobytes() == expected[[0, 2]].tobytes()

    def test_a_row_that_loses_additivity_is_nan(self, monkeypatch, wp_standard):
        # The right-movers of the last row are off by 1e-6: built alone at
        # a = 3 that row raises, and as row 2 of a batch it reads NaN in every
        # field while rows 0 and 1 keep their bits.
        from rindler_teleport import oracle

        honest_parts = oracle._lo_parts

        def broken_parts(circ):
            moments, n0 = honest_parts(circ)
            moments = moments.copy()
            moments[-1, 0] *= 1.0 + 1e-6
            return moments, n0

        alone = build_squeezed_circuit(3.0, wp_standard, 64, r_s=0.4)
        batch = build_squeezed_circuit(np.array([0.3, 1.0, 3.0]), wp_standard, 64, r_s=0.4)
        reference = photon_number_variance_lo(batch, 0.3)
        monkeypatch.setattr(oracle, "_lo_parts", broken_parts)
        with pytest.raises(OracleConvergenceError, match="variance split lost additivity: right-movers"):
            photon_number_variance_lo(alone, 0.3)
        report = photon_number_variance_lo(batch, 0.3)
        for field in dataclasses.fields(report):
            value, expected = getattr(report, field.name), getattr(reference, field.name)
            assert math.isnan(value[2])
            assert value[:2].tobytes() == expected[:2].tobytes()


class TestLargeAccelerations:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 9: from a ~ 1e27 omega0 a displaced build passes its "
        "commutator audit, but its variance is off by 1e21 to 1e167 relative",
    )
    def test_displaced_rows_agree_or_fail_by_name(self):
        a = np.array([1e40, 1e60, 1e100])
        for sigma in (0.01, 0.05):
            wp = make_wavepacket(1.0, sigma)
            closed = displaced_variance(a, wp).total
            try:
                circ = build_displaced_circuit(a, wp, 256)
            except (OracleConvergenceError, ValueError):
                continue
            for k in range(len(a)):
                try:
                    total = photon_number_variance_lo(circ[k]).total
                except OracleConvergenceError:
                    continue
                assert total == pytest.approx(closed[k], rel=1e-11), (sigma, a[k])


class TestBuildCost:
    """What a build repeats and keeps alive."""

    def test_row_blocks_share_one_register_plan(self, monkeypatch, wp_standard):
        # 40 rows at N = 1024 are ten row blocks on one register: ten
        # rewrites, one plan; a second build at that N reuses it.
        import functools

        from rindler_teleport import mode_algebra, oracle

        fresh = functools.lru_cache(maxsize=32)(mode_algebra._grid_register.__wrapped__)
        monkeypatch.setattr(mode_algebra, "_grid_register", fresh)
        honest_map = oracle.rindler_to_unruh
        rewrites = []

        def plans_made():  # a plan is made on each miss of the plan cache
            return mode_algebra._rewrite_plan.cache_info().misses - misses

        def counted_map(exprs, a, grid):
            rewrites.append(len(a))
            return honest_map(exprs, a, grid)

        monkeypatch.setattr(oracle, "rindler_to_unruh", counted_map)
        misses = mode_algebra._rewrite_plan.cache_info().misses
        accelerations = np.geomspace(0.05, 50.0, 40)
        circ = build_squeezed_circuit(accelerations, wp_standard, 1024, r_s=0.4)
        assert np.all(circ.commutator_audit_max <= 1e-10)
        assert rewrites == [4] * 10 and plans_made() == 1
        build_squeezed_circuit(1.0, wp_standard, 1024, r_s=0.4)
        assert plans_made() == 1

    def test_peak_memory_of_a_build(self, wp_standard):
        # A warm, scalar, squeezed build at N = 1024 plus its LO variance:
        # the gate intermediates and the wire outputs are freed before the
        # per-bin audit.
        import tracemalloc

        def point():
            circ = build_squeezed_circuit(1.0, wp_standard, 1024, r_s=0.4)
            return photon_number_variance_lo(circ, 0.3)

        point()
        tracemalloc.start()
        try:
            point()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 2**20


class TestVarianceAgainstClosedForms:
    def test_displaced(self, circ_displaced, wp_standard):
        rep = photon_number_variance_lo(circ_displaced)
        closed = displaced_variance(1.0, wp_standard)
        assert rep.total == pytest.approx(closed.total, rel=1e-9)
        assert rep.thermal_noise == pytest.approx(closed.thermal_noise, rel=1e-9)
        assert rep.qnl_or_decoherence == pytest.approx(1.0, abs=1e-9)

    def test_squeezed_both_phases(self, circ_squeezed, wp_standard):
        for phi in (0.0, math.pi / 2):
            rep = photon_number_variance_lo(circ_squeezed, phi)
            closed = squeezed_variance(1.0, wp_standard, 0.4, phi)
            assert rep.total == pytest.approx(closed.total, rel=1e-9)
            assert rep.qnl_or_decoherence == pytest.approx(
                closed.qnl_or_decoherence, rel=1e-8
            )

    @pytest.mark.parametrize("r_s", [10.0, 20.0, 30.0, 40.0, 100.0, 300.0])
    def test_squeezed_quadrature_keeps_its_precision(self, wp_standard, r_s):
        # V(pi/2) at exactly (cos, sin) = (0, 1) is thermal + M, M the
        # minimum of Delta; the squeezer scales the X and P coefficients, so
        # no ch - sh cancellation eats it.  V(0) is thermal + P.
        from rindler_teleport import oracle

        circ = build_squeezed_circuit(1.0, wp_standard, 256, r_s=r_s)
        parts = oracle._lo_parts(circ)
        ints = spectral_integrals(wp_standard, 1.0)
        thermal = 2.0 * ints.i_cs * (ints.i_c + ints.i_s)
        d0, d90 = delta_extremes(r_s, ints.i_c)
        for (c, s), closed in (((0.0, 1.0), thermal + d90), ((1.0, 0.0), thermal + d0)):
            oracle_value = sum(oracle._variance_at(parts, c, s))
            assert oracle_value == pytest.approx(closed, rel=1e-11 if s else 1e-14)

    def test_a_pickled_array_circuit_reads_the_same_bits(self, wp_standard):
        circ = build_displaced_circuit(np.array([0.5, 1.0, 2.0]), wp_standard, 16)
        back = pickle.loads(pickle.dumps(circ))
        for phi in (0.0, 0.3):
            rep, rep_back = photon_number_variance_lo(circ, phi), photon_number_variance_lo(back, phi)
            for field in dataclasses.fields(rep):
                assert getattr(rep, field.name).tobytes() == getattr(rep_back, field.name).tobytes()

    def test_components_additive(self, circ_squeezed):
        rep = photon_number_variance_lo(circ_squeezed, 0.3)
        assert rep.total == pytest.approx(
            rep.thermal_noise + rep.qnl_or_decoherence, rel=1e-12
        )

    @staticmethod
    def reference_parts(circ, phi):
        """(thermal, payload, total) from the LO field assembled at phi.

        F = sum_i conj(l_i) fluct_i + h.c. over the c and d outputs, with
        fluct = c_i + g ch W and d_i - g sh W†, and l the LO shifts; the
        variance is <F F> over sum |l|^2, split by propagation direction.
        """
        w = circ.wire_delta
        register = w.register
        k_c, k_d = circ.g * circ.ch, -circ.g * circ.sh
        lo_c = np.exp(1j * phi) * circ.disp_gain * k_c
        lo_d = np.exp(-1j * phi) * np.conj(circ.disp_gain) * k_d
        c_slots = register.slots(Sector.UNRUH_C, Chirality.LEFT)
        d_slots = register.slots(Sector.UNRUH_D, Chirality.LEFT)
        field = 0.0 * w
        for i in range(circ.n_bins):
            unit_c = np.zeros(len(register), dtype=complex)
            unit_c[c_slots[i]] = 1.0
            c_i = OperatorExpr(register, unit_c) + k_c[i] * w
            unit_d = np.zeros(len(register), dtype=complex)
            unit_d[d_slots[i]] = 1.0
            d_i = OperatorExpr(register, unit_d) + k_d[i] * w.dagger()
            term = np.conj(lo_c[i]) * c_i + np.conj(lo_d[i]) * d_i
            field = field + term + term.dagger()
        n0 = np.sum(np.abs(lo_c) ** 2) + np.sum(np.abs(lo_d) ** 2)
        left = register.chirality_mask(Chirality.LEFT)

        def part(mask):
            masked = OperatorExpr(register, field.u * mask, field.v * mask)
            return pair_contraction(masked, masked).real / n0

        return part(~left), part(left), pair_contraction(field, field).real / n0

    @pytest.mark.parametrize(
        "fixture, offset", [("circ_displaced", 0.0), ("circ_squeezed", 0.0), ("circ_squeezed", 0.7)]
    )
    def test_matches_the_assembled_lo_field(self, fixture, offset, request):
        # A displacement gain of phase ``offset`` turns the LO by that much, so
        # the squeezed payload's axes leave phases 0 and pi/2 and the X-Y
        # cross term of the phase form is exercised.
        base = request.getfixturevalue(fixture)
        circ = dataclasses.replace(base, disp_gain=base.disp_gain * cmath.exp(1j * offset))
        ends = [sum(self.reference_parts(circ, phi)[:2]) for phi in (0.0, 0.5 * math.pi)]
        for phi in (0.3, 1.1, 2.6):
            rep = photon_number_variance_lo(circ, phi)
            thermal, payload, total = self.reference_parts(circ, phi)
            assert total == pytest.approx(thermal + payload, rel=1e-14)
            assert rep.thermal_noise == pytest.approx(thermal, rel=1e-14)
            assert rep.qnl_or_decoherence == pytest.approx(payload, rel=1e-14)
            assert rep.total == pytest.approx(total, rel=1e-14)
            assert rep.purity_product == pytest.approx(ends[0] * ends[1], rel=1e-14)
            turned = photon_number_variance_lo(base, phi + offset)
            assert rep.total == pytest.approx(turned.total, rel=1e-13)

    @pytest.mark.parametrize("r_s", [0.4, 40.0])
    def test_purity_product_reads_the_extremal_columns(self, wp_standard, r_s):
        # V(0) and V(pi/2) are the field's <X^2> and <Y^2> over n0: at r_s = 40
        # a float pi/2 would leak cos^2(pi/2) <X^2> ~ 200 n0 into V(pi/2).
        from rindler_teleport import oracle

        circ = build_squeezed_circuit(1.0, wp_standard, 64, r_s=r_s)
        (moments,), (n0,) = oracle._lo_parts(circ)  # the one row
        expected = moments[2, 0] * moments[2, 1] / n0**2
        assert photon_number_variance_lo(circ).purity_product == pytest.approx(expected, rel=1e-12)

    def test_broken_split_raises(self, monkeypatch, circ_squeezed):
        from rindler_teleport import oracle

        honest_parts = oracle._lo_parts

        def broken_parts(circ):
            moments, n0 = honest_parts(circ)
            return moments * np.array([[1.0 + 1e-6], [1.0], [1.0]]), n0  # right-movers off by 1e-6

        monkeypatch.setattr(oracle, "_lo_parts", broken_parts)
        with pytest.raises(OracleConvergenceError, match="variance split lost additivity"):
            photon_number_variance_lo(circ_squeezed, 0.3)

    def test_nan_split_raises(self, monkeypatch, circ_squeezed):
        from rindler_teleport import oracle

        honest_parts = oracle._lo_parts

        def nan_parts(circ):
            moments, n0 = honest_parts(circ)
            moments = moments.copy()
            moments[0, 0] = math.nan  # right-movers' <X^2>
            return moments, n0

        monkeypatch.setattr(oracle, "_lo_parts", nan_parts)
        with pytest.raises(OracleConvergenceError, match="variance split lost additivity"):
            photon_number_variance_lo(circ_squeezed, 0.3)


class TestContractionTable:
    def test_row_inventory(self, circ_displaced):
        rows = appendix_expectations(circ_displaced, 100, 140)
        assert len(rows) == 20
        quartic = [name for name in rows if "|α|²" in name]
        assert len(quartic) == 4

    def test_displaced_rows_tight(self, circ_displaced):
        for i, j in ((100, 140), (128, 128), (90, 90)):
            for phi in (0.0, 0.3):
                rows = appendix_expectations(circ_displaced, i, j, phi=phi)
                worst = max(r.rel_deviation for r in rows.values())
                assert worst <= 1e-9

    def test_squeezed_rows_tight(self, circ_squeezed):
        for i, j in ((100, 140), (128, 128)):
            rows = appendix_expectations(circ_squeezed, i, j, phi=0.3)
            worst = max(r.rel_deviation for r in rows.values())
            assert worst <= 1e-9

    @pytest.mark.parametrize("name", ["circ_displaced", "circ_squeezed"])
    def test_audit_terms_agree_with_the_table(self, request, name):
        # The commutator terms the per-bin audit reads are the table's
        # <X_i Y_j> - <Y_j X_i> less its unit part, for each audited kind pair.
        from rindler_teleport import oracle

        circ = request.getfixturevalue(name)
        n = circ.n_bins
        bins = np.array([0, 1, 57, n // 2, n - 2, n - 1])
        outputs = oracle._RankOneOutputs(
            *oracle._w_rows(circ), (circ.g * circ.ch)[None], (circ.g * circ.sh)[None]
        )
        *read, e = outputs.terms(oracle._AUDIT_TERMS)
        (audit,) = oracle._bilinear_at((*read, np.zeros_like(e)), bins[:, None], bins[None, :])
        table = contraction_table(circ, bins, bins)
        pairs = [(oracle._KINDS[x], oracle._KINDS[y]) for x, y in zip(oracle._AUDIT_X, oracle._AUDIT_Y)]
        assert pairs == [("c", "c†"), ("d", "d†"), ("c", "d"), ("c", "d†"), ("d", "c"), ("d†", "c")]
        assert e.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        for value, (x, y) in zip(audit, pairs):
            unit = np.eye(len(bins)) if (x, y) in (("c", "c†"), ("d", "d†")) else 0.0
            commutator = table[f"{x} {y}"].numeric - table[f"{y} {x}"].numeric.T
            np.testing.assert_allclose(value, commutator - unit, rtol=0.0, atol=1e-14)

    def test_zero_squeezing_reduces_to_displaced(self, wp_standard, circ_displaced):
        via_squeezed = build_squeezed_circuit(1.0, wp_standard, 256, r_s=0.0)
        rows_a = appendix_expectations(circ_displaced, 110, 130, phi=0.2)
        rows_b = appendix_expectations(via_squeezed, 110, 130, phi=0.2)
        for name in rows_a:
            assert rows_a[name].numeric == pytest.approx(rows_b[name].numeric, abs=1e-13)
            assert rows_a[name].closed == pytest.approx(rows_b[name].closed, abs=1e-13)

    def test_squeezing_odd_rows_vanish_when_displaced(self, circ_displaced):
        rows = appendix_expectations(circ_displaced, 100, 140, phi=0.0)
        for name in ("c c", "c† c†", "d d", "d† d†", "c d†", "d c†"):
            assert abs(rows[name].numeric) < 1e-12
            assert abs(rows[name].closed) < 1e-12

    def test_finite_gain_floor_visible(self, circ_displaced):
        # the only systematic error left is the finite channel gain sech^2(r)
        floor = 1.0 / math.cosh(DEFAULT_CHANNEL_GAIN) ** 2
        rows = appendix_expectations(circ_displaced, 120, 136, phi=0.0)
        worst = max(r.rel_deviation for r in rows.values())
        assert worst <= 10 * floor

    def test_bin_validation(self, circ_displaced):
        with pytest.raises(ValueError):
            appendix_expectations(circ_displaced, 0, 256)
        with pytest.raises(ValueError):
            contraction_table(circ_displaced, [3, -1], [5])

    @pytest.mark.parametrize(
        "omega_bins, bad",
        [
            ([10.7], 10.7),
            (np.array([12.0]), 12.0),
            ([True], True),
            ([10, np.bool_(True)], np.bool_(True)),
            (["3"], "3"),
            ("3", "3"),
        ],
        ids=repr,
    )
    def test_non_integer_bins_named(self, circ_displaced, omega_bins, bad):
        # a float, boolean or string bin would otherwise be cast to an index
        with pytest.raises(ValueError, match=f"integer, got {re.escape(repr(bad))}$"):
            contraction_table(circ_displaced, omega_bins, [12])
        with pytest.raises(ValueError, match="integer"):
            contraction_table(circ_displaced, [12], omega_bins)

    def test_integer_bins_of_any_kind(self, circ_displaced):
        ref = contraction_table(circ_displaced, [10, 14], [12])
        for w in (np.array([10, 14]), [np.int64(10), np.uint8(14)], np.array([[10], [14]])):
            table = contraction_table(circ_displaced, w, np.int32(12))
            assert all(np.array_equal(table[k].numeric, ref[k].numeric) for k in ref)

    @pytest.mark.parametrize("fixture", ["circ_displaced", "circ_squeezed"])
    def test_table_matches_wick_expectation(self, fixture, request):
        # The batched table against the general Wick engine on operators
        # built from the documented output form, diagonal pairs included.
        circ = request.getfixturevalue(fixture)
        bins, phi = [90, 128, 140], 0.3
        table = contraction_table(circ, bins, bins, phi=phi)
        alpha = np.exp(1j * phi)
        for k, w in enumerate(bins):
            for m, y in enumerate(bins):
                ops_w, ops_y = _centered_outputs(circ, w, alpha), _centered_outputs(circ, y, alpha)
                for a in ("c", "c†", "d", "d†"):
                    for b in ("c", "c†", "d", "d†"):
                        direct = wick_expectation([ops_w[a][0], ops_y[b][0]])
                        assert table[f"{a} {b}"].numeric[k, m] == pytest.approx(direct, rel=0, abs=1e-14)
                for a in ("c", "d"):
                    for b in ("c", "d"):
                        direct = _quartic_by_extraction(ops_w[a], ops_y[b])
                        numeric = table[f"n_{a} n_{b} |α|²"].numeric[k, m]
                        assert numeric == pytest.approx(direct, rel=1e-12, abs=1e-15)
                one_pair = appendix_expectations(circ, w, y, phi=phi)
                for name, row in one_pair.items():
                    assert row.numeric == table[name].numeric[k, m]
                    assert row.rel_deviation == table[name].rel_deviation[k, m]


def _centered_outputs(circ, i, alpha):
    """Output kind -> (centered operator of bin i, its LO shift at alpha):
    c_out = c + g ch W and d_out = d - g sh W†, as DiscretizedCircuit states."""
    c = annihilator(ModeLabel(Sector.UNRUH_C, Chirality.LEFT, i)) + circ.wire_delta * circ.g[i] * circ.ch[i]
    d = annihilator(ModeLabel(Sector.UNRUH_D, Chirality.LEFT, i)) - circ.wire_delta.dagger() * circ.g[i] * circ.sh[i]
    c_shift = circ.g[i] * circ.ch[i] * circ.disp_gain * alpha
    d_shift = -circ.g[i] * circ.sh[i] * (circ.disp_gain * alpha).conjugate()
    return {"c": (c, c_shift), "c†": (c.dagger(),), "d": (d, d_shift), "d†": (d.dagger(),)}


def _quartic_by_extraction(x, z):
    """|alpha|^2 coefficient of <n_x n_z> - <n_x><n_z> from evaluations at
    |alpha| = 0, 1, 2 (odd orders vanish by Wick parity, and the combination
    also cancels an |alpha|^4 term)."""
    values = []
    for m in (0.0, 1.0, 2.0):
        xm, zm = x[0] + m * x[1], z[0] + m * z[1]
        ops = [xm.dagger(), xm, zm.dagger(), zm]
        values.append(wick_expectation(ops) - wick_expectation(ops[:2]) * wick_expectation(ops[2:]))
    f0, f1, f2 = values
    return (16.0 * (f1 - f0) - (f2 - f0)) / 12.0


class TestFockProtocolCheck:
    def test_feasible_point_passes(self):
        rep = fock_check_inertial(0.5, 0.5, strict=False)
        assert rep.passed
        assert rep.max_deviation == pytest.approx(1.4518e-05, rel=1e-3)
        assert rep.lost_mass < 1e-5
        assert rep.predicted_var == pytest.approx(
            1.0 + 2.0 * math.tanh(0.5) ** 2 * math.exp(-1.0), rel=1e-12
        )
        assert rep.predicted_mean == pytest.approx(2 * 0.2, rel=1e-12)
        assert rep.cutoff == 12

    def test_orthogonal_read_is_exact(self):
        # At a real beta and phi = 0 the orthogonal phase reads (cos, sin) =
        # (-0.0, 1.0): the window's <Y^2> with no leak of cos(pi/2).
        rep = fock_check_inertial(0.6, 0.4, 12, beta=0.3, phi=0.0)
        norm2, _, a2, lowered, raised = _fock_window(0.6, 0.4, 0.3, 12)
        assert rep.measured_var_orth == (lowered + raised - 2.0 * a2) / norm2

    def test_the_prediction_is_one_covariance(self, monkeypatch):
        from rindler_teleport import oracle

        calls = []
        monkeypatch.setattr(oracle, "quadrature_covariance", lambda e: calls.append(e) or quadrature_covariance(e))
        rep = fock_check_inertial(0.5, 0.5, 12, beta=0.2 - 0.1j, phi=0.7)
        assert len(calls) == 1
        cov = quadrature_covariance(inertial_teleport_output(0.5, 0.5))
        c, s = math.cos(0.7), math.sin(0.7)
        assert (rep.predicted_var, rep.predicted_var_orth) == (phase_variance(cov, c, s), phase_variance(cov, -s, c))
        assert rep.predicted_var == quadrature_variance(inertial_teleport_output(0.5, 0.5), 0.7)

    def test_deterministic(self):
        r1 = fock_check_inertial(0.3, 0.7, strict=False)
        _fock_window.cache_clear()  # the second check recomputes every window
        r2 = fock_check_inertial(0.3, 0.7, strict=False)
        assert r1.max_deviation == r2.max_deviation
        assert r1.measured_var == r2.measured_var

    def test_vacuum_resource(self):
        rep = fock_check_inertial(0.5, 0.0, strict=False)
        assert rep.passed
        assert rep.predicted_var == pytest.approx(
            1.0 + 2.0 * math.tanh(0.5) ** 2, rel=1e-12
        )

    @pytest.mark.parametrize("beta, phi", [(0.2, 0.0), (0.3 - 0.2j, 1.1)])
    def test_zero_acceleration_point(self, beta, phi):
        # At r = 0 the amplifier is the identity and the beam splitter fully
        # transmits, so the output is the displaced vacuum.
        rep = fock_check_inertial(0.0, 0.7, beta=beta, phi=phi)
        assert rep.passed
        assert rep.predicted_var == pytest.approx(1.0, rel=1e-12)
        assert rep.predicted_mean == pytest.approx(2.0 * (beta * cmath.exp(-1j * phi)).real, rel=1e-12)

    def test_strict_raises_outside_window(self):
        with pytest.raises(TruncationError) as excinfo:
            fock_check_inertial(1.0, 0.8, cutoff=12)
        report = excinfo.value.report
        assert report.max_deviation == pytest.approx(3.2145e-02, rel=1e-2)
        assert report.lost_mass > 1e-2

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"beta": math.nan}, "beta"),
            ({"beta": complex(0.2, math.inf)}, "beta"),
            ({"phi": math.inf}, "phi"),
            ({"phi": math.nan}, "phi"),
            ({"cutoff": 12.7}, "cutoff"),
            ({"cutoff": True}, "cutoff"),
        ],
        ids=repr,
    )
    def test_bad_inputs_named(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            fock_check_inertial(0.5, 0.5, strict=False, **kwargs)

    def test_numpy_integer_cutoff(self):
        rep = fock_check_inertial(0.5, 0.5, np.int64(12), strict=False)
        assert rep.cutoff == 12 and rep.passed

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            fock_check_inertial(2.0, 0.5)
        with pytest.raises(ValueError):
            fock_check_inertial(0.5, -0.1)
        with pytest.raises(ValueError):
            fock_check_inertial(0.5, 0.5, cutoff=64)  # 65**3 amplitudes > 64**3
        with pytest.raises(ValueError):
            fock_check_inertial(0.5, 0.5, cutoff=3)

    def test_default_window_sees_past_small_lost_mass(self):
        # At cutoff 20 the projection loses less than 1e-4 of the norm, yet
        # the variance is off by more than the 1e-3 bound: the lost tail
        # weighs by photon number.  The default window must not stop there.
        fixed = fock_check_inertial(1.0, 0.0, cutoff=20, beta=0.5, phi=0.7, strict=False)
        assert fixed.lost_mass < 1e-4
        assert fixed.max_deviation > 1e-3
        rep = fock_check_inertial(1.0, 0.0, beta=0.5, phi=0.7)
        assert rep.passed
        assert rep.cutoff > 20

    def test_default_window_grows_in_the_corner(self):
        rep = fock_check_inertial(1.0, 1.0)
        assert rep.cutoff > 12
        assert rep.passed

    def test_unsettled_window_at_dimension_limit(self):
        with pytest.raises(TruncationError) as excinfo:
            fock_check_inertial(1.5, 1.5)
        report = excinfo.value.report
        assert report.cutoff == 63
        assert not report.passed

    # From |beta| of about 28 every amplitude of a small window squares below
    # the smallest float, and at 1e300 b**n leaves the float range: no window
    # holds any norm, so the report fails with all of it lost.
    @pytest.mark.parametrize("beta", [30.0, 30j, 1e300], ids=repr)
    @pytest.mark.parametrize("cutoff", [None, 6])
    def test_window_without_norm_fails(self, beta, cutoff):
        rep = fock_check_inertial(0.3, 0.3, cutoff, beta=beta, strict=False)
        assert not rep.passed
        assert rep.lost_mass == 1.0
        with pytest.raises(TruncationError) as excinfo:
            fock_check_inertial(0.3, 0.3, cutoff, beta=beta)
        assert excinfo.value.report.lost_mass == 1.0
        assert not excinfo.value.report.passed

    @pytest.mark.parametrize(
        "r, r_omega, cutoff",
        [
            (0.5, 0.0, 12),
            (0.5, 0.5, 12),
            (0.3, 1.0, 16),
            (0.8, 0.6, 20),
            (1.0, 0.0, 25),
            (1.0, 0.8, 38),
            (1.0, 1.0, 58),
        ],
    )
    def test_default_window_on_acceptance_lattice(self, r, r_omega, cutoff):
        # The windows README lists for the acceptance lattice; (1.5, 1.5)
        # reaching cutoff 63 unsettled is pinned above.
        rep = fock_check_inertial(r, r_omega)
        assert rep.cutoff == cutoff

    def test_prediction_built_once_per_point(self):
        # The prediction does not depend on the cutoff: a point checked at the
        # default window and at four fixed ones builds it once.
        before = inertial_teleport_output.cache_info()
        for cutoff in (None, 6, 8, 10, 12):
            fock_check_inertial(0.3671875, 0.5859375, cutoff, beta=0.1 + 0.2j, phi=0.7, strict=False)
        after = inertial_teleport_output.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 4)

    def test_ladder_windows_are_simulated_once(self):
        # (0.8, 0.6) settles at 20 with 25 as its witness: the ladder ran
        # 12, 16, 20 and 25, and a fixed check at any of them simulates nothing.
        _fock_window.cache_clear()
        rep = fock_check_inertial(0.8, 0.6, beta=0.1 + 0.2j, phi=0.7, strict=False)
        assert rep.cutoff == 20
        before = _fock_window.cache_info()
        assert before.misses == 4
        for cutoff in (12, 16, 20, 25):
            fock_check_inertial(0.8, 0.6, cutoff, beta=0.2 - 0.1j, phi=1.9, strict=False)
        after = _fock_window.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 4)

    @pytest.mark.parametrize("cutoff", [None, 6, 12, 31])
    def test_reports_do_not_depend_on_the_kept_windows(self, cutoff):
        def bits(rep):
            return [value.hex() if isinstance(value, float) else value for value in dataclasses.astuple(rep)]

        points = [(0.9, 0.7, 0.3 - 0.2j, 1.1), (0.25, 1.2, -0.4j, 0.3), (1.5, 1.5, 0.2, 0.0)]
        cold = []
        for r, r_omega, beta, phi in points:
            _fock_window.cache_clear()
            cold.append(bits(fock_check_inertial(r, r_omega, cutoff, beta=beta, phi=phi, strict=False)))
        warm = [bits(fock_check_inertial(r, r_omega, cutoff, beta=beta, phi=phi, strict=False))
                for r, r_omega, beta, phi in points]
        assert _fock_window.cache_info().hits > 0
        assert warm == cold

    def test_kept_windows_are_bounded(self):
        maxsize = _fock_window.cache_info().maxsize
        assert isinstance(maxsize, int) and 0 < maxsize <= 1024
        for k in range(maxsize + 5):
            fock_check_inertial(0.25, 1.0 + k / 997.0, 4, strict=False)
            assert _fock_window.cache_info().currsize <= maxsize
        assert _fock_window.cache_info().currsize == maxsize

    def test_lost_mass_shrinks_as_window_grows(self):
        reports = [
            fock_check_inertial(0.9, 0.7, cutoff=c, beta=0.3 - 0.2j, phi=1.1, strict=False)
            for c in (6, 8, 12, 16, 24, 32, 48)
        ]
        lost = [rep.lost_mass for rep in reports]
        assert all(later <= earlier for earlier, later in zip(lost, lost[1:]))

    # m = cutoff + 1 is even at 5 and 7, as on the adaptive ladder's 25, 31
    # and 47, where the even and odd photon numbers split the window in halves.
    @pytest.mark.parametrize("cutoff", [5, 6, 7, 8, 12, 16, 20, 25, 31])
    @pytest.mark.parametrize(
        "r, r_omega, beta, phi",
        [
            (0.5, 0.5, 0.2, 0.0),
            (1.0, 0.8, 0.4 - 0.3j, 1.1),
            (0.7, 0.0, -0.25j, 2.5),
            (0.0, 0.6, 0.3, 0.4),
        ],
    )
    def test_window_matches_operator_reference(self, r, r_omega, beta, phi, cutoff):
        rep = fock_check_inertial(r, r_omega, cutoff, beta=beta, phi=phi, strict=False)
        (mean, var, var_orth), lost = _reference_fock_moments(r, r_omega, beta, phi, cutoff)
        assert rep.measured_mean == pytest.approx(mean, abs=1e-12)
        assert rep.measured_var == pytest.approx(var, abs=1e-12)
        assert rep.measured_var_orth == pytest.approx(var_orth, abs=1e-12)
        assert rep.lost_mass == pytest.approx(lost, abs=1e-12)


def _reference_fock_moments(r, r_omega, beta, phi, cutoff):
    """Output moments of the protocol built operator by operator.

    The full complex three-mode state of the window, Kronecker-product
    ladder operators, the gates' normal-ordered power series and a sparse
    matrix exponential for the beam splitter: the same window the oracle
    simulates sector by sector.
    """
    m = cutoff + 1
    low = sp.diags(np.sqrt(np.arange(1, m)), 1)
    eye = sp.identity(m)
    a0, a1, a2 = (
        sp.kron(sp.kron(x, y), z).tocsr()
        for x, y, z in ((low, eye, eye), (eye, low, eye), (eye, eye, low))
    )

    def series(op, psi):
        out, term = psi.copy(), psi
        for k in range(1, 400):
            term = op @ term / k
            out = out + term
            if np.linalg.norm(term) <= 1e-18 * np.linalg.norm(out):
                return out
        raise AssertionError("gate series did not terminate")

    def squeeze(x, y, strength, psi):
        lam = math.tanh(strength)
        occupation = (x.T @ x + y.T @ y).diagonal()
        psi = series(-lam * (x @ y), psi) / math.cosh(strength) ** (occupation + 1.0)
        return series(lam * (x.T @ y.T), psi)

    psi = np.zeros(m**3, dtype=complex)
    psi[0] = 1.0
    psi = math.exp(-0.5 * abs(beta) ** 2) * series(beta * a0.T, series(-np.conj(beta) * a0, psi))
    psi = squeeze(a1, a2, r_omega, psi)
    psi = squeeze(a0, a1, r, psi)
    theta = -math.acos(1.0 / math.cosh(r))
    psi = expm_multiply((theta * (a0.T @ a2 - a2.T @ a0)).tocsc(), psi)
    norm2 = np.vdot(psi, psi).real

    def moments(phase):
        xpsi = (np.exp(-1j * phase) * a0 + np.exp(1j * phase) * a0.T) @ psi
        mean = np.vdot(psi, xpsi).real / norm2
        return mean, np.vdot(xpsi, xpsi).real / norm2 - mean**2

    mean, var = moments(phi)
    _, var_orth = moments(phi + 0.5 * math.pi)
    return (mean, var, var_orth), 1.0 - norm2


# Every function that takes an LO phase, called at ``phi``.
_PHASE_CALLS = {
    "photon_number_variance_lo": lambda circ, wp, phi: photon_number_variance_lo(circ, phi),
    "contraction_table": lambda circ, wp, phi: contraction_table(circ, [10], [12], phi=phi),
    "appendix_expectations": lambda circ, wp, phi: appendix_expectations(circ, 10, 12, phi=phi),
    "squeezed_variance": lambda circ, wp, phi: squeezed_variance(1.0, wp, 0.4, phi),
    "delta_decoherence": lambda circ, wp, phi: delta_decoherence(0.4, 1.2, phi),
    "variance_from_integrals": lambda circ, wp, phi: variance_from_integrals(1.2, 0.2, 0.5, 0.4, phi),
    "quadrature_variance": lambda circ, wp, phi: quadrature_variance(
        annihilator(ModeLabel(Sector.AUX, Chirality.LEFT, 0)), phi),
    "fock_check_inertial": lambda circ, wp, phi: fock_check_inertial(0.5, 0.5, phi=phi, strict=False),
}


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("call", sorted(_PHASE_CALLS))
def test_non_finite_phase_named(call, phi, circ_squeezed, wp_standard):
    with pytest.raises(ValueError, match=f"LO phase phi must be finite, got {phi}"):
        _PHASE_CALLS[call](circ_squeezed, wp_standard, phi)
