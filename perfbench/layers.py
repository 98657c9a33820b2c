"""Per-layer instrumentation of the five package modules, from outside.

``LayerTrace`` wraps the calls into ``spectral``, ``mode_algebra``,
``teleportation``, ``oracle`` and ``cli`` with spans (see ``spans.py``);
``layer_metrics`` turns the aggregates into the per-layer metrics that
``BENCHMARK.json`` lists.  Nothing inside the package changes: spans sit at
the function boundaries the package already has.
"""

from __future__ import annotations

from spans import Tracer
from workloads import FOCK_CUTOFFS, fock_tag

PACKAGE = "rindler_teleport"

# (module, function, span name).  Several functions share one span group,
# e.g. both circuit builders report under ``oracle.build``.
PLAIN_SPANS = (
    ("spectral", "make_wavepacket", "spectral.make_wavepacket"),
    ("spectral", "spectral_integrals", "spectral.spectral_integrals"),
    ("spectral", "unruh_cosh_sinh", "spectral.unruh_cosh_sinh"),
    ("mode_algebra", "rindler_to_unruh", "mode_algebra.rindler_to_unruh"),
    ("mode_algebra", "commutator", "mode_algebra.commutator"),
    ("mode_algebra", "pair_contraction", "mode_algebra.pair_contraction"),
    ("mode_algebra", "wick_expectation", "mode_algebra.wick_expectation"),
    ("mode_algebra", "displace", "mode_algebra.gates.displace"),
    ("mode_algebra", "single_mode_squeeze", "mode_algebra.gates.single_mode_squeeze"),
    ("mode_algebra", "two_mode_squeeze", "mode_algebra.gates.two_mode_squeeze"),
    ("mode_algebra", "beam_splitter", "mode_algebra.gates.beam_splitter"),
    ("teleportation", "displaced_variance", "teleportation.closed_form.displaced"),
    ("teleportation", "squeezed_variance", "teleportation.closed_form.squeezed"),
    ("teleportation", "delta_decoherence", "teleportation.closed_form.delta_decoherence"),
    ("teleportation", "inertial_teleport_output", "teleportation.inertial_output"),
    ("oracle", "build_displaced_circuit", "oracle.build.displaced"),
    ("oracle", "build_squeezed_circuit", "oracle.build.squeezed"),
    ("oracle", "_audit_commutators", "oracle.audit"),
    ("oracle", "photon_number_variance_lo", "oracle.lo_variance"),
    ("oracle", "appendix_expectations", "oracle.appendix"),
    ("cli", "cmd_fig4", "cli.fig4"),
    ("cli", "cmd_fig5", "cli.fig5"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_verify", "cli.verify"),
)

MODULES = ("spectral", "mode_algebra", "teleportation", "oracle", "cli")


class LayerTrace:
    """A tracer attached to the package, plus the Fock reports it saw."""

    def __init__(self, modules: dict) -> None:
        self.tracer = Tracer()
        self.fock_reports: list[tuple[str, bool, float]] = []
        self._modules = modules

    def attach(self) -> None:
        """Wrap every listed function, the Fock check and the CLI pool."""
        t = self.tracer
        for mod, func, name in PLAIN_SPANS:
            original = getattr(self._modules[mod], func)
            t.instrument(PACKAGE, original, t.wrap(original, name))

        fock = self._modules["oracle"].fock_check_inertial

        def traced_fock(*args, **kwargs):
            tag = fock_tag(kwargs.get("cutoff", args[2] if len(args) > 2 else None))
            rep = t.call(f"oracle.fock.cutoff{tag}", fock, *args, **kwargs)
            self.fock_reports.append((tag, bool(rep.passed), float(rep.lost_mass)))
            return rep

        t.instrument(PACKAGE, fock, traced_fock)

        parallel = self._modules["cli"]._parallel

        def traced_parallel(func, points):
            def row(point):
                return t.call("cli.parallel.row", func, point)

            return t.call("cli.parallel", parallel, row, points)

        t.instrument(PACKAGE, parallel, traced_parallel)

    def detach(self) -> None:
        self.tracer.restore()


def layer_metrics(trace: LayerTrace, wall_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced phase."""
    t = trace.tracer
    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(name: str, stats) -> None:
        out[f"{name}.calls"] = (stats.calls, "count")
        out[f"{name}.self_s"] = (stats.self_s, "s")

    for name in (
        "spectral.make_wavepacket",
        "spectral.spectral_integrals",
        "spectral.unruh_cosh_sinh",
        "mode_algebra.rindler_to_unruh",
        "mode_algebra.commutator",
        "mode_algebra.gates",
        "mode_algebra.pair_contraction",
        "mode_algebra.wick_expectation",
        "teleportation.closed_form",
        "teleportation.inertial_output",
        "oracle.build",
        "oracle.audit",
        "oracle.lo_variance",
        "oracle.appendix",
        "oracle.fock",
    ):
        calls_and_self(name, t.group(name))
    out["spectral.spectral_integrals.failed"] = (
        t.get("spectral.spectral_integrals").errors, "count")
    for gate in ("displace", "single_mode_squeeze", "two_mode_squeeze", "beam_splitter"):
        out[f"mode_algebra.gates.{gate}.self_s"] = (t.get(f"mode_algebra.gates.{gate}").self_s, "s")
    for tag in map(fock_tag, FOCK_CUTOFFS):
        out[f"oracle.fock.cutoff{tag}.self_s"] = (t.get(f"oracle.fock.cutoff{tag}").self_s, "s")
    default = [(passed, lost) for tag, passed, lost in trace.fock_reports if tag == "default"]
    out["oracle.fock.passed_ratio"] = (
        sum(p for p, _ in default) / len(default) if default else 0.0, "ratio")
    out["oracle.fock.lost_mass_max"] = (
        max((lost for _, lost in default), default=0.0), "fraction")
    for sub in ("fig4", "fig5", "sweep", "verify"):
        out[f"cli.{sub}.self_s"] = (t.get(f"cli.{sub}").self_s, "s")
    out["cli.csv_bytes"] = (csv_bytes, "bytes")
    pool = t.get("cli.parallel")
    rows = t.get("cli.parallel.row")
    out["cli.parallel.wall_s"] = (pool.total_s, "s")
    out["cli.parallel.busy_over_wall"] = (rows.total_s / pool.total_s if pool.total_s else 0.0, "ratio")
    out["cli.parallel.row_self_s"] = (rows.self_s, "s")

    # Self-time share of the traced wall time per module.  ``cli.parallel``
    # itself only waits for its rows, so it is left out; rows of a threaded
    # sweep overlap, so the shares of a pooled workload can add up above 1.
    for mod in MODULES:
        self_s = t.group(mod).self_s
        if mod == "cli":
            self_s -= pool.self_s
        out[f"share.{mod}"] = (self_s / wall_s if wall_s > 0 else 0.0, "ratio")
    return out

