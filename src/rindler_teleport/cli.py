"""Command-line front end: figure sweeps, generic sweeps, self-verification.

``rindler-teleport COMMAND [settings]`` runs one of four commands:

* ``fig4``  - coherent-payload variance vs acceleration, one curve per
  carrier frequency (CSV).
* ``fig5``  - squeezed-payload noise decomposition vs acceleration:
  thermal term plus the phase-0 / phase-90 decoherence terms (CSV).
* ``sweep`` - generic acceleration sweep for one scenario (``displaced``,
  ``squeezed`` or ``inertial``), optionally cross-checked against the
  discretized-circuit oracle: one circuit over the converged rows'
  accelerations, one circuit row per sweep row.  The oracle's uniform bins
  cannot resolve a clipped wavepacket (sigma > omega0/8); its rows keep their
  deviation but carry the status ``oracle-unresolved``.
* ``verify`` - dual-path verification suites (closed forms vs mechanical
  Wick evaluation vs truncated-Fock simulation); exit status 0 only if
  every suite meets its tolerance.

Each sweep curve is one closed-form call over the whole acceleration grid
(see ``spectral.spectral_integrals``).  A row whose spectral integrals did
not converge is written as NaNs with the status ``no-convergence``; a
converged row holding a value past the float range keeps it, with the
status ``overflow``.

One parser reads the command and the twelve settings every command takes,
as flags in any order; each setting is declared once in ``_SETTINGS`` as its
flag, value parser and help (defaults < flags).  ``_resolve_config`` keeps
what the command reads, fills its defaults and warns of each given setting
it ignores.
``main`` builds that parser once per process and reuses it on every later
call; ``build_parser()`` returns a fresh one to callers that inspect or
extend it.  No parse leaves state in the parser: each call starts from the
same defaults.

All outputs are deterministic for a fixed configuration: floats are
rendered with ``%.12g``, metadata headers are sorted, nothing timestamps
itself, and nothing is drawn at random (``verify`` checks every
mass-bearing bin pair; the seed is only recorded).  Exit codes: 0
success, 1 verification failure, 2 invalid input, including a value the
physics rejects (``r_s`` past e^(2 r_s) overflow, or an oracle build past
its own r_s bound, see ``oracle.build_squeezed_circuit``) and a wavepacket
that floats cannot hold (see ``spectral.make_wavepacket``).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .mode_algebra import Chirality, ModeLabel, Sector
from .oracle import (
    DEFAULT_CHANNEL_GAIN,
    build_squeezed_circuit,
    contraction_table,
    fock_check_inertial,
    photon_number_variance_lo,
)
from .spectral import (
    make_wavepacket,
    spectral_integrals,
    squeeze_param,
)
from .teleportation import (
    delta_extremes,
    displaced_variance,
    inertial_teleport_output,
    squeezed_variance,
    variance_from_integrals,
)

log = logging.getLogger("rindler_teleport.cli")

ENV_OUTDIR = "RINDLER_TELEPORT_OUTDIR"

SCENARIOS = ("displaced", "squeezed", "inertial")

FIG4_OMEGA0_CURVES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
FIG4_FILENAME = "fig4_variance_vs_acceleration.csv"
FIG5_FILENAME = "fig5_decoherence_vs_acceleration.csv"
VERIFY_FILENAME = "verification_report.txt"

# verification-suite tolerances (recorded in every report)
VERIFY_SPECTRAL_TOL = 1e-8
VERIFY_COEFF_TOL = 1e-12
VERIFY_APPENDIX_TOL = 1e-8
VERIFY_ORACLE_TOL = 1e-11
VERIFY_FOCK_POINT = (0.5, 0.5)
# the oracle suites' lattice: every acceleration is a row of one circuit per
# payload (r_s, with the LO phases read); the appendix suite reads a = 1.
# The coherent payload (r_s = 0) is phase independent: one phase suffices.
VERIFY_ACCELERATIONS = (0.3, 1.0, 3.0)
VERIFY_PAYLOADS = ((0.0, (0.0,)), (0.4, (0.0, math.pi / 2)))
# fraction of the peak envelope weight below which bins are left out of the
# contraction-identity suite: tail rows scale like g_w*g_y (~1e-7) while the
# N-term Wick sums carry an absolute float-noise floor ~1e-15, leaving no
# headroom for a relative certificate there.
MASS_BEARING_FRACTION = 0.05
# bin pairs per contraction-table call in the appendix suite, about 880 bytes
# each: up to 256 bins (110 mass-bearing) a circuit's table is one call, and
# a finer grid is read in blocks of omega bins.
_APPENDIX_BLOCK_PAIRS = 16384


@dataclass(frozen=True)
class SweepConfig:
    """Resolved run configuration (defaults < flags); see
    ``_resolve_config`` for the per-command defaults."""

    scenario: str = "displaced"
    a_min: float = 0.05
    a_max: float = 50.0
    a_steps: int = 40
    omega0: float | None = None
    sigma: float | None = None
    r_s: float | None = None
    phi: float | None = None
    bins: int = 256
    oracle: bool = False
    out: str | None = None
    seed: int = 1234

    def a_grid(self) -> np.ndarray:
        return np.logspace(math.log10(self.a_min), math.log10(self.a_max), self.a_steps)


# ---------------------------------------------------------------------------
# configuration plumbing


def _checked(convert, test, requirement: str):
    """Value parser: ``convert`` the text, then require ``test`` of the value."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {convert.__name__}, got {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value!r}")
        return value

    return parse


_positive = _checked(float, lambda x: 0.0 < x < math.inf, "positive")
_finite = _checked(float, math.isfinite, "finite")

#: Every setting once: its SweepConfig field, flag, value parser and help.
#: A setting without a value parser is a bare flag.
_SETTINGS = {
    "scenario": (
        "--scenario",
        _checked(str, SCENARIOS.__contains__, "one of " + ", ".join(SCENARIOS)),
        "sweep variant: displaced (default), squeezed or inertial",
    ),
    "a_min": ("--a-min", _positive, "smallest acceleration (log grid)"),
    "a_max": ("--a-max", _finite, "largest acceleration (log grid)"),
    "a_steps": ("--a-steps", _checked(int, lambda n: n >= 1, ">= 1"), "number of acceleration points"),
    "omega0": ("--omega0", _positive, "carrier frequency of the wavepacket"),
    "sigma": ("--sigma", _positive, "wavepacket bandwidth (default 0.01*omega0)"),
    "r_s": ("--rs", _checked(float, lambda x: 0.0 <= x < math.inf, "non-negative"), "payload squeezing strength"),
    "phi": ("--phi", _finite, "quadrature phase"),
    "bins": ("--bins", _checked(int, lambda n: n >= 4, ">= 4"), "frequency bins for the discretized oracle"),
    "oracle": ("--oracle", None, "cross-check each sweep row against the discretized-circuit oracle"),
    "out": ("--out", str, f"output path (default: ${ENV_OUTDIR} or the working directory)"),
    "seed": ("--seed", _checked(int, lambda n: n >= 0, "non-negative"), "recorded in each output"),
}

#: The settings each command reads besides ``out`` and ``seed``; ``sweep``
#: by scenario.  A sweep that runs the oracle also reads ``bins``.
_GRID = ("a_min", "a_max", "a_steps")
_READS = {
    "fig4": (*_GRID, "omega0", "sigma"),
    "fig5": (*_GRID, "omega0", "sigma", "r_s"),
    "verify": ("bins",),
    "displaced": ("scenario", *_GRID, "omega0", "sigma", "oracle"),
    "squeezed": ("scenario", *_GRID, "omega0", "sigma", "r_s", "phi", "oracle"),
    "inertial": ("scenario", *_GRID, "omega0"),
}


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> SweepConfig:
    """Merge defaults and flags into what ``args.command`` reads.

    Each provided setting the command ignores is logged.  Of the payload
    settings, those the command reads get their defaults - omega0 = 1,
    sigma = 0.01*omega0, r_s = 0.5, phi = 0 - and the rest are None.
    ``fig4`` leaves omega0 and sigma unset: it sweeps its own carriers, each
    with sigma = 0.01*omega0.
    """
    given = {name: v for name in _SETTINGS if (v := getattr(args, name)) is not None}
    cfg = SweepConfig(**given)
    if cfg.a_max < cfg.a_min:
        parser.error(f"--a-max must be >= --a-min, got {cfg.a_max}")

    reads = {"out", "seed", *_READS[cfg.scenario if args.command == "sweep" else args.command]}
    if "oracle" in reads and cfg.oracle:
        reads.add("bins")
    for name in sorted(given.keys() - reads):
        log.warning("%s ignores the %r setting; continuing without it", args.command, name)

    def pick(name, default):
        value = getattr(cfg, name)
        return None if name not in reads else default if value is None else value

    fig4 = args.command == "fig4"
    omega0 = pick("omega0", None if fig4 else 1.0)
    return replace(
        cfg,
        oracle=cfg.oracle and "oracle" in reads,
        omega0=omega0,
        sigma=pick("sigma", None if fig4 or omega0 is None else 0.01 * omega0),
        r_s=pick("r_s", 0.5),
        phi=pick("phi", 0.0),
    )


def _resolve_out(cfg: SweepConfig, default_name: str) -> Path:
    if cfg.out:
        path = Path(cfg.out)
    else:
        path = Path(os.environ.get(ENV_OUTDIR, ".")) / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# deterministic CSV emission


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_csv(cfg: SweepConfig, command: str, default_name: str, meta: dict, header: list, rows: list) -> int:
    """Write ``rows`` below the sorted ``# key = value`` lines of the run's
    grid and ``meta``, in one write; report where; exit status 0.

    Each line is its cells, rendered by ``_fmt``, joined by commas: the
    bytes ``csv.writer`` would write, as no cell needs quoting.  Every cell
    is a float, int, bool, None or a fixed status word, and no header name
    or status word holds a comma, a quote or a line break.
    """
    meta = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "a_min": cfg.a_min,
        "a_max": cfg.a_max,
        "a_steps": cfg.a_steps,
        "rows": len(rows),
        **meta,
    }
    out = _resolve_out(cfg, default_name)
    lines = [f"# {key} = {_fmt(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(header))
    lines += [",".join(map(_fmt, row)) for row in rows]
    with open(out, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _parallel(func, points: list) -> list:
    """``func`` over ``points``, serially and in order.

    ``fig4`` maps its carrier curves through here, and the benchmark's
    tracer (``perfbench/layers.py``) wraps this name to time them.
    """
    return [func(p) for p in points]


def _grid_cells(*columns) -> list[list]:
    """Per-acceleration CSV cells from equal-length closed-form columns.

    Each row holds its values and the status ``ok``; where the first
    column is NaN (the spectral integrals did not converge), NaNs and
    ``no-convergence``; and where another value is not finite (it overflowed
    a float), its values and ``overflow``.
    """
    rows = []
    for values in zip(*(c.tolist() for c in columns)):
        if math.isnan(values[0]):
            rows.append([math.nan] * len(values) + ["no-convergence"])
        else:
            rows.append([*values, "ok" if all(map(math.isfinite, values)) else "overflow"])
    return rows


# ---------------------------------------------------------------------------
# fig4: coherent-payload variance vs acceleration


def cmd_fig4(cfg: SweepConfig) -> int:
    curves = FIG4_OMEGA0_CURVES if cfg.omega0 is None else (cfg.omega0,)
    a_grid = cfg.a_grid()
    packets = {w0: make_wavepacket(w0, cfg.sigma if cfg.sigma is not None else 0.01 * w0) for w0 in curves}

    def curve(w0):
        rep = displaced_variance(a_grid, packets[w0])
        cells = _grid_cells(rep.total, rep.thermal_noise, rep.qnl_or_decoherence)
        return [[w0, a, *row] for a, row in zip(a_grid.tolist(), cells)]

    rows = [row for rows in _parallel(curve, curves) for row in rows]

    meta = {
        "omega0_curves": ",".join(map(_fmt, curves)),
        "sigma_rule": _fmt(cfg.sigma) if cfg.sigma is not None else "0.01*omega0",
    }
    header = ["omega0", "a", "variance_total", "thermal", "qnl", "status"]
    return _write_csv(cfg, "fig4", FIG4_FILENAME, meta, header, rows)


# ---------------------------------------------------------------------------
# fig5: squeezed-payload noise decomposition vs acceleration


def cmd_fig5(cfg: SweepConfig) -> int:
    a_grid = cfg.a_grid()
    ints = spectral_integrals(make_wavepacket(cfg.omega0, cfg.sigma), a_grid)
    rep = variance_from_integrals(ints.i_c, ints.i_s, ints.i_cs, cfg.r_s, 0.0)
    _, d90 = delta_extremes(cfg.r_s, ints.i_c)  # the exact minimum, not Delta at a float pi/2
    cells = _grid_cells(rep.thermal_noise, rep.qnl_or_decoherence, d90, rep.total, rep.thermal_noise + d90)
    rows = [[a, *row] for a, row in zip(a_grid.tolist(), cells)]

    meta = {"omega0": cfg.omega0, "sigma": cfg.sigma, "r_s": cfg.r_s}
    header = ["a", "thermal", "delta_phi0", "delta_phi90", "total_phi0", "total_phi90", "status"]
    return _write_csv(cfg, "fig5", FIG5_FILENAME, meta, header, rows)


# ---------------------------------------------------------------------------
# sweep: generic acceleration sweep for one scenario


def _sweep_rows(cfg: SweepConfig) -> list[list]:
    """CSV rows of one sweep: a closed-form call over the grid, then, when
    it is toggled, one oracle call over the converged rows."""
    a_grid = cfg.a_grid()
    r_omega = squeeze_param(cfg.omega0, a_grid)
    wp = None
    if cfg.scenario == "inertial":
        # no amplification (i_c, i_s) = (1, 0); the resource's i_cs = e^(-2 r_omega)
        i_cs = np.exp(-2.0 * r_omega)
        rep = variance_from_integrals(np.ones_like(i_cs), 0.0, i_cs, 0.0, 0.0)
    else:
        wp = make_wavepacket(cfg.omega0, cfg.sigma)
        rep = squeezed_variance(a_grid, wp, cfg.r_s or 0.0, cfg.phi or 0.0)
    cells = _grid_cells(rep.total, rep.thermal_noise, rep.qnl_or_decoherence, rep.purity_product)

    statuses = [values.pop() for values in cells]
    deviations = [None] * len(cells)
    if wp is not None and cfg.oracle:
        ok = [k for k, status in enumerate(statuses) if status == "ok"]
        if ok:
            circ = build_squeezed_circuit(a_grid[ok], wp, cfg.bins, r_s=cfg.r_s or 0.0)
            # The oracle's uniform bins cannot resolve a clipped packet's 1/omega
            # tail, which the closed form integrates: its deviations are kept, unresolved.
            resolved = "oracle-unresolved" if wp.clipped else "ok"
            for k, d in zip(ok, _oracle_deviation(circ, rep.total[ok], cfg.phi or 0.0).tolist()):
                deviations[k], statuses[k] = d, "oracle-no-convergence" if math.isnan(d) else resolved
    return [
        [a, cfg.omega0, cfg.sigma, cfg.r_s, cfg.phi, r, *values, deviation, status]
        for a, r, values, deviation, status in zip(
            a_grid.tolist(), r_omega.tolist(), cells, deviations, statuses
        )
    ]


def _oracle_deviation(circ, closed_total: np.ndarray, phi: float) -> np.ndarray:
    """|oracle - closed| / |closed| per circuit row at LO phase ``phi``, NaN
    on a row that failed the audit or the additivity check: the one
    comparison of the two routes, for ``sweep --oracle`` and ``verify``."""
    return np.abs(photon_number_variance_lo(circ, phi).total - closed_total) / np.abs(closed_total)


def cmd_sweep(cfg: SweepConfig) -> int:
    rows = _sweep_rows(cfg)

    meta = {"scenario": cfg.scenario, "omega0": cfg.omega0, "oracle": cfg.oracle}
    meta.update({k: v for k in ("sigma", "r_s", "phi") if (v := getattr(cfg, k)) is not None})
    if cfg.oracle:
        meta.update(bins=cfg.bins, channel_gain=DEFAULT_CHANNEL_GAIN)

    header = [
        "a", "omega0", "sigma", "r_s", "phi", "r_omega",
        "variance_total", "thermal_noise", "qnl_or_decoherence", "purity_product",
        "oracle_deviation", "status",
    ]
    return _write_csv(cfg, "sweep", f"sweep_{cfg.scenario}.csv", meta, header, rows)


# ---------------------------------------------------------------------------
# verify: dual-path verification suites


@dataclass(frozen=True)
class SuiteResult:
    name: str
    worst: float
    tolerance: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{flag} {self.name}: worst deviation {self.worst:.3e} "
            f"(tolerance {self.tolerance:g}) - {self.detail}"
        )


def _suite_spectral() -> SuiteResult:
    accelerations = np.array((0.1, 1.0, 10.0))
    packets = ((1.0, 0.05), (1.0, 0.01), (2.0, 0.1))
    residuals = []
    for w0, sig in packets:
        ints = spectral_integrals(make_wavepacket(w0, sig), accelerations)
        residuals.append(np.abs(ints.i_c - ints.i_s - 1.0))  # NaN on an unsettled row
    return SuiteResult(
        "spectral-identity", float(np.max(residuals)), VERIFY_SPECTRAL_TOL,
        f"|i_c - i_s - 1| over {len(packets) * len(accelerations)} spectra",
    )


def _suite_inertial_coefficients() -> SuiteResult:
    label_in, label_v1, label_v2 = (ModeLabel(Sector.AUX, Chirality.LEFT, i) for i in range(3))
    deviations = []
    points = [(2.0, 0.7), (0.9, 0.0), (math.inf, 0.3)]
    for r, r_w in points:
        out = inertial_teleport_output(r, r_w)
        t = math.tanh(r)  # exactly 1.0 at r = inf
        residual = math.exp(-r_w)
        deviations += [
            abs(out.coefficient(label_in) - 1.0),
            abs(out.coefficient(label_v1, dagger=True) - t * residual),
            abs(out.coefficient(label_v2) + t * residual),
            abs(out.coefficient(label_v1, dagger=True) / t - residual),
        ]
    return SuiteResult(
        "inertial-coefficients", float(np.max(deviations)), VERIFY_COEFF_TOL,
        f"protocol coefficients and residual factor at {len(points)} gain points",
    )


def _mass_bearing_bins(circ) -> np.ndarray:
    return np.flatnonzero(circ.g >= MASS_BEARING_FRACTION * circ.g.max())


def _suite_appendix(cfg: SweepConfig, circuit) -> SuiteResult:
    row = VERIFY_ACCELERATIONS.index(1.0)
    worst = 0.0
    worst_name = ""
    n_pairs = 0
    for r_s, _ in VERIFY_PAYLOADS:
        circ = circuit(r_s)[row]
        bins = _mass_bearing_bins(circ)
        n_pairs += len(bins) ** 2
        # Every table entry depends on its (omega, gamma) pair alone, so blocks
        # of omega bins give each row's maximum (NaN propagating, as np.max
        # does) in bounded memory.
        step = max(1, _APPENDIX_BLOCK_PAIRS // len(bins))
        maxima = {}
        for start in range(0, len(bins), step):
            for name, table_row in contraction_table(circ, bins[start : start + step], bins, phi=0.3).items():
                deviation = float(np.max(table_row.rel_deviation))
                if name not in maxima or deviation > maxima[name] or math.isnan(deviation):
                    maxima[name] = deviation
        for name, deviation in maxima.items():
            if deviation > worst or math.isnan(deviation):  # a NaN row fails the suite
                worst, worst_name = deviation, name
    return SuiteResult(
        "appendix-identities", worst, VERIFY_APPENDIX_TOL,
        f"{n_pairs} mass-bearing bin pairs of 2 circuits x 20 contraction rows at N={cfg.bins}"
        + (f"; worst row {worst_name!r}" if worst_name else ""),
    )


def _suite_oracle_agreement(cfg: SweepConfig, wp, circuit) -> SuiteResult:
    accelerations = np.array(VERIFY_ACCELERATIONS)
    ints = spectral_integrals(wp, accelerations)
    deviations = []
    for r_s, phases in VERIFY_PAYLOADS:
        circ = circuit(r_s)
        for phi in phases:
            closed = variance_from_integrals(ints.i_c, ints.i_s, ints.i_cs, r_s, phi).total
            deviations.append(_oracle_deviation(circ, closed, phi))
    return SuiteResult(
        "oracle-vs-closed-form", float(np.max(deviations)), VERIFY_ORACLE_TOL,
        f"{len(accelerations) * len(VERIFY_PAYLOADS)} lattice points at N={cfg.bins} "
        "(tolerance sits at the discretization floor: coarse grids breach it)",
    )


def _suite_fock() -> SuiteResult:
    r, r_w = VERIFY_FOCK_POINT
    rep = fock_check_inertial(r, r_w, strict=False)
    return SuiteResult(
        "fock-window", rep.max_deviation, rep.tol,
        f"truncated-Fock protocol at r={r:g}, r_omega={r_w:g}, cutoff {rep.cutoff}, "
        f"lost mass {rep.lost_mass:.3e}",
    )


def cmd_verify(cfg: SweepConfig) -> int:
    wp = make_wavepacket(1.0, 0.05)
    # One circuit per payload over VERIFY_ACCELERATIONS, shared by the
    # appendix and oracle suites and built on first use: a build that raises
    # is retried, and fails, in each suite that reads it.
    circuit = functools.cache(
        lambda r_s: build_squeezed_circuit(np.array(VERIFY_ACCELERATIONS), wp, cfg.bins, r_s=r_s)
    )
    suites = []
    for runner in (
        _suite_spectral,
        _suite_inertial_coefficients,
        lambda: _suite_appendix(cfg, circuit),
        lambda: _suite_oracle_agreement(cfg, wp, circuit),
        _suite_fock,
    ):
        try:
            suites.append(runner())
        except Exception as exc:  # a crashed suite is a failed suite
            suites.append(SuiteResult("suite-error", math.inf, 0.0, f"{type(exc).__name__}: {exc}"))

    n_pass = sum(s.passed for s in suites)
    lines = [
        "verification report",
        "===================",
        f"bins = {cfg.bins}",
        f"channel_gain = {_fmt(float(DEFAULT_CHANNEL_GAIN))}",
        f"seed = {cfg.seed}",
        f"version = {__version__}",
        "",
        *[s.line() for s in suites],
        "",
        f"result: {'PASS' if n_pass == len(suites) else 'FAIL'} ({n_pass}/{len(suites)} suites)",
    ]
    report = "\n".join(lines) + "\n"
    out = _resolve_out(cfg, VERIFY_FILENAME)
    out.write_text(report)
    sys.stdout.write(report)
    return 0 if n_pass == len(suites) else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command and every setting (``main`` reuses one)."""
    parser = argparse.ArgumentParser(
        prog="rindler-teleport",
        description="Teleportation-from-acceleration sweeps and verification suites.\n\ncommands:\n"
        "  fig4    coherent-payload variance vs acceleration (CSV)\n"
        "  fig5    squeezed-payload noise decomposition vs acceleration (CSV)\n"
        "  sweep   generic acceleration sweep for one scenario (CSV)\n"
        "  verify  run the dual-path verification suites",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=("fig4", "fig5", "sweep", "verify"), metavar="COMMAND")
    for name, (flag, parse, help_text) in _SETTINGS.items():
        if parse is None:
            parser.add_argument(flag, dest=name, action="store_const", const=True, help=help_text)
        else:
            parser.add_argument(flag, dest=name, type=parse, help=help_text)
    return parser


#: The parser ``main`` builds on its first call and reuses after it.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = _parser()
    args = parser.parse_args(argv)
    cfg = _resolve_config(args, parser)

    dispatch = {"fig4": cmd_fig4, "fig5": cmd_fig5, "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        return dispatch[args.command](cfg)
    except (OSError, MemoryError) as exc:  # e.g. an unwritable --out, or --bins past memory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # an input the physics rejects, e.g. r_s too large
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
