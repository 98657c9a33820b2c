"""Command-line front end: figure sweeps, generic sweeps, self-verification.

``rindler-teleport`` exposes four subcommands:

* ``fig4``  - coherent-payload variance vs acceleration, one curve per
  carrier frequency (CSV).
* ``fig5``  - squeezed-payload noise decomposition vs acceleration:
  thermal term plus the phase-0 / phase-90 decoherence terms (CSV).
* ``sweep`` - generic acceleration sweep for one scenario (``displaced``,
  ``squeezed`` or ``inertial``), optionally cross-checked against the
  discretized-circuit oracle per row.  The oracle's uniform bins cannot
  resolve a clipped wavepacket (sigma > omega0/8); its rows keep their
  deviation but carry the status ``oracle-unresolved``.
* ``verify`` - dual-path verification suites (closed forms vs mechanical
  Wick evaluation vs truncated-Fock simulation); exit status 0 only if
  every suite meets its tolerance.

Each sweep curve is one closed-form call over the whole acceleration grid
(see ``spectral.spectral_integrals``), run serially: the work is NumPy
under one interpreter lock, which a thread pool only slowed.  A row whose
spectral integrals did not converge is written as NaNs with the status
``no-convergence``.

All outputs are deterministic for a fixed configuration: floats are
rendered with ``%.12g``, metadata headers are sorted, nothing timestamps
itself, and the only sampling (verification bin pairs) is seeded with the
recorded seed.  Exit codes: 0 success, 1 verification failure, 2 invalid
input.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .mode_algebra import Chirality, ModeLabel, Sector
from .oracle import (
    DEFAULT_CHANNEL_GAIN,
    OracleConvergenceError,
    appendix_expectations,
    build_displaced_circuit,
    build_squeezed_circuit,
    fock_check_inertial,
    photon_number_variance_lo,
)
from .spectral import (
    make_wavepacket,
    spectral_integrals,
    squeeze_param,
)
from .teleportation import (
    delta_decoherence,
    displaced_variance,
    inertial_teleport_output,
    squeezed_variance,
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
VERIFY_FOCK_TOL = 1e-3
VERIFY_FOCK_POINT = (0.5, 0.5)
# fraction of the peak envelope weight below which bins are skipped when
# sampling identity pairs: tail rows scale like g_w*g_y (~1e-7) while the
# N-term Wick sums carry an absolute float-noise floor ~1e-15, leaving no
# headroom for a relative certificate there.
MASS_BEARING_FRACTION = 0.05


@dataclass(frozen=True)
class SweepConfig:
    """Resolved run configuration (defaults < config file < flags)."""

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


_FIELD_TYPES = {
    "scenario": str,
    "a_min": float,
    "a_max": float,
    "a_steps": int,
    "omega0": float,
    "sigma": float,
    "r_s": float,
    "phi": float,
    "bins": int,
    "oracle": bool,
    "out": str,
    "seed": int,
}

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _parse_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    """Flat ``key = value`` file; ``#`` comments; keys match flag names."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file {path!r}: {exc}")
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _FIELD_TYPES:
            parser.error(f"{path}:{lineno}: unknown configuration key {key!r}")
        caster = _FIELD_TYPES[key]
        try:
            if caster is bool:
                lowered = value.lower()
                if lowered in _TRUE_WORDS:
                    values[key] = True
                elif lowered in _FALSE_WORDS:
                    values[key] = False
                else:
                    raise ValueError(f"not a boolean: {value!r}")
            else:
                values[key] = caster(value)
        except ValueError as exc:
            parser.error(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _resolve_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[SweepConfig, frozenset]:
    """Merge defaults, config file and flags; validate physical ranges.

    Returns the resolved configuration plus the set of keys the user set
    explicitly (used to warn about scenario-irrelevant fields).
    """
    file_values = _parse_config_file(args.config, parser) if args.config else {}
    merged = dict(file_values)
    for key in _FIELD_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    provided = frozenset(merged)
    cfg = SweepConfig(**merged)

    if cfg.scenario not in SCENARIOS:
        parser.error(f"scenario must be one of {', '.join(SCENARIOS)}, got {cfg.scenario!r}")
    if not (cfg.a_min > 0 and math.isfinite(cfg.a_min)):
        parser.error(f"--a-min must be positive, got {cfg.a_min}")
    if not (cfg.a_max >= cfg.a_min and math.isfinite(cfg.a_max)):
        parser.error(f"--a-max must be >= --a-min, got {cfg.a_max}")
    if cfg.a_steps < 1:
        parser.error(f"--a-steps must be >= 1, got {cfg.a_steps}")
    if cfg.omega0 is not None and not (cfg.omega0 > 0 and math.isfinite(cfg.omega0)):
        parser.error(f"--omega0 must be positive, got {cfg.omega0}")
    if cfg.sigma is not None and not (cfg.sigma > 0 and math.isfinite(cfg.sigma)):
        parser.error(f"--sigma must be positive, got {cfg.sigma}")
    if cfg.r_s is not None and not (cfg.r_s >= 0 and math.isfinite(cfg.r_s)):
        parser.error(f"--rs must be non-negative, got {cfg.r_s}")
    if cfg.phi is not None and not math.isfinite(cfg.phi):
        parser.error(f"--phi must be finite, got {cfg.phi}")
    if cfg.bins < 4:
        parser.error(f"--bins must be >= 4, got {cfg.bins}")
    return cfg, provided


def _warn_ignored(command: str, provided: frozenset, used: frozenset) -> None:
    for key in sorted(provided - used):
        log.warning("%s ignores the %r setting; continuing without it", command, key)


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
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _write_csv(path: Path, meta: dict, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        for key in sorted(meta):
            fh.write(f"# {key} = {_fmt(meta[key])}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _base_meta(command: str, cfg: SweepConfig) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "a_min": cfg.a_min,
        "a_max": cfg.a_max,
        "a_steps": cfg.a_steps,
    }


def _parallel(func, points: list) -> list:
    """``func`` over ``points``, serially and in order.

    ``fig4`` maps its carrier curves through here, and the benchmark's
    tracer (``perfbench/layers.py``) wraps this name to time them.
    """
    return [func(p) for p in points]


def _grid_cells(*columns) -> list[list]:
    """Per-acceleration CSV cells from equal-length closed-form columns.

    Each row holds its values and the status ``ok``, or, where the first
    column is NaN (the spectral integrals did not converge), NaNs and
    ``no-convergence``.
    """
    rows = []
    for values in zip(*(c.tolist() for c in columns)):
        if math.isnan(values[0]):
            rows.append([math.nan] * len(values) + ["no-convergence"])
        else:
            rows.append([*values, "ok"])
    return rows


# ---------------------------------------------------------------------------
# fig4: coherent-payload variance vs acceleration


def cmd_fig4(cfg: SweepConfig) -> int:
    curves = (cfg.omega0,) if cfg.omega0 is not None else FIG4_OMEGA0_CURVES
    a_grid = cfg.a_grid()
    packets = {
        w0: make_wavepacket(w0, cfg.sigma if cfg.sigma is not None else 0.01 * w0)
        for w0 in curves
    }

    def curve(w0):
        rep = displaced_variance(a_grid, packets[w0])
        cells = _grid_cells(rep.total, rep.thermal_noise, rep.qnl_or_decoherence)
        return [[w0, a, *row] for a, row in zip(a_grid.tolist(), cells)]

    rows = [row for rows in _parallel(curve, curves) for row in rows]

    meta = _base_meta("fig4", cfg)
    meta.update(
        {
            "omega0_curves": ",".join("%.12g" % w for w in curves),
            "sigma_rule": (
                "%.12g" % cfg.sigma if cfg.sigma is not None else "0.01*omega0"
            ),
            "rows": len(rows),
        }
    )
    out = _resolve_out(cfg, FIG4_FILENAME)
    _write_csv(out, meta, ["omega0", "a", "variance_total", "thermal", "qnl", "status"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# fig5: squeezed-payload noise decomposition vs acceleration


def cmd_fig5(cfg: SweepConfig) -> int:
    w0 = cfg.omega0 if cfg.omega0 is not None else 1.0
    sigma = cfg.sigma if cfg.sigma is not None else 0.01 * w0
    r_s = cfg.r_s if cfg.r_s is not None else 0.5
    wp = make_wavepacket(w0, sigma)
    a_grid = cfg.a_grid()

    ints = spectral_integrals(wp, a_grid)
    thermal = 2.0 * ints.i_cs * (ints.i_c + ints.i_s)
    d0 = delta_decoherence(r_s, ints.i_c, 0.0)
    d90 = delta_decoherence(r_s, ints.i_c, math.pi / 2)
    cells = _grid_cells(thermal, d0, d90, thermal + d0, thermal + d90)
    rows = [[a, *row] for a, row in zip(a_grid.tolist(), cells)]

    meta = _base_meta("fig5", cfg)
    meta.update({"omega0": w0, "sigma": sigma, "r_s": r_s, "rows": len(rows)})
    out = _resolve_out(cfg, FIG5_FILENAME)
    _write_csv(
        out,
        meta,
        ["a", "thermal", "delta_phi0", "delta_phi90", "total_phi0", "total_phi90", "status"],
        rows,
    )
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# sweep: generic acceleration sweep for one scenario


def _sweep_rows(cfg: SweepConfig, w0: float) -> list[list]:
    """CSV rows of one sweep: a closed-form call over the grid, then the
    oracle per converged row when it is toggled."""
    a_grid = cfg.a_grid()
    r_omega = squeeze_param(w0, a_grid)
    wp = sigma = r_s = phi = None
    if cfg.scenario == "inertial":
        excess = 2.0 * np.exp(-2.0 * r_omega)
        total = 1.0 + excess
        cells = _grid_cells(total, excess, np.ones_like(total), total * total)
    else:
        sigma = cfg.sigma if cfg.sigma is not None else 0.01 * w0
        wp = make_wavepacket(w0, sigma)
        if cfg.scenario == "squeezed":
            r_s = cfg.r_s if cfg.r_s is not None else 0.5
            phi = cfg.phi if cfg.phi is not None else 0.0
            rep = squeezed_variance(a_grid, wp, r_s, phi)
        else:
            rep = displaced_variance(a_grid, wp)
        cells = _grid_cells(rep.total, rep.thermal_noise, rep.qnl_or_decoherence, rep.purity_product)

    rows = []
    for a, r, values in zip(a_grid.tolist(), r_omega.tolist(), cells):
        status = values.pop()
        deviation = None
        if wp is not None and status == "ok":
            deviation, status = _oracle_deviation(cfg, wp, a, r_s or 0.0, phi, values[0])
        rows.append([a, w0, sigma, r_s, phi, r, *values, deviation, status])
    return rows


def _oracle_deviation(
    cfg: SweepConfig, wp, a: float, r_s: float, phi: float | None, closed_total: float
):
    """Relative |oracle - closed| for one sweep point and its status.

    (None, ``ok``) when the oracle is not toggled.  A clipped wavepacket's
    deviation is kept but marked ``oracle-unresolved``: its uniform bins
    cannot resolve the 1/omega tail the closed form integrates.
    """
    if not cfg.oracle:
        return None, "ok"
    try:
        if r_s == 0.0:
            circ = build_displaced_circuit(a, wp, cfg.bins)
        else:
            circ = build_squeezed_circuit(a, wp, cfg.bins, r_s=r_s)
        rep = photon_number_variance_lo(circ, phi or 0.0)
    except OracleConvergenceError:
        return math.nan, "oracle-no-convergence"
    status = "oracle-unresolved" if wp.clipped else "ok"
    return abs(rep.total - closed_total) / abs(closed_total), status


def cmd_sweep(cfg: SweepConfig) -> int:
    w0 = cfg.omega0 if cfg.omega0 is not None else 1.0
    rows = _sweep_rows(cfg, w0)

    meta = _base_meta("sweep", cfg)
    meta.update(
        {
            "scenario": cfg.scenario,
            "omega0": w0,
            "oracle": cfg.oracle,
            "rows": len(rows),
        }
    )
    if cfg.scenario != "inertial":
        meta["sigma"] = cfg.sigma if cfg.sigma is not None else 0.01 * w0
    if cfg.scenario == "squeezed":
        meta["r_s"] = cfg.r_s if cfg.r_s is not None else 0.5
        meta["phi"] = cfg.phi if cfg.phi is not None else 0.0
    if cfg.oracle:
        meta["bins"] = cfg.bins
        meta["channel_gain"] = DEFAULT_CHANNEL_GAIN

    header = [
        "a", "omega0", "sigma", "r_s", "phi", "r_omega",
        "variance_total", "thermal_noise", "qnl_or_decoherence", "purity_product",
        "oracle_deviation", "status",
    ]
    out = _resolve_out(cfg, f"sweep_{cfg.scenario}.csv")
    _write_csv(out, meta, header, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


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
    worst = 0.0
    lattice = [(a, w0, sig) for a in (0.1, 1.0, 10.0) for (w0, sig) in ((1.0, 0.05), (1.0, 0.01), (2.0, 0.1))]
    for a, w0, sig in lattice:
        ints = spectral_integrals(make_wavepacket(w0, sig), a)
        worst = max(worst, abs(ints.i_c - ints.i_s - 1.0))
    return SuiteResult(
        "spectral-identity", worst, VERIFY_SPECTRAL_TOL,
        f"|i_c - i_s - 1| over {len(lattice)} spectra",
    )


def _suite_inertial_coefficients() -> SuiteResult:
    label_in = ModeLabel(Sector.AUX, Chirality.LEFT, 0)
    label_v1 = ModeLabel(Sector.AUX, Chirality.LEFT, 1)
    label_v2 = ModeLabel(Sector.AUX, Chirality.LEFT, 2)
    worst = 0.0
    points = [(2.0, 0.7), (0.9, 0.0), (math.inf, 0.3)]
    for r, r_w in points:
        out = inertial_teleport_output(r, r_w)
        t = 1.0 if math.isinf(r) else math.tanh(r)
        residual = math.exp(-r_w)
        worst = max(
            worst,
            abs(out.coefficient(label_in) - 1.0),
            abs(out.coefficient(label_v1, dagger=True) - t * residual),
            abs(out.coefficient(label_v2) + t * residual),
            abs(out.coefficient(label_v1, dagger=True) / t - residual),
        )
    return SuiteResult(
        "inertial-coefficients", worst, VERIFY_COEFF_TOL,
        f"protocol coefficients and residual factor at {len(points)} gain points",
    )


def _mass_bearing_bins(circ) -> np.ndarray:
    return np.flatnonzero(circ.g >= MASS_BEARING_FRACTION * circ.g.max())


def _suite_appendix(cfg: SweepConfig) -> SuiteResult:
    wp = make_wavepacket(1.0, 0.05)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    worst_name = ""
    n_pairs = 50
    for builder, kwargs in (
        (build_displaced_circuit, {}),
        (build_squeezed_circuit, {"r_s": 0.4}),
    ):
        circ = builder(1.0, wp, cfg.bins, **kwargs)
        bins = _mass_bearing_bins(circ)
        pairs = rng.choice(bins, size=(n_pairs, 2))
        for i, j in pairs:
            rows = appendix_expectations(circ, int(i), int(j), phi=0.3)
            for name, row in rows.items():
                if row.rel_deviation > worst:
                    worst, worst_name = row.rel_deviation, name
    return SuiteResult(
        "appendix-identities", worst, VERIFY_APPENDIX_TOL,
        f"2 circuits x {n_pairs} bin pairs x 20 contraction rows at N={cfg.bins}"
        + (f"; worst row {worst_name!r}" if worst_name else ""),
    )


def _suite_oracle_agreement(cfg: SweepConfig) -> SuiteResult:
    wp = make_wavepacket(1.0, 0.05)
    worst = 0.0
    lattice = [(a, r_s) for a in (0.3, 1.0, 3.0) for r_s in (0.0, 0.4)]
    for a, r_s in lattice:
        if r_s == 0.0:
            circ = build_displaced_circuit(a, wp, cfg.bins)
            closed = displaced_variance(a, wp)
            rep = photon_number_variance_lo(circ)
            worst = max(worst, abs(rep.total - closed.total) / closed.total)
        else:
            circ = build_squeezed_circuit(a, wp, cfg.bins, r_s=r_s)
            for phi in (0.0, math.pi / 2):
                closed = squeezed_variance(a, wp, r_s, phi)
                rep = photon_number_variance_lo(circ, phi)
                worst = max(worst, abs(rep.total - closed.total) / closed.total)
    return SuiteResult(
        "oracle-vs-closed-form", worst, VERIFY_ORACLE_TOL,
        f"{len(lattice)} lattice points at N={cfg.bins} "
        "(tolerance sits at the discretization floor: coarse grids breach it)",
    )


def _suite_fock() -> SuiteResult:
    r, r_w = VERIFY_FOCK_POINT
    rep = fock_check_inertial(r, r_w, strict=False)
    return SuiteResult(
        "fock-window", rep.max_deviation, VERIFY_FOCK_TOL,
        f"truncated-Fock protocol at r={r:g}, r_omega={r_w:g}, cutoff {rep.cutoff}, "
        f"lost mass {rep.lost_mass:.3e}",
    )


def cmd_verify(cfg: SweepConfig) -> int:
    suites = []
    for runner in (
        _suite_spectral,
        _suite_inertial_coefficients,
        lambda: _suite_appendix(cfg),
        lambda: _suite_oracle_agreement(cfg),
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


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a-min", type=float, dest="a_min", default=None, help="smallest acceleration (log grid)")
    p.add_argument("--a-max", type=float, dest="a_max", default=None, help="largest acceleration (log grid)")
    p.add_argument("--a-steps", type=int, dest="a_steps", default=None, help="number of acceleration points")
    p.add_argument("--omega0", type=float, default=None, help="carrier frequency of the wavepacket")
    p.add_argument("--sigma", type=float, default=None, help="wavepacket bandwidth (default 0.01*omega0)")
    p.add_argument("--rs", type=float, dest="r_s", default=None, help="payload squeezing strength")
    p.add_argument("--phi", type=float, default=None, help="quadrature phase")
    p.add_argument("--bins", type=int, default=None, help="frequency bins for the discretized oracle")
    p.add_argument(
        "--oracle", action="store_const", const=True, default=None,
        help="cross-check each sweep row against the discretized-circuit oracle",
    )
    p.add_argument("--config", default=None, help="flat key = value configuration file (flags win)")
    p.add_argument("--out", default=None, help=f"output path (default: ${ENV_OUTDIR} or the working directory)")
    p.add_argument("--seed", type=int, default=None, help="seed for any sampled verification lattice")


_COMMAND_USED_KEYS = {
    "fig4": frozenset({"a_min", "a_max", "a_steps", "omega0", "sigma", "out", "seed"}),
    "fig5": frozenset({"a_min", "a_max", "a_steps", "omega0", "sigma", "r_s", "out", "seed"}),
    "verify": frozenset({"bins", "out", "seed"}),
}


def _sweep_used_keys(cfg: SweepConfig) -> frozenset:
    used = {"scenario", "a_min", "a_max", "a_steps", "omega0", "out", "seed"}
    if cfg.scenario in ("displaced", "squeezed"):
        used |= {"sigma", "oracle"}
        if cfg.oracle:
            used |= {"bins"}
    if cfg.scenario == "squeezed":
        used |= {"r_s", "phi"}
    return frozenset(used)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rindler-teleport",
        description="Teleportation-from-acceleration sweeps and verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig4 = sub.add_parser("fig4", help="coherent-payload variance vs acceleration (CSV)")
    p_fig5 = sub.add_parser("fig5", help="squeezed-payload noise decomposition vs acceleration (CSV)")
    p_sweep = sub.add_parser("sweep", help="generic acceleration sweep for one scenario (CSV)")
    p_verify = sub.add_parser("verify", help="run the dual-path verification suites")
    p_sweep.add_argument(
        "--scenario", choices=SCENARIOS, default=None,
        help="which protocol variant to sweep (default displaced)",
    )
    for p in (p_fig4, p_fig5, p_sweep, p_verify):
        _add_common_flags(p)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg, provided = _resolve_config(args, parser)

    command = args.command
    if command == "sweep":
        used = _sweep_used_keys(cfg)
    else:
        used = _COMMAND_USED_KEYS[command]
    _warn_ignored(command, provided, used)

    dispatch = {"fig4": cmd_fig4, "fig5": cmd_fig5, "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        return dispatch[command](cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
