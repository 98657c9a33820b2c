"""The four seeded workloads and the checks made on their outputs.

Every input comes from ``numpy.random.default_rng(seed)``; the program sees
only the generated values (as CLI arguments or public API arguments).  Work
is issued in rounds of fixed shape, each round the same number of units of
work.  The number of rounds is fixed by ``seconds`` alone (see
``round_count``), never by the clock, so a seed gives the same inputs, the
same operations and the same failures on every run, whatever the speed of
the machine or of the program.

Throughput is reported from CPU time, scaled to a reference host speed
(``Outcome.throughput``): units per round over the median round time in
process CPU seconds, times the median CPU time of a fixed reference loop
(``reference_cpu_s``, run before every round and after the last) over its
nominal ``REFERENCE_NOMINAL_S``.

* CPU, not wall time: on ``closed-sweep`` the package's thread pool hands
  the GIL between two threads, and a round's wall time then depends on how
  soon the host wakes the waiting thread.  A wall-time figure spread
  0.36-0.40 of its median over ten seeds on ``closed-sweep``.
* Scaled: the shared host's speed drifts over minutes.  The same fixed work
  ran up to 1.9x slower from one minute to the next, and process CPU time
  slowed with it, so a slow spell that spans several runs moves their
  figures together.  The reference loop never calls the package, so a change
  to the program moves the scaled figure exactly as it moves the program's
  CPU time; only the host's speed is divided out.

The unscaled CPU-time figure and the wall-time figure over the whole run are
printed too (``Outcome.cpu_throughput``, ``Outcome.mean_throughput``).

Two kinds of failure are counted separately:

* ``failed`` - an operation gave no usable answer: a ``no-convergence`` row,
  a Fock point over its tolerance, a named convergence error, a FAIL suite.
  These are defects the program reports about itself; the run stays correct.
* ``problems`` - a check of the program's outputs found a wrong answer: the
  oracle and the closed form disagree, a CSV is not reproducible or breaks
  an identity, the CLI exits non-zero, ``verify`` is not all PASS.  Any
  problem makes the run incorrect (and also counts as failed).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad

ORACLE_REL_TOL = 1e-11
CSV_IDENTITY_TOL = 1e-9


class Clock:
    """Accumulates wall and process CPU time over the sections it times."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall += time.perf_counter() - self._t0
        self.cpu += time.process_time() - self._c0


@dataclass
class Outcome:
    rounds: list = field(default_factory=list)  # (units of work, wall s, CPU s)
    reference_s: list = field(default_factory=list)  # reference_cpu_s() samples
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    traffic: dict = field(default_factory=dict)
    csv_bytes: int = 0
    inputs: list = field(default_factory=list)

    @property
    def units(self) -> int:
        return sum(r[0] for r in self.rounds)

    @property
    def wall_s(self) -> float:
        return sum(r[1] for r in self.rounds)

    def cpu_throughput(self) -> float:
        """Units of one round over the median round time in CPU seconds."""
        return self.rounds[0][0] / statistics.median(r[2] for r in self.rounds)

    def host_speed(self) -> float:
        """Nominal over measured CPU time of the reference loop (1: nominal)."""
        return REFERENCE_NOMINAL_S / statistics.median(self.reference_s)

    def throughput(self) -> float:
        """``cpu_throughput`` at the nominal host speed."""
        return self.cpu_throughput() / self.host_speed()

    def mean_throughput(self) -> float:
        """Units of work per second of measured wall time, over the whole run."""
        return self.units / self.wall_s

    def problem(self, text: str) -> None:
        self.problems.append(text)
        self.failed += 1

    def finish(self) -> None:
        self.traffic["rounds"] = len(self.rounds)
        self.traffic["round0_digest"] = _digest(self.inputs[0])
        self.traffic["inputs_digest"] = _digest(self.inputs)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


MIN_ROUNDS = 4


def round_count(seconds: float, round_s: float) -> int:
    """Rounds in a run of ``seconds``: as many as fill it at ``round_s`` each,
    and never fewer than ``MIN_ROUNDS``, so that the median has a middle.

    ``round_s`` is a workload's typical round wall time at the commit that
    defined the benchmark (2-vCPU Xeon guest), so a run there measures about
    ``seconds``; a faster program finishes the same work sooner.
    """
    return max(MIN_ROUNDS, round(seconds / round_s))


# CPU seconds of reference_cpu_s() on the host the benchmark was defined on
# (2-vCPU Xeon guest, CPython 3.11, NumPy 2.4), in its faster spells.
REFERENCE_NOMINAL_S = 0.09
_REFERENCE_MATRIX = (np.arange(1024.0).reshape(32, 32) % 7 + 1j) / 32.0


def reference_cpu_s() -> float:
    """CPU seconds of the calling thread for a fixed loop that does not touch
    the package: dict and complex arithmetic in Python, small NumPy vector
    operations and small complex matrix products, the three kinds of work
    the package's layers do."""
    t0 = time.thread_time()
    for _ in range(16):
        coeffs = {}
        for i in range(8000):
            k = (i * 7) % 211
            coeffs[k] = coeffs.get(k, 0j) + complex(i, 1) * 0.5
        x = np.arange(64.0)
        for _ in range(150):
            x = np.sqrt(x * x + 1.0) - 0.5
        m = _REFERENCE_MATRIX
        for _ in range(30):
            m = (m @ _REFERENCE_MATRIX) * 0.03
    return time.thread_time() - t0


def _rounds(n: int, make_round, run_round, out: Outcome, window_end) -> None:
    """Run ``n`` rounds; ``window_end`` is called when the measured part
    ends, before the output checks that follow it."""
    for _ in range(n):
        out.inputs.append(make_round())
        out.reference_s.append(reference_cpu_s())
        out.rounds.append(run_round(out.inputs[-1]))
    out.reference_s.append(reference_cpu_s())
    window_end()
    out.finish()


# ---------------------------------------------------------------------------
# closed-sweep: CLI figure and sweep commands without the oracle

# Eight spectral carriers per round, exactly one of them clipped
# (sigma > omega0/8), plus one inertial sweep that needs no wavepacket.
CLOSED_KINDS = (
    "fig4", "fig4", "fig4", "fig5", "fig5",
    "sweep-displaced", "sweep-squeezed", "sweep-squeezed",
)
CLOSED_A_STEPS = 48
CLOSED_ROUND_S = 3.4


def closed_round(rng) -> list:
    clipped = int(rng.integers(len(CLOSED_KINDS)))
    cmds = []
    for k, kind in enumerate(CLOSED_KINDS):
        w0 = _log_uniform(rng, 0.5, 3.5)
        ratio = rng.uniform(0.15, 0.6) if k == clipped else rng.uniform(0.005, 0.1)
        argv = [kind.split("-")[0]]
        if kind.startswith("sweep"):
            argv += ["--scenario", kind.split("-")[1]]
        argv += ["--omega0", repr(w0), "--sigma", repr(float(w0 * ratio))]
        if kind in ("fig5", "sweep-squeezed"):
            argv += ["--rs", repr(float(rng.uniform(0.1, 1.0)))]
        if kind == "sweep-squeezed":
            argv += ["--phi", repr(float(rng.uniform(0.0, math.pi)))]
        cmds.append({"argv": argv + ["--a-steps", str(CLOSED_A_STEPS)], "clipped": k == clipped})
    w0 = _log_uniform(rng, 0.5, 3.5)
    cmds.append({
        "argv": ["sweep", "--scenario", "inertial", "--omega0", repr(w0),
                 "--a-steps", str(CLOSED_A_STEPS)],
        "clipped": False,
    })
    return cmds


def _cli(api, argv: list) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = api.cli.main(argv)
    return status, buf.getvalue()


def _read_csv(path: Path) -> list[dict]:
    """Data rows of a CLI CSV (the ``# key = value`` metadata lines skipped)."""
    return list(csv.DictReader(ln for ln in path.read_text().splitlines() if not ln.startswith("# ")))


def _close(x: float, y: float, tol: float = CSV_IDENTITY_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _thermal_reference(w0: float, sigma: float, a: float) -> float:
    """2 i_cs (i_c + i_s) by adaptive quadrature, independent of the package."""
    lo = max(1e-12 * w0, w0 - 8.0 * sigma)
    hi = w0 + 8.0 * sigma

    def integral(f):
        return quad(lambda w: math.exp(-((w - w0) ** 2) / (2 * sigma**2)) * f(math.pi * w / a),
                    lo, hi, points=[w0], limit=400, epsabs=0.0, epsrel=1e-12)[0]

    norm = integral(lambda x: 1.0)
    i_c = integral(lambda x: 1.0 / -math.expm1(-2 * x)) / norm
    i_s = integral(lambda x: math.exp(-2 * x) / -math.expm1(-2 * x)) / norm
    i_cs = integral(lambda x: math.tanh(0.5 * x)) / norm
    return 2.0 * i_cs * (i_c + i_s)


def _check_closed_csv(cmd: dict, rows: list, out: Outcome) -> int:
    """Identity checks on one CSV; returns the number of no-convergence rows."""
    argv = cmd["argv"]
    name = " ".join(argv)
    if len(rows) != CLOSED_A_STEPS:
        out.problem(f"{name}: {len(rows)} rows, expected {CLOSED_A_STEPS}")
    bad = 0
    for row in rows:
        if row["status"] == "no-convergence":
            bad += 1
            continue
        if row["status"] != "ok":
            out.problem(f"{name}: unexpected status {row['status']!r}")
            continue
        f = {k: float(v) for k, v in row.items() if k != "status" and v != ""}
        if argv[0] == "fig4":
            ok = _close(f["variance_total"], f["thermal"] + f["qnl"]) and f["qnl"] == 1.0
        elif argv[0] == "fig5":
            ok = (_close(f["total_phi0"], f["thermal"] + f["delta_phi0"])
                  and _close(f["total_phi90"], f["thermal"] + f["delta_phi90"]))
        elif "inertial" in argv:
            ok = _close(f["variance_total"], 1.0 + 2.0 * math.exp(-2.0 * f["r_omega"]))
        else:
            ok = (_close(f["variance_total"], f["thermal_noise"] + f["qnl_or_decoherence"])
                  and f["purity_product"] >= 1.0 - CSV_IDENTITY_TOL)
        if not ok:
            out.problem(f"{name}: identity broken in row a={row['a']}")
    if argv[0] == "fig4" and not cmd["clipped"]:
        good = [r for r in rows if r["status"] == "ok"]
        if good:
            mid = good[len(good) // 2]
            w0 = float(argv[argv.index("--omega0") + 1])
            sigma = float(argv[argv.index("--sigma") + 1])
            ref = _thermal_reference(w0, sigma, float(mid["a"]))
            if not _close(float(mid["thermal"]), ref, 1e-7):
                out.problem(f"{name}: thermal {mid['thermal']} at a={mid['a']} vs quadrature {ref!r}")
    return bad


def run_closed_sweep(api, rng, seconds: float, workdir: Path, window_end) -> Outcome:
    """Each command runs twice in a row, both timed: the second run is the
    regeneration whose CSV must be byte-identical to the first."""
    out = Outcome()
    runs = []  # (cmd, first csv, regenerated csv)

    def run_round(cmds):
        clock = Clock()
        for cmd in cmds:
            paths = [workdir / f"closed_{len(runs)}_{k}.csv" for k in (0, 1)]
            for path in paths:
                with clock:
                    status, _ = _cli(api, cmd["argv"] + ["--out", str(path)])
                if status != 0:
                    out.problem(f"{' '.join(cmd['argv'])}: exit status {status}")
            runs.append((cmd, *paths))
        return 2 * CLOSED_A_STEPS * len(cmds), clock.wall, clock.cpu

    n = round_count(seconds, CLOSED_ROUND_S)
    _rounds(n, lambda: closed_round(rng), run_round, out, window_end)

    # Outside the timed window: check every CSV and its regeneration.
    clipped_rows = 0
    no_conv = 0
    for cmd, path, regen in runs:
        out.attempted += 2 * CLOSED_A_STEPS
        if not (path.exists() and regen.exists()):
            continue
        out.csv_bytes += path.stat().st_size + regen.stat().st_size
        if regen.read_bytes() != path.read_bytes():
            out.problem(f"{' '.join(cmd['argv'])}: CSV not byte-identical on regeneration")
        rows = _read_csv(path)
        no_conv += 2 * _check_closed_csv(cmd, rows, out)
        clipped_rows += 2 * CLOSED_A_STEPS if cmd["clipped"] else 0
    out.failed += no_conv
    out.traffic.update({
        "commands": len(runs),
        "rows": out.attempted,
        "no_convergence_rows": no_conv,
        "clipped_share": clipped_rows / out.attempted,
        "a_steps": CLOSED_A_STEPS,
    })
    return out


# ---------------------------------------------------------------------------
# oracle-sweep: discretized-circuit oracle against the closed forms

ORACLE_BINS = (256, 512, 1024)
ORACLE_SHAPES = tuple((scenario, n) for scenario in ("displaced", "squeezed") for n in ORACLE_BINS)
ORACLE_LOG_A = (math.log(0.1), math.log(10.0))
ORACLE_ROUND_S = 8.0


def oracle_round(rng, index: int) -> list:
    """Round ``index``: one point per shape, run in seeded order.

    ``a`` is stratified: the log range is cut into one stratum per shape, and
    shape ``k`` draws from stratum ``(k + index) mod 6``.  A point's cost grows
    with ``a`` (up to 1.8x between a = 0.1 and 10 at N = 512), so independent
    draws would make the cost of a run depend on its seed; with strata every
    round spans the whole range, and over six rounds every shape meets every
    stratum.
    """
    width = (ORACLE_LOG_A[1] - ORACLE_LOG_A[0]) / len(ORACLE_SHAPES)
    points = []
    for idx in rng.permutation(len(ORACLE_SHAPES)):
        scenario, n = ORACLE_SHAPES[int(idx)]
        stratum = (int(idx) + index) % len(ORACLE_SHAPES)
        w0 = _log_uniform(rng, 0.5, 2.0)
        points.append({
            "scenario": scenario,
            "bins": n,
            "omega0": w0,
            "sigma": float(w0 * rng.uniform(0.01, 0.1)),
            "a": float(math.exp(ORACLE_LOG_A[0] + width * (stratum + rng.uniform()))),
            "phi": float(rng.uniform(0.0, math.pi)),
            # r_s in {0} U (0, 1]: zero for the coherent payload
            "r_s": 0.0 if scenario == "displaced" else float(1.0 - rng.uniform()),
        })
    return points


def run_oracle_sweep(api, rng, seconds: float, workdir: Path, window_end) -> Outcome:
    out = Outcome()
    deviations = []
    mix = {n: 0 for n in ORACLE_BINS}

    def run_point(p):
        wp = api.pkg.make_wavepacket(p["omega0"], p["sigma"])
        if p["r_s"] == 0.0:
            circ = api.pkg.build_displaced_circuit(p["a"], wp, p["bins"])
            rep = api.pkg.photon_number_variance_lo(circ, p["phi"])
            closed = api.pkg.displaced_variance(p["a"], wp)
        else:
            circ = api.pkg.build_squeezed_circuit(p["a"], wp, p["bins"], r_s=p["r_s"])
            rep = api.pkg.photon_number_variance_lo(circ, p["phi"])
            closed = api.pkg.squeezed_variance(p["a"], wp, p["r_s"], p["phi"])
        return abs(rep.total - closed.total) / abs(closed.total)

    def run_round(points):
        clock = Clock()
        for p in points:
            out.attempted += 1
            mix[p["bins"]] += 1
            try:
                with clock:
                    dev = run_point(p)
            except (api.pkg.OracleConvergenceError, api.pkg.SpectralConvergenceError) as exc:
                out.failed += 1
                out.traffic.setdefault("errors", []).append(f"{type(exc).__name__}: {exc}")
                continue
            deviations.append(dev)
            if not dev <= ORACLE_REL_TOL:
                out.problem(f"oracle point {p}: relative deviation {dev:.3e} > {ORACLE_REL_TOL:g}")
        return len(points), clock.wall, clock.cpu

    n = round_count(seconds, ORACLE_ROUND_S)
    _rounds(n, lambda: oracle_round(rng, len(out.rounds)), run_round, out, window_end)
    out.traffic.update({
        "points": out.attempted,
        "n_mix": {str(n): c for n, c in mix.items()},
        "max_rel_deviation": max(deviations, default=0.0),
    })
    return out


# ---------------------------------------------------------------------------
# crosscheck: the verify subcommand on a coarse grid

# At its default 256 bins one verify takes about 25 s, so a run would hold a
# single round; at 32 bins it takes about 4 s and makes the same suites and
# the same number of small Wick expectations, on shorter per-bin expressions.
VERIFY_BINS = 32
VERIFY_ROUND_S = 4.0


def run_crosscheck(api, rng, seconds: float, workdir: Path, window_end) -> Outcome:
    out = Outcome()
    verify_seed = int(rng.integers(2**31 - 1))

    def run_round(inputs):
        argv = ["verify", "--bins", str(VERIFY_BINS), "--seed", str(inputs["seed"]),
                "--out", str(report)]
        clock = Clock()
        with clock:
            status, text = _cli(api, argv)
        suites = [ln for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        n_fail = sum(ln.startswith("FAIL ") for ln in suites)
        out.attempted += max(len(suites), 1)
        out.failed += n_fail
        if len(suites) != 5 or "result: PASS (5/5 suites)" not in text:
            out.problem(f"{' '.join(argv[:-2])}: report is not 5/5 PASS")
        if status != 0:
            out.problem(f"{' '.join(argv[:-2])}: exit status {status}")
        return 1, clock.wall, clock.cpu

    report = workdir / "verification_report.txt"
    n = round_count(seconds, VERIFY_ROUND_S)
    _rounds(n, lambda: {"seed": verify_seed}, run_round, out, window_end)
    out.traffic.update({"verify_seed": verify_seed, "verify_bins": VERIFY_BINS,
                        "verifies": len(out.rounds), "suites": out.attempted})
    return out


# ---------------------------------------------------------------------------
# fock-lattice: truncated-Fock check over the (r, r_omega) square

FOCK_CELLS = 8  # jittered FOCK_CELLS x FOCK_CELLS lattice per round
FOCK_CUTOFFS = (None, 6, 8, 10, 12)  # None: the function's default cutoff
FOCK_ROUND_S = 4.1


def fock_tag(cutoff) -> str:
    """The name a cutoff goes by in traffic records and span names."""
    return "default" if cutoff is None else str(int(cutoff))


def fock_round(rng) -> list:
    points = []
    for i in range(FOCK_CELLS):
        for j in range(FOCK_CELLS):
            mag = rng.uniform(0.0, 0.5)
            ang = rng.uniform(0.0, 2 * math.pi)
            points.append({
                "r": float((i + rng.uniform()) / FOCK_CELLS),
                "r_omega": float((j + rng.uniform()) / FOCK_CELLS),
                "beta": [float(mag * math.cos(ang)), float(mag * math.sin(ang))],
                "phi": float(rng.uniform(0.0, math.pi)),
            })
    return points


def run_fock_lattice(api, rng, seconds: float, workdir: Path, window_end) -> Outcome:
    out = Outcome()
    passes = {fock_tag(c): 0 for c in FOCK_CUTOFFS}

    def check(p, cutoff):
        kwargs = {"beta": complex(*p["beta"]), "phi": p["phi"], "strict": False}
        if cutoff is not None:
            kwargs["cutoff"] = cutoff
        return api.pkg.fock_check_inertial(p["r"], p["r_omega"], **kwargs)

    def run_round(points):
        clock = Clock()
        for p in points:
            with clock:
                reports = [check(p, c) for c in FOCK_CUTOFFS]
            out.attempted += 1
            for c, rep in zip(FOCK_CUTOFFS, reports):
                passes[fock_tag(c)] += rep.passed
                if rep.passed != (rep.max_deviation <= rep.tol) or not (
                    math.isfinite(rep.max_deviation) and -1e-9 <= rep.lost_mass <= 1.0
                ):
                    out.problem(f"Fock point {p} cutoff {c}: inconsistent report")
            lost = [rep.lost_mass for rep in reports[1:]]
            if any(later > earlier + 1e-9 for earlier, later in zip(lost, lost[1:])):
                out.problem(f"Fock point {p}: lost mass grows with the cutoff {lost}")
            out.failed += not reports[0].passed
        return len(points), clock.wall, clock.cpu

    n = round_count(seconds, FOCK_ROUND_S)
    _rounds(n, lambda: fock_round(rng), run_round, out, window_end)
    n = out.attempted
    out.traffic.update({
        "points": n,
        "passing_share": passes["default"] / n,
        "passing_share_by_cutoff": {c: v / n for c, v in passes.items()},
    })
    return out


WORKLOADS = {
    "closed-sweep": run_closed_sweep,
    "oracle-sweep": run_oracle_sweep,
    "crosscheck": run_crosscheck,
    "fock-lattice": run_fock_lattice,
}

# The name each workload's throughput is printed under, and its unit of work
# (crosscheck prints the time of one verify instead).
THROUGHPUT_NAMES = {
    "closed-sweep": ("closed_rows_per_s", "rows"),
    "oracle-sweep": ("oracle_points_per_s", "points"),
    "crosscheck": ("verifies_per_s", "verify runs"),
    "fock-lattice": ("fock_points_per_s", "points"),
}
