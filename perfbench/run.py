"""Run one benchmark workload against the package in ``src/``.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: closed-sweep, oracle-sweep, crosscheck, fock-lattice (see
``workloads.py`` and ``BENCHMARK.md``).  The run

1. runs the workload in this process: a number of rounds fixed by
   ``--seconds`` (about that many seconds of measured wall time at the
   commit that defined the benchmark), with inputs fixed by ``--seed``;
2. times ``setup_s``: in fresh interpreters, half of them before the workload
   and half after it, importing the package, building a first wavepacket and
   running a first spectral integral (median of the wall times, each scaled
   to the nominal host speed by a reference loop run right after it in the
   same interpreter);
3. with ``--trace 1``, runs the workload instead with spans around every call
   into the five package modules, skips the setup timing, and reports
   per-layer metrics and the estimated tracing overhead instead of the
   end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and sample count, the traffic and the
machine.  The exit status is 1 when an output check fails, 2 when the
package or the arguments are missing.
"""

from __future__ import annotations

import os

# One process, no BLAS thread pools: the only threads are the package's own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "rindler_teleport" / "__init__.py"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_BATCH = 4  # fresh processes before the workload, and again after it
SETUP_TIMEOUT_S = 60

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rindler_teleport as rt
wp = rt.make_wavepacket(float(sys.argv[2]), float(sys.argv[3]))
rt.spectral_integrals(wp, float(sys.argv[4]))
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[5])
from workloads import reference_cpu_s
print(repr(elapsed), repr(reference_cpu_s()))
"""


def measure_setup(rng) -> list[tuple[float, float]]:
    """(wall s to import, build a wavepacket and integrate; CPU s of the
    reference loop right after), per fresh process."""
    samples = []
    for _ in range(SETUP_BATCH):
        w0 = float(rng.uniform(0.5, 3.0))
        args = [str(SRC), repr(w0), repr(w0 * float(rng.uniform(0.005, 0.1))),
                repr(float(rng.uniform(0.1, 10.0))), str(HERE)]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        elapsed, reference = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(elapsed), float(reference)))
    return samples


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def load_package():
    """Import the package from this checkout's ``src/`` (never from elsewhere)."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("rindler_teleport")
    if Path(pkg.__file__).resolve() != PACKAGE_INIT.resolve():
        raise ImportError(f"rindler_teleport imported from {pkg.__file__}, not {PACKAGE_INIT}")
    modules = {name: importlib.import_module(f"rindler_teleport.{name}")
               for name in ("spectral", "mode_algebra", "teleportation", "oracle", "cli")}
    return types.SimpleNamespace(pkg=pkg, cli=modules["cli"], modules=modules)


def run_workload(run, api, seed: int, seconds: float, trace=None):
    import numpy as np

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    if trace is not None:
        trace.attach()
    try:
        window_end = trace.detach if trace is not None else (lambda: None)
        return run(api, np.random.default_rng(seed), seconds, workdir, window_end)
    finally:
        if trace is not None:
            trace.detach()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when no other run uses it
            WORK_ROOT.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE_INIT.is_file():
        print(f"error: no package at {PACKAGE_INIT}; run from a full checkout", file=sys.stderr)
        return 2
    import numpy as np
    from layers import LayerTrace, layer_metrics
    from spans import span_cost_s
    from workloads import REFERENCE_NOMINAL_S, THROUGHPUT_NAMES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run = WORKLOADS[args.workload]
    setup_rng = np.random.default_rng([args.seed, 1])
    name, unit_of_work = THROUGHPUT_NAMES[args.workload]
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"]
    setup = [] if args.trace else measure_setup(setup_rng)
    api = load_package()

    if args.trace:
        trace = LayerTrace(api.modules)
        out = run_workload(run, api, args.seed, args.seconds, trace)
        metrics = layer_metrics(trace, out.wall_s, out.csv_bytes)
        spans, per_span = trace.tracer.span_count(), span_cost_s()
        cost = spans * per_span
        metrics["trace.overhead_frac"] = (cost / (out.wall_s - cost), "ratio")
        metrics["trace.wall_s"] = (out.wall_s, "s")
        for key, (value, unit) in metrics.items():
            lines.append(f"metric {key} = {value!r} {unit} (traced, {out.units} {unit_of_work})")
        lines.append(f"trace.overhead_frac is {spans} spans x {per_span * 1e6:.2f} us per span "
                     "(a no-op microbenchmark) over the traced time less that cost")
    else:
        out = run_workload(run, api, args.seed, args.seconds)
        setup += measure_setup(setup_rng)
        metrics = {
            "setup_s": (statistics.median(t * REFERENCE_NOMINAL_S / ref for t, ref in setup), "s"),
            "throughput_per_s": (out.throughput(), "1/s"),
            "ok_frac": (1.0 - out.failed / out.attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples = {"setup_s": f"median of {len(setup)} processes, at the nominal host speed",
                   "throughput_per_s": f"{out.rounds[0][0]} {unit_of_work} per round over the "
                                       f"median CPU time of {len(out.rounds)} rounds, at the "
                                       f"nominal host speed (median of "
                                       f"{len(out.reference_s)} reference loops)",
                   "ok_frac": f"{out.attempted} operations", "peak_rss_mb": "1 process"}
        for key, (value, unit) in metrics.items():
            lines.append(f"metric {key} = {value!r} {unit} ({samples[key]})")

    if args.workload == "crosscheck":
        named = {"verify_s": statistics.median(r[1] for r in out.rounds)}
    else:
        named = {name: out.mean_throughput()}
    named["failed_frac"] = out.failed / out.attempted
    named["cpu_throughput_per_s"] = out.cpu_throughput()
    named["host_speed"] = out.host_speed()
    if setup:
        named["setup_unscaled_s"] = statistics.median(t for t, _ in setup)
    units = {"verify_s": "s", "failed_frac": "fraction", name: f"{unit_of_work}/s",
             "cpu_throughput_per_s": "1/s", "host_speed": "ratio", "setup_unscaled_s": "s"}
    for key, value in named.items():
        lines.append(f"metric {key} = {value!r} {units[key]} "
                     f"({len(out.rounds)} rounds, {out.attempted} operations"
                     f"{', traced' if args.trace else ''})")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "traffic": out.traffic,
        "named": named,
        "setup_samples_s": setup,
        "rounds": out.rounds,
        "reference_cpu_s": out.reference_s,
        "problems": out.problems[:20],
    }
    for line in lines:
        print(line)
    for problem in out.problems[:20]:
        print(f"check failed: {problem}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not out.problems else 1


if __name__ == "__main__":
    sys.exit(main())
