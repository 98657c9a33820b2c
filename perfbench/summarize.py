"""Run workloads over several seeds and summarize the spread of each metric.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads a,b] [--trace-seed 1]
                                   [--trajectory perfbench/trajectory.json --label TEXT]

Runs ``run.py`` once per (workload, seed), one process at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median against the metric's bound.  ``--trace-seed`` adds
one traced run per workload.  ``--trajectory`` appends the whole summary,
with machine and traffic records, as one entry of the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}): {proc.stderr}")
    result = json.loads(lines[-1])
    report = next(json.loads(ln[7:]) for ln in lines if ln.startswith("report "))
    return {"exit": proc.returncode, "wall_s": wall, "result": result, "report": report}


def spread_of(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--trajectory", default=None)
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    entry = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": BENCH["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        summary = {}
        for name in bounds:
            summary[name] = spread_of([r["result"]["metrics"][name]["value"] for r in runs])
        named = {}
        for key in runs[0]["report"]["named"]:
            named[key] = spread_of([r["report"]["named"][key] for r in runs])
        entry["machine"] = runs[0]["report"]["machine"]
        record = {
            "seeds": seeds,
            "end_to_end": summary,
            "named": named,
            "exit_codes": [r["exit"] for r in runs],
            "correct": [r["result"]["correct"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "run_wall_s": [round(r["wall_s"], 2) for r in runs],
            "traffic": {str(s): r["report"]["traffic"] for s, r in zip(seeds, runs)},
            "rounds": {str(s): r["report"]["rounds"] for s, r in zip(seeds, runs)},
        }
        print(f"== {workload}: runs took {min(record['run_wall_s']):.1f}-"
              f"{max(record['run_wall_s']):.1f} s, correct {all(record['correct'])}, "
              f"failed/attempted {sum(record['failed'])}/{sum(record['attempted'])}")
        for name, s in {**summary, **named}.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
                ok &= s["spread"] <= bound
            print(f"   {name:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}" + (f"  bound {bound} {verdict}" if bound else ""),
                  flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, 1)
            record["traced"] = {"seed": args.trace_seed,
                                "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()}}
            print(f"   traced seed {args.trace_seed}: overhead "
                  f"{record['traced']['metrics']['trace.overhead_frac']:.3f}")
        entry["workloads"][workload] = record

    if args.trajectory:
        path = Path(args.trajectory)
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
