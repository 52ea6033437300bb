#!/usr/bin/env python3
"""End-to-end benchmark runner: builds e2e_bench, runs each workload in its
own process, prints every metric by name with its unit, and checks outputs.

    python3 bench/e2e/run.py                      # all workloads, seed 1
    python3 bench/e2e/run.py --workload tfhe_gates --seed 2 --trace 1
    python3 bench/e2e/run.py --smoke              # 2 requests per workload

The metric names, units and workloads come from BENCHMARK.json at the root
of the repository. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. A run that fails any
check prints that object with "correct": false and exits 1. --out writes
every run's full record (samples, per-layer values, simulated results) as
one JSON file for compare.py.

The benchmark builds the library from source with CMake into
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e), relative to the root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SCHEMA = "alchemist.e2e.v1"
# Baseline seed; seed 2 is held out for checking claims (README.md).
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

# Units of the simulated results e2e_bench reports beside the metrics, with
# the paper's figure where it publishes one. Its other values are in bits.
SIM_INFO = {
    "chip_boot_fresh_ms": ("ms", None),
    "chip_boot_ms": ("ms", None),
    "chip_helr_ms": ("ms", None),
    "chip_lola_us": ("us", 110.0),
    "chip_pbs_per_s": ("1/s", None),
    "chip_xs_ms": ("ms", None),
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "e2e"


def build():
    """Configures and builds e2e_bench (both no-ops when up to date); returns
    its path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "e2e_bench",
              "-j", str(os.cpu_count() or 2)]]
    with open(out / "build.log", "a") as logf:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                log(f"run.py: cannot run {cmd[0]}: {e}")
                return None
            if rc != 0:
                log(f"run.py: '{' '.join(cmd)}' failed; see {out / 'build.log'}")
                return None
    return out / "e2e_bench"


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(binary, spec, workload, args, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--trace", str(trace)]
    if args.smoke:
        cmd += ["--smoke"]
    else:
        cmd += ["--seconds", str(args.seconds)]
    if trace:
        trace_out = build_dir() / f"trace-{workload}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{workload}: timed out after {RUN_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}"
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    ms = raw["untraced_ms"]
    metrics = {
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90(ms),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    layers = {m["name"]: raw["layers"].get(m["name"], 0.0) for m in spec["per_layer"]}
    errors = list(raw["errors"])
    if trace:
        unknown = sorted(set(raw["layers"]) - set(layers))
        if unknown:
            errors.append(f"{workload}: per-layer values missing from BENCHMARK.json: {unknown}")
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": trace,
        "threads": raw["threads"],
        "correct": raw["failed"] == 0 and raw["attempted"] > 0 and not errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": errors,
        "samples": len(ms),
        "metrics": metrics,
        "layers": layers,
        "emitted": sorted(raw["layers"]),
        "info": raw["info"],
        "untraced_ms": ms,
        "setup_samples_s": raw["setup_s"],
    }, None


def print_run(spec, run, trace):
    print(f"== {run['workload']} (seed {run['seed']}, {run['samples']} timed requests, "
          f"{run['threads']} threads, {run['failed']}/{run['attempted']} failed)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in run["metrics"].items():
        note = "" if name in units else "   (reported, not bounded)"
        print(f"  {name:<24} {value:>14.6g} {units.get(name, 'ms')}{note}")
    for name, value in sorted(run["info"].items()):
        unit, paper = SIM_INFO.get(name, ("bits", None))
        note = f"   (paper {paper:g} {unit})" if paper is not None else ""
        print(f"  {name:<24} {value:>14.6g} {unit}{note}")
    if trace:
        for m in spec["per_layer"]:
            value = run["layers"][m["name"]]
            if value:
                print(f"  {m['name']:<38} {value:>14.6g} {m['unit']}")
    for e in run["errors"]:
        print(f"  FAILED: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="measured seconds per run "
                    "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="2 requests per workload, traced, checks names and units")
    ap.add_argument("--out", help="write every run's full record here")
    ap.add_argument("--binary", help="use this e2e_bench instead of building one")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    trace = 1 if args.smoke else args.trace

    binary = Path(args.binary) if args.binary else build()
    if binary is None or not binary.exists():
        log("run.py: no e2e_bench binary")
        return 2

    runs = []
    for w in [args.workload] if args.workload else workloads:
        run, err = run_workload(binary, spec, w, args, trace)
        if err:
            log(f"run.py: {err}")
            return 2
        print_run(spec, run, trace)
        runs.append(run)

    if args.smoke:
        # No end-to-end metric reads 0, and with every workload run, every
        # per-layer metric comes from one of them.
        problems = [f"{r['workload']}: {name} is 0" for r in runs
                    for name, value in r["metrics"].items() if not value > 0]
        if not args.workload:
            problems += [f"no workload reports {m['name']}" for m in spec["per_layer"]
                         if not any(m["name"] in r["emitted"] for r in runs)]
        for p in problems:
            runs[-1]["errors"].append(p)
            runs[-1]["correct"] = False
            print(f"  FAILED: {p}")

    if args.out:
        Path(args.out).write_text(json.dumps({"schema": SCHEMA, "runs": runs}, indent=1))

    kinds, key = (spec["per_layer"], "layers") if trace else (spec["end_to_end"], "metrics")
    metrics = {}
    for r in runs:
        for m in kinds:
            name = m["name"] if len(runs) == 1 else f"{m['name']}@{r['workload']}"
            metrics[name] = {"value": r[key][m["name"]], "unit": m["unit"]}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
