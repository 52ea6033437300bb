#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 bench/e2e/compare.py --base A1.json A2.json ... --head B1.json B2.json ...

Each file is a `run.py --out` record. For every (end-to-end metric, workload)
row the table gives each side's median and quartiles, as
statistics.quantiles(values, n=4) computes them, and a verdict:

  regression  head's median is worse than base's by more than the bound
  unresolved  a side's quartile spread, as a share of its median, exceeds the
              bound, and not every head run beats every base run
  ok          otherwise

Simulated chip results (chip_*) are deterministic and must match exactly; a
worse value is a regression. CKKS precision_bits may drop by at most 0.5 bit.
op_p90_ms is shown without a verdict ("info").
Exit status: 0 without regressions, 1 with one or more, 2 on unreadable input.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
PRECISION_BOUND_BITS = 0.5
HIGHER_IS_BETTER = {"chip_pbs_per_s"}


def load(paths):
    """(workload, metric) -> values, over every run of every file."""
    rows = defaultdict(list)
    for p in paths:
        for run in json.loads(Path(p).read_text())["runs"]:
            if run["trace"]:
                continue  # end-to-end metrics come from untraced runs only
            for name, value in {**run["metrics"], **run["info"]}.items():
                rows[(run["workload"], name)].append(value)
    return rows


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, higher, bound=None, abs_bound=None):
    """`bound` is a share of base's median, `abs_bound` an absolute
    allowance; without either the values must match exactly."""
    sign = -1 if higher else 1
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    worse = sign * (hm - bm)
    if bound is None:
        return "regression" if worse > (abs_bound or 0) else "ok"
    if worse > bound * abs(bm):
        return "regression"
    spread = max((b3 - b1) / abs(bm), (h3 - h1) / abs(hm))
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="run.py --out files (parent)")
    ap.add_argument("--head", nargs="+", required=True, help="run.py --out files (change)")
    args = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        base, head = load(args.base), load(args.head)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: unreadable input: {e}", file=sys.stderr)
        return 2

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print("workload    metric              base median [q1, q3] | head median [q1, q3] | "
          "delta | verdict")
    regressions = 0
    for key in sorted(set(base) & set(head)):
        workload, name = key
        if name in metrics:
            v = verdict(base[key], head[key], metrics[name]["better"] == "higher",
                        bound=metrics[name]["bound"])
        elif name.startswith("chip_"):
            v = verdict(base[key], head[key], name in HIGHER_IS_BETTER)
        elif name == "precision_bits":
            v = verdict(base[key], head[key], True, abs_bound=PRECISION_BOUND_BITS)
        elif name == "op_p90_ms":
            v = "info"  # the tail is mostly the shared host's noise; not bounded
        else:
            continue
        regressions += v == "regression"
        b1, bm, b3 = quartiles(base[key])
        h1, hm, h3 = quartiles(head[key])
        delta = (hm - bm) / abs(bm) if bm else 0.0
        print(f"{workload:<11} {name:<19} {bm:.6g} [{b1:.6g}, {b3:.6g}] | "
              f"{hm:.6g} [{h1:.6g}, {h3:.6g}] | {delta:+.2%} | {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
