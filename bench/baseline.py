"""Run every workload over a range of seeds and record the spread.

Usage: python3 bench/baseline.py [--seeds 11..20] [--commit SHA] [--out FILE]

For each workload and end-to-end metric, writes the median, the quartiles
and their distance as a share of the median (``spread``), with the facts
of the machine that measured them.  Compare two baselines only when their
machine facts agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import run_workload
from worker import ROOT, WORKLOADS


def machine() -> dict:
    import numpy

    facts = {"python": platform.python_version(), "numpy": numpy.__version__,
             "nproc": os.cpu_count()}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return facts
    for line in lscpu.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip().lower().replace(" ", "_")] = val.strip()
    return facts


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="11..20")
    ap.add_argument("--commit", default="unknown")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(".."))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {w: [] for w in WORKLOADS}
    for seed in range(lo, hi + 1):  # workloads interleaved, so drift hits each alike
        for w in WORKLOADS:
            r = run_workload(w, seed, None, 0)
            runs[w].append(r)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in r["metrics"].items()), file=sys.stderr)
    out = {"commit": args.commit, "machine": machine(), "run_seconds": spec["run_seconds"],
           "seeds": [lo, hi], "workloads": {}}
    for w, rs in runs.items():
        out["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in rs])
                        for m in spec["end_to_end"]},
        }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
