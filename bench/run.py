"""Benchmark entry point.

    python3 bench/run.py --workload scan|expect|cayley|cli|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in worker processes
(bench/worker.py) that import hamlabels from the checkout's ``src``; the
seed drives every input.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  ``--workload all`` runs every workload and prints each metric by
name with its unit.  A call that raises, exits non-zero or returns a value
other than the pinned one counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
from worker import (BENCH, REFERENCE_S, ROOT, SRC, TMP, WORKLOADS, child_env,
                    reference_loop)

SETUP_PROBES = 10  # processes that only set up, for the setup_s median
RUN_DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; return its result and the monotonic time it was started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {args} timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker {args} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), started


def _tally(*results) -> tuple[int, int, list[str]]:
    return (sum(r["attempted"] for r in results), sum(r["failed"] for r in results),
            [p for r in results for p in r["problems"]])


def end_to_end(common: list[str], seconds: float, deadline: float) -> tuple[dict, tuple]:
    def setup_probes(count):
        """Set-up times in reference seconds, as wall_s is measured: each
        probe between two reference loops, all on one CPU."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            out, before = [], reference_loop()
            for _ in range(count):
                probe, started = spawn([*common, "--mode", "setup"], deadline)
                after = reference_loop()
                out.append(REFERENCE_S * (probe["ready_at"] - started) / ((before + after) / 2))
                before = after
            return out
        finally:
            os.sched_setaffinity(0, cpus)

    # probes before and after the timed run, so that they meet more of the
    # machine's slow and fast spells
    setups = setup_probes(SETUP_PROBES // 2)
    main, _ = spawn([*common, "--mode", "run", "--seconds", str(seconds)], deadline)
    setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": main["reference_wall"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return metrics, _tally(main)


def per_layer(common: list[str], deadline: float) -> tuple[dict, tuple]:
    plain, _ = spawn([*common, "--mode", "plain"], deadline)
    spans_dir = TMP / f"spans-{time.monotonic_ns()}"
    spans_dir.mkdir(parents=True)
    try:
        traced, _ = spawn([*common, "--mode", "traced", "--spans-dir", str(spans_dir)],
                          deadline)
        dumps = [tracer.load(p) for p in sorted(spans_dir.glob("spans-*.json"))]
    finally:
        shutil.rmtree(spans_dir, ignore_errors=True)
    metrics = tracer.layer_metrics(dumps)

    # measured without tracing, from the untraced iteration
    times = dict(plain["timings"])
    t2 = [name for name in times if name.endswith(" threads=2")]
    one = times.get(t2[0].removesuffix(" threads=2")) if t2 else None
    metrics["search.extremal_scan.threads2_speedup"] = one / times[t2[0]] if one else 0.0
    hits = [dt for name, dt in plain["timings"] if name.startswith("hit ")]
    q = statistics.quantiles(hits, n=4) if len(hits) >= 2 else [0.0, 0.0, 0.0]
    metrics["cli.hit_p50_s"], metrics["cli.hit_p75_s"] = q[1], q[2]
    metrics["cli.hit.samples"] = len(hits)
    metrics["wall.plain_s"] = plain["walls"][0]
    metrics["trace.overhead_frac"] = traced["walls"][0] / plain["walls"][0] - 1
    return metrics, _tally(plain, traced)


def run_workload(workload: str, seed: int, seconds: float | None, trace: int,
                 size: str = "full", pins: str | None = None) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if seconds is None:
        seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    if pins:
        common += ["--pins", pins]
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        values, (attempted, failed, problems) = per_layer(common, deadline)
    else:
        values, (attempted, failed, problems) = end_to_end(common, seconds, deadline)
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same calls on small inputs (for tests)")
    ap.add_argument("--pins", default=None, help="pinned results (default bench/pins.json)")
    args = ap.parse_args(argv)
    if not (SRC / "hamlabels" / "__init__.py").is_file():
        print(f"error: no hamlabels sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            results[w] = run_workload(w, args.seed, args.seconds, args.trace,
                                      args.size, args.pins)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for w, r in results.items():
        print(f"{w:7s} failed_frac {r['failed'] / r['attempted']:.4g} "
              f"({r['failed']} of {r['attempted']} calls)")
        for name, m in r["metrics"].items():
            print(f"{w:7s} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
