"""One benchmark workload in one process.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
The worker imports hamlabels, builds the workload's inputs from the seed,
then runs the workload's fixed list of calls as timed iterations.  Every
output is checked against pinned values and independent cross-checks
after the iteration, outside the timed region.  The last stdout line is
one JSON object with the timings and the call tally.

Modes:
  setup   build the inputs, report when the first call would start, exit
  run     iterate while the time budget lasts (at least one iteration),
          timing a reference loop between calls
  plain   run one iteration of the full call list
  traced  install the span recorder first, run one iteration, dump spans
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

WORKLOADS = ("scan", "expect", "cayley", "cli")

# Inputs per workload.  "full" is what BENCHMARK.json measures; "tiny" is
# the same code path at a size the benchmark's own tests can afford.
CONFIG = {
    "scan": {
        # Z11 is left out: as one 4-second call it would leave too few
        # samples per run for a steady median on a shared machine
        "full": {"orders": (8, 10), "threads2": "10"},
        "tiny": {"orders": (4, 6), "threads2": "6"},
    },
    "expect": {
        # (order, exponent) pairs: the seed picks one class of each.  The
        # work of the differences sum depends only on the order and the
        # divisors of the exponent, so every seed asks for the same work.
        "full": {"families": ((240, 60), (243, 9), (243, 27), (256, 4), (256, 8),
                              (256, 16), (256, 32), (256, 64), (272, 68), (288, 12),
                              (288, 36), (304, 76), (320, 20), (324, 18), (352, 44),
                              (400, 100)),
                 "mc_groups": ("128", "2x2x32"), "mc_trials": 50_000},
        "tiny": {"families": ((16, 4), (32, 4), (32, 8), (36, 6)),
                 "mc_groups": ("16", "2x8"), "mc_trials": 2_000},
    },
    "cayley": {
        # Z2^5 (one 7-second call) and the rainbow path on Z24 (one 4-second
        # call) are left out: each would leave too few samples per run for
        # a steady median on a shared machine
        "full": {"orders": (17, 32), "exclude": ("2x2x2x2x2",), "budget": 200_000,
                 "rainbow": (("find_rainbow_diff_path", "18"),
                             ("find_rainbow_diff_cycle_nonzero", "23"),
                             ("find_rainbow_sum_cycle", "401"))},
        "tiny": {"orders": (17, 18), "exclude": (), "budget": 200_000,
                 "rainbow": (("find_rainbow_diff_path", "8"),
                             ("find_rainbow_diff_cycle_nonzero", "7"),
                             ("find_rainbow_sum_cycle", "11"))},
    },
    "cli": {
        "full": {"commands": (("verify", "--orders", "3..10"),
                              ("scan", "--orders", "3..10", "--format", "csv"),
                              ("expect", "--orders", "3..32", "--mc-trials", "20000"),
                              ("smin", "--orders", "3..31", "--budget", "200000")),
                 "hit_rounds": 10},
        "tiny": {"commands": (("verify", "--orders", "3..5"),
                              ("scan", "--orders", "3..6", "--format", "csv"),
                              ("expect", "--orders", "3..8", "--mc-trials", "500"),
                              ("smin", "--orders", "3..8", "--budget", "200000")),
                 "hit_rounds": 2},
    },
}

# Monte Carlo acceptance, in standard errors.  The expect workload makes 4
# estimates; the CLI expect report makes about 100, so it gets a wider
# band to keep the chance of a false alarm per run near 1e-4.
MC_SIGMAS = 4
CLI_MC_SIGMAS = 5

CLI_TIMEOUT_S = 150

# The reference loop: fixed pure-Python work timed between calls, so that
# each call's time can be read against the machine's speed at that moment.
# REFERENCE_S is its time on the machine of bench/baseline.json, in the
# state that machine is in most of the time.
REFERENCE_LOOPS = 60_000
REFERENCE_S = 0.010


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def sha(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HAMLABELS_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Call(NamedTuple):
    """One timed call and the check of its output.

    ``check(out, outs)`` gets the call's output and the iteration's
    outputs by call name (the first, where a name repeats), and returns a
    list of problems.
    """

    name: str
    fn: Callable[[], object]
    check: Callable[[object, dict], list[str]]


# ---------------------------------------------------------------------------
# scan: exhaustive extremal scans
# ---------------------------------------------------------------------------

def scan_summary(rep) -> dict:
    """The pinned fields of an extremal scan report."""
    return {
        "min_diffs": rep.min_distinct_diffs, "max_diffs": rep.max_distinct_diffs,
        "min_sums": rep.min_distinct_sums, "max_sums": rep.max_distinct_sums,
        "cycle_count": rep.cycle_count,
        "mean_diffs": frac_str(rep.mean_distinct_diffs),
        "mean_sums": frac_str(rep.mean_distinct_sums),
    }


def check_scan(hl, G, rep, pin) -> list[str]:
    bad = [f"{G} {k}={v} pinned {pin.get(k)}"
           for k, v in scan_summary(rep).items() if pin.get(k) != v]
    if rep.cycle_count != math.factorial(G.order - 1):
        bad.append(f"{G} cycle_count {rep.cycle_count} != ({G.order}-1)!")
    if rep.mean_distinct_diffs != hl.expected_distinct_diffs(G):
        bad.append(f"{G} mean diffs disagree with expected_distinct_diffs")
    if rep.mean_distinct_sums != hl.expected_distinct_sums(G):
        bad.append(f"{G} mean sums disagree with expected_distinct_sums")
    for key, want, labels in (
        ("min_diffs", rep.min_distinct_diffs, hl.diff_labels),
        ("max_diffs", rep.max_distinct_diffs, hl.diff_labels),
        ("min_sums", rep.min_distinct_sums, hl.sum_labels),
        ("max_sums", rep.max_distinct_sums, hl.sum_labels),
    ):
        w = rep.witnesses.get(key)
        if (w is None or w.group != G or not w.cyclic or not w.covers_group
                or labels(w).distinct_count != want):
            bad.append(f"{G} witness {key} does not reach {want}")
    return bad


def scan_workload(hl, rng, cfg, pins, seed):
    groups = list(hl.abelian_groups_in_range(*cfg["orders"]))
    rng.shuffle(groups)
    G2 = hl.parse_group(cfg["threads2"])
    pin = pins["scan"]

    def report_json(rep):
        return json.dumps(rep.to_json_dict(), sort_keys=True)

    def check_threads2(out, outs):
        bad = check_scan(hl, G2, out, pin[str(G2)])
        if report_json(out) != report_json(outs[f"scan {G2}"]):
            bad.append(f"{G2} threads=2 report differs from threads=1")
        return bad

    def calls(_iteration):
        out = [Call(f"scan {G}", lambda G=G: hl.extremal_scan(G, threads=1),
                    lambda rep, outs, G=G: check_scan(hl, G, rep, pin[str(G)]))
               for G in groups]
        out.append(Call(f"scan {G2} threads=2",
                        lambda: hl.extremal_scan(G2, threads=2), check_threads2))
        return out
    return calls


# ---------------------------------------------------------------------------
# expect: inclusion-exclusion expectations and Monte Carlo
# ---------------------------------------------------------------------------

def expect_groups(hl, rng, families) -> list:
    """One seed-chosen class of each (order, exponent) pair, in seed order."""
    groups = [rng.choice([G for G in hl.abelian_groups(n) if G.invariant_factors[-1] == e])
              for n, e in families]
    rng.shuffle(groups)
    return groups


def expect_workload(hl, rng, cfg, pins, seed):
    groups = expect_groups(hl, rng, cfg["families"])
    mc_groups = [hl.parse_group(g) for g in cfg["mc_groups"]]
    trials = cfg["mc_trials"]
    pin = pins["expect"]

    def check_exact(G, mode):
        def check(q, outs):
            want = pin[str(G)][mode]
            bad = [] if sha(frac_str(q))[:16] == want else [f"{G} {mode} != pinned"]
            if not 1 <= q <= G.order:
                bad.append(f"{G} {mode} expectation {float(q)} outside [1, |G|]")
            return bad
        return check

    def check_residual(G, mode):
        def check(r, outs):
            want = pin[str(G)][f"residual_{mode}"]
            return [] if str(r) == want else [f"{G} residual {mode} {r} != {want}"]
        return check

    def check_mc(G, mode):
        exact = Fraction(pins["expect_mc"][str(G)][mode])

        def check(est, outs):
            if est.trials != trials or est.seed != seed or not est.std_error >= 0:
                return [f"{G} {mode} Monte Carlo header {est}"]
            if abs(est.mean - exact) > MC_SIGMAS * est.std_error:
                return [f"{G} {mode} Monte Carlo mean {est.mean} is more than "
                        f"{MC_SIGMAS} standard errors from {float(exact)}"]
            return []
        return check

    def calls(_iteration):
        out = []
        for G in groups:
            out += [
                Call(f"expected_distinct_diffs {G}",
                     lambda G=G: hl.expected_distinct_diffs(G), check_exact(G, "diff")),
                Call(f"expected_distinct_sums {G}",
                     lambda G=G: hl.expected_distinct_sums(G), check_exact(G, "sum")),
            ]
            out += [Call(f"asymptotic_residual {G} {mode}",
                         lambda G=G, mode=mode: hl.asymptotic_residual(G, mode, 12),
                         check_residual(G, mode)) for mode in ("diff", "sum")]
        for G in mc_groups:
            out += [Call(f"monte_carlo_estimate {G} {mode}",
                         lambda G=G, mode=mode: hl.monte_carlo_estimate(G, mode, trials, seed),
                         check_mc(G, mode)) for mode in ("diff", "sum")]
        return out
    return calls


# ---------------------------------------------------------------------------
# cayley: Hamiltonian connection sets and rainbow witnesses
# ---------------------------------------------------------------------------

def check_smin(hl, G, res, want) -> list[str]:
    if res.status != "exact" or res.size != want:
        return [f"{G} smin {res.status} {res.size}, pinned exact {want}"]
    S = set(res.witness_set or ())
    C = res.witness_cycle
    if len(S) != want or not all(G.contains(s) for s in S):
        return [f"{G} witness set {res.witness_set} is not {want} elements of G"]
    if C is None or C.group != G or not C.cyclic or not C.covers_group:
        return [f"{G} witness cycle is not a Hamiltonian cycle"]
    if not set(hl.sum_labels(C).labels) <= S:
        return [f"{G} witness cycle has a sum outside the connection set"]
    return []


def check_rainbow(hl, fname, G, res, want_nodes) -> list[str]:
    if res.status != "found" or res.nodes != want_nodes:
        return [f"{fname} {G}: {res.status} after {res.nodes} nodes, "
                f"pinned found after {want_nodes}"]
    t = res.trail
    nonzero = set(G.elements()) - {G.zero()}
    if fname == "find_rainbow_diff_path":
        ok = (not t.cyclic and t.covers_group and t.vertices[0] == G.zero()
              and hl.is_rainbow_diff_path(t))
    elif fname == "find_rainbow_diff_cycle_nonzero":
        ok = t.cyclic and set(t.vertices) == nonzero and hl.is_rainbow_diff_cycle(t)
    else:
        ok = t.cyclic and t.covers_group and hl.is_rainbow_sum_cycle(t)
    return [] if ok and t.group == G else [f"{fname} {G}: witness fails its predicate"]


def cayley_groups(hl, cfg) -> list:
    skip = {hl.parse_group(g) for g in cfg["exclude"]}
    return [G for G in hl.abelian_groups_in_range(*cfg["orders"]) if G not in skip]


def cayley_workload(hl, rng, cfg, pins, seed):
    budget = cfg["budget"]
    pin = pins["cayley"]
    plan = [("minimum_connection_size", G) for G in cayley_groups(hl, cfg)]
    plan += [(fname, hl.parse_group(g)) for fname, g in cfg["rainbow"]]
    rng.shuffle(plan)

    def call(fname, G):
        name = f"{fname} {G}"
        if fname == "minimum_connection_size":
            return Call(name, lambda: hl.minimum_connection_size(G, budget=budget),
                        lambda res, outs: check_smin(hl, G, res, pin["smin"][str(G)]))
        return Call(name, lambda: getattr(hl, fname)(G),
                    lambda res, outs: check_rainbow(hl, fname, G, res, pin["rainbow"][name]))

    return lambda _iteration: [call(fname, G) for fname, G in plan]


# ---------------------------------------------------------------------------
# cli: the command line, cold and as cache hits, one process per command
# ---------------------------------------------------------------------------

def cli_argv(command, seed) -> list[str]:
    argv = list(command)
    if argv[0] == "expect":
        argv += ["--seed", str(seed)]
    return argv


def without_mc(payload: dict) -> str:
    """An expect report rendered as the CLI does, Monte Carlo fields blanked:
    the part of the report that does not depend on the seed."""
    for rep in payload["reports"]:
        rep["mc"] = None
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check_expect_report(stdout: bytes, trials: int, seed: int, want_exact: str) -> list[str]:
    """The seed-independent part must match its pin; Monte Carlo parts must
    agree with the exact value they sit next to."""
    payload = json.loads(stdout)
    bad = []
    for rep in payload["reports"]:
        mc = rep["mc"]
        exact = Fraction(rep["exact"])
        if mc is None or mc["trials"] != trials or mc["seed"] != seed or not mc["std_error"] >= 0:
            bad.append(f"expect {rep['group']} {rep['mode']}: Monte Carlo header {mc}")
        elif abs(mc["mean"] - exact) > CLI_MC_SIGMAS * mc["std_error"]:
            bad.append(f"expect {rep['group']} {rep['mode']}: Monte Carlo mean "
                       f"{mc['mean']} is more than {CLI_MC_SIGMAS} standard errors off")
    if sha(without_mc(payload)) != want_exact:
        bad.append("expect report without Monte Carlo differs from its pin")
    return bad


def cli_workload(hl, rng, cfg, pins, seed, traced_dir=None, sampled=False):
    pin = pins["cli"]
    commands = [cli_argv(c, seed) for c in cfg["commands"]]
    caches = TMP / f"caches-{os.getpid()}"
    atexit.register(shutil.rmtree, caches, ignore_errors=True)
    spawned = [0]

    def run_cli(argv, cache_dir):
        argv = argv + ["--cache", str(cache_dir)]
        if traced_dir is None:
            cmd = [sys.executable, "-m", "hamlabels.cli", *argv]
        else:
            spawned[0] += 1
            spans = Path(traced_dir) / f"spans-cli-{spawned[0]:04d}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check_cold(argv):
        key = argv[0]

        def check(out, outs):
            code, stdout, stderr = out
            if code != 0:
                return [f"cold {key} exited {code}: {stderr[-300:]!r}"]
            if key == "expect":
                trials = int(argv[argv.index("--mc-trials") + 1])
                bad = check_expect_report(stdout, trials, seed, pin["expect_exact"])
                if seed == 0 and sha(stdout) != pin["expect_seed0"]:
                    bad.append("expect report at seed 0 differs from its pin")
                return bad
            bad = [] if sha(stdout) == pin[key] else [f"cold {key} stdout differs from its pin"]
            if key == "verify":
                summary = json.loads(stdout)["summary"]
                if summary["fail"] or summary["inconclusive"]:
                    bad.append(f"verify summary {summary}")
            return bad
        return check

    def check_hit(key):
        def check(out, outs):
            cold = outs[f"cold {key}"]
            if out[0] != cold[0] or out[1] != cold[1]:
                return [f"hit {key} differs from its cold report (exit {out[0]})"]
            return []
        return check

    # a sampled iteration runs one round of hits, which leaves time in a
    # run for the cold commands to be sampled again
    rounds = 1 if sampled else cfg["hit_rounds"]

    def calls(iteration):
        cache_dir = caches / str(iteration)  # made by the first cold command
        out = [Call(f"cold {a[0]}", lambda a=a: run_cli(a, cache_dir), check_cold(a))
               for a in commands]
        for _ in range(rounds):
            out += [Call(f"hit {a[0]}", lambda a=a: run_cli(a, cache_dir), check_hit(a[0]))
                    for a in commands]
        return out
    return calls


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def reference_loop() -> float:
    """Seconds for the reference loop's fixed work, now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


def run_iteration(calls, rec=None, reference=False):
    """Time each call, then check every output outside the timed region.

    With ``reference``, the reference loop runs before the first call and
    after each call; each call is paired with the mean of the two
    reference times around it.
    """
    timings, refs, results, problems = [], [], [], []
    before = reference_loop() if reference else None
    for c in calls:
        t0 = time.perf_counter()
        try:
            out = c.fn()
        except Exception as exc:  # a raising call is a failed call, not a crash
            out = exc
        timings.append((c.name, time.perf_counter() - t0))
        results.append(out)
        if reference:
            after = reference_loop()
            refs.append((before + after) / 2)
            before = after
    if rec is not None:
        rec.active = False
    outs = {}
    for c, out in zip(calls, results):
        outs.setdefault(c.name, out)
    failed = 0
    for c, out in zip(calls, results):
        if isinstance(out, Exception):
            bad = [f"{c.name} raised {type(out).__name__}: {out}"]
        else:
            try:
                bad = c.check(out, outs)
            except Exception as exc:
                bad = [f"{c.name} check raised {type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            problems += bad
    return timings, refs, len(calls), failed, problems


def reference_wall(calls, timings, refs) -> float:
    """Time to solution for the call list, in reference seconds.

    Each call's time is divided by the reference time around it and the
    median is taken over the run's samples of that call; the sum over
    the call list is scaled by REFERENCE_S.  A shared machine's speed
    drifts by tens of percent within seconds, with its neighbours' load,
    and the reference loop drifts with it, so the quotient keeps the
    program's own speed and drops the machine's.
    """
    ratios = {}
    for (name, dt), ref in zip(timings, refs):
        ratios.setdefault(name, []).append(dt / ref)
    return REFERENCE_S * sum(statistics.median(ratios[c.name]) for c in calls)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--pins", default=str(BENCH / "pins.json"))
    ap.add_argument("--mode", choices=("setup", "run", "plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans-dir", default=None)
    args = ap.parse_args(argv)

    import hamlabels as hl
    if Path(hl.__file__).resolve().parent != SRC / "hamlabels":
        print(f"hamlabels imported from {hl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    rec = None
    if args.mode == "traced":
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)

    if args.mode == "run" and args.workload != "scan" and hasattr(os, "sched_setaffinity"):
        # one CPU for the calls, their child processes and the reference
        # loop, so that the reference times the CPU the work ran on; scan
        # keeps every CPU for its threads=2 call
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(args.seed)
    cfg = CONFIG[args.workload][args.size]
    with open(args.pins, encoding="utf-8") as fh:
        pins = json.load(fh)[args.size]
    build = {"scan": scan_workload, "expect": expect_workload,
             "cayley": cayley_workload, "cli": cli_workload}[args.workload]
    extra = {}
    if args.workload == "cli":
        extra = {"traced_dir": args.spans_dir} if rec else {"sampled": args.mode == "run"}
    calls_for = build(hl, rng, cfg, pins, args.seed, **extra)
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if args.mode != "setup":
        walls, attempted, failed, problems, timings, refs = [], 0, 0, [], [], []
        while True:
            t0 = time.monotonic()
            calls = calls_for(len(walls))
            calls_timed, call_refs, n, f, bad = run_iteration(calls, rec,
                                                              args.mode == "run")
            walls.append(sum(dt for _, dt in calls_timed))
            if len(walls) == 1:
                # the memory one pass over the call list needs; later
                # passes only add allocator noise
                peak = peak_rss_mb()
            timings += calls_timed
            refs += call_refs
            attempted += n
            failed += f
            problems += bad
            now = time.monotonic()
            # another iteration unless it would end more than half an
            # iteration past the budget
            if args.mode != "run" or now - ready_at + (now - t0) / 2 > args.seconds:
                break
        if rec is not None:
            rec.dump(Path(args.spans_dir) / "spans-worker.json")
        if args.mode == "run":
            result.update(reference_wall=reference_wall(calls, timings, refs))
        result.update(walls=walls, timings=timings, attempted=attempted, failed=failed,
                      problems=problems[:20], peak_rss_mb=peak)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
