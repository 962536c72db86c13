"""Regenerate bench/pins.json from the library in ``src``.

Usage: python3 bench/make_pins.py [--size full|tiny] [--out bench/pins.json]

The pins are the exact results the benchmark accepts.  They were made
from the commit that introduced the benchmark; regenerate them only for
a change that is meant to alter a result, and say so in that change.
Expectations are pinned for every group of every order a seed can pick,
as the first 16 hex digits of the sha256 of "p/q".
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import worker
from worker import CONFIG, ROOT, SRC, child_env, frac_str, sha

sys.path.insert(0, str(SRC))
import hamlabels as hl  # noqa: E402


def scan_pins(cfg) -> dict:
    groups = list(hl.abelian_groups_in_range(*cfg["orders"]))
    groups.append(hl.parse_group(cfg["threads2"]))
    return {str(G): worker.scan_summary(hl.extremal_scan(G)) for G in groups}


def expect_pins(cfg) -> tuple[dict, dict]:
    exact = {}
    for G in hl.abelian_groups_in_range(*cfg["orders"]):
        exact[str(G)] = {
            "diff": sha(frac_str(hl.expected_distinct_diffs(G)))[:16],
            "sum": sha(frac_str(hl.expected_distinct_sums(G)))[:16],
            "residual_diff": str(hl.asymptotic_residual(G, "diff", 12)),
            "residual_sum": str(hl.asymptotic_residual(G, "sum", 12)),
        }
    mc = {}
    for g in cfg["mc_groups"]:
        G = hl.parse_group(g)
        mc[str(G)] = {"diff": frac_str(hl.expected_distinct_diffs(G)),
                      "sum": frac_str(hl.expected_distinct_sums(G))}
    return exact, mc


def cayley_pins(cfg) -> dict:
    smin = {}
    for G in worker.cayley_groups(hl, cfg):
        res = hl.minimum_connection_size(G, budget=cfg["budget"])
        if res.status != "exact":
            raise SystemExit(f"minimum_connection_size({G}) is {res.status}")
        smin[str(G)] = res.size
    rainbow = {}
    for fname, g in cfg["rainbow"]:
        G = hl.parse_group(g)
        res = getattr(hl, fname)(G)
        if res.status != "found":
            raise SystemExit(f"{fname}({G}) is {res.status}")
        rainbow[f"{fname} {G}"] = res.nodes
    return {"smin": smin, "rainbow": rainbow}


def cli_pins(cfg) -> dict:
    out = {}
    for command in cfg["commands"]:
        argv = worker.cli_argv(command, 0)
        proc = subprocess.run([sys.executable, "-m", "hamlabels.cli", *argv], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, check=True)
        if argv[0] == "expect":
            out["expect_exact"] = sha(worker.without_mc(json.loads(proc.stdout)))
            out["expect_seed0"] = sha(proc.stdout)
        else:
            out[argv[0]] = sha(proc.stdout)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "tiny"), action="append")
    ap.add_argument("--out", default=str(worker.BENCH / "pins.json"))
    args = ap.parse_args()
    try:
        with open(args.out, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {}
    for size in args.size or ("tiny", "full"):
        exact, mc = expect_pins(CONFIG["expect"][size])
        pins[size] = {
            "scan": scan_pins(CONFIG["scan"][size]),
            "expect": exact,
            "expect_mc": mc,
            "cayley": cayley_pins(CONFIG["cayley"][size]),
            "cli": cli_pins(CONFIG["cli"][size]),
        }
        print(f"pinned {size}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
