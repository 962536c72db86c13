"""Command-line front end.

Subcommands: info, construct <builder>, scan, expect, smin, verify.
Groups are named by descriptor ("2x4", "Z12") or generated from an order
range ("--orders 3..10", expanding to every abelian group of each order).
Reports are byte-deterministic for a fixed configuration: the thread
count only changes wall time, exact rationals are printed as "p/q", and
any decimal shown approximates a rational printed next to it.

Exit codes: 0 all pass, 1 some check failed, 2 usage error, 3 a search
budget left a result inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial

from . import cache as cache_mod
from .constructions import BUILDERS, ConstructionError
from .expectation import (
    _residual,
    expected_distinct_diffs,
    expected_distinct_sums,
    format_rational,
    monte_carlo_estimate,
)
from .groups import (
    GroupParseError,
    GroupSpec,
    _divisors,
    abelian_groups_in_range,
    parse_group,
)
from .search import (
    DEFAULT_ENUMERATION_CAP,
    ExtremalReport,
    extremal_scan,
    minimum_connection_size,
)
from .trails import diff_labels, sum_labels, trail_to_json_dict
from .verify import VerificationRecord, verify_orders

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

CACHE_ENV = "HAMLABELS_CACHE"

# Part of every cache key, with the package version: raise it whenever the
# bytes of a report change for the same run parameters.
REPORT_SCHEMA = 1

# Significant digits of the decimals in expect reports.
DIGITS = 12

# Ceiling on --cap: order 13 scans 12! cycles in about 11 minutes at 0.72 M
# cycles/s (one thread, 2 vCPU); order 14 would take about 2.4 hours.
MAX_CAP = 13

__all__ = ["RunConfig", "run", "main", "EXIT_PASS", "EXIT_FAIL", "EXIT_USAGE", "EXIT_INCONCLUSIVE"]


@dataclass
class RunConfig:
    command: str
    groups: Sequence[str] = ()
    orders: tuple[int, int] | None = None
    builder: str | None = None
    budget: int | None = None
    threads: int = 1
    seed: int = 0
    fmt: str = "json"
    cache_path: str | None = None
    mc_trials: int | None = None
    cap: int = DEFAULT_ENUMERATION_CAP

    def cache_payload(self) -> dict:
        from . import __version__  # read per call, not frozen at import

        payload = asdict(self)
        # neither changes the bytes of a report
        del payload["threads"], payload["cache_path"]
        return {**payload, "version": __version__, "schema": REPORT_SCHEMA}


class UsageError(ValueError):
    pass


def _parse_orders(text: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad order range {text!r}; expected e.g. 3..10") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad order range {text!r}")
    return lo, hi


def _check_cap(cap: int) -> None:
    if cap > MAX_CAP:
        raise UsageError(
            f"--cap {cap} admits orders up to {cap}, whose scans walk "
            f"{cap - 1}! = {factorial(cap - 1)} cycles; the ceiling is {MAX_CAP}"
        )


def _resolve_groups(cfg: RunConfig) -> list[GroupSpec]:
    out: list[GroupSpec] = []
    for desc in cfg.groups:
        try:
            out.append(parse_group(desc))
        except GroupParseError as exc:
            raise UsageError(str(exc)) from None
    if cfg.orders:
        out.extend(abelian_groups_in_range(*cfg.orders))
    if not out:
        raise UsageError("no groups given; use --group or --orders")
    return out


def _frac_decimal(q: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(q.numerator) / Decimal(q.denominator))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_info(cfg: RunConfig) -> tuple[dict, int]:
    reports = []
    for G in _resolve_groups(cfg):
        n = G.order
        orders = {str(d): G.count_by_order(d) for d in _divisors(n)}
        reports.append({
            "group": str(G),
            "invariant_factors": list(G.invariant_factors),
            "order": n,
            "rank": G.rank,
            "element_sum": list(G.element_sum()),
            "element_sum_is_zero": G.element_sum() == G.zero(),
            "two_torsion": G.two_torsion_count(),
            "involutions": G.two_torsion_count() - 1,
            "elements_by_order": orders,
        })
    return {"command": "info", "reports": reports}, EXIT_PASS


def _cmd_construct(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.builder not in BUILDERS:
        raise UsageError(
            f"unknown builder {cfg.builder!r}; choose from {sorted(BUILDERS)}"
        )
    build = BUILDERS[cfg.builder]
    reports = []
    for G in _resolve_groups(cfg):
        try:
            t = build(G)
        except (ValueError, ConstructionError) as exc:
            raise UsageError(f"{cfg.builder} on {G}: {exc}") from None
        reports.append({
            "group": str(G),
            "builder": cfg.builder,
            "trail": trail_to_json_dict(t),
            "distinct_sums": sum_labels(t).distinct_count,
            "distinct_diffs": diff_labels(t).distinct_count,
        })
    return {"command": "construct", "reports": reports}, EXIT_PASS


def _cmd_scan(cfg: RunConfig) -> tuple[dict, int]:
    _check_cap(cfg.cap)
    reports = []
    for G in _resolve_groups(cfg):
        try:
            rep = extremal_scan(G, cap=cfg.cap, threads=cfg.threads)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        reports.append(rep.to_json_dict())
    return {"command": "scan", "reports": reports}, EXIT_PASS


def _cmd_expect(cfg: RunConfig) -> tuple[dict, int]:
    reports = []
    for G in _resolve_groups(cfg):
        if G.order < 3:
            raise UsageError(f"expectations need |G| >= 3, got {G}")
        for mode in ("diff", "sum"):
            exact = (expected_distinct_diffs if mode == "diff"
                     else expected_distinct_sums)(G)
            entry = {
                "group": str(G),
                "mode": mode,
                "exact": format_rational(exact),
                "decimal": _frac_decimal(exact, DIGITS),
                "residual": str(_residual(exact, G.order, DIGITS)),
                "mc": None,
            }
            if cfg.mc_trials:
                est = monte_carlo_estimate(G, mode, cfg.mc_trials, cfg.seed)
                entry["mc"] = {
                    "mean": est.mean,
                    "std_error": est.std_error,
                    "trials": est.trials,
                    "seed": est.seed,
                }
            reports.append(entry)
    return {"command": "expect", "reports": reports}, EXIT_PASS


def _cmd_smin(cfg: RunConfig) -> tuple[dict, int]:
    reports = []
    code = EXIT_PASS
    for G in _resolve_groups(cfg):
        if G.order < 2:
            raise UsageError("minimum connection size needs |G| >= 2")
        res = minimum_connection_size(G, budget=cfg.budget)
        entry = {
            "group": str(G),
            "status": res.status,
            "size": res.size,
            "lower": res.lower,
            "upper": res.upper,
            "witness_set": (
                [list(s) for s in res.witness_set] if res.witness_set else None
            ),
            "witness_cycle": (
                trail_to_json_dict(res.witness_cycle) if res.witness_cycle else None
            ),
        }
        if res.status == "interval":
            code = EXIT_INCONCLUSIVE
        reports.append(entry)
    return {"command": "smin", "reports": reports}, code


def _cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    _check_cap(cfg.cap)
    lo, hi = cfg.orders if cfg.orders else (3, 10)
    try:
        records = verify_orders(lo, hi, budget=cfg.budget,
                                threads=cfg.threads, cap=cfg.cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    summary = {"pass": 0, "fail": 0, "inconclusive": 0}
    for r in records:
        summary[r.verdict] += 1
    if summary["fail"]:
        code = EXIT_FAIL
    elif summary["inconclusive"]:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS
    return {
        "command": "verify",
        "orders": [lo, hi],
        "records": [r.to_json_dict() for r in records],
        "summary": summary,
    }, code


_COMMANDS = {
    "info": _cmd_info,
    "construct": _cmd_construct,
    "scan": _cmd_scan,
    "expect": _cmd_expect,
    "smin": _cmd_smin,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

# command -> (CSV header, payload key of the rows)
_CSV_TABLES = {
    "scan": (ExtremalReport.CSV_HEADER, "reports"),
    "verify": (VerificationRecord.CSV_HEADER, "records"),
}


def _render_csv(payload: dict) -> str:
    cmd = payload["command"]
    if cmd not in _CSV_TABLES:
        raise UsageError(f"csv output is not available for {cmd!r}")
    header, key = _CSV_TABLES[cmd]
    columns = header.split(",")
    lines = [header] + [",".join(str(row[c]) for c in columns) for row in payload[key]]
    return "\n".join(lines) + "\n"


def _render_text(payload: dict) -> str:
    lines: list[str] = []

    def emit(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    emit(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    emit(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}{v}")
        else:
            lines.append(f"{pad}{obj}")

    emit(payload)
    return "\n".join(lines) + "\n"


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(payload)
    if fmt == "text":
        return _render_text(payload)
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(cfg: RunConfig, out=None) -> int:
    """Execute a config and write the report; returns the exit status."""
    out = out if out is not None else sys.stdout
    cache_root = cfg.cache_path or os.environ.get(CACHE_ENV)
    key = cache_mod.cache_key(cfg.cache_payload()) if cache_root else None
    if key:
        hit = cache_mod.cache_get(cache_root, key)
        if hit is not None:
            out.write(hit["report"])
            return hit["exit_code"]
    try:
        payload, code = _COMMANDS[cfg.command](cfg)
        report = _render(payload, cfg.fmt)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out.write(report)
    if key:
        try:
            cache_mod.cache_put(cache_root, key, report, code)
        except OSError as exc:
            print(f"warning: cache not written: {exc}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamlabels",
        description=(
            "Hamiltonian cycles on finite abelian groups: constructions, "
            "exhaustive scans, exact expectations, and claim verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("info", "group structure report"),
        ("construct", "run a named cycle/path builder"),
        ("scan", "exhaustive extremal/mean label statistics"),
        ("expect", "exact expected distinct label counts"),
        ("smin", "minimum Hamiltonian connection-set size"),
        ("verify", "run all claim checks over an order range"),
    )}
    commands["construct"].add_argument("builder", choices=sorted(BUILDERS))

    def flag(readers: str, *names, **kwargs):
        """Declare one flag on each subcommand that reads it."""
        for command in readers.split():
            commands[command].add_argument(*names, **kwargs)

    flag("info construct scan expect smin", "--group", dest="groups",
         metavar="GROUP", action="append", default=[],
         help="group descriptor, e.g. 12 or 2x4 or Z2xZ6 (repeatable)")
    flag("info construct scan expect smin verify", "--orders", type=_parse_orders,
         help="order range A..B expanding to all abelian groups "
              "(verify: default 3..10)")
    flag("smin verify", "--budget", type=int, default=None,
         help="search budget in nodes (reproducible, not wall time)")
    flag("scan verify", "--threads", type=int, default=1,
         help="worker threads (wall time only, never output)")
    flag("scan verify", "--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
         help=f"enumeration cap on |G| for full scans (at most {MAX_CAP})")
    flag("expect", "--seed", type=int, default=0,
         help="seed for Monte Carlo sampling")
    flag("expect", "--mc-trials", dest="mc_trials", type=int, default=None,
         help="add a Monte Carlo estimate with this many trials")
    flag("expect", "--exact", action="store_true",
         help="exact values (always computed; flag kept for scripts)")
    every = " ".join(commands)
    flag(every, "--format", dest="fmt", default="json", choices=["json", "csv", "text"])
    flag(every, "--cache", dest="cache_path", default=None,
         help=f"report cache directory (or ${CACHE_ENV})")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig)
                        if f.name in given})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
